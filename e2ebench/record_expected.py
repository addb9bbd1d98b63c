"""Re-record ``expected.json``, the reference the benchmark checks against.

Fits every pinned model of ``workloads.py`` and runs every cell set
serially (``n_jobs=1``) on a fresh in-memory store::

    python3 e2ebench/record_expected.py

Re-record only when the program's outputs are meant to change; the
benchmark refuses runs whose outputs differ from this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from repro.classifiers.gb_classifier import GranularBallClassifier
    from repro.datasets import load_dataset

    import grid
    from checks import EXPECTED_PATH, fit_record
    from workloads import CELL_SETS, MODELS

    fits = {}
    for model in MODELS.values():
        x, y = load_dataset(model.dataset, size_factor=model.size_factor,
                            random_state=model.data_seed)
        clf = GranularBallClassifier(rho=model.rho, random_state=model.model_seed).fit(x, y)
        record = fit_record(clf)
        fits[model.key] = {k: record[k] for k in ("n_balls", "digest")}
        print(f"{model.key}: {record['n_balls']} balls", file=sys.stderr)
    cells = {}
    for cell_set in CELL_SETS.values():
        result = grid.run_pass(grid.grid_specs(cell_set, seed=0), n_jobs=1)
        cells.update(result.digests)
        print(f"{cell_set.name}: {len(result.digests)} cells in {result.wall_s:.1f} s",
              file=sys.stderr)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"fits": fits, "cells": dict(sorted(cells.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
