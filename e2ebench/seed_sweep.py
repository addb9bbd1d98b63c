"""Seed-sweep record: RD-GBG wall time, ball count and orphan share for
data seeds 0-4 on the pinned surrogates of ``workloads.py``::

    python3 e2ebench/seed_sweep.py            # writes e2ebench/seed_sweep.json

The model seed stays pinned; only the surrogate's data seed moves.  The
record shows why the data seed belongs to a workload and not to
``--seed``: on the imbalanced S11 surrogate the same fit takes several
times longer on some seeds than on others.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

SEEDS = range(5)


def main() -> int:
    import numpy as np

    from repro.core.rdgbg import RDGBG
    from repro.datasets import load_dataset

    from workloads import MODELS

    rows = []
    for model in MODELS.values():
        for seed in SEEDS:
            x, y = load_dataset(model.dataset, size_factor=model.size_factor,
                                random_state=seed)
            start = time.perf_counter()
            result = RDGBG(rho=model.rho, random_state=model.model_seed).generate(x, y)
            seconds = time.perf_counter() - start
            balls = result.ball_set
            row = {
                "dataset": model.dataset, "size_factor": model.size_factor,
                "n_samples": int(x.shape[0]), "data_seed": seed,
                "model_seed": model.model_seed, "rho": model.rho,
                "rdgbg_s": round(seconds, 3), "n_balls": len(balls),
                "orphan_frac": round(float(np.mean(balls.orphan_mask)), 4),
            }
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    record = {
        "what": "RDGBG.generate on the pinned surrogates, one fit per data seed",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
    }
    with open(HERE / "seed_sweep.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
