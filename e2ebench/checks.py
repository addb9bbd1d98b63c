"""Output digests and the recorded reference they are checked against.

``expected.json`` holds, for every pinned model, the ball count and a
digest of the fitted ball arrays, and for every grid cell a digest of its
:class:`~repro.evaluation.cross_validation.CVResult` from a serial pass on
a fresh store.  ``record_expected.py`` re-records it.  Parallel passes
must reproduce the serial digests bit for bit (the executor's parity
contract).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["EXPECTED_PATH", "array_digest", "cell_digest", "cell_name",
           "fit_record", "load_expected"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def array_digest(*arrays) -> str:
    """SHA-256 over dtype, shape and bytes of each array."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def fit_record(clf) -> dict:
    """Ball count, orphan share and array digest of a fitted classifier."""
    balls = clf.ball_set_
    return {
        "n_balls": int(clf.n_balls_),
        "orphan_frac": float(np.mean(balls.orphan_mask)),
        "digest": array_digest(balls.centers, balls.radii, balls.labels),
    }


def cell_name(spec) -> str:
    return f"{spec.code}/{spec.method}/{spec.classifier}/noise{spec.noise_ratio:g}"


def cell_digest(result) -> str:
    """Digest of every per-fold value of a CV result."""
    names = sorted(result.metric_values)
    h = hashlib.sha256(json.dumps([names, result.n_folds]).encode())
    h.update(array_digest(*(result.metric_values[n] for n in names),
                          result.sampling_ratios).encode())
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)
