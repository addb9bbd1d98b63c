"""The serving path must not load scipy.

``repro serve`` only maps an artifact and runs the numpy assign kernel, so
the KD-trees of the fitting code are imported where a tree is built, never
at module import.  Loading scipy costs a fresh ``serve`` process most of
its start-up time, so this test pins that the whole serve-side import
chain stays free of it.
"""

from __future__ import annotations

import json
import subprocess
import sys

from .test_server import _env

_CHILD = """
import json, sys
import numpy as np
import repro.cli
import repro.serving.server
from repro.serving import FrozenPredictor

with FrozenPredictor.load(sys.argv[1]) as predictor:
    labels = predictor.predict(np.asarray(json.loads(sys.argv[2]))).tolist()
print(json.dumps({
    "labels": labels,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_serve_imports_and_predicts_without_scipy(fitted_clf, artifact_path, queries):
    probe = queries[:16]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(artifact_path), json.dumps(probe.tolist())],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["labels"] == fitted_clf.predict(probe).tolist()
    assert out["scipy"] == []
