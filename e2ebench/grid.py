"""Grid phase: one pass of a cell set through ``ExperimentExecutor.run``.

Every pass starts cold.  The executor gets a fresh in-memory
:class:`~repro.experiments.store.CellStore`, and the same store is
installed as the process-wide one for the pass, because GBABS reference
ratios are cached through ``runner.get_store()`` and not through the
executor's store.  The previous process-wide store is restored afterwards.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import runner
from repro.experiments.config import QUICK
from repro.experiments.executor import CellSpec, ExperimentExecutor
from repro.experiments.store import CellStore

from checks import cell_digest, cell_name

__all__ = ["GridPass", "grid_specs", "prepare", "run_pass"]

#: The grid's experiment profile: 3-fold CV repeated twice, 15-tree ensembles.
PROFILE = QUICK


def grid_specs(cells, seed: int) -> list[CellSpec]:
    """Every cell of ``cells``, in an order drawn from ``seed``."""
    specs = [
        CellSpec(code=code, method=method, classifier=clf,
                 noise_ratio=cells.noise_ratio)
        for code in cells.datasets
        for method in cells.methods
        for clf in cells.classifiers
    ]
    order = np.random.default_rng(seed).permutation(len(specs))
    return [specs[i] for i in order]


def prepare(cells, seed: int, n_jobs: int) -> tuple[list[CellSpec], ExperimentExecutor]:
    """The grid's set-up: its specs and an executor on a fresh store."""
    specs = grid_specs(cells, seed)
    return specs, ExperimentExecutor(PROFILE, n_jobs=n_jobs, store=CellStore(None))


class GridPass:
    """What one pass produced: wall time, counters and per-cell digests."""

    def __init__(self, wall_s, stats, store_stats, digests, n_jobs):
        self.wall_s = wall_s
        self.stats = stats
        self.store_stats = store_stats
        self.digests = digests
        self.n_jobs = n_jobs

    @property
    def busy_frac(self) -> float:
        """Worker seconds over the pool's capacity (computed)."""
        busy = self.stats["payload_seconds"] + self.stats["fold_seconds"]
        return busy / (self.wall_s * self.n_jobs)


def run_pass(specs: list[CellSpec], n_jobs: int) -> GridPass:
    """One cold pass of ``specs``; the process-wide store is restored after."""
    store = CellStore(None)
    previous = runner.get_store()
    runner.configure_store(store=store)
    try:
        executor = ExperimentExecutor(PROFILE, n_jobs=n_jobs, store=store)
        start = time.perf_counter()
        results = executor.run(specs)
        wall = time.perf_counter() - start
    finally:
        runner.configure_store(store=previous)
    digests = {cell_name(s): cell_digest(r) for s, r in zip(specs, results)}
    return GridPass(wall, dict(executor.last_stats), dict(store.stats),
                    digests, n_jobs)
