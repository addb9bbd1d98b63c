"""The benchmark's workloads: pinned models, traffic shapes and cell sets.

Every run drives the same three entry points in the same order: set-up
(fit, ``freeze``, spawn ``repro serve``, first answer; grid specs and
executor), serving through ``PredictClient`` (closed loop, then open
loop), and grid passes through ``ExperimentExecutor.run``.  A workload
chooses the inputs of each: which phase carries the weight and which one
only runs a small fixed companion, so every end-to-end metric is measured
on every workload.

The data and model seeds are part of a workload, not of ``--seed``: RD-GBG
wall time on the imbalanced surrogates moves several-fold with the data
seed (``seed_sweep.json``), so a ``--seed`` that redrew the data would
measure a different problem on every run.  ``--seed`` draws the query
rows, the arrival schedule and the order of the grid specs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Model", "CellSet", "Workload", "WORKLOADS", "MODELS", "CELL_SETS"]


@dataclass(frozen=True)
class Model:
    """A pinned surrogate and the classifier fitted on it."""

    dataset: str
    size_factor: float
    data_seed: int = 0
    model_seed: int = 0
    rho: int = 5

    @property
    def key(self) -> str:
        return (f"{self.dataset}x{self.size_factor:g}/data{self.data_seed}"
                f"/model{self.model_seed}/rho{self.rho}")


@dataclass(frozen=True)
class CellSet:
    """Grid cells: every dataset x method x classifier at one noise ratio."""

    name: str
    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    classifiers: tuple[str, ...]
    noise_ratio: float = 0.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix over the whole stack.

    ``closed_share`` is the fraction of ``--seconds`` spent in the closed
    serving loop, the rest goes to the open loop; ``rate_rps`` is the
    open loop's fixed Poisson arrival rate, under half of the lowest
    closed-loop capacity seen when the workload was defined (at half of
    the usual capacity, queueing behind the host's scheduling stalls made
    p50 swing by more than its bound whenever capacity dipped).
    ``peak_rss_of``
    names the processes whose peak resident set is ``peak_rss_mb``:
    ``"server"`` for the serving process, ``"grid"`` for this process (the
    executor's parent, which also fits) and its pool workers.
    """

    name: str
    why: str
    model: Model
    rows: int
    binary: bool
    rate_rps: float
    closed_share: float
    cells: CellSet
    peak_rss_of: str = "server"
    reload_every_s: float | None = None


MODELS = {
    "s5": Model("S5", 1.0),
    "s11": Model("S11", 0.25),
}

CELL_SETS = {
    # Table II methods x Table IV classifiers on two surrogates: 40 cells,
    # 240 folds under the QUICK profile.
    "quick": CellSet(
        "quick", ("S3", "S5"),
        ("gbabs", "ggbs", "srs", "ori"),
        ("dt", "xgboost", "lightgbm", "knn", "rf"),
    ),
    # The companion grid of serve-s11-binary: 18 cells, 108 folds, still
    # through payload tasks (srs needs its GBABS reference ratio).  Half
    # this size, pass times moved by a fifth between runs.
    "mini": CellSet("mini", ("S3", "S5"), ("gbabs", "srs", "ori"), ("dt", "knn", "rf")),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve-s11-binary",
            why="S11x0.25 model, 64-row binary frames, re-freeze and reload "
                "every 3 s: the kernel and RD-GBG set-up dominate; 80 req/s "
                "open loop; companion grid",
            model=MODELS["s11"], rows=64, binary=True, rate_rps=80.0,
            closed_share=0.2,
            cells=CELL_SETS["mini"], reload_every_s=3.0,
        ),
        Workload(
            name="grid-quick",
            why="QUICK grid, Table II x Table IV on S3 and S5 (40 cells, "
                "240 folds), and S5 1-row JSON serving at 200 req/s open loop",
            model=MODELS["s5"], rows=1, binary=False, rate_rps=200.0,
            closed_share=0.25,
            cells=CELL_SETS["quick"], peak_rss_of="grid",
        ),
    )
}
