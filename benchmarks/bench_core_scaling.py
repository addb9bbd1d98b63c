"""Microbenchmarks of the core algorithms (timed over multiple rounds).

These complement the table/figure regenerators: they time RD-GBG and GBABS
themselves (the paper claims linear-ish scaling, §IV-B3) and the sampling
baselines on a common workload.  Since the vectorised granulation engine
landed, RD-GBG is benchmarked on both backends so the legacy-vs-engine
speedup stays measurable from PR to PR.

Run as a script for the speedup report (written to
``benchmarks/output/core_scaling.txt``)::

    PYTHONPATH=src python benchmarks/bench_core_scaling.py
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --factors 0.01 --rounds 1

``--curve`` records the engine's scaling curve instead, from n ≈ 5k to the
full S10 and S11 surrogates over data seeds 0–4, into ``BENCH_core.json``
(median and IQR of the wall time over repeats, the per-phase split of one
extra timed run, prefix rows, ball count, orphan fraction, ``nproc``)::

    PYTHONPATH=src python benchmarks/bench_core_scaling.py --curve
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --curve \
        --points S10:0.05 S11:0.05 --seeds 0 --repeats 2
"""

import argparse
import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core import GBABS, RDGBG
from repro.core.engine import BallCenterIndex, CandidateScan
from repro.datasets import load_dataset
from repro.sampling import make_sampler

#: BENCH_core.json lives at the repository root beside BENCH_grid.json.
BENCH_JSON = Path(__file__).parent.parent / "BENCH_core.json"
#: ``--curve`` points (dataset, size factor), n from 4,755 to 58,000.
CURVE_POINTS = (
    "S10:0.25", "S11:0.1", "S10:0.5", "S11:0.25", "S10:1", "S11:0.5", "S11:1",
)
#: Largest n the legacy backend is timed on in ``--curve``: its full-pool
#: sort per candidate takes minutes per fit beyond this.
LEGACY_MAX_N = 6000
#: The engine layers a ``--curve`` point splits its time into.
PHASES = {
    "draw": (RDGBG, "_draw_candidates"),
    "scan": (CandidateScan, "__init__"),
    "prefix": (CandidateScan, "prefix"),
    "conflict": (BallCenterIndex, "conflict_radius"),
}


@pytest.fixture(scope="module")
def workload():
    x, y = load_dataset("S10", size_factor=0.1, random_state=0)
    return x, y


@pytest.mark.parametrize("backend", ["legacy", "engine"])
def test_bench_rdgbg_generate(benchmark, workload, backend):
    x, y = workload
    result = benchmark(
        lambda: RDGBG(rho=5, random_state=0, backend=backend).generate(x, y)
    )
    assert result.ball_set.is_partition()


def test_bench_gbabs_fit_resample(benchmark, workload):
    x, y = workload
    xs, _ = benchmark(lambda: GBABS(rho=5, random_state=0).fit_resample(x, y))
    assert 0 < xs.shape[0] <= x.shape[0]


@pytest.mark.parametrize("method", ["ggbs", "tomek", "sm"])
def test_bench_baseline_samplers(benchmark, workload, method):
    x, y = workload
    sampler_kwargs = {"random_state": 0} if method != "tomek" else {}
    xs, _ = benchmark(
        lambda: make_sampler(method, **sampler_kwargs).fit_resample(x, y)
    )
    assert xs.shape[0] > 0


@pytest.mark.parametrize("factor", [0.025, 0.05, 0.1])
def test_bench_rdgbg_scaling(benchmark, factor):
    """RD-GBG runtime across dataset sizes (linearity check, §IV-B3)."""
    x, y = load_dataset("S10", size_factor=factor, random_state=0)
    result = benchmark(lambda: RDGBG(rho=5, random_state=0).generate(x, y))
    assert result.ball_set.coverage() > 0.8


def test_bench_engine_speedup_smoke(workload):
    """Engine must beat legacy on the shared workload (and stay bit-exact)."""
    x, y = workload
    timings = _time_backends(x, y, rounds=2)
    assert timings["parity"]
    assert timings["engine"] < timings["legacy"]


# ----------------------------------------------------------------------
# script mode: legacy-vs-engine speedup report
# ----------------------------------------------------------------------


def _timed_fits(x, y, backend: str, repeats: int):
    """Wall time of each of ``repeats`` fits, and the last fit's result."""
    runs, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = RDGBG(rho=5, random_state=0, backend=backend).generate(x, y)
        runs.append(time.perf_counter() - start)
    return runs, result


def _same_balls(legacy, engine) -> bool:
    a, b = legacy.ball_set, engine.ball_set
    return bool(
        np.array_equal(a.radii, b.radii)
        and np.array_equal(a.member_indices, b.member_indices)
        and np.array_equal(legacy.noise_indices, engine.noise_indices)
    )


def _time_backends(x, y, rounds: int = 3) -> dict:
    """Best-of-``rounds`` wall time per backend plus a bit-parity check."""
    out: dict = {}
    results = {}
    for backend in ("legacy", "engine"):
        runs, results[backend] = _timed_fits(x, y, backend, rounds)
        out[backend] = min(runs)
    out["parity"] = _same_balls(results["legacy"], results["engine"])
    out["n_balls"] = len(results["legacy"].ball_set)
    return out


# ----------------------------------------------------------------------
# script mode: the engine's scaling curve (BENCH_core.json)
# ----------------------------------------------------------------------


@contextmanager
def _phase_timers():
    """Time every :data:`PHASES` call; yields seconds and prefix rows."""
    totals = dict.fromkeys(PHASES, 0.0)
    totals["prefix_rows"] = 0
    saved = []
    for phase, (owner, attr) in PHASES.items():
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        def timed(*args, _fn=fn, _phase=phase, **kwargs):
            start = time.perf_counter()
            result = _fn(*args, **kwargs)
            totals[_phase] += time.perf_counter() - start
            if _phase == "prefix":
                totals["prefix_rows"] += len(result[0])
            return result

        saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(timed) if static else timed)
    try:
        yield totals
    finally:
        for owner, attr, raw in saved:
            setattr(owner, attr, raw)


def _spread(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "runs": runs}


def curve_point(dataset: str, factor: float, seed: int, repeats: int) -> dict:
    """One point of the curve: data seed ``seed``, model seed 0, rho 5."""
    x, y = load_dataset(dataset, size_factor=factor, random_state=seed)
    runs, engine = _timed_fits(x, y, "engine", repeats)
    with _phase_timers() as totals:
        start = time.perf_counter()
        RDGBG(rho=5, random_state=0).generate(x, y)
        traced_s = time.perf_counter() - start
    phases = {phase: totals[phase] for phase in PHASES}
    phases["other"] = traced_s - sum(phases.values())
    point = {
        "dataset": dataset, "size_factor": factor, "n": int(x.shape[0]),
        "data_seed": seed, "engine_s": _spread(runs), "phases_s": phases,
        "prefix_rows": totals["prefix_rows"], "n_balls": len(engine.ball_set),
        "orphan_frac": float(np.mean(engine.ball_set.orphan_mask)),
        "legacy_s": None, "parity": None,
    }
    if x.shape[0] <= LEGACY_MAX_N:
        legacy_runs, legacy = _timed_fits(x, y, "legacy", repeats)
        point["legacy_s"] = _spread(legacy_runs)
        point["parity"] = _same_balls(legacy, engine)
    return point


def run_curve(points, seeds, repeats: int, out: Path) -> dict:
    """Measure every (point, seed), print a line each, write ``out``."""
    record = {
        "bench": "core_scaling_curve",
        "rho": 5, "model_seed": 0, "repeats": repeats,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "points": [],
    }
    print(f"{'dataset':>8s} {'n':>6s} {'seed':>4s} {'engine [s]':>10s} {'iqr':>6s} "
          f"{'prefix':>6s} {'rows':>9s} {'balls':>6s} {'orphan':>6s} {'legacy [s]':>10s}")
    for spec in points:
        dataset, factor = spec.split(":")
        for seed in seeds:
            p = curve_point(dataset, float(factor), seed, repeats)
            record["points"].append(p)
            legacy = "-" if p["legacy_s"] is None else f"{p['legacy_s']['median']:.2f}"
            print(f"{dataset:>8s} {p['n']:6d} {seed:4d} {p['engine_s']['median']:10.2f} "
                  f"{p['engine_s']['iqr']:6.2f} {p['phases_s']['prefix']:6.2f} "
                  f"{p['prefix_rows']:9d} {p['n_balls']:6d} {p['orphan_frac']:6.3f} "
                  f"{legacy:>10s}", flush=True)
            if p["parity"] is False:
                print("PARITY FAILURE: backends disagree — see engine tests")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"[curve saved to {out}]")
    return record


def test_curve_record_round_trip(tmp_path):
    record = run_curve(["S10:0.02"], [0], repeats=1, out=tmp_path / "BENCH_core.json")
    (point,) = json.loads((tmp_path / "BENCH_core.json").read_text())["points"]
    assert point["parity"] is True
    assert point["prefix_rows"] > 0 and point["n_balls"] > 0
    assert record["nproc"] >= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="RD-GBG backend speedup report")
    parser.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[0.05, 0.1, 0.25],
        help="S10 size factors to benchmark (largest last)",
    )
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail when the largest workload's speedup drops below this",
    )
    parser.add_argument("--curve", action="store_true",
                        help="record the engine's scaling curve into BENCH_core.json")
    parser.add_argument("--points", nargs="+", default=list(CURVE_POINTS),
                        help="--curve points as DATASET:SIZE_FACTOR")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                        help="--curve data seeds")
    parser.add_argument("--repeats", type=int, default=3,
                        help="--curve timed fits per point and backend")
    args = parser.parse_args(argv)

    if args.curve:
        record = run_curve(args.points, args.seeds, args.repeats, BENCH_JSON)
        return 0 if all(p["parity"] is not False for p in record["points"]) else 1

    lines = [
        "RD-GBG legacy vs engine backend (best of "
        f"{args.rounds}, S10 surrogate, rho=5, seed=0)",
        f"{'n':>7s} {'balls':>6s} {'legacy [s]':>11s} {'engine [s]':>11s} "
        f"{'speedup':>8s} {'parity':>7s}",
    ]
    last_speedup = None
    for factor in args.factors:
        x, y = load_dataset("S10", size_factor=factor, random_state=0)
        t = _time_backends(x, y, rounds=args.rounds)
        last_speedup = t["legacy"] / t["engine"]
        lines.append(
            f"{x.shape[0]:7d} {t['n_balls']:6d} {t['legacy']:11.3f} "
            f"{t['engine']:11.3f} {last_speedup:7.2f}x {str(t['parity']):>7s}"
        )
        if not t["parity"]:
            lines.append("PARITY FAILURE: backends disagree — see engine tests")
            print("\n".join(lines))
            return 1

    report = "\n".join(lines)
    print(report)
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "core_scaling.txt").write_text(report + "\n")
    print(f"[report saved to {out_dir / 'core_scaling.txt'}]")

    if args.min_speedup is not None and last_speedup < args.min_speedup:
        print(
            f"FAIL: speedup {last_speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x on the largest workload"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
