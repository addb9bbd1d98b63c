"""Benchmark entry point: one workload, one run, one result line.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload grid-quick --seed 1 --seconds 20 --trace 0

A run drives the program's public entry points from outside, in this
order (see ``workloads.py`` and ``README.md``):

1. several rounds of
   - **set-up**: generate the pinned surrogate,
     ``GranularBallClassifier.fit``, ``freeze``, spawn ``repro serve``,
     get the first answer; build the grid specs and an
     ``ExperimentExecutor``;
   - a **grid** pass through ``ExperimentExecutor.run`` on a fresh store;
2. **serving** through ``PredictClient`` on the last round's server: a
   closed loop, then an open loop (with artifact re-freezes and
   ``POST /admin/reload`` where the workload asks for them).

Every output is checked: fitted balls and grid cells against
``expected.json``, every served answer against ``FrozenPredictor`` run in
this process.  The line before the last is the full record (environment,
phases, counts); the last line is the result:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The exit code is 0 only when every check passed; an interrupted
run (SIGINT, SIGTERM, deadline) prints no result and exits 3, and a
directory without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Bytecode cache and per-run scratch directories, inside the checkout.
BUILD = ROOT / ".bench_build"
#: Where a traced run writes its spans (JSON lines) when it ends.
SPANS = BUILD / "spans"
#: Thread-count settings of the BLAS builds numpy may load.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A run that is still going after DEADLINE_BASE_S plus DEADLINE_PER_S
#: times ``--seconds`` is interrupted: the serving loops scale with
#: ``--seconds``, set-ups and grid passes do not (about 35 s together).
#: With the unwinding it allows, a 20-second run ends within 165 s.
DEADLINE_BASE_S = 90.0
DEADLINE_PER_S = 3.0
#: Set-ups and grid passes per run; the metrics are their medians.
REPEATS = 3
#: Which set-ups and grid passes of a traced run are traced.  The traced
#: one is compared with the untraced one after it (both warm) for
#: ``trace.overhead_s``.
TRACED_ORDER = [False, True, False]
#: Distinct requests per run; the loops cycle through them.
N_REQUESTS = {1: 4096, 64: 256}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured serving time; grid passes and set-up come on top")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_sources() -> dict | None:
    """Import ``repro`` from this checkout; returns the child environment.

    ``None`` when the checkout holds no program sources.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    pycache = BUILD / "pycache"
    sys.pycache_prefix = str(pycache)
    sys.path.insert(0, str(SRC))
    # Every CPU already runs a process of the run (the load and the server,
    # or the pool workers), so BLAS threads would only oversubscribe them;
    # with OpenBLAS's spin-waiting that made single calls up to ten times
    # slower whenever a sibling thread was descheduled.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The process-wide cell store must never fall back to the checkout's
    # benchmarks/output/cellstore; grid passes install their own stores.
    os.environ["REPRO_CELLSTORE"] = "off"
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(pycache))
    return env


def _blas_threads():
    """Threads the loaded OpenBLAS will use, when it can be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _source_identity() -> dict:
    """The commit if this is a git checkout, and a digest of ``src`` either way."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"commit": commit, "src_sha256": h.hexdigest()}


def environment(nproc: int, loadavg) -> dict:
    import numpy as np

    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_source_identity(),
        "loadavg_at_start": list(loadavg),
    }


class Run:
    """One workload run: the phases in order, with their checks."""

    def __init__(self, args, guard, env):
        from checks import load_expected
        from workloads import WORKLOADS

        self.args = args
        self.guard = guard
        self.env = env
        self.wl = WORKLOADS[args.workload]
        self.nproc = len(os.sched_getaffinity(0))
        self.expected = load_expected()
        self.problems: list[str] = []
        self.checks = 0
        self.tracer = None

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.problems.append(what)
            print(f"e2ebench: check failed: {what}", file=sys.stderr)

    @staticmethod
    def progress(phase: str) -> None:
        print(f"e2ebench: {phase}", file=sys.stderr, flush=True)

    def _span(self, traced: bool):
        if traced:
            return self.tracer.span
        return lambda _name, fn, *a, **k: fn(*a, **k)

    # -- phases ---------------------------------------------------------

    def inputs(self):
        """The benchmark's own inputs, drawn from ``--seed``."""
        from repro.datasets import load_dataset

        import serve

        model = self.wl.model
        x, _ = load_dataset(model.dataset, size_factor=model.size_factor,
                            random_state=model.data_seed)
        self.requests = serve.make_requests(x, self.wl.rows, N_REQUESTS[self.wl.rows],
                                            self.args.seed)

    def set_up_once(self, k: int, traced: bool):
        """One freeze-to-first-answer plus grid set-up, checked.

        Returns the running server and the seconds the set-up took.
        """
        import grid
        import layers
        import serve
        from checks import fit_record

        span = self._span(traced)
        if traced:
            layers.install(self.tracer)
        try:
            start = time.perf_counter()
            server = serve.set_up(self.wl.model, self.guard.tmp / f"setup{k}",
                                  self.guard, self.env, self.requests[0],
                                  self.wl.binary, span)
            self.specs, _executor = span("setup.grid", grid.prepare, self.wl.cells,
                                         self.args.seed, self.nproc)
            seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.restore()
        self.fit = fit_record(server.clf)
        want = self.expected["fits"][self.wl.model.key]
        self.check(self.fit["n_balls"] == want["n_balls"]
                   and self.fit["digest"] == want["digest"],
                   f"fit {self.wl.model.key}: {self.fit} != {want}")
        first = serve.expected_labels(server.artifact, self.requests[:1])[0]
        self.check(server.phases["first_answer"] == first,
                   f"first answer {server.phases['first_answer']} != {first}")
        return server, seconds

    def rounds(self) -> tuple[dict, dict]:
        """Set-up and a grid pass, repeated; the last server stays up for
        the load phases.

        Each set-up is followed by its grid pass, so the medians sample
        the host at several points of the run: a shared host's speed
        drifts over tens of seconds, and consecutive passes all catch the
        same drift.
        """
        order = TRACED_ORDER if self.args.trace else [False] * REPEATS
        seconds, phases, passes = [], [], []
        self.server = None
        for k, traced in enumerate(order):
            self.progress(f"set-up {k + 1}/{len(order)}")
            if self.server is not None:
                self.guard.stop(self.server.proc)
            self.server, s = self.set_up_once(k, traced)
            seconds.append(s)
            phases.append({key: v for key, v in self.server.phases.items()
                           if key.endswith("_s")})
            self.progress(f"grid pass {k + 1}/{len(order)}")
            passes.append(self.grid_pass(k, traced))
        return ({"seconds": seconds, "phases": phases, "traced": order},
                {"passes": passes, "traced": order})

    def serve(self) -> dict:
        import serve
        from guard import peak_rss_mb

        wl, server = self.wl, self.server
        port, binary = server.port, wl.binary
        expected = serve.expected_labels(server.artifact, self.requests)
        in_memory = [server.clf.predict(r).tolist() for r in self.requests]
        self.check(expected == in_memory,
                   "FrozenPredictor and GranularBallClassifier.predict disagree")
        open_s = (1.0 - wl.closed_share) * self.args.seconds
        arrivals = serve.poisson_arrivals(wl.rate_rps, open_s, self.args.seed)
        reload = None
        if wl.reload_every_s:
            reload = serve.reloader(
                port, lambda: server.clf.freeze(server.artifact), wl.reload_every_s)
        before = asyncio.run(serve.healthz(port))
        with self.guard.cpus_awake(), serve.gc_paused():
            self.progress("serve: closed loop")
            closed = asyncio.run(serve.closed_loop(
                port, binary, self.requests, expected,
                wl.closed_share * self.args.seconds, self.nproc))
            self.progress("serve: open loop")
            opened = asyncio.run(serve.open_loop(
                port, binary, self.requests, expected, arrivals, self.nproc, reload))
        after = asyncio.run(serve.healthz(port))
        server_rss = peak_rss_mb(server.proc.pid)
        self.guard.stop(server.proc)

        for name, phase in (("closed", closed), ("open", opened)):
            self.check(phase["wrong"] == 0, f"{phase['wrong']} wrong answers in the {name} loop")
        reloads = opened["reloads"] or {"round_trips_s": [], "statuses": [], "failed": 0}
        stats0, stats1 = before["stats"], after["stats"]
        batches = stats1["batch"]["n_batches"] - stats0["batch"]["n_batches"]
        rows = stats1["batch"]["n_rows"] - stats0["batch"]["n_rows"]
        admission = {k: stats1["admission"][k] - stats0["admission"][k]
                     for k in ("n_shed", "n_timeouts", "n_errors")}
        generations = after["generation"] - before["generation"]
        self.check(generations == len(reloads["statuses"]),
                   f"{generations} generations for {len(reloads['statuses'])} reloads")
        attempted = closed["attempted"] + opened["attempted"] + len(reloads["statuses"])
        failed = (closed["failed"] + closed["wrong"] + opened["failed"]
                  + opened["wrong"] + reloads["failed"])
        return {
            "closed": closed, "open": {k: v for k, v in opened.items() if k != "reloads"},
            "reloads": reloads, "batches": batches,
            "batch_mean_rows": rows / batches if batches else 0.0,
            "admission": admission, "generations": generations,
            "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "server_peak_rss_mb": server_rss,
            "expected": expected,
        }

    def grid_pass(self, p: int, traced: bool):
        """One grid pass on a fresh store, its cells checked."""
        import grid
        import layers

        if traced:
            layers.install(self.tracer)
        try:
            result = grid.run_pass(self.specs, self.nproc)
        finally:
            if traced:
                self.tracer.restore()
                self.tracer.collect_workers()
        want = self.expected["cells"]
        wrong = [name for name, d in result.digests.items() if want.get(name) != d]
        self.check(not wrong, f"grid pass {p + 1}: cells differ from the reference: {wrong}")
        return result

    # -- the result -----------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        from guard import peak_rss_mb
        from tracing import Tracer

        if self.args.trace:
            self.tracer = Tracer(self.guard.tmp)
        self.inputs()
        setup, gridded = self.rounds()
        served = self.serve()
        passes = gridded["passes"]
        rss = {
            "server": served["server_peak_rss_mb"],
            "grid": max(peak_rss_mb("self"), resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0),
        }
        opened, closed = served["open"], served["closed"]

        if not self.args.trace:
            metrics = {
                "setup_s": (statistics.median(setup["seconds"]), "s"),
                "serve.rps": (closed["rps"], "1/s"),
                "serve.p50_ms": (opened["p50_ms"], "ms"),
                "grid.wall_s": (statistics.median(p.wall_s for p in passes), "s"),
                "peak_rss_mb": (rss[self.wl.peak_rss_of], "MiB"),
            }
        else:
            metrics = self.layer_metrics(setup, served, gridded)
        record = {
            "workload": self.wl.name, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "setup": setup,
            "serve": {k: v for k, v in served.items() if k != "expected"},
            "grid": {"wall_s": [p.wall_s for p in passes],
                     "stats": [p.stats for p in passes],
                     "store": [p.store_stats for p in passes],
                     "n_cells": len(self.specs), "n_jobs": self.nproc,
                     "traced": gridded["traced"]},
            "fit": self.fit, "peak_rss_mb": rss,
            "checks": self.checks, "problems": self.problems,
        }
        if self.tracer is not None:
            record["spans"] = self.tracer.totals()
            SPANS.mkdir(parents=True, exist_ok=True)
            path = SPANS / f"{self.wl.name}-seed{self.args.seed}.jsonl"
            self.tracer.write(path)
            record["spans_file"] = str(path.relative_to(ROOT))
        attempted = served["attempted"] + self.checks
        failed = served["failed"] + len(self.problems)
        result = {
            "correct": not self.problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        return record, result

    def layer_metrics(self, setup, served, gridded) -> dict:
        import layers
        import serve

        wl = self.wl
        totals = self.tracer.totals()
        traced = TRACED_ORDER.index(True)
        setup_traced = setup["phases"][traced]
        pass_traced, pass_plain = gridded["passes"][traced:traced + 2]
        overhead = (setup["seconds"][traced] - setup["seconds"][traced + 1]
                    + pass_traced.wall_s - pass_plain.wall_s)

        kernel = serve.kernel_us(self.server.artifact, self.requests)
        json_codec = serve.codec_us(self.requests, served["expected"], binary=False)
        wire_codec = serve.codec_us(self.requests, served["expected"], binary=True)
        codec = wire_codec if wl.binary else json_codec
        reload_s = served["reloads"]["round_trips_s"]
        stats = pass_plain.stats
        out = {
            **{k: (v, "s" if k.endswith("_s") else "count")
               for k, v in layers.core_metrics(totals).items()},
            "core.n_balls": (self.fit["n_balls"], "count"),
            "core.orphan_frac": (self.fit["orphan_frac"], "frac"),
            "serving.artifact.freeze_s": (setup_traced["freeze_s"], "s"),
            "serving.spawn_ready_s": (setup_traced["spawn_ready_s"], "s"),
            "serving.first_answer_ms": (setup_traced["first_answer_s"] * 1e3, "ms"),
            "serving.predictor.kernel_us": (kernel, "us"),
            "serving.json.decode_us": (json_codec["decode_us"], "us"),
            "serving.json.encode_us": (json_codec["encode_us"], "us"),
            "serving.wire.decode_us": (wire_codec["decode_us"], "us"),
            "serving.wire.encode_us": (wire_codec["encode_us"], "us"),
            "serving.batch.mean_rows": (served["batch_mean_rows"], "rows"),
            "serving.batch.batches": (served["batches"], "count"),
            "serving.server.shed": (served["admission"]["n_shed"], "count"),
            "serving.server.timeouts": (served["admission"]["n_timeouts"], "count"),
            "serving.server.errors": (served["admission"]["n_errors"], "count"),
            "serving.manager.reload_ms": (
                statistics.median(reload_s) * 1e3 if reload_s else 0.0, "ms"),
            "serving.manager.reloads": (served["generations"], "count"),
            "serving.unexplained_ms": (
                served["open"]["p50_ms"]
                - (kernel + codec["decode_us"] + codec["encode_us"]) / 1e3, "ms"),
            "serve.p99_ms": (served["open"]["p99_ms"], "ms"),
            "serve.fail_frac": (served["fail_frac"], "frac"),
            "experiments.executor.payload_s": (stats["payload_seconds"], "s"),
            "experiments.executor.fold_s": (stats["fold_seconds"], "s"),
            "experiments.executor.plane_bytes": (stats["plane_bytes"], "bytes"),
            "experiments.executor.task_bytes": (stats["task_bytes"], "bytes"),
            "experiments.executor.n_fold_tasks": (stats["n_fold_tasks"], "count"),
            "experiments.pool_busy_frac": (pass_plain.busy_frac, "frac"),
            "experiments.store.puts": (pass_plain.store_stats["puts"], "count"),
            "experiments.store.hits": (pass_plain.store_stats["hits"], "count"),
            **{k: (v, "s") for k, v in layers.eval_metrics(totals).items()},
            "trace.overhead_s": (overhead, "s"),
        }
        return out


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    env = use_checkout_sources()
    if env is None:
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from guard import INTERRUPTED_EXIT, Interrupted, RunGuard
    from repro.experiments.data_plane import SharedArrayPlane

    guard = RunGuard(BUILD / "runs", DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds)
    guard.install()
    guard.track_segments(SharedArrayPlane)
    try:
        run = Run(args, guard, env)
        record, result = run.execute()
    except Interrupted as exc:
        print(f"e2ebench: interrupted by {exc}", file=sys.stderr)
        return INTERRUPTED_EXIT
    finally:
        cleanup = guard.close()
    record["environment"] = environment(run.nproc, loadavg)
    record["cleanup"] = cleanup
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
