"""Serving phase: freeze to first answer, then closed and open loops.

Load comes from this one process: ``n_conns`` keep-alive
:class:`~repro.serving.client.PredictClient` connections (``retries=0``,
so a 503 shed is a failure and not hidden by a retry) plus one admin
connection for ``/healthz`` and ``/admin/reload``.

* **Closed loop**: each connection sends its next request as soon as the
  previous one is answered; ``rps`` counts answered, correct requests.
* **Open loop**: requests are due on a seeded Poisson schedule at a fixed
  rate and go out on whichever connection is free.  Latency runs from the
  time a request was *due*, so a stall also charges the requests queued
  behind it; a failed request is charged :data:`REQUEST_TIMEOUT_S`.
  ``p50_ms`` is the median of all requests; ``p99_ms`` is the median over
  consecutive windows of at least :data:`WINDOW_SAMPLES` requests of each
  window's 99th percentile.

Every answer is compared with the labels :class:`FrozenPredictor` gives
in this process for the same rows from the same artifact.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import re
import select
import statistics
import sys
import time

import numpy as np

from repro.classifiers.gb_classifier import GranularBallClassifier
from repro.datasets import load_dataset
from repro.serving import FrozenPredictor, server, wire
from repro.serving.client import PredictClient, PredictError

__all__ = ["REQUEST_TIMEOUT_S", "Server", "closed_loop", "codec_us",
           "gc_paused", "kernel_us", "make_requests", "open_loop", "percentile",
           "poisson_arrivals", "set_up"]

#: Client-side deadline of one request; also what a failed request costs
#: in the open loop's latency figures.
REQUEST_TIMEOUT_S = 2.0
#: The open loop's p99 is taken per window of at least this many
#: requests (ten beyond the 99th percentile), at most MAX_WINDOWS windows.
WINDOW_SAMPLES = 1000
MAX_WINDOWS = 5
#: The closed loop's rps is the median over windows of this many seconds,
#: after a warm-up of CLOSED_WARMUP_S seconds that is not counted.
CLOSED_WINDOW_S = 1.0
CLOSED_WARMUP_S = 0.5
#: Longest wait for a spawned server's banner.
SPAWN_TIMEOUT_S = 60.0
HOST = "127.0.0.1"

#: What a failed request raises; OSError covers refused and reset
#: connections and the client-side deadline (TimeoutError).
_FAILURES = (PredictError, OSError, asyncio.IncompleteReadError)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def make_requests(x: np.ndarray, rows: int, n_requests: int, seed: int) -> list[np.ndarray]:
    """Query batches drawn from ``seed``: training rows plus small noise."""
    rng = np.random.default_rng(seed)
    scale = 0.05 * x.std(axis=0)
    picks = rng.integers(0, x.shape[0], size=(n_requests, rows))
    return [x[p] + rng.normal(0.0, 1.0, size=(rows, x.shape[1])) * scale
            for p in picks]


def poisson_arrivals(rate: float, duration: float, seed: int) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process over ``duration``."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    arrivals = np.cumsum(gaps)
    return arrivals[arrivals < duration]


def expected_labels(artifact, requests) -> list[list[int]]:
    """What the frozen model answers in this process, request by request."""
    with FrozenPredictor.load(artifact) as predictor:
        return [predictor.predict(r).tolist() for r in requests]


def percentile(values, q: float) -> tuple[float, float]:
    """The ``q`` quantile, or the highest one with ten samples beyond it.

    Returns ``(value, quantile used)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(q * n), n - 10)
    if rank < 1:
        raise ValueError(f"{n} samples cannot give a quantile with ten beyond it")
    return ordered[rank - 1], rank / n


@contextlib.contextmanager
def gc_paused():
    """Keep this process's cyclic garbage collector out of a load loop.

    The benchmark holds thousands of request arrays and answer lists; a
    full collection over them would stall the load generator, and the
    open loop would charge the stall to the server.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# set-up: freeze to first answer
# ----------------------------------------------------------------------


class Server:
    """A running ``repro serve`` child and the model it serves."""

    def __init__(self, proc, port, clf, artifact, phases):
        self.proc = proc
        self.port = port
        self.clf = clf
        self.artifact = artifact
        self.phases = phases


def _await_port(proc, timeout: float) -> int:
    """Read the server's banner line and return the port it bound."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("repro serve printed no banner in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"repro serve exited with {proc.wait()}")
            buf += chunk
    match = re.search(rb"http://[^:\s]+:(\d+)", buf)
    if match is None:
        raise RuntimeError(f"unexpected repro serve banner {buf!r}")
    return int(match.group(1))


async def _predict_once(port: int, request, binary: bool):
    client = await PredictClient.connect(HOST, port, retries=0, binary=binary)
    try:
        return await asyncio.wait_for(client.predict(request), REQUEST_TIMEOUT_S)
    finally:
        await client.close()


def set_up(model, run_dir, guard, env, first_request, binary: bool, span) -> Server:
    """Generate the surrogate, fit, freeze, spawn, and get the first answer.

    ``span(name, fn, *args)`` calls ``fn`` and records it (a tracer's
    :meth:`~tracing.Tracer.span`, or a plain call).  Returns the running
    server; ``phases`` holds each step's seconds and the first answer.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    artifact = run_dir / "model.gba"
    phases = {}
    t0 = time.perf_counter()
    x, y = span("setup.data", load_dataset, model.dataset,
                size_factor=model.size_factor, random_state=model.data_seed)
    t1 = time.perf_counter()
    clf = GranularBallClassifier(rho=model.rho, random_state=model.model_seed)
    span("setup.fit", clf.fit, x, y)
    t2 = time.perf_counter()
    span("serving.artifact.freeze", clf.freeze, artifact)
    t3 = time.perf_counter()
    argv = [sys.executable, "-m", "repro.cli", "serve", str(artifact),
            "--host", HOST, "--port", "0", "--no-reload"]
    proc = guard.spawn(argv, env, run_dir)
    port = span("serving.spawn_ready", _await_port, proc, SPAWN_TIMEOUT_S)
    t4 = time.perf_counter()
    answer = span("serving.first_answer", asyncio.run,
                  _predict_once(port, first_request, binary))
    t5 = time.perf_counter()
    phases.update(data_s=t1 - t0, fit_s=t2 - t1, freeze_s=t3 - t2,
                  spawn_ready_s=t4 - t3, first_answer_s=t5 - t4,
                  total_s=t5 - t0, first_answer=answer)
    return Server(proc, port, clf, artifact, phases)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------


class _Tally:
    def __init__(self):
        self.attempted = self.ok = self.wrong = 0
        self.failures: dict[str, int] = {}

    def fail(self, exc) -> None:
        kind = (f"http{exc.status}" if isinstance(exc, PredictError)
                else type(exc).__name__)
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "ok": self.ok,
                "wrong": self.wrong, "failed": self.failed,
                "failures": dict(self.failures)}


async def _connect(port: int, binary: bool) -> PredictClient:
    return await PredictClient.connect(HOST, port, retries=0, binary=binary)


async def _send(client, port, binary, request, expected, tally):
    """One checked request; returns ``(client to use next, answered ok)``."""
    tally.attempted += 1
    try:
        labels = await asyncio.wait_for(client.predict(request), REQUEST_TIMEOUT_S)
    except _FAILURES as exc:
        tally.fail(exc)
        # The socket may hold half a response; start a clean connection.
        await client.close()
        return await _connect(port, binary), False
    if labels != expected:
        tally.wrong += 1
        return client, False
    tally.ok += 1
    return client, True


async def closed_loop(port, binary, requests, expected, duration, n_conns) -> dict:
    """Back-to-back requests on ``n_conns`` connections.

    After :data:`CLOSED_WARMUP_S` seconds (not counted), ``duration``
    seconds are cut into :data:`CLOSED_WINDOW_S` windows; ``rps`` is the
    median over the windows of
    answered, correct requests per second, so a few seconds of contention
    from outside the run move it less than they move the plain average.
    """
    tally = _Tally()
    clients = [await _connect(port, binary) for _ in range(n_conns)]
    next_request = 0
    answered: list[float] = []

    async def drive(k: int, stop: float):
        nonlocal next_request
        client = clients[k]
        while time.perf_counter() < stop:
            i = next_request % len(requests)
            next_request += 1
            client, ok = await _send(client, port, binary, requests[i],
                                     expected[i], tally)
            if ok:
                answered.append(time.perf_counter())
        clients[k] = client

    n_windows = max(1, round(duration / CLOSED_WINDOW_S))
    start = time.perf_counter() + CLOSED_WARMUP_S
    stop = start + n_windows * CLOSED_WINDOW_S
    await asyncio.gather(*(drive(k, stop) for k in range(n_conns)))
    for client in clients:
        await client.close()
    offsets = np.asarray(answered) - start
    counts = np.bincount((offsets[(offsets >= 0) & (offsets < stop - start)]
                          // CLOSED_WINDOW_S).astype(int), minlength=n_windows)
    window_rps = (counts / CLOSED_WINDOW_S).tolist()
    return {**tally.as_dict(), "window_rps": window_rps,
            "rps": statistics.median(window_rps)}


async def open_loop(port, binary, requests, expected, arrivals, n_conns,
                    reload=None) -> dict:
    """Requests due at ``arrivals`` (offsets in s), on ``n_conns`` connections.

    ``reload``, if given, is a coroutine function run beside the load with
    the loop's end time; its result is returned under ``"reloads"``.
    """
    tally = _Tally()
    clients = [await _connect(port, binary) for _ in range(n_conns)]
    n = len(arrivals)
    latency = [0.0] * n
    late = [0.0] * n
    next_due = 0
    start = time.perf_counter() + 0.05
    due = start + np.asarray(arrivals)

    async def drive(k: int):
        nonlocal next_due
        client = clients[k]
        while next_due < n:
            j = next_due
            next_due += 1
            wait = due[j] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            late[j] = time.perf_counter() - due[j]
            i = j % len(requests)
            client, ok = await _send(client, port, binary, requests[i],
                                     expected[i], tally)
            latency[j] = (time.perf_counter() - due[j]) if ok else REQUEST_TIMEOUT_S
        clients[k] = client

    tasks = [drive(k) for k in range(n_conns)]
    if reload is not None:
        tasks.append(reload(float(due[-1])))
    results = await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - start
    for client in clients:
        await client.close()
    # p99 per window of at least WINDOW_SAMPLES requests, then the median
    # over windows: one stall of the host moves one window, not the run.
    n_windows = max(1, min(MAX_WINDOWS, n // WINDOW_SAMPLES))
    windows = [percentile(part, 0.99) for part in np.array_split(latency, n_windows)]
    return {
        **tally.as_dict(), "elapsed_s": elapsed, "n_samples": n,
        "rate_rps": n / float(arrivals[-1]) if n else 0.0,
        "p50_ms": statistics.median(latency) * 1e3,
        "p99_ms": statistics.median(v for v, _q in windows) * 1e3,
        "window_p99_ms": [v * 1e3 for v, _q in windows],
        "window_p99_quantile": [q for _v, q in windows],
        "late_p50_ms": statistics.median(late) * 1e3,
        "late_max_ms": max(late) * 1e3,
        "reloads": results[-1] if reload is not None else None,
    }


def reloader(port: int, republish, every: float):
    """Coroutine function: republish the artifact and ``POST /admin/reload``
    every ``every`` seconds until the open loop's end.

    ``republish`` runs in a worker thread, so the artifact write overlaps
    the load and never holds up the sending of requests.
    """

    async def run(stop: float) -> dict:
        admin = await PredictClient.connect(HOST, port, retries=0)
        round_trips, statuses = [], []
        try:
            while time.perf_counter() + every < stop:
                await asyncio.sleep(every)
                await asyncio.to_thread(republish)
                start = time.perf_counter()
                status, entry = await asyncio.wait_for(
                    admin.reload(), REQUEST_TIMEOUT_S * 5)
                round_trips.append(time.perf_counter() - start)
                statuses.append(entry.get("status") if status == 200 else status)
        finally:
            await admin.close()
        return {"round_trips_s": round_trips, "statuses": statuses,
                "failed": sum(1 for s in statuses if s != "swapped")}

    return run


async def healthz(port: int) -> dict:
    client = await PredictClient.connect(HOST, port, retries=0)
    try:
        return await asyncio.wait_for(client.healthz(), REQUEST_TIMEOUT_S)
    finally:
        await client.close()


# ----------------------------------------------------------------------
# in-process layer timings
# ----------------------------------------------------------------------


def _median_us(fn, items) -> float:
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def kernel_us(artifact, requests) -> float:
    """Median ``FrozenPredictor.predict`` time on the request shape."""
    with FrozenPredictor.load(artifact) as predictor:
        predictor.predict(requests[0])
        return _median_us(predictor.predict, requests)


def codec_us(requests, labels, binary: bool) -> dict:
    """Median server-side decode and encode times for these requests.

    Encoding builds the whole HTTP response through the server's own
    ``_response`` (JSON) or ``_raw_response`` over
    :func:`~repro.serving.wire.encode_response` (binary).  Binary decoding
    is :func:`~repro.serving.wire.decode_request`; JSON decoding is inline
    in the server's predict handler, so it is timed on a copy of that code
    (``json.loads`` and ``np.asarray``) and does not follow a change there.
    """
    answers = [np.asarray(a, dtype=np.intp) for a in labels]
    if binary:
        bodies = [wire.encode_request(r) for r in requests]
        return {
            "decode_us": _median_us(wire.decode_request, bodies),
            "encode_us": _median_us(
                lambda a: server._raw_response(
                    200, "OK", wire.encode_response(a), wire.WIRE_CONTENT_TYPE, True),
                answers),
        }
    bodies = [json.dumps({"x": r.tolist()}).encode() for r in requests]
    return {
        "decode_us": _median_us(
            lambda b: np.asarray(json.loads(b.decode("utf-8"))["x"],
                                 dtype=np.float64), bodies),
        "encode_us": _median_us(
            lambda a: server._response(
                200, "OK", {"labels": a.tolist(), "n": int(a.shape[0])}, True),
            answers),
    }
