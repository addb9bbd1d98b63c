"""Self-test of the benchmark's teardown: nothing outlives a run.

Starts real benchmark runs, stops them mid-phase with SIGTERM, SIGINT or
SIGALRM (the signal of the run's own deadline), and lets one finish, then
checks that no process that inherited the run's environment is alive once
the run has exited and that no new shared-memory segment is left in
``/dev/shm``.  A run killed with SIGKILL cannot clean up; its processes
must end by themselves within a few seconds.  Run from the repository
root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"
ROOT = RUN.parent.parent
#: Environment variable carrying a per-test token; every process the run
#: starts inherits it.
TOKEN_VAR = "E2EBENCH_SELFTEST"


def _segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _carriers(token: str) -> list[int]:
    """Live processes whose environment carries ``token``."""
    needle = f"{TOKEN_VAR}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                if fh.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                    continue
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle in fh.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.fixture
def start():
    """Start benchmark runs; any still running when the test ends is
    stopped with SIGTERM and awaited."""
    started = []

    def _start(workload: str, seconds: float):
        token = uuid.uuid4().hex
        env = {**os.environ, TOKEN_VAR: token}
        proc = subprocess.Popen(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        started.append(proc)
        return proc, token

    yield _start
    for proc in started:
        if proc.poll() is None:
            proc.terminate()
            proc.communicate(timeout=60)


def _wait_for_phase(proc, phase: str, timeout: float = 120.0) -> None:
    """Read the run's progress lines until ``phase`` starts."""
    deadline = time.monotonic() + timeout
    buf = b""
    while phase.encode() not in buf:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"phase {phase!r} never started: {buf[-2000:]!r}"
        ready, _, _ = select.select([proc.stderr], [], [], remaining)
        if ready:
            chunk = os.read(proc.stderr.fileno(), 4096)
            assert chunk, f"run ended before {phase!r}: {buf[-2000:]!r}"
            buf += chunk


def _assert_nothing_left(proc, token: str, segments_before: set[str],
                         settle_s: float = 0.0) -> bytes:
    """Wait for the run to exit; then nothing it started may be alive,
    after at most ``settle_s`` seconds."""
    try:
        out, _err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + settle_s
    while _carriers(token) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _carriers(token) == []
    assert _segments() - segments_before == set()
    return out


@pytest.mark.parametrize(
    "workload, phase, settle, stop",
    [
        ("grid-quick", "serve: open loop", 1.0, signal.SIGTERM),
        ("grid-quick", "grid pass 1/", 1.5, signal.SIGINT),
        ("grid-quick", "set-up 2/", 1.5, signal.SIGTERM),
        # The run's deadline is an interval timer: its SIGALRM, delivered early.
        ("grid-quick", "serve: closed loop", 1.0, signal.SIGALRM),
    ],
)
def test_signal_mid_phase_leaves_nothing(start, workload, phase, settle, stop):
    before = _segments()
    proc, token = start(workload, 8)
    _wait_for_phase(proc, phase)
    time.sleep(settle)
    # Something is running besides the benchmark itself: a server or a pool.
    assert len(_carriers(token)) > 1
    if phase.startswith("grid"):
        assert _segments() - before, "the grid pass published no segment yet"
    proc.send_signal(stop)
    out = _assert_nothing_left(proc, token, before)
    assert proc.returncode == 3
    assert b'"correct"' not in out


def test_finished_run_leaves_nothing(start):
    before = _segments()
    proc, token = start("grid-quick", 2)
    out = _assert_nothing_left(proc, token, before)
    assert proc.returncode == 0
    assert b'"correct": true' in out.splitlines()[-1]


@pytest.mark.parametrize("phase", ["grid pass 1/", "serve: open loop"])
def test_killed_run_leaves_nothing(start, phase):
    """SIGKILL reaches no handler: the children's parent-death signal and
    the resource tracker must clean up instead."""
    before = _segments()
    proc, token = start("grid-quick", 8)
    _wait_for_phase(proc, phase)
    time.sleep(1.5)
    assert len(_carriers(token)) > 2
    if phase.startswith("grid"):
        assert _segments() - before, "the grid pass published no segment yet"
    proc.kill()
    _assert_nothing_left(proc, token, before, settle_s=5.0)
    assert proc.returncode == -signal.SIGKILL
