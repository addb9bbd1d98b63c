"""Process and resource hygiene for one benchmark run.

A run starts ``repro serve`` children, idle-priority busy loops (one per
CPU, while serving), a worker pool (inside ``ExperimentExecutor.run``), shared-memory
segments (the executor's data plane) and a scratch directory.  :class:`RunGuard` owns all of them and
releases them on every exit path:

* a normal finish and a failed check: :meth:`RunGuard.close` runs from the
  ``finally`` in ``run.py``;
* an exception: the same ``finally``;
* SIGINT, SIGTERM and the per-run deadline (SIGALRM): the handler first
  kills every child, so nothing waits on a worker that is still
  computing, then raises :class:`Interrupted` so the ``with`` blocks of
  the program (the executor's pool and data plane) and of the benchmark
  unwind.  A second signal during that unwinding, or its own time limit
  (a pool whose workers were killed mid-task can hang in its shutdown),
  kills the children again, unlinks the segments, removes the scratch
  directory and leaves with ``os._exit(INTERRUPTED_EXIT)``.

Servers and busy loops run in their own session, so stopping one is a
TERM to its whole process group and, after a grace period, a KILL.  Pool workers are found
as descendants in ``/proc``.  Segments are recorded when the data plane
publishes them, and any that survive are unlinked.  The multiprocessing
resource tracker is stopped and awaited last, so that when the run exits
no process it started is still alive, not even for the moment the
tracker would take to notice its parent is gone.

A SIGKILL to the run reaches no handler.  For that case every child is
started with a parent-death signal: the kernel KILLs it as soon as the
run ends, so nothing outlives even a run that was killed.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

__all__ = ["INTERRUPTED_EXIT", "Interrupted", "RunGuard", "descendants",
           "peak_rss_mb"]

#: Seconds between TERM and KILL.
GRACE_S = 3.0
#: Exit code of a run stopped by a signal or by its deadline.
INTERRUPTED_EXIT = 3
#: Longest wait, after KILL, for the processes of a run to end.
REAP_S = 10.0
#: ``prctl`` option: the signal a process gets when its parent ends.
_PR_SET_PDEATHSIG = 1
_libc = ctypes.CDLL(None, use_errno=True)

#: A lowest-priority busy loop on one CPU (see :meth:`RunGuard.cpus_awake`).
_KEEP_AWAKE = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


class Interrupted(BaseException):
    """The run was stopped by a signal or by its deadline.

    Derives from :class:`BaseException` so that no ``except Exception`` in
    the program or the benchmark swallows it.
    """


def _children_of() -> dict[int, list[int]]:
    """Parent pid -> child pids, for every live process in ``/proc``.

    Zombies are left out: they have exited, and whoever started them
    collects them (the pool's own bookkeeping must not lose that status).
    """
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may contain spaces and parentheses; the fields
        # after the last ')' are fixed: state, ppid, pgrp, session, ...
        state, ppid = stat.rsplit(b")", 1)[1].split()[:2]
        if state == b"Z":
            continue
        tree.setdefault(int(ppid), []).append(int(entry))
    return tree


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children first)."""
    tree = _children_of()
    found, frontier = [], [pid]
    while frontier:
        kids = tree.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _die_with(parent: int) -> None:
    """In a new child: have the kernel KILL it when ``parent`` ends.

    If ``parent`` already ended between the fork and this call, the
    signal would never come, so the child ends at once.
    """
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)


#: Pid and main-thread flag of the process that is forking (see
#: :func:`_kill_forks_with_parent`).
_forking = (0, False)


def _before_fork() -> None:
    global _forking
    _forking = (os.getpid(), threading.current_thread() is threading.main_thread())


def _after_fork_in_child() -> None:
    parent, from_main = _forking
    # The parent-death signal follows the forking *thread*, so a child
    # forked from any other thread would be killed when that thread ends.
    if from_main:
        _die_with(parent)


def _kill_forks_with_parent() -> None:
    """Give every process this one forks (the pool's workers) a
    parent-death signal."""
    os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


def _signal_all(pids, sig) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def _tracker_pid() -> int | None:
    """Pid of the multiprocessing resource tracker, if one was started.

    Until the end of the run the guard leaves the tracker alone: killing
    it early would only make the next unlink start a new one.
    """
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def _stop_tracker() -> None:
    """Stop the resource tracker and wait until it has ended.

    Closing its pipe tells it this process is done: it unlinks whatever
    is still registered with it and exits.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None:
        return
    tracker._pid = tracker._fd = None
    os.close(fd)
    _reap(pid)


def _reap(pid: int) -> None:
    """Wait for child ``pid`` to end, KILLing it after :data:`GRACE_S`."""
    stop = time.monotonic() + GRACE_S
    while time.monotonic() < stop:
        try:
            if os.waitpid(pid, os.WNOHANG) != (0, 0):
                return
        except ChildProcessError:
            return
        time.sleep(0.01)
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    with contextlib.suppress(ChildProcessError):
        os.waitpid(pid, 0)


def _stray() -> list[int]:
    """Descendants of this process other than the resource tracker."""
    tracker = _tracker_pid()
    return [pid for pid in descendants(os.getpid()) if pid != tracker]


class RunGuard:
    """Owner of every process, segment and file one run creates.

    Parameters
    ----------
    scratch_root:
        Directory inside the checkout under which the per-run temporary
        directory is made (and removed by :meth:`close`).
    deadline_s:
        Wall-clock limit of the run; at expiry the run is interrupted.
    """

    def __init__(self, scratch_root: Path, deadline_s: float):
        scratch_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
        self.deadline_s = float(deadline_s)
        self.children: list[subprocess.Popen] = []
        self.segments: set[str] = set()
        self._stopping = False
        self._previous: dict[int, object] = {}
        self._pid = os.getpid()

    # -- signals --------------------------------------------------------

    def install(self) -> None:
        """Route SIGINT, SIGTERM and the deadline through :meth:`_on_signal`,
        and tie every process this one forks to its life."""
        _kill_forks_with_parent()
        # Registered before any data plane exists, so it runs after their
        # exit-time clean-ups, which may restart the tracker to unlink.
        atexit.register(_stop_tracker)
        for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
            self._previous[sig] = signal.signal(sig, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)

    def _on_signal(self, signum, _frame) -> None:
        if os.getpid() != self._pid:
            # A forked pool worker inherits this handler; it owns nothing
            # of the run, so it dies of the signal as it would without it.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        self.kill_children(grace=0.5)
        if self._stopping:
            print(f"e2ebench: {signal.Signals(signum).name} while unwinding; "
                  "leaving at once", file=sys.stderr, flush=True)
            self._unlink_segments()
            shutil.rmtree(self.tmp, ignore_errors=True)
            self._reap_all()
            os._exit(INTERRUPTED_EXIT)
        self._stopping = True
        # Whatever unwinding follows gets a bounded time to finish.
        signal.setitimer(signal.ITIMER_REAL, 4 * GRACE_S)
        raise Interrupted(signal.Signals(signum).name)

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], env: dict, cwd: Path) -> subprocess.Popen:
        """Start a child in its own session, stdout piped for its banner."""
        parent = os.getpid()
        proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True, preexec_fn=lambda: _die_with(parent),
        )
        self.children.append(proc)
        return proc

    @contextlib.contextmanager
    def cpus_awake(self):
        """Run a ``SCHED_IDLE`` busy loop on every allowed CPU meanwhile.

        On a virtual machine a CPU with nothing to run halts, and waking it
        for the next request took long and varied enough to move
        closed-loop throughput by a quarter from second to second.  An
        idle-class task keeps it from halting and yields at once to any
        other runnable task.  Only request/response phases use this: a busy
        loop on a sibling hyperthread slows CPU-bound work beside it.
        """
        loops = [self.spawn([sys.executable, "-c", _KEEP_AWAKE, str(cpu)],
                            dict(os.environ), self.tmp)
                 for cpu in sorted(os.sched_getaffinity(0))]
        try:
            yield
        finally:
            for proc in loops:
                self.stop(proc)

    def stop(self, proc: subprocess.Popen, grace: float = GRACE_S) -> None:
        """TERM the child's process group, KILL it after ``grace``, and
        wait until it has ended."""
        with contextlib.suppress(ProcessLookupError, PermissionError):
            # A busy loop of the idle class gets almost no CPU on a loaded
            # host, not even to die; back in the normal class it does.
            os.sched_setscheduler(proc.pid, os.SCHED_OTHER, os.sched_param(0))
        for sig, wait_s in ((signal.SIGTERM, grace), (signal.SIGKILL, REAP_S)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout=wait_s)
                break
            except subprocess.TimeoutExpired:
                continue
        if proc.stdout is not None:
            proc.stdout.close()
        if proc in self.children:
            self.children.remove(proc)

    def kill_children(self, grace: float = GRACE_S) -> None:
        """TERM, then KILL, every child's group and every other descendant."""
        groups = [p.pid for p in self.children if p.poll() is None]
        for sig in (signal.SIGTERM, signal.SIGKILL):
            for pgid in groups:
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    pass
            _signal_all(_stray(), sig)
            stop = time.monotonic() + grace
            while time.monotonic() < stop:
                if not _stray():
                    return
                time.sleep(0.02)

    # -- shared memory --------------------------------------------------

    def track_segments(self, plane_cls) -> None:
        """Record the name of every segment ``plane_cls.publish`` creates."""
        publish = plane_cls.publish
        guard = self

        def recording_publish(plane, block_id, arrays):
            meta = publish(plane, block_id, arrays)
            guard.segments.add(meta.segment)
            return meta

        plane_cls.publish = recording_publish

    def _unlink_segments(self) -> list[str]:
        from multiprocessing import shared_memory

        leaked = []
        for name in sorted(self.segments):
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            leaked.append(name)
            shm.close()
            shm.unlink()
        self.segments.clear()
        return leaked

    # -- the end of a run ------------------------------------------------

    def close(self) -> dict:
        """Release everything; returns what had to be cleaned up by force.

        Signals are ignored meanwhile: every step here is bounded, and an
        interruption half-way would leave exactly what this cleans up.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        for sig in self._previous:
            signal.signal(sig, signal.SIG_IGN)
        forced = [p.pid for p in self.children]
        for proc in list(self.children):
            self.stop(proc)
        stray = _stray()
        if stray:
            self.kill_children()
        leaked = self._unlink_segments()
        shutil.rmtree(self.tmp, ignore_errors=True)
        left = self._reap_all()
        for sig, handler in self._previous.items():
            signal.signal(sig, handler)
        return {"children": forced, "processes": stray, "segments": leaked,
                "left": left}

    def _reap_all(self) -> list[int]:
        """KILL any process still below this one until it has ended, then
        stop the resource tracker; returns the pids that outlived
        :data:`REAP_S`.
        """
        stop = time.monotonic() + REAP_S
        while (left := _stray()) and time.monotonic() < stop:
            _signal_all(left, signal.SIGKILL)
            time.sleep(0.02)
        _stop_tracker()
        # Collect the exit status of every child, so none lingers as a zombie.
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG) != (0, 0):
                pass
        return left
