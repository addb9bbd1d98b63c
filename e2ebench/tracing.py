"""Spans recorded from the benchmark's side, around calls into each layer.

The program has no spans of its own yet, so a traced run replaces chosen
public functions and methods with timing wrappers (:meth:`Tracer.wrap`)
and restores them afterwards (:meth:`Tracer.restore`).  Spans stay in
memory: ``(name, start, end, parent)`` with ``perf_counter`` times, which
share one clock across the processes of a machine.

Pool workers are forked from the traced process, so they inherit the
wrappers.  The first wrapped call in a worker starts that worker's own
span list and registers a finaliser that writes the list to the run's
scratch directory when the worker exits; :meth:`Tracer.collect_workers`
merges those files once the pool has shut down.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from multiprocessing import util
from pathlib import Path

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder.

    Parameters
    ----------
    worker_dir:
        Where forked workers leave their spans at exit.
    """

    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.spans: list[tuple[str, float, float, int]] = []
        self.rows: dict[str, int] = defaultdict(int)
        #: Labels that wrappers may append to a span name (``{method}``).
        self.tags: dict[str, str] = {"method": "none", "clf": "none"}
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _enter_worker(self) -> None:
        """First traced call in a forked worker: start a fresh span list."""
        self._pid = os.getpid()
        self.spans, self._stack = [], []
        self.rows = defaultdict(int)
        util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "rows": self.rows}, fh)

    def call(self, name: str, fn, args, kwargs, rows=None):
        """Run ``fn`` inside a span called ``name`` (formatted with tags)."""
        if os.getpid() != self._pid:
            self._enter_worker()
        name = name.format_map(self.tags)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
        if rows is not None:
            self.rows[name] += rows(result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span."""
        return self.call(name, fn, args, kwargs)

    # -- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, rows=None) -> None:
        """Replace ``owner.attr`` with a traced version of itself.

        ``rows(result)``, if given, adds a work count to the span name.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, rows)

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`wrap` and :meth:`replace`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def collect_workers(self) -> int:
        """Merge the span files exited workers left; returns how many."""
        files = sorted(self.worker_dir.glob("spans-*.json"))
        for path in files:
            with open(path) as fh:
                payload = json.load(fh)
            offset = len(self.spans)
            for name, start, end, parent in payload["spans"]:
                self.spans.append(
                    (name, start, end, parent + offset if parent >= 0 else -1)
                )
            for name, rows in payload["rows"].items():
                self.rows[name] += rows
            path.unlink()
        return len(files)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, rows in self.rows.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["rows"] = rows
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
