"""Thread-aware span tracer that wraps public module and class attributes.

Each thread keeps its own span stack, so a span opened by a sweep row in a
worker thread never becomes the parent of a span in another thread; a
shared stack would subtract one thread's time from another's and give
negative self times.  Spans live in per-thread in-memory columns and are
written out once, when the run ends.  Counts (array elements, draws,
stations) are recorded at the same boundaries as the spans.

Self time of a span is its duration minus the durations of its direct
children on the same thread.  Inclusive time of a name sums only its
outermost spans, so a name that nests inside itself is not counted twice.
"""
from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np


class _ThreadLog:
    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.name = array("i")
        self.parent = array("q")
        self.outer = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}
        self.counts: dict[tuple[int, str], float] = {}


class Tracer:
    """Records spans around wrapped callables.  One tracer per process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, owner, attr: str, span: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``span``.

        ``count(args, kwargs, result)`` returns a dict of counter increments,
        recorded after the call returns as ``<span>.<counter>``.
        """
        fn = vars(owner)[attr]
        nid = len(self.names)
        self.names.append(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            idx = len(log.t0)
            stack = log.stack
            log.name.append(nid)
            log.parent.append(stack[-1] if stack else -1)
            depth = log.depth.get(nid, 0)
            log.outer.append(depth == 0)
            log.depth[nid] = depth + 1
            stack.append(idx)
            log.t1.append(0.0)
            log.t0.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.t1[idx] = time.perf_counter()
                stack.pop()
                log.depth[nid] = depth
            if count is not None:
                counts = log.counts
                for key, inc in count(args, kwargs, result).items():
                    key = (nid, key)
                    counts[key] = counts.get(key, 0) + inc
            return result

        setattr(owner, attr, wrapper)

    def _columns(self):
        cols = {k: [] for k in ("thread", "name", "parent", "outer", "t0", "t1")}
        offset = 0
        for tid, log in enumerate(self._logs):
            n = len(log.t0)
            parent = np.frombuffer(log.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            cols["thread"].append(np.full(n, tid, dtype=np.int32))
            cols["name"].append(np.frombuffer(log.name, dtype=np.intc).astype(np.int32))
            cols["parent"].append(parent)
            cols["outer"].append(np.frombuffer(log.outer, dtype=np.int8).astype(bool))
            cols["t0"].append(np.frombuffer(log.t0, dtype=np.float64))
            cols["t1"].append(np.frombuffer(log.t1, dtype=np.float64))
            offset += n
        return {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}

    def summary(self) -> dict:
        """Per-name ``calls``, inclusive ``s`` and ``self_s``, plus counters,
        as one flat dict keyed ``<span>.<stat>``."""
        c = self._columns()
        k = len(self.names)
        out: dict[str, float] = {}
        if len(c["t0"]):
            dur = c["t1"] - c["t0"]
            has_parent = c["parent"] >= 0
            child = np.bincount(
                c["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
            )
            name = c["name"]
            calls = np.bincount(name, minlength=k)
            incl = np.bincount(name, weights=np.where(c["outer"], dur, 0.0), minlength=k)
            own = np.bincount(name, weights=dur - child, minlength=k)
        else:
            calls = incl = own = np.zeros(k)
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[nid])
            out[f"{span}.s"] = float(incl[nid])
            out[f"{span}.self_s"] = float(own[nid])
        for log in self._logs:
            for (nid, key), inc in log.counts.items():
                key = f"{self.names[nid]}.{key}"
                out[key] = out.get(key, 0) + inc
        out["spans"] = int(len(c["t0"]))
        return out

    def write_spans(self, path) -> None:
        """Write every span (thread, name, parent, start, end) under the
        run id that all spans of this process share."""
        c = self._columns()
        np.savez(
            path,
            run_id=np.asarray(self.run_id),
            names=np.asarray(self.names),
            threads=np.asarray([log.thread_name for log in self._logs]),
            **c,
        )
