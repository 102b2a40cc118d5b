"""Outside-in span tracing and allocation probing for latticecoop.

The program is not edited: each traced function is replaced, for the length
of one pass, by a wrapper stored under the attribute through which its
callers look it up (``engine.compute_scores``, ``dynamics.step_fermi``,
``Grid.__post_init__``, ...). Wrappers record one span per call: name,
start, end and parent. Spans stay in memory; the per-name aggregates used
for the per-layer metrics are kept up to date as spans close.

A name that no longer exists in the program is reported as absent, with 0
calls, so the benchmark keeps running when a later change removes or renames
a traced function.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Callable

import numpy as np

Observer = Callable[[Any, tuple], None]


class Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make) -> bool:
        """Set ``owner.attr = make(original)``; False if there is no such attribute."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with per-name call, total and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One (name id, start ns, end ns, parent span index or -1) per call.
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._open: list[int] = []
        self._child_ns: list[int] = []
        # name id -> [calls, total ns, self ns]
        self._stats: list[list[int]] = []
        self._present: set[str] = set()
        self.patcher = Patcher()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._stats.append([0, 0, 0])
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        nid = self._name_id(name)
        spans, open_, child_ns, stats = self.spans, self._open, self._child_ns, self._stats[nid]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                children = child_ns.pop()
                duration = end - start
                if child_ns:
                    child_ns[-1] += duration
                spans[index] = (nid, start, end, parent)
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def install(self, owner: object, attr: str, name: str, observe: Observer | None = None) -> None:
        self._name_id(name)  # listed with 0 calls even when absent
        if self.patcher.replace(owner, attr, lambda fn: self.wrap(fn, name, observe)):
            self._present.add(name)

    def uninstall(self) -> None:
        self.patcher.restore()

    def absent(self) -> list[str]:
        """Span names none of whose lookup places exist in the program."""
        return [name for name in self.names if name not in self._present and name != "perfbench.check"]

    def stats(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) for a span name; zeros if never seen."""
        nid = self._ids.get(name)
        return (0, 0, 0) if nid is None else tuple(self._stats[nid])

    def root_ns(self) -> int:
        """Summed duration of top-level spans, which equals the summed self times."""
        return sum(end - start for _, start, end, parent in self.spans if parent == -1)

    def total_ns_within(self, name: str, ancestor: str) -> int:
        """Summed duration of ``name`` spans that run inside an ``ancestor`` span."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        inside = [False] * len(self.spans)
        total = 0
        for index, (sid, start, end, parent) in enumerate(self.spans):
            inside[index] = sid == aid or (parent >= 0 and inside[parent])
            if sid == nid and parent >= 0 and inside[parent]:
                total += end - start
        return total

    def save(self, path) -> None:
        """Write every span as arrays (names, name id, start, end, parent) to ``path``."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=rows[:, 0],
            start_ns=rows[:, 1],
            end_ns=rows[:, 2],
            parent=rows[:, 3],
        )


class AllocProbe:
    """Largest temporary allocation of one call, per function, via tracemalloc.

    Probed functions do not nest within each other, so resetting the peak at
    each call start is safe. Runs in its own pass: tracemalloc slows every
    allocation and must not touch timed numbers.
    """

    def __init__(self) -> None:
        self.peak: dict[str, int] = {}
        self.absent: list[str] = []
        self.patcher = Patcher()

    def install(self, owner: object, attr: str, name: str) -> None:
        """Probe ``owner.attr``; a missing one keeps a peak of 0 and is listed in ``absent``."""
        self.peak.setdefault(name, 0)

        def make(fn):
            def probed(*args, **kwargs):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                result = fn(*args, **kwargs)
                grown = tracemalloc.get_traced_memory()[1] - before
                self.peak[name] = max(self.peak[name], grown)
                return result

            return probed

        if not self.patcher.replace(owner, attr, make):
            self.absent.append(name)

    def run(self, calls: list[Callable[[], Any]]) -> dict[str, int]:
        tracemalloc.start()
        try:
            for call in calls:
                call()
        finally:
            tracemalloc.stop()
            self.patcher.restore()
        return self.peak
