"""Reference kernel that measures the host's current speed.

On a small shared host the speed of the same code drifts by tens of percent
over minutes, as neighbours load the cores we share, so raw seconds from
two runs are not comparable at the precision a regression bound needs. The
benchmark therefore times this fixed NumPy kernel between jobs, on as many
processes as the workload keeps busy, and divides job times by the kernel's
median duration in the same run. The kernel does not touch latticecoop, so
no change to the program moves it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time

import numpy as np

WORK = 600_000  # cells processed per kernel call: 60 passes at L=100
SHARE = 0.05  # calibration time as a share of the time since the last calibration


class Kernel:
    """Neighbour stacking, argmax, gather and masked sums on (side, side) arrays."""

    def __init__(self, side: int) -> None:
        rng = np.random.default_rng(0)
        self.scores = rng.random((side, side))
        self.cells = (self.scores < 0.5).astype(np.uint8)
        self.repeats = max(1, round(WORK / (side * side)))

    def __call__(self) -> int:
        """Nanoseconds taken by one call."""
        a, cells = self.scores, self.cells
        start = time.perf_counter_ns()
        for _ in range(self.repeats):
            stack = np.stack((np.roll(a, 1, 0), np.roll(a, -1, 1), np.roll(a, -1, 0), np.roll(a, 1, 1)))
            best = stack.argmax(axis=0)
            np.take_along_axis(stack, best[None], axis=0)
            np.where(cells == 1, a, 0.0).sum()
            np.ascontiguousarray(cells).copy().setflags(write=False)
        return time.perf_counter_ns() - start


def _serve(conn, side: int, inherited) -> None:
    # Close the parent's ends inherited through fork, so that the parent's
    # death reads as end-of-file here and this helper cannot outlive it.
    for parent_end in inherited:
        parent_end.close()
    kernel = Kernel(side)
    with contextlib.suppress(EOFError), conn:
        while conn.recv():
            conn.send(kernel())


class Calibrator:
    """Runs the kernel at once in this process and ``processes - 1`` helpers.

    Each call samples the kernel (mean time over the processes, in ns) for
    ``SHARE`` of the time since the previous call, and at least once, so the
    samples spread over a run in proportion to time, as the jobs do. Use it as
    a context manager, so the helpers are stopped and waited for.
    """

    def __init__(self, side: int, processes: int = 1) -> None:
        self.kernel = Kernel(side)
        self.samples: list[float] = []
        self._helpers = []
        # Fork, not spawn: spawn also starts multiprocessing's resource
        # tracker, a process this benchmark could not wait for.
        context = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            ours, theirs = context.Pipe()
            parent_ends = [conn for conn, _ in self._helpers] + [ours]
            helper = context.Process(target=_serve, args=(theirs, side, parent_ends), daemon=True)
            helper.start()
            theirs.close()
            self._helpers.append((ours, helper))
        self._sample()  # warm-up: helpers build their arrays before the first sample
        self.samples.clear()
        self._last = time.perf_counter_ns()

    def _sample(self) -> None:
        for conn, _ in self._helpers:
            conn.send(True)
        times = [self.kernel()] + [conn.recv() for conn, _ in self._helpers]
        self.samples.append(sum(times) / len(times))

    def __call__(self) -> None:
        start = time.perf_counter_ns()
        budget = SHARE * (start - self._last)
        while True:
            self._sample()
            self._last = time.perf_counter_ns()
            if self._last - start >= budget:
                break

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        for conn, helper in self._helpers:
            conn.send(False)
            conn.close()
            helper.join(timeout=30)
            if helper.is_alive():
                helper.kill()
                helper.join()
