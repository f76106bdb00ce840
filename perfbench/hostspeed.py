"""Times at a reference host speed.

The benchmark's host is a share of a machine whose cores slow down and speed
up by as much as 1.7x over tens of seconds, with CPU time following wall
time, and its speed can halve or double from one second to the next.  A
fixed reference kernel that does the kind of work the ops do, but runs no
``lsurf`` code, is timed before and after each op and, for long ops, from a
timer during it; the op's time is scaled by the mean speed of these samples,
the kernel's reference time over each kernel time.  A slower library shows
in full, a slower host cancels out.

There are two kernels.  ``fraction`` is ``Fraction`` arithmetic like the
library's exact hot path: over 20 s stretches of a fixed lemma-suites batch
mix, the median batch time spread by 20 % as measured and by 1.4 % scaled
(interquartile range over median), where a kernel of plain integer
arithmetic left 4.9 %.  ``gather`` is the numpy gather and minimum of the
``modn`` label propagation, whose time does not follow the interpreter's:
over 15 s stretches of residue tables, scaling by a gather and minimum took
the spread from 11 % to 4 %, where ``fraction`` left 9 %.

A kernel runs with the garbage collector off and the samples are kept as
running sums, so that sampling at timer-chosen moments leaves the heap
layout, and with it the peak memory, as it is.
"""

from __future__ import annotations

import gc
import signal
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    # time of one run at the reference speed: about what it takes on a quiet
    # 2.1 GHz Xeon vCPU under Python 3.11
    ref_s: float
    # timer period of the samples during an op: about 2 % of the time goes
    # to the kernel
    interval_s: float


def fraction_kernel() -> int:
    x, half, total = Fraction(355, 113), Fraction(1, 2), 0
    for i in range(1, 90):
        q = Fraction(i * 7919 % 1009 - 500, i % 23 + 1) * x + Fraction(i, 7)
        total += floor(q) + (q - floor(q) > half)
    return total


class GatherKernel:
    """Gather, elementwise minimum and remainder over 2^20 int64s, about the
    size of the larger residue tables; the arrays are made once, so a run
    allocates nothing."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.src = rng.integers(0, 1 << 40, 1 << 20)
        self.idx = rng.permutation(1 << 20)
        self.out = np.empty_like(self.src)

    def __call__(self) -> None:
        np = self.np
        np.take(self.src, self.idx, out=self.out)
        np.minimum(self.out, self.src, out=self.out)
        np.remainder(self.out, 7919, out=self.out)


KERNELS: dict[str, Callable[[], Kernel]] = {
    "fraction": lambda: Kernel(fraction_kernel, ref_s=1e-3, interval_s=0.05),
    "gather": lambda: Kernel(GatherKernel(), ref_s=1e-2, interval_s=0.5),
}


def kernel_s(kernel: Kernel) -> float:
    """Time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel.run()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Speed samples, the reference time over the kernel time, taken by
    ``sample()`` and, inside a ``with`` block, from a ``SIGALRM`` timer.
    ``spent`` is the time the samples took, to be taken out of the op they
    interrupted."""

    def __init__(self, kernel: str = "fraction") -> None:
        self.kernel = KERNELS[kernel]()
        self.count = 0
        self.total = 0.0
        self.last = 0.0
        self.spent = 0.0
        self.busy = False

    def sample(self, *_signal) -> None:
        if self.busy:  # the timer fired during a sample
            return
        self.busy = True
        t0 = perf_counter()
        self.last = self.kernel.ref_s / kernel_s(self.kernel)
        self.total += self.last
        self.count += 1
        self.spent += perf_counter() - t0
        self.busy = False

    def mark(self) -> tuple[float, int, float]:
        """Position of the latest sample, and the time spent so far."""
        return self.total - self.last, self.count - 1, self.spent

    def mean_since(self, mark: tuple[float, int, float]) -> float:
        """Mean speed of the samples from the one at ``mark`` on."""
        return (self.total - mark[0]) / (self.count - mark[1])

    def __enter__(self) -> HostSpeed:
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        interval = self.kernel.interval_s
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
