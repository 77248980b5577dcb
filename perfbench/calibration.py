"""Host-speed calibration interleaved with the measured work.

On a shared virtual machine the CPU runs in slow and fast phases that
last from seconds to minutes, and a fixed piece of code takes up to 1.6
times as long in a slow phase.  A run of 40 s cannot average that out.
So while an untraced run measures, a timer interrupts the work
``PERIOD_S`` seconds after each sample and times a fixed calibration
loop again (``CalibrationLoop``).  Each stretch of work between two samples
is scaled by the sample that ends it, to the time it would have taken at
the reference speed, where one sample takes ``REF_SAMPLE_S``.  The time
spent in samples is left out of the work.

The handler runs between bytecodes of the main thread and changes no
state of vmstat, so the results are the same with and without it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds from the end of one calibration sample to the start of the next
PERIOD_S = 0.25
#: duration of one sample at the reference speed; on the 2-vCPU virtual
#: machine of the first baseline a sample took 13-23 ms (see NOTES.md)
REF_SAMPLE_S = 0.012


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


class CalibrationLoop:
    """A fixed amount of the kinds of work vmstat does.

    A pure-Python integer loop, complex exponentials in numpy over 4096
    and over 100,000 points (the trajectory lengths of the Monte Carlo
    runs), a numpy gather and pure-Python reads of objects in random order.
    The long exponentials, the gather and the reads each cover more than a
    core's 2 MB L2 cache.  The data is built
    here, not at import, so that it can be made after the peak memory of
    the workload is read.
    """

    def __init__(self):
        rng = np.random.default_rng(1)
        self.points = np.linspace(0.0, 1.0, 4096)
        self.long_points = np.linspace(0.0, 1.0, 100_000)
        self.table = rng.integers(0, 1000, size=500_000)
        self.gather = rng.integers(0, self.table.size, size=100_000)
        self.slots = [_Slot(i, float(i)) for i in range(50_000)]
        self.order = rng.permutation(len(self.slots))[:12_000].tolist()

    def __call__(self) -> float:
        s = 0
        for i in range(30_000):
            s += i * i % 7
        acc = float(s)
        for k in range(1, 9):
            acc += float(np.exp(2j * np.pi * k * self.points).real[k])
        for k in (1, 2):
            acc += float(np.exp(2j * np.pi * k * self.long_points).real[k])
        for _ in range(2):
            acc += float(self.table[self.gather].sum())
        slots = self.slots
        for i in self.order:
            acc += slots[i].value
        return acc


def scaled_time(samples, a: float, b: float, ref: float = REF_SAMPLE_S) -> tuple[float, float]:
    """Work time in ``[a, b]`` without the samples, and that time at reference speed.

    ``samples`` are the ``(start, end)`` times of the calibration samples in
    order.  A sample lies wholly inside or wholly outside ``[a, b]``, since
    the work does not run while one is taken.  Each stretch of work is
    scaled by ``ref`` over the duration of the sample that ends it; the
    last stretch, or a stretch with no sample inside ``[a, b]``, by the
    latest sample before ``b``.
    """
    work = scaled = 0.0
    prev = a
    last = None
    for s, e in samples:
        if e <= a:
            last = (s, e)
            continue
        if s >= b:
            break
        work += s - prev
        scaled += (s - prev) * ref / (e - s)
        prev, last = e, (s, e)
    if last is None:
        raise ValueError("no calibration sample before the end of the interval")
    work += b - prev
    scaled += (b - prev) * ref / (last[1] - last[0])
    return work, scaled


class Calibration:
    """Timer-driven calibration samples, taken while the context is open."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self.loop = CalibrationLoop()
        self.loop()  # warm-up, not recorded

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.loop()
        self.samples.append((t0, time.perf_counter()))

    def _handler(self, signum, frame) -> None:
        self.sample()
        # one-shot timer, re-armed after the sample, so a sample is never interrupted
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self) -> "Calibration":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        return scaled_time(self.samples, a, b)

    def sample_times(self) -> list[float]:
        return [e - s for s, e in self.samples]
