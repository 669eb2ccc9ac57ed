"""Machine-speed probe for turning call times into reference seconds.

On a shared machine the same pure-Python work can take twice as long
from one minute to the next, for every kind of code alike.  The probe
times a fixed kernel every ``INTERVAL`` seconds of process CPU time,
from a SIGPROF handler in the main thread, so it samples the speed
*during* each timed call.  Each sample runs the kernel once untimed and
then times ``REPS`` more runs: a kernel timed cold, straight after the
interrupt, mostly measures cache refills and swings more than the
program does.  A call's reference time is its thread CPU time (which
leaves out time the virtual CPU was not running), less the time spent in
the probe, times the mean kernel speed (1 / kernel time) of the samples
taken during the call, times ``KERNEL_REF_S``: the time the call would
take at the speed where the kernel takes ``KERNEL_REF_S``.  Samples are
evenly spaced in CPU time, so the mean speed weighs each slice of the
call alike; a sample stretched by an interrupt adds a speed near 0
rather than a large time.  README.md has the spreads with and without
it.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: Process CPU time between two probe samples.
INTERVAL = 0.05
#: Timed kernel runs per sample, after one untimed run.
REPS = 8
#: Kernel time at the reference speed (a quiet core of a 2-vCPU VM).
KERNEL_REF_S = 4e-5
#: A call shorter than this many samples is scaled by the samples
#: just before its end.
MIN_SAMPLES = 10


def _kernel() -> int:
    """Dict, list and integer work, like the program's own inner loops."""
    table: dict[int, int] = {}
    pairs = []
    acc = 0
    for i in range(200):
        table[i] = (i * 2654435761) & 0xFFFF
        acc += table[i >> 1]
        pairs.append((acc, i))
    pairs.sort()
    return acc + len(pairs)


class SpeedProbe:
    """Kernel timings taken while the probe is on, in sample order."""

    def __init__(self):
        self.samples = array("d")
        #: Thread CPU seconds spent in the probe so far.
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        c0 = time.thread_time()
        _kernel()
        t0 = time.perf_counter()
        for _ in range(REPS):
            _kernel()
        self.samples.append((time.perf_counter() - t0) / REPS)
        self.spent += time.thread_time() - c0

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[int, float, float]:
        """Taken just before a call; hand it to ``reference_time`` after."""
        return len(self.samples), self.spent, time.thread_time()

    def reference_time(self, mark: tuple[int, float, float]) -> float:
        """Reference seconds of the call made since ``mark``."""
        cpu = time.thread_time()
        first, spent, cpu0 = mark
        end = len(self.samples)
        window = self.samples[max(0, min(first, end - MIN_SAMPLES)):end]
        speed = statistics.fmean(1.0 / k for k in window)
        return ((cpu - cpu0) - (self.spent - spent)) * KERNEL_REF_S * speed
