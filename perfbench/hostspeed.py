"""Timing at a fixed reference speed on a host whose speed swings.

The benchmark's host is shared. The speed a core gives one process swings
between two levels about 1.8 times apart, and it switches every few
seconds, so a plain stopwatch measures the neighbours as much as flab.
Both levels slow flab and a fixed pure-Python calibration loop by nearly
the same factor: on a 2-core x86-64 Linux VM, a dset-sweep round in a slow
stretch took 1.39 times as long as one in a fast stretch by the
stopwatch, and 0.97 times as long once scaled as below.

So the child process samples the host's speed while it works. A timer
signal interrupts it every INTERVAL_S and runs the calibration loop (about
2.4 ms at full speed, so about 2% of the job's time); the loop's duration
is the speed sample. Every stretch of work between two samples is scaled by
REF_S / (the median of the samples around it), which turns it into
seconds at reference speed: the time the stretch would take on a core that
runs the calibration loop in REF_S seconds. The samples' own time is taken
out of the job time before it is scaled.

A faster flab makes the scaled time smaller and a slower one larger, as
with a stopwatch; only the host's swings drop out.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

_clock = time.perf_counter

CAL_ITERATIONS = 4_000
# Seconds one calibration loop takes at reference speed: its lower decile
# on an unloaded core of a 2-core x86-64 Linux VM (Intel Xeon, Python 3.11).
REF_S = 0.0024
INTERVAL_S = 0.1
# Samples around a stretch whose median gives its speed.
WINDOW = 5


def calibrate(n: int = CAL_ITERATIONS) -> int:
    """Fixed pure-Python work of the kinds flab does most: small tuples as
    dict keys, hashing, integer arithmetic and a sort. The collector is
    off while it runs, so its time does not depend on the heap the job has
    built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        acc = 0
        for i in range(n):
            key = (i % 97, i % 31)
            table[key] = table.get(key, 0) + i * i % 1009
            acc ^= hash(key)
        return acc ^ len(sorted(table.items()))
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Speed samples as (start, end) clock readings, taken on demand with
    sample() and, between start() and stop(), on every timer signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t0 = _clock()
        calibrate()
        self.samples.append((t0, _clock()))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_near(self, i: int) -> float:
        """Median calibration time of the WINDOW samples centred on sample i."""
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return statistics.median(b - a for a, b in self.samples[lo:lo + WINDOW])

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of work between start and end without the samples taken
        in between, the same in seconds at reference speed). Needs at least
        one sample."""
        inside = [i for i, (a, b) in enumerate(self.samples) if start <= a and b <= end]
        raw = scaled = 0.0
        edge = start
        for i in inside:
            a, b = self.samples[i]
            raw += a - edge
            scaled += (a - edge) * REF_S / self.speed_near(i)
            edge = b
        last = inside[-1] if inside else len(self.samples) - 1
        raw += end - edge
        scaled += (end - edge) * REF_S / self.speed_near(last)
        return raw, scaled
