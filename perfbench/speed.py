"""Machine-speed calibration, so that timings hold still on a shared machine.

On a shared virtual machine the speed of pure-Python code drifts by up
to 1.8x for seconds to minutes at a time, on every vCPU at once, while
steal time stays near zero. That drift moves every timing of a run
together and cannot be removed by repeating the work inside one run.

``Speed.sample()`` times a fixed pure-Python reference loop (string
indexing, list building, ``min`` and dict inserts, like the program's
own inner loops) and records ``REF_S / its duration``: 1.0 at the
reference speed, 0.6 when the machine runs at 0.6 of it. Timings taken
between samples are multiplied by the mean factor of the samples that
bracket them, which expresses them at the reference speed. The loop is
the benchmark's own code, so no change to the program moves it: a
program that gets 20% slower reads 20% slower at any machine speed.

Take a sample every ``SAMPLE_EVERY_S`` around timed work, between
steps of it or, for one long call, from a timer signal with
``Speed.sampling()``; one sample costs about 4 ms. Single samples are
noisy, so a timing is scaled by the mean of every sample around it, and
the benchmark reports medians of many scaled timings.
"""

import bisect
import contextlib
import gc
import signal
import time

# Seconds that one reference loop takes at the reference speed: about
# its fastest time on an otherwise idle 2.1 GHz vCPU under Python 3.11.
# It only sets the scale of the reported times; changing it would move
# every scaled time by the same factor.
REF_S = 0.004
SAMPLE_EVERY_S = 0.1

_WORDS = ["".join(chr(97 + (i * 7 + j * 3) % 26) for j in range(8 + i % 9)) for i in range(24)]


def reference_loop() -> int:
    """A fixed pure-Python workload; its result only keeps it honest."""
    table = {}
    for word in _WORDS:
        for other in _WORDS[:12]:
            prev = list(range(7))
            for a in word[:6]:
                cur = [prev[0] + 1]
                for j, b in enumerate(other[:6]):
                    cur.append(min(prev[j + 1] + 1, cur[j] + 1, prev[j] + (a != b)))
                prev = cur
            table[(word, other)] = prev[-1]
    return sum(table.values())


class Speed:
    """Speed samples of one process over time."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample, perf_counter seconds
        self.factors: list[float] = []
        self.spent = 0.0  # seconds spent sampling

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the caller's heap, not the machine
        try:
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.spent += end - start
        self.times.append((start + end) / 2)
        self.factors.append(REF_S / (end - start))

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every ``SAMPLE_EVERY_S`` from a timer signal while
        the block runs; for the main thread of a process only."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Mean factor of the samples from the last one before ``start``
        to the first one after ``end``; raises ValueError without both."""
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        if first < 0 or last >= len(self.times):
            raise ValueError("timed work must lie between two speed samples")
        window = self.factors[first:last + 1]
        return sum(window) / len(window)
