"""Host speed, sampled while a pass runs, for normalizing its times.

The benchmark's host is a small virtual machine on a shared machine.  Its
speed moves by up to 1.7x over seconds to minutes, and a pass runs slower
by nearly the same factor.  `Sampler` times a fixed piece of pure-Python
work (`probe`: big-integer products and quotients, Fraction sums, a dict
loop) from a SIGALRM handler every PERIOD_S seconds, on the thread that
runs the pass.  After `stop()`, `Sampler.normalize(a, b)` converts the
interval [a, b] of the pass into seconds at reference speed: it leaves out
the time spent in the handler and scales each stretch between samples by
`factor` of the local probe time.  The probe is part of the benchmark and
never calls modwron, so a change to the program does not move it.
"""

import random
import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

PERIOD_S = 0.02
# Probe time, back to back, on a quiet host: Intel Xeon virtual machine,
# 2 vCPU, CPython 3.11.7.  Normalized times are seconds at that speed.
REF_PROBE_S = 0.0003
# The checks slow down less than the probe: over ten runs of 60 s per
# listed workload on that host, the slope of log(measured time) on
# log(probe time) was 0.78 to 0.95.  A time measured while the probe takes p is
# scaled by (REF_PROBE_S / p) ** ELASTICITY.
ELASTICITY = 0.8
SMOOTH = 2   # the local probe time is the median of 2 * SMOOTH + 1 samples

_RNG = random.Random(20061205)
_INTS = [_RNG.getrandbits(320) | 1 for _ in range(24)]
_FRACS = [Fraction(_RNG.getrandbits(40), _RNG.getrandbits(20) | 1)
          for _ in range(8)]


def probe():
    acc, f, d = 0, Fraction(0), {}
    for _ in range(4):
        for x, y in zip(_INTS, _INTS[1:]):
            acc += x * y // (y >> 160 | 1)
        for g in _FRACS:
            f += g
        for i in range(64):
            d[i & 7] = d.get(i & 7, 0) + i
    return acc, f, d


def factor(probe_s):
    """Scale for a time measured while the probe took `probe_s`."""
    return (REF_PROBE_S / probe_s) ** ELASTICITY


def probe_time(count=30, warm=10):
    """Median time of `count` probes run back to back, after `warm`."""
    times = []
    for i in range(warm + count):
        t0 = perf_counter()
        probe()
        if i >= warm:
            times.append(perf_counter() - t0)
    return median(times)


class Sampler:
    """Probe samples (start, duration), taken every PERIOD_S seconds of
    wall time between `start()` and `stop()`."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None
        self.factors = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        probe()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stops sampling and turns the samples into speed factors."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        d = [s[1] for s in self.samples]
        if not d:
            raise RuntimeError("no host-speed sample was taken")
        self.factors = [
            factor(median(d[max(0, i - SMOOTH):i + SMOOTH + 1]))
            for i in range(len(d))]

    def normalize(self, a, b):
        """Seconds at reference speed spent outside the handler in [a, b]."""
        factors = self.factors
        total = 0.0
        # The stretch before sample i runs at the mean of the speeds of
        # samples i-1 and i; before the first and after the last sample,
        # at the speed of that sample.
        prev_end, prev_f = a, factors[0]
        for (t0, dur), f in zip(self.samples, factors):
            if t0 >= b:
                break
            if t0 + dur > a:
                lo = max(prev_end, a)
                if t0 > lo:
                    total += (t0 - lo) * (prev_f + f) / 2
            prev_end, prev_f = t0 + dur, f
        if b > max(prev_end, a):
            total += (b - max(prev_end, a)) * prev_f
        return total
