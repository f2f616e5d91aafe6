"""The host's speed, sampled while the program runs.

On a shared virtual machine (2 vCPUs, Intel Xeon, Python 3.11) the speed of
a core drifts by up to 1.6x over seconds to minutes while nothing in the
process changes, so raw wall times of the same work spread too widely to
compare two versions of the program.  The worker therefore times a fixed
probe loop every 10 ms, from a SIGALRM handler in the same thread, and
scales each operation's wall time t, during which the probe took p (the
median of its samples), to

    t * (REFERENCE_S / p) ** SENSITIVITY

SENSITIVITY is how strongly the program's time follows the probe's: the
slope of log(round time) against log(probe time) was 0.67 over 22 rounds of
`planes` and 0.61 over 19 rounds of `monomial`, so the probe slows down more
than the program does when the host is busy.  The probe is the benchmark's
own code, so a change to the program moves the scaled time exactly as it
moves the wall time.
"""

import signal
import time

INTERVAL_S = 0.01
REFERENCE_S = 100e-6
SENSITIVITY = 0.65
MIN_SAMPLES = 5


def scaled(seconds, probe_s):
    """`seconds` measured while the probe took `probe_s`, at the speed at
    which it takes REFERENCE_S."""
    return seconds * (REFERENCE_S / probe_s) ** SENSITIVITY


def _pair(a, b):
    return (a, b)


def _probe():
    """A mix of what the program spends its time on: calls, tuples, dict
    and set updates, and shifts and ors of a few-hundred-bit mask."""
    counts = {}
    seen = set()
    hits = []
    mask = 0
    for i in range(120):
        t = _pair(i, i & 7)
        counts[t] = counts.get(t, 0) + 1
        mask |= 1 << ((i * 37) % 600)
        if (mask >> (i % 500)) & 1:
            hits.append(t)
        seen.add(i * 2654435761 % 1009)
    return len(hits) + len(seen) + mask.bit_count()


class SpeedProbe:
    """Context manager that samples the probe loop while it is open."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples)

    def probe_s(self, start=0, end=None):
        """Median probe time over samples[start:end], or None if there are
        too few of them to tell."""
        got = sorted(self.samples[start:end])
        if len(got) < MIN_SAMPLES:
            return None
        mid = len(got) // 2
        return (got[mid] + got[~mid]) / 2
