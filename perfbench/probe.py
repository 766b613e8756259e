"""Speed probe: how fast the machine ran while a pass ran.

The machines this benchmark runs on share their cores, and their speed
drifts by half or more over tens of seconds.  A pass is therefore timed
together with a probe: every `INTERVAL_S` a SIGALRM handler, in the worker's
only thread, times one fixed chunk of pure-Python work (table and dict
lookups and bit loops, like lawcat's inner loops).  The mean chunk time over the
pass says how slow the machine was at the moments the jobs ran;
`scale = REFERENCE_S / mean` converts the pass's times to seconds at the
reference speed.  The probe's own time is subtracted from the jobs it
interrupted.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.02
REFERENCE_S = 0.00025  # chunk time taken as the reference speed

_rng = random.Random(0)
_TABLE = tuple(tuple(_rng.randrange(8) for _ in range(8)) for _ in range(8))
_MEMO = {k: _rng.randrange(8) for k in range(256)}


def chunk(rounds=120):
    """Fixed pure-Python work; never changes, or the scale changes with it.

    It allocates no container objects, so it never triggers the garbage
    collector, whose pauses grow with the heap of the job it interrupts.
    """
    table, memo = _TABLE, _MEMO
    acc = 0
    for i in range(rounds):
        row = table[i & 7]
        for j in range(8):
            acc ^= memo[(row[j] << 5) | (i & 31)]
        m = i | 0x155
        while m:
            acc ^= (m & -m).bit_length()
            m &= m - 1
    return acc


class SpeedProbe:
    """Context manager that samples `chunk` times while it is active."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s  # None: sample nothing, scale 1
        self.samples_ns = []
        self.spent_ns = 0  # read around each job to subtract the probe's time

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        chunk()
        spent = time.perf_counter_ns() - t0
        self.samples_ns.append(spent)
        self.spent_ns += spent

    def __enter__(self):
        if self.interval_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        if self.interval_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self):
        """Factor from this pass's seconds to seconds at the reference speed."""
        if not self.samples_ns:
            return 1.0
        return REFERENCE_S / (sum(self.samples_ns) / len(self.samples_ns) / 1e9)
