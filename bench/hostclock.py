"""A clock that runs at the host's speed, so timings survive host load.

On a shared host the same pure-Python work takes 1.0-1.6x as long,
depending on what the neighbours run, in spells of half a minute and
more.  One benchmark op lasts about as long, so its wall time mostly
measures which spell it met.

`HostClock` times a fixed reference kernel (exact `Fraction` elimination,
the same kind of work the library does) every PERIOD seconds, from a
SIGALRM handler in the timed thread.  Each wall interval between two
samples is scaled by REFERENCE_S over the mean of its two samples, and
the sampling time itself is left out.  So `now()` advances by one second
per second of work done at the speed at which the reference kernel takes
REFERENCE_S, whatever the host's state.  At a fixed host speed these are
wall seconds times a constant, so a change to the program moves both by
the same share; the reference kernel is benchmark code and does not
change with the program.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

import tamper

PERIOD = 0.5
# about one reference sample's time on an unloaded 2-core host (Python 3.11)
REFERENCE_S = 0.011

_rng = random.Random(0)
_ROWS = [[Fraction(_rng.randint(-99, 99), _rng.randint(1, 99)) for _ in range(8)]
         for _ in range(8)]
_RHS = [Fraction(_rng.randint(-99, 99)) for _ in range(8)]


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(4):
        tamper._solve(_ROWS, _RHS)
    return time.perf_counter() - t0


class HostClock:
    """Host-speed-scaled seconds; use as a context manager around timed work."""

    def __init__(self) -> None:
        self.elapsed = 0.0  # scaled seconds up to the last sample
        self.samples: list[float] = []
        self._busy = False

    def __enter__(self) -> HostClock:
        self._ref = reference_s()
        self.samples.append(self._ref)
        self._t = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        t = time.perf_counter()
        ref = reference_s()
        self.samples.append(ref)
        self.elapsed += (t - self._t) * 2 * REFERENCE_S / (ref + self._ref)
        self._ref = ref
        self._t = time.perf_counter()
        self._busy = False

    def now(self) -> float:
        """Scaled seconds since the clock started; takes a sample."""
        self._sample()
        return self.elapsed
