"""In-process host-speed sampler.

The host is shared, and the speed it gives one process drifts by 20-40% over
seconds to minutes, for interpreter, FFT and quadrature work alike, whatever
the code.  While a sampler runs, an interval timer interrupts the process
every PERIOD_S and the signal handler times a fixed interpreter loop; the
mean of these samples is the host speed over exactly the interval measured.
A time is reported at nominal host speed, scaled by NOMINAL_S / (that mean).
The handler costs well under 1% of the interval and runs no hartorus code,
so a change to hartorus moves raw and scaled times alike.

Standard library only, so that a fresh process can start sampling before it
imports numpy.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
LOOP = 500
NOMINAL_S = 2.5e-5


class HostSpeed:
    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i
        self.samples.append(time.perf_counter() - start)

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling; the mean sample, or None if none was taken."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return sum(self.samples) / len(self.samples) if self.samples else None


def scaled(seconds: float, sample_s) -> float:
    """A time at nominal host speed; the raw time without a sample."""
    return seconds * NOMINAL_S / sample_s if sample_s else seconds
