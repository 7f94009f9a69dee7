"""The package's one FFT pair: unnormalised scipy.fft transforms on one worker.

More workers split the batch of 1-D transforms statically and do not change
the output bits, but then every transform waits for its slowest thread: on a
shared 2-CPU host, where another process's load took the second CPU now and
then, two workers made the d=3 split-step op vary by about 25% from run to
run, while one worker ran steadily at a time that tracks the host's
single-thread speed.  The Picard map's norm worker is not that: it takes
whole slices whose results no later slice reads, so the main thread never
waits on half of a transform and a busy second CPU only delays the norms.
"""

from __future__ import annotations

import scipy.fft

_WORKERS = 1


def fftn(x, axes=None, overwrite_x=False):
    """Unnormalised forward FFT over axes (all by default); overwrite_x only on
    a temporary the caller no longer needs."""
    return scipy.fft.fftn(x, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)


def ifftn(x, axes=None, overwrite_x=False):
    """Inverse of fftn (carries the 1/n)."""
    return scipy.fft.ifftn(x, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)
