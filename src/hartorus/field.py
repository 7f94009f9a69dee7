"""The package's one FFT pair and its one worker pool.

The FFT pair is unnormalised scipy.fft transforms on one worker each.  More
workers split the batch of 1-D transforms of one call statically and do not
change the output bits, but then every transform waits for its slowest
thread: on a shared 2-CPU host, where another process's load took the second
CPU now and then, two workers made the d=3 split-step op vary by about 25%
from run to run, while one worker ran steadily at a time that tracks the
host's single-thread speed.

The parallel work is coarser: the pool takes whole tasks (a mode chunk's
part of a step pass, a chunk's read in an observation, one weighted
transform of half a chunk's deviation, the window norms of a Picard slice,
a whole h table built beside the m_f table) whose results no other task
reads.  It has min(2, CPUs) threads and is started by the first task
that uses it; with one CPU there is no pool and no thread.  ordered_map is
the one way onto it (_pool is private): it hands each task's result back in
item order, and the caller adds the results in that order on its own
thread, so the bits do not depend on the pool; it also makes the tasks'
buffers, one set per thread it uses, so no caller counts threads.  A map
made on a pool thread, or over one item, runs inline: a task never waits on
a task of its own pool.  A forked child forgets the pool, whose threads it
does not have.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Sized
from concurrent.futures import ThreadPoolExecutor, wait

import scipy.fft

_WORKERS = 1
_THREADS = 2                # the pool's threads, and the most tasks in flight
_POOL = None                # the worker pool, started on first use on 2+ CPUs
_LOCAL = threading.local()  # .pooled is set on the pool's own threads
os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def fftn(x, axes=None, overwrite_x=False):
    """Unnormalised forward FFT over axes (all by default); overwrite_x only on
    a temporary the caller no longer needs."""
    return scipy.fft.fftn(x, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)


def ifftn(x, axes=None, overwrite_x=False):
    """Inverse of fftn (carries the 1/n)."""
    return scipy.fft.ifftn(x, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)


def _pool():
    """The package's one worker pool, which only ordered_map hands tasks; None
    on one CPU and on a pool thread, where a task runs inline."""
    global _POOL
    if getattr(_LOCAL, "pooled", False):
        return None
    if _POOL is None and len(os.sched_getaffinity(0)) >= 2:
        _POOL = ThreadPoolExecutor(max_workers=_THREADS, thread_name_prefix="hartorus",
                                   initializer=setattr, initargs=(_LOCAL, "pooled", True))
    return _POOL


def ordered_map(fn, items, scratch=None):
    """Yield fn(buffers, item) for each of items, in item order.

    items, any iterable, is pulled lazily on the calling thread: an item goes
    to the pool as it is pulled, and with _THREADS tasks in flight the oldest
    result is yielded before the next pull, so a generator computes item i
    while only item i - 1's task runs.  buffers is a set scratch() made on the
    calling thread, whose memory the process gives back (a pool thread's
    malloc arena keeps what it freed), or None without scratch: one set
    inline (one CPU, a pool thread, or items of length one), one per thread
    on the pool, none for no items.  Item i + 2 gets item i's buffers once
    item i's result has been taken, so a result is valid until the next one
    is asked for.  A task's or the iterable's exception comes out here once
    the tasks in flight have finished.
    """
    make = scratch or (lambda: None)
    workers = _pool() if not isinstance(items, Sized) or len(items) > 1 else None
    held, jobs = [], deque()  # the buffer sets, made as the first items come
    try:
        for i, item in enumerate(items):
            if len(held) < (_THREADS if workers else 1):
                held.append(make())
            if workers is None:
                yield fn(held[0], item)
                continue
            jobs.append(workers.submit(fn, held[i % _THREADS], item))
            if len(jobs) == _THREADS:
                yield jobs.popleft().result()
        while jobs:
            yield jobs.popleft().result()
    finally:
        wait(jobs)  # no task writes a buffer the caller has let go of
