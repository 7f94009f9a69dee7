"""The package's one FFT pair and its one worker pool.

The FFT pair is unnormalised scipy.fft transforms on one worker each.  More
workers split the batch of 1-D transforms of one call statically and do not
change the output bits, but then every transform waits for its slowest
thread: on a shared 2-CPU host, where another process's load took the second
CPU now and then, two workers made the d=3 split-step op vary by about 25%
from run to run, while one worker ran steadily at a time that tracks the
host's single-thread speed.

The parallel work is coarser: the pool takes whole tasks (a mode chunk's
transforms, one weighted transform of a chunk, the window norms of a Picard
slice, a whole h table built beside the m_f table) whose results no other
task reads.  It has min(2, CPUs) threads and
is started by the first task that uses it; with one CPU there is no pool and
no thread.  ordered_map hands each task's result back in item order, and the
caller adds the results in that order on its own thread, so the bits do not
depend on the pool; it also makes the tasks' buffers, one set per thread it
uses, so no caller counts threads.  A map made on a pool thread, or with one
item, runs inline: a task never waits on a task of its own pool.  A forked
child forgets the pool, whose threads it does not have.
"""

from __future__ import annotations

import os
import threading
from collections import deque
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


def pool():
    """The package's one worker pool; None on one CPU and on a pool thread,
    where a task runs inline."""
    global _POOL
    if getattr(_LOCAL, "pooled", False):
        return None
    if _POOL is None and len(os.sched_getaffinity(0)) >= 2:
        _POOL = ThreadPoolExecutor(max_workers=_THREADS, thread_name_prefix="hartorus",
                                   initializer=setattr, initargs=(_LOCAL, "pooled", True))
    return _POOL


def ordered_map(fn, items, scratch=None):
    """Yield fn(buffers, item) for each of items, in item order.

    buffers is a set scratch() made on the calling thread, whose memory the
    process gives back (a pool thread's malloc arena keeps what it freed), or
    None without scratch: one set inline (one CPU, a pool thread or one
    item), one per thread on the pool, none for no items.  On the pool at
    most one task per thread is in flight: item i + 2 gets item i's buffers
    once item i's result has been taken, so a result is valid until the next
    one is asked for.  A task's exception comes out here once the tasks in
    flight have finished.
    """
    items = list(items)
    make = scratch or (lambda: None)
    workers = pool() if len(items) > 1 else None
    if workers is None:
        buffers = make() if items else None
        for item in items:
            yield fn(buffers, item)
        return
    held = [make() for _ in range(_THREADS)]  # one set per thread, reused in turn
    jobs = deque(workers.submit(fn, buffers, item) for buffers, item in zip(held, items))
    try:
        for i in range(len(items)):
            yield jobs.popleft().result()
            if i + _THREADS < len(items):
                jobs.append(workers.submit(fn, held[i % _THREADS], items[i + _THREADS]))
    finally:
        wait(jobs)  # no task writes a buffer the caller has let go of
