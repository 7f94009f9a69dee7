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
slice) whose results no other task reads.  It has min(2, CPUs) threads and
is started by the first task that uses it; with one CPU there is no pool and
no thread.  ordered_map hands each task's result back in item order, and the
caller adds the results in that order on its own thread, so the bits do not
depend on the pool.  A map made on a pool thread, or with one item, runs
inline: a task never waits on a task of its own pool.  A forked child forgets
the pool, whose threads it does not have.
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


def lanes(n_items: int) -> int:
    """The number of lanes ordered_map hands n_items items out on: one per
    pool thread, else 1.  A caller allocates its lanes' buffers from this on
    its own thread, whose memory the process gives back (a pool thread's
    malloc arena keeps what it freed)."""
    return _THREADS if n_items > 1 and pool() is not None else 1


def ordered_map(fn, items):
    """Yield fn(lane, item) for each of items, in item order.

    On the pool, at most one task per thread is in flight: the task of item
    i + 2 is handed out once the result of item i has been taken, on the lane
    (0 or 1, one per thread) that item i used, so a task may keep its
    temporaries in buffers of its lane, and a result is valid until the next
    one is asked for.  Inline (one CPU, a pool thread or one item) every task
    runs on lane 0.  A task's exception comes out here once the tasks in
    flight have finished.
    """
    items = list(items)
    workers = pool() if len(items) > 1 else None
    if workers is None:
        for item in items:
            yield fn(0, item)
        return
    jobs = deque(workers.submit(fn, lane, item) for lane, item in enumerate(items[:_THREADS]))
    try:
        for i in range(len(items)):
            yield jobs.popleft().result()
            if i + _THREADS < len(items):
                jobs.append(workers.submit(fn, i % _THREADS, items[i + _THREADS]))
    finally:
        wait(jobs)  # no task writes a buffer the caller has let go of
