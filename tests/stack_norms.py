"""Whole (M, *grid) stacks through the package's chunked interfaces: the
deviation norms of a stack, and the fields of a stream's last observation."""

import numpy as np

from hartorus.ensemble import deviation_norms
from hartorus.field import fftn


def stack_norms(lp, stack, hat=None):
    """deviation_norms of the stack passed as one chunk, with hat its
    unnormalised spectrum over space (transformed here when not given)."""
    if hat is None:
        hat = fftn(stack, axes=tuple(range(1, stack.ndim)))
    return deviation_norms(lp, [(slice(None), stack, hat)])


def keeping_fields(eq, stream):
    """(observations, fields): the (t, chunks) observations of stream, a run
    of the ensemble eq, passed on, and an (M, *grid) stack into which each
    chunk's fields are copied as they go by; once the stream ends, it holds
    the fields of the last observation."""
    out = np.empty((eq.n_modes,) + eq.grid.shape, dtype=complex)

    def copied(chunks):
        for modes, hat, u in chunks:
            out[modes] = u
            yield modes, hat, u

    return ((t, copied(chunks)) for t, chunks in stream), out
