"""Whole (M, *grid) stacks through the package's chunked interfaces: the
deviation norms of a stack, and the fields of a stream's last observation;
and the norm sums and the probe with every transform of zero taken."""

import numpy as np

from hartorus import ensemble, picard
from hartorus.ensemble import _NormSums, deviation_norms
from hartorus.field import fftn, ifftn


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
        for chunk in chunks:  # passed on as they are: a start chunk keeps its mark
            modes, _, u = chunk
            out[modes] = u
            yield chunk

    return ((t, copied(chunks)) for t, chunks in stream), out


class UnskippedSums(_NormSums):
    """_NormSums with every weighted transform taken over the whole chunk on
    the calling thread, all-zero halves included: the sums that skipping
    those halves must give to the bit."""

    def add(self, Z, Z_hat):
        space = tuple(range(1, Z.ndim))
        self.l2 = self.l2 + np.sum(self.dens.add(Z), axis=(0,) + space)
        for sums, weight in self.weighted:
            sums.add(ifftn(weight[None] * Z_hat, axes=space))


def unskipped(monkeypatch):
    """Make deviation_norms, evolve and the Picard norms sum with
    UnskippedSums from here on."""
    monkeypatch.setattr(ensemble, "_NormSums", UnskippedSums)
    monkeypatch.setattr(picard, "_NormSums", UnskippedSums)


class _Nonzero(np.ndarray):
    """An array that says it has a nonzero entry, whatever it holds."""

    def any(self, *args, **kwargs):
        return True


def transforming_every_chunk(deviations):
    """The (t, chunks) deviations passed on with each chunk's Z-hat claiming a
    nonzero entry, so that scattering_probe unwinds every chunk by a
    transform, all-zero chunks included."""
    for t, chunks in deviations:
        yield t, ((modes, Z, Z_hat.view(_Nonzero)) for modes, Z, Z_hat in chunks)
