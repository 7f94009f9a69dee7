"""Whole (M, *grid) stacks through the package's chunked interfaces: the
deviation norms of a stack, and the fields of a stream's last observation;
and the norm sums, evolve and the probe with every transform of zero taken."""

from dataclasses import replace
from functools import partial

import numpy as np

from hartorus import ensemble, picard
from hartorus.ensemble import _NormSums, _squares
from hartorus.field import fftn, ifftn


def chunk_norms(lp, chunks):
    """The deviation norms of (modes, Z, Z-hat) chunks given in full, in mode
    order: each chunk through _NormSums.add, as a Picard slice is summed, and
    its |Z-hat|^2 into the power behind hs."""
    sums = ensemble._NormSums(lp)
    for _, Z, Z_hat in chunks:
        sums.add(Z, Z_hat)
        sums.power.add_squares(_squares(Z_hat, np.empty((len(Z_hat) + 1,) + Z_hat.shape[1:])))
    return {k: float(v) for k, v in sums.ingredients(hs=True).items()}


def stack_norms(lp, stack, hat=None):
    """The deviation norms of the stack passed as one chunk (chunk_norms),
    with hat its unnormalised spectrum over space (transformed here when not
    given)."""
    if hat is None:
        hat = fftn(stack, axes=tuple(range(1, stack.ndim)))
    return chunk_norms(lp, [(slice(None), stack, hat)])


def keeping_fields(eq, stream):
    """(observations, fields): the (t, chunks) observations of stream, a run
    of the ensemble eq, passed on, and an (M, *grid) stack into which each
    chunk's fields are copied as the part that reads them makes them; once
    the stream ends, it holds the fields of the last observation."""
    out = np.empty((eq.n_modes,) + eq.grid.shape, dtype=complex)

    def copying(chunk, into):
        u = chunk.fields(into)
        out[chunk.modes] = u
        return u

    def copied(chunks):  # each chunk as it is but for its fields: a start chunk keeps its mark
        return (replace(chunk, fields=partial(copying, chunk)) for chunk in chunks)

    return ((t, copied(chunks)) for t, chunks in stream), out


class UnskippedSums(_NormSums):
    """_NormSums with every weighted transform of a chunk given in full
    taken over the whole chunk on the calling thread, all-zero modes
    included: the sums that skipping those modes must give to the bit."""

    def weighted_rows(self, Z_hat):
        space = tuple(range(1, Z_hat.ndim))
        for k, (_, weight) in enumerate(self.weighted):
            rows = np.empty((len(Z_hat) + 1,) + Z_hat.shape[1:])
            yield k, _squares(ifftn(weight[None] * Z_hat, axes=space), rows)


def every_mode_transformed(monkeypatch):
    """Make every mode of a weighted or unwound spectrum count as nonzero
    from here on, so that evolve's norms and scattering_probe transform
    every chunk, all-zero modes included."""
    monkeypatch.setattr(ensemble, "_nonzero", lambda x: np.ones(len(x), dtype=bool))


def unskipped(monkeypatch):
    """Make chunk_norms and the Picard norms sum with UnskippedSums, and
    evolve's norms transform every mode, from here on."""
    monkeypatch.setattr(ensemble, "_NormSums", UnskippedSums)
    monkeypatch.setattr(picard, "_NormSums", UnskippedSums)
    every_mode_transformed(monkeypatch)
