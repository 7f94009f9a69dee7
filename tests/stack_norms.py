"""The package's deviation norms of a whole (M, *grid) stack."""

from hartorus.ensemble import deviation_norms
from hartorus.field import fftn


def stack_norms(lp, stack, hat=None):
    """deviation_norms of the stack passed as one chunk, with hat its
    unnormalised spectrum over space (transformed here when not given)."""
    if hat is None:
        hat = fftn(stack, axes=tuple(range(1, stack.ndim)))
    return deviation_norms(lp, [(slice(None), stack, hat)])
