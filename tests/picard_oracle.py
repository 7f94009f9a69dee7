"""The time-batched Picard map, kept as a test oracle.

It holds every slice at once: the equilibrium stack Y, the integrand, its
spectrum and the cumulative trapezoid are (n_t, M, *grid) stacks, and the
window norms transform the difference of two iterates.  It shares with the
streamed PicardOperator only the arrays the operator builds once (fwd and
z0_hat), Y(t) from its equilibrium's equilibrium_at, convolve_potential,
deviation_norms (slice by slice, through stack_norms) and the spatial kernel
_dyadic_blocks.
"""

import numpy as np

from hartorus.ensemble import _dyadic_blocks, critical_exponents
from hartorus.field import fftn, ifftn
from hartorus.lpaley import LittlewoodPaley
from stack_norms import stack_norms


def _stack_axes(op):
    return tuple(range(2, 2 + op.grid.d))


def equilibrium_stack(op):
    """Y on the whole time lattice, (n_t, M, *grid)."""
    return np.stack([op.eq.equilibrium_at(t) for t in op.ts])


def cumtrapz0(arr, dt):
    """Cumulative trapezoid along axis 0, starting at zero."""
    out = np.zeros_like(arr)
    if arr.shape[0] > 1:
        np.cumsum(0.5 * dt * (arr[1:] + arr[:-1]), axis=0, out=out[1:])
    return out


def duhamel(op, F):
    """S(t) [z0-hat - i int_0^t S(-s) F-hat(s) ds] on the stack F (n_t, M, *grid)."""
    axes = _stack_axes(op)
    hat = fftn(F, axes=axes)
    integ = cumtrapz0(np.multiply(op.fwd[:, None], hat, out=hat), op.dt)
    integ *= -1j
    integ += op.z0_hat
    return ifftn(np.multiply(np.conj(op.fwd)[:, None], integ, out=integ),
                 axes=axes, overwrite_x=True)


def apply(op, Z, V):
    """One application of the map on whole stacks; returns (Z', V')."""
    Y = equilibrium_stack(op)
    Znew = duhamel(op, op.convolve_potential(V)[:, None] * (Y + Z))
    Vnew = np.sum(np.abs(Z) ** 2, axis=1) + 2.0 * np.sum(np.conj(Y) * Znew, axis=1).real
    return Znew, Vnew


def source_pair(op):
    """The image of (0, 0): the free flow S(t) Z0 and 2 Re E(Y-bar S(t) Z0)."""
    Z = ifftn(np.conj(op.fwd)[:, None] * op.z0_hat, axes=_stack_axes(op), overwrite_x=True)
    return Z, 2.0 * np.sum(np.conj(equilibrium_stack(op)) * Z, axis=1).real


def pair_norms(op, Z, V, lp=None):
    """Window norms of a pair: time norms of the solution-space ingredients,
    each stack transformed here."""
    g = op.grid
    d = g.d
    lp = lp or LittlewoodPaley(g)
    space = tuple(range(1, 1 + d))

    def t_integral(vals, power):
        return float(np.trapezoid(vals ** power, dx=op.dt) ** (1.0 / power))

    rows = [stack_norms(lp, Zs) for Zs in Z]
    z = {k: np.array([row[k] for row in rows]) for k in rows[0]}
    out = {"z_sup_l2": float(np.max(z["l2"])),
           "z_l_dplus2": t_integral(z["l_dplus2"], d + 2),
           "z_lp_wsp": t_integral(z["w_sp"], critical_exponents(d)["p"]),
           "z_l4_besov": t_integral(z["besov_q"], 4)}
    vp = (d + 2) / 2.0
    out["v_l_half"] = t_integral((np.sum(np.abs(V) ** vp, axis=space) * g.dx) ** (1.0 / vp), vp)
    acc = np.zeros(op.n_t)
    for j, block in _dyadic_blocks(lp, fftn(V, axes=space)):
        n2 = np.sqrt(np.sum(np.abs(block) ** 2, axis=space) * g.dx)
        acc += (2.0 ** (-j) if j < 0 else 1.0) * n2 ** 2
    out["v_l2_besov"] = t_integral(np.sqrt(acc), 2)
    return out


def iterate(op, n, lp=None):
    """The first n iterates from the source pair and the norms of their
    differences: [(Z, V, norms)], the source pair's norms taken of itself."""
    lp = lp or LittlewoodPaley(op.grid)
    Z, V = source_pair(op)
    out = [(Z, V, pair_norms(op, Z, V, lp))]
    while len(out) < n:
        Zn, Vn = apply(op, Z, V)
        out.append((Zn, Vn, pair_norms(op, Zn - Z, Vn - V, lp)))
        Z, V = Zn, Vn
    return out
