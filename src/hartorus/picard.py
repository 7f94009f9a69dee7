"""Duhamel fixed-point iteration for the perturbation / induced-potential pair.

One application of the map sends (Z, V) to

    Z' = S(t) [z0-hat - i I(t)],   I(t) = int_0^t S(-s) (w*V)(s) (Y + Z)(s) ds,
    V' = E|Z|^2 + 2 Re E( Y-bar Z' ),

with S(t) = e^{-i t (m - Lap)} applied spectrally and the time integral by
trapezoid on the stored lattice.  Expectations are exact mode sums.  The
equilibrium Y is the ensemble eq, Y(t_s) = eq.equilibrium_at(t_s), and Z0,
the start of the run minus Y(0), is the bump b in its mode.

An application is one pass over the time slices that overwrites Z, V and the
carried integral I in place.  The trapezoid runs in np.cumsum's operand
order, so each slice needs only the previous slice's integrand.  Successive
iterates share z0-hat, so the spectrum of Z' - Z at slice s is
S(t_s) (-i) (I'(s) - I(s)), and the window norms of the difference take no
forward transform of their own; the dyadic blocks of V' - V are one batched
inverse transform per slice.  The first pass maps (0, 0) to the source pair
(S(t) Z0, 2 Re E(Y-bar S(t) Z0)); its integrand is zero and is skipped, and
Z0 is zero outside the bump's mode, so its inverse transform, its Y-bar Z'
product and its difference are made in that mode alone, into the zero
slices of Z and V.  Every other mode adds exact zeros to the mode sums, so
the pair and its norms keep their bits.  Two (n_t, M, *grid) stacks, Z and
I, are live, plus a few slices.

No later slice reads a slice's window norms, so they are tasks of
field.ordered_map, fed lazily by the chain: with two CPUs the norms of slice
s run on the pool beside the chain of slice s+1, each a whole task on one
thread collected in slice order, so the bits do not depend on the pool.  The
weighted transforms inside a norm task run inline on its thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import (BumpSpec, ModeEnsemble, _check_bump, _ModeSum, _NormSums, _summed,
                       deviation_chunks, observations)
from .field import fftn, ifftn, ordered_map
from .lpaley import LittlewoodPaley, critical_exponents, dyadic_norm, lebesgue

_TOL = 1e-12  # a difference below this in every window norm counts as converged


class PicardOperator:
    """The affine-plus-quadratic map on time-sampled (Z, V) pairs around the
    equilibrium eq, with the initial perturbation of bump (none for None)."""

    def __init__(self, eq: ModeEnsemble, bump: Optional[BumpSpec], T: float, n_steps: int):
        self.grid = grid = eq.grid
        self.n_t = n_steps + 1
        self.ts = np.linspace(0.0, T, self.n_t)
        self.dt = T / n_steps
        self.space_axes = tuple(range(1, 1 + grid.d))   # of one (M, *grid) slice
        self.M = eq.n_modes
        self.lp = LittlewoodPaley(grid)                  # the blocks of the window norms

        # S(-t) symbols e^{i t (m + |xi|^2)} on the time lattice
        self.fwd = np.exp(1j * np.multiply.outer(self.ts, eq.m + grid.xi_squared))
        _check_bump(eq, bump)
        self.bump = bump                                 # Z0 is the bump in its mode, zero elsewhere
        self.b_hat = None if bump is None else fftn(bump.field_values(grid))
        self.eq = eq                                     # Y(t_s) = eq.equilibrium_at(t_s)
        self.lp.symbols, self.lp.bessel  # filled here, so no pool thread fills a cache

    def duhamel(self, s: int, F: np.ndarray, I: np.ndarray, G_prev: Optional[np.ndarray]):
        """Slice s of the running integral I(s) = int_0^{t_s} S(-t) F-hat(t) dt.

        F is the integrand (M, *grid) at slice s in space (overwritten); I is
        the integral stack, read at slice s-1, and G_prev the S(-t) F-hat this
        call returned at s-1, None at s = 0.  Returns (I(s), S(-t_s) F-hat).
        """
        G = fftn(F, axes=self.space_axes, overwrite_x=True)
        np.multiply(self.fwd[s], G, out=G)
        if G_prev is None:
            return np.zeros_like(G), G
        return I[s - 1] + 0.5 * self.dt * (G + G_prev), G

    def apply(self, Z: np.ndarray, V: np.ndarray, I: np.ndarray, first: bool = False) -> dict:
        """One application of the map, in place: (Z, V) becomes (Z', V') and I
        the integral that gave Z'.

        Z (n_t, M, *grid) must be S(t)[z0-hat - i I], the image of the pass
        that left I.  With first, Z, V and I are zero: the zero integrand is
        skipped and I is left as it is.  Returns the per-slice ingredients of
        the difference (Z' - Z, V' - V) as (n_t,) arrays, for pair_norms.
        """
        rows = list(ordered_map(lambda _, diff: self._ingredients(*diff), self._slices(Z, V, I, first)))
        return {k: np.array([row[k] for row in rows]) for k in rows[0]}

    def _slices(self, Z: np.ndarray, V: np.ndarray, I: np.ndarray, first: bool):
        """The Duhamel chain of apply, slice after slice: writes slice s of Z,
        V and I and yields (Z' - Z, its spectrum, V' - V) at s."""
        G = None
        for s in range(self.n_t):
            if first:
                yield self._source(s, Z[s], V[s])
                continue
            Ys = self.eq.equilibrium_at(self.ts[s])
            Zs = Z[s]
            back = np.conj(self.fwd[s])
            F = self.eq.potential(V[s]) * (Ys + Zs)
            integral, G = self.duhamel(s, F, I, G)
            dhat = integral - I[s]
            dhat *= -1j
            np.multiply(back, dhat, out=dhat)
            I[s] = integral
            hat = integral * -1j
            if self.bump is not None:
                hat[self.bump.mode] += self.b_hat
            np.multiply(back, hat, out=hat)
            Zn = ifftn(hat, axes=self.space_axes, overwrite_x=True)
            Vn = (np.sum(np.abs(Zs) ** 2, axis=0)
                  + 2.0 * np.sum(np.conj(Ys) * Zn, axis=0).real)
            diff = (Zn - Zs, dhat, Vn - V[s])
            Z[s] = Zn
            V[s] = Vn
            Ys = hat = Zn = F = integral = None  # not held while the next slice is computed
            yield diff

    def _source(self, s: int, Zs: np.ndarray, Vs: np.ndarray) -> tuple:
        """Slice s of the first pass, made in the bump's mode alone: writes
        S(t_s) Z0 and 2 Re E(Y-bar S(t_s) Z0) into the zero slices Zs and Vs
        and returns them as (Z' - Z, its spectrum, V' - V)."""
        hat = np.zeros_like(Zs)
        if self.bump is not None:
            b = slice(self.bump.mode, self.bump.mode + 1)
            np.multiply(np.conj(self.fwd[s]), self.b_hat, out=hat[b])
            Zs[b] = ifftn(hat[b], axes=self.space_axes)
            Vs += 2.0 * (np.conj(self.eq.equilibrium_at(self.ts[s], b)) * Zs[b]).real[0]
        return Zs, hat, Vs

    def _ingredients(self, dz: np.ndarray, dz_hat: np.ndarray, dv: np.ndarray) -> dict:
        """Spatial norms of one slice of a pair difference; dz_hat is the
        unnormalised spectrum of dz (only read)."""
        g = self.grid
        sums = _NormSums(self.lp)
        sums.add(dz, dz_hat)
        out = sums.ingredients()
        out["v_l_half"] = lebesgue(np.abs(dv), (g.d + 2) / 2.0, g.dx, tuple(range(g.d)))
        out["v_l2_besov"] = dyadic_norm(self.lp.block_norms(fftn(dv), 2.0), -0.5, 0.0)
        return out

    def pair_norms(self, rows: dict) -> dict:
        """Window norms of a pair difference from its per-slice ingredients:
        the sup or the trapezoid L^p norm in time of each."""
        d = self.grid.d

        def t_integral(vals, power):
            with np.errstate(over="ignore"):  # past the largest float: inf, a divergence
                return float(np.trapezoid(vals ** power, dx=self.dt) ** (1.0 / power))

        return {"z_sup_l2": float(np.max(rows["l2"])),
                "z_l_dplus2": t_integral(rows["l_dplus2"], d + 2),
                "z_lp_wsp": t_integral(rows["w_sp"], critical_exponents(d)["p"]),
                "z_l4_besov": t_integral(rows["besov_q"], 4),
                "v_l_half": t_integral(rows["v_l_half"], (d + 2) / 2.0),
                "v_l2_besov": t_integral(rows["v_l2_besov"], 2)}


@dataclass
class PicardResult:
    Z: np.ndarray
    V: np.ndarray
    ts: np.ndarray
    diff_norms: list          # per-iteration dict of pair-difference norms
    contraction: list         # per-iteration max ratio over norm ingredients
    converged: bool
    diverged: bool
    n_iterations: int


def picard_solve(op: PicardOperator, max_iters: int) -> PicardResult:
    """Iterate the map from (0, 0) with contraction diagnostics.

    The first pass gives the source pair, whose norms are the first
    difference.  Divergence (ratio above 1 three times in a row, or a
    non-finite difference) halts the iteration with the flag set; differences
    below _TOL halt it as converged.
    The carried integral is dropped on return.
    """
    Z = np.zeros((op.n_t, op.M) + op.grid.shape, dtype=complex)
    V = np.zeros((op.n_t,) + op.grid.shape)
    I = np.zeros_like(Z)
    diffs, factors = [op.pair_norms(op.apply(Z, V, I, first=True))], []
    while True:
        diverged = (not np.all(np.isfinite(list(diffs[-1].values())))
                    or len(factors) >= 3 and all(f > 1.0 for f in factors[-3:]))
        small = max(diffs[-1].values()) < _TOL
        if diverged or small or len(diffs) >= max_iters:
            break
        dn = op.pair_norms(op.apply(Z, V, I))
        ratios = [dn[k] / diffs[-1][k] for k in dn if diffs[-1][k] > 0]
        factors.append(max(ratios) if ratios else 0.0)
        diffs.append(dn)
    converged = not diverged and (small or bool(factors) and factors[-1] < 1.0)
    return PicardResult(Z=Z, V=V, ts=op.ts, diff_norms=diffs, contraction=factors,
                        converged=converged, diverged=diverged, n_iterations=len(diffs))


def reference_trajectory(eq: ModeEnsemble, bump: Optional[BumpSpec], result: PicardResult,
                         substeps: int):
    """Split-step run of the start eq + bump around the equilibrium eq,
    compared with the pair (Z, V) of result on its time lattice result.ts
    (substeps steps per slice) as each slice of the run arrives; nothing of
    the run is stored.

    Returns the (n_t,) L2 gaps ||Z(t_s) - Z_ref(t_s)|| and the (n_t,) max
    gaps max |V(t_s) - V_ref(t_s)|, with Z_ref = u - Y(t_s) and V_ref the
    density of u minus that of Y, u the split-step state at t_s, both taken
    from the stream's mode chunks as they go by.  The L2 gap adds one np.sum
    per mode chunk, so the chunk size regroups it at rounding (2.6e-16
    relative at the picard-d2 size, 2 chunks against 1); the max gaps read
    the density, added mode after mode, and keep their bits.
    """
    Z, V, T = result.Z, result.V, result.ts[-1]
    n_t = len(result.ts)
    dt = T / ((n_t - 1) * substeps)
    z_gap, v_gap = np.empty(n_t), np.empty(n_t)
    for s, (t, chunks) in enumerate(observations(eq, bump, T, dt, substeps)):
        rho, gap = _ModeSum(eq.grid.shape), 0.0
        # each chunk as a plain tuple, read in full: at the start too, Z[0] is compared in every mode
        for modes, Zref, _ in deviation_chunks(eq, t, map(tuple, _summed(chunks, rho))):
            with np.errstate(over="ignore"):  # a diverged iterate's gap past the largest float: inf
                gap += np.sum(np.abs(Z[s][modes] - Zref) ** 2)
        Zref = None  # the next window steps without the last chunk
        z_gap[s] = np.sqrt(gap * eq.grid.dx)
        v_gap[s] = np.max(np.abs(V[s] - (rho.total - np.sum(eq.weights ** 2))))
    return z_gap, v_gap
