"""Duhamel fixed-point iteration for the perturbation / induced-potential pair.

One application of the map sends (Z, V) to

    Z' = S(t) [z0-hat - i int_0^t S(-s) (w*V)(s) (Y + Z)(s) ds],
    V' = E|Z|^2 + 2 Re E( Y-bar Z' ),

with S(t) = e^{-i t (m - Lap)} applied spectrally and the time integral by
trapezoid on the stored lattice.  Expectations are exact mode sums.  The
equilibrium Y is the unperturbed ensemble eq (the second value of
add_perturbation), whose exact phases give Y at every sampled time.  The
iteration starts at the source pair (S(t) Z0, 2 Re E(Y-bar S(t) Z0)), the
image of (0, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import ModeEnsemble, _dyadic_blocks, _stack_norms, critical_exponents, evolve
from .field import fftn, ifftn
from .lpaley import LittlewoodPaley

_TOL = 1e-12        # a difference below this in every window norm counts as converged


def _cumtrapz0(arr: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at zero."""
    out = np.zeros_like(arr)
    if arr.shape[0] > 1:
        np.cumsum(0.5 * dt * (arr[1:] + arr[:-1]), axis=0, out=out[1:])
    return out


class PicardOperator:
    """The affine-plus-quadratic map on time-sampled (Z, V) pairs around the
    equilibrium eq, with initial perturbation z0 (M, *grid)."""

    def __init__(self, eq: ModeEnsemble, z0: np.ndarray, T: float, n_steps: int):
        self.grid = grid = eq.grid
        self.n_t = n_steps + 1
        self.ts = np.linspace(0.0, T, self.n_t)
        self.dt = T / n_steps
        self.space_axes = tuple(range(2, 2 + grid.d))
        self.M = eq.n_modes

        self.what_lattice = eq.w.what(grid.xi_norm)
        # S(-t) symbols e^{i t (m + |xi|^2)} on the time lattice
        self.fwd = np.exp(1j * np.multiply.outer(self.ts, eq.m + grid.xi_squared))
        z0 = np.asarray(z0, dtype=complex)
        if z0.shape != (self.M,) + grid.shape:
            raise ValueError("Z0 must be one field per equilibrium mode")
        self.z0_hat = fftn(z0, axes=tuple(range(1, 1 + grid.d)))

        # equilibrium modes on the whole time lattice: eq's stored plane waves
        # times one (n_t, M) array of phases
        self.Y = eq.equilibrium_at(self.ts)

    def convolve_potential(self, V: np.ndarray) -> np.ndarray:
        hat = fftn(V, axes=tuple(range(1, 1 + self.grid.d)))
        hat *= self.what_lattice
        return ifftn(hat, axes=tuple(range(1, 1 + self.grid.d)), overwrite_x=True).real

    def duhamel(self, F: np.ndarray) -> np.ndarray:
        """S(t) [z0-hat - i int_0^t S(-s) F-hat(s) ds] on the stack F (n_t, M, *grid)."""
        hat = fftn(F, axes=self.space_axes)
        integ = _cumtrapz0(np.multiply(self.fwd[:, None], hat, out=hat), self.dt)
        integ *= -1j
        integ += self.z0_hat
        # the z0-hat term in source_pair's operand order, so that apply(0, 0)
        # is source_pair() bit for bit
        return ifftn(np.multiply(np.conj(self.fwd)[:, None], integ, out=integ),
                     axes=self.space_axes, overwrite_x=True)

    def apply(self, Z: np.ndarray, V: np.ndarray):
        """One application of the map; returns (Z', V')."""
        Znew = self.duhamel(self.convolve_potential(V)[:, None] * (self.Y + Z))
        Vnew = (np.sum(np.abs(Z) ** 2, axis=1)
                + 2.0 * np.sum(np.conj(self.Y) * Znew, axis=1).real)
        return Znew, Vnew

    def source_pair(self):
        """The image of (0, 0): the free flow S(t) Z0 and 2 Re E(Y-bar S(t) Z0)."""
        Z = ifftn(np.conj(self.fwd)[:, None] * self.z0_hat, axes=self.space_axes, overwrite_x=True)
        return Z, 2.0 * np.sum(np.conj(self.Y) * Z, axis=1).real

    def pair_norms(self, Z: np.ndarray, V: np.ndarray, lp: Optional[LittlewoodPaley] = None) -> dict:
        """Window norms of a pair: time norms of the solution-space ingredients."""
        g = self.grid
        d = g.d
        lp = lp or LittlewoodPaley(g)
        space = tuple(range(1, 1 + d))

        def t_integral(vals, power):
            return float(np.trapezoid(vals ** power, dx=self.dt) ** (1.0 / power))

        z, _ = _stack_norms(g, Z, lp)
        out = {"z_sup_l2": float(np.max(z["l2"])),
               "z_l_dplus2": t_integral(z["l_dplus2"], d + 2),
               "z_lp_wsp": t_integral(z["w_sp"], critical_exponents(d)["p"]),
               "z_l4_besov": t_integral(z["besov_q"], 4)}
        vp = (d + 2) / 2.0
        out["v_l_half"] = t_integral((np.sum(np.abs(V) ** vp, axis=space) * g.dx) ** (1.0 / vp), vp)
        acc = np.zeros(self.n_t)
        for j, block in _dyadic_blocks(g, fftn(V, axes=space), lp):
            n2 = np.sqrt(np.sum(np.abs(block) ** 2, axis=space) * g.dx)
            acc += (2.0 ** (-j) if j < 0 else 1.0) * n2 ** 2
        out["v_l2_besov"] = t_integral(np.sqrt(acc), 2)
        return out


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


def picard_solve(op: PicardOperator, max_iters: int = 12) -> PicardResult:
    """Iterate the map from the source pair with contraction diagnostics.

    The source pair is the first iterate and its norms the first difference.
    Divergence (ratio above 1 three times in a row) halts the iteration with
    the flag set; differences below _TOL halt it as converged.
    """
    lp = LittlewoodPaley(op.grid)
    Z, V = op.source_pair()
    diffs, factors = [op.pair_norms(Z, V, lp)], []
    while True:
        diverged = len(factors) >= 3 and all(f > 1.0 for f in factors[-3:])
        small = max(diffs[-1].values()) < _TOL
        if diverged or small or len(diffs) >= max_iters:
            break
        Zn, Vn = op.apply(Z, V)
        dn = op.pair_norms(Zn - Z, Vn - V, lp)
        ratios = [dn[k] / diffs[-1][k] for k in dn if diffs[-1][k] > 0]
        factors.append(max(ratios) if ratios else 0.0)
        diffs.append(dn)
        Z, V = Zn, Vn
    converged = not diverged and (small or bool(factors) and factors[-1] < 1.0)
    return PicardResult(Z=Z, V=V, ts=op.ts, diff_norms=diffs, contraction=factors,
                        converged=converged, diverged=diverged, n_iterations=len(diffs))


def reference_trajectory(perturbed: ModeEnsemble, eq: ModeEnsemble,
                         T: float, n_steps: int, substeps: int = 10):
    """Split-step run of perturbed against its equilibrium eq, sampled on the
    Picard time lattice.

    Returns (ts, Z_stack, V_stack) with shapes matching the fixed-point pair.
    """
    dt = T / (n_steps * substeps)
    traj = evolve(perturbed, T, dt, obs_stride=substeps, reference=eq,
                  snapshot_stride=1)
    Z = traj.snapshots
    ts = traj.snapshot_times
    rho_eq = float(np.sum(eq.weights ** 2))
    # V on the same lattice from the stored snapshots plus the equilibrium
    V = np.empty((len(ts),) + eq.grid.shape)
    for i, t in enumerate(ts):
        V[i] = np.sum(np.abs(eq.equilibrium_at(t) + Z[i]) ** 2, axis=0) - rho_eq
    return ts, Z, V
