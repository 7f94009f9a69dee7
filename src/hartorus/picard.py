"""Duhamel fixed-point iteration for the perturbation / induced-potential pair.

One application of the map sends (Z, V) to

    Z' = S(t) Z0 - i int_0^t S(t-s) (w*V)(s) (Y + Z)(s) ds,
    V' = E|Z|^2 + 2 Re E( Y-bar Z' ),

with S(t) = e^{-i t (m - Lap)} applied spectrally and the time integral by
trapezoid on the stored lattice.  Expectations are exact mode sums.  The
equilibrium Y is the unperturbed ensemble eq (the second value of
add_perturbation), whose exact phases give Y at every sampled time.  The
iteration starts from (0, 0), so the first iterate is the source term pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import (BumpSpec, ModeEnsemble, _dyadic_blocks, _stack_norms, add_perturbation,
                       critical_exponents, evolve)
from .equilibrium import InteractionPotential
from .grid import TorusGrid
from .lpaley import LittlewoodPaley


def _cumtrapz0(arr: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid along axis 0, starting at zero."""
    out = np.zeros_like(arr)
    if arr.shape[0] > 1:
        np.cumsum(0.5 * dt * (arr[1:] + arr[:-1]), axis=0, out=out[1:])
    return out


class PicardOperator:
    """The affine-plus-quadratic map on time-sampled (Z, V) pairs."""

    def __init__(self, grid: TorusGrid, eq: ModeEnsemble,
                 w: InteractionPotential, z0_stack: np.ndarray,
                 T: float, n_steps: int):
        self.grid = grid
        self.m = eq.m
        self.n_t = n_steps + 1
        self.ts = np.linspace(0.0, T, self.n_t)
        self.dt = T / n_steps
        self.space_axes = tuple(range(2, 2 + grid.d))
        self.M = eq.n_modes

        self.what_lattice = w.what(grid.xi_norm)
        self.phase_rate = self.m + grid.xi_squared          # symbol of m - Lap
        self.z0 = np.asarray(z0_stack, dtype=complex)
        if self.z0.shape != (self.M,) + grid.shape:
            raise ValueError("Z0 must be one field per equilibrium mode")

        # equilibrium modes on the whole time lattice, one slice at a time
        self.Y = np.empty((self.n_t, self.M) + grid.shape, dtype=complex)
        for i, t in enumerate(self.ts):
            self.Y[i] = eq.equilibrium_fields(t)

        # free-flow image of the initial perturbation on the time lattice
        z0_hat = np.fft.fftn(self.z0, axes=tuple(range(1, 1 + grid.d)))
        self.SZ0 = np.empty_like(self.Y)
        for i, t in enumerate(self.ts):
            ph = np.exp(-1j * t * self.phase_rate)
            self.SZ0[i] = np.fft.ifftn(ph[None] * z0_hat, axes=tuple(range(1, 1 + grid.d)))

    def zero_pair(self):
        Z = np.zeros((self.n_t, self.M) + self.grid.shape, dtype=complex)
        V = np.zeros((self.n_t,) + self.grid.shape)
        return Z, V

    def convolve_potential(self, V: np.ndarray) -> np.ndarray:
        hat = np.fft.fftn(V.astype(complex), axes=tuple(range(1, 1 + self.grid.d)))
        return np.fft.ifftn(self.what_lattice[None] * hat, axes=tuple(range(1, 1 + self.grid.d))).real

    def duhamel(self, F: np.ndarray) -> np.ndarray:
        """-i int_0^t S(t-s) F(s) ds on the stack F (n_t, M, *grid)."""
        hat = np.fft.fftn(F, axes=self.space_axes)
        fwd = np.exp(1j * np.multiply.outer(self.ts, self.phase_rate))  # S(-s) symbols
        integ = _cumtrapz0(fwd[:, None] * hat, self.dt)
        out_hat = -1j * np.conj(fwd)[:, None] * integ
        return np.fft.ifftn(out_hat, axes=self.space_axes)

    def apply(self, Z: np.ndarray, V: np.ndarray):
        """One application of the map; returns (Z', V')."""
        wV = self.convolve_potential(V)
        F = wV[:, None] * (self.Y + Z)
        Znew = self.SZ0 + self.duhamel(F)
        Vnew = (np.sum(np.abs(Z) ** 2, axis=1)
                + 2.0 * np.sum(np.conj(self.Y) * Znew, axis=1).real)
        return Znew, Vnew

    # parts of the decomposition, exposed for the source/linear/quadratic split
    def source_pair(self):
        Z = self.SZ0
        V = 2.0 * np.sum(np.conj(self.Y) * Z, axis=1).real
        return Z.copy(), V

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
        for j, block in _dyadic_blocks(g, np.fft.fftn(V.astype(complex), axes=space), lp):
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


def picard_solve(op: PicardOperator, max_iters: int = 12, tol: float = 1e-12) -> PicardResult:
    """Iterate the map from (0,0) with contraction diagnostics.

    Divergence (ratio above 1 three times in a row) halts the iteration
    with the flag set.
    """
    lp = LittlewoodPaley(op.grid)
    Z, V = op.zero_pair()
    diffs, factors = [], []
    prev_diff = None
    bad = 0
    converged = diverged = False
    n_done = 0
    for it in range(max_iters):
        Zn, Vn = op.apply(Z, V)
        dn = op.pair_norms(Zn - Z, Vn - V, lp)
        diffs.append(dn)
        if prev_diff is not None:
            ratios = [dn[k] / prev_diff[k] for k in dn if prev_diff[k] > 0]
            factor = max(ratios) if ratios else 0.0
            factors.append(factor)
            bad = bad + 1 if factor > 1.0 else 0
        prev_diff = dn
        Z, V = Zn, Vn
        n_done = it + 1
        size = max(dn.values())
        if bad >= 3:
            diverged = True
            break
        if size < tol:
            converged = True
            break
    else:
        converged = bool(factors) and factors[-1] < 1.0
    return PicardResult(Z=Z, V=V, ts=op.ts, diff_norms=diffs, contraction=factors,
                        converged=converged, diverged=diverged, n_iterations=n_done)


def reference_trajectory(ens_eq: ModeEnsemble, spec: BumpSpec,
                         T: float, n_steps: int, substeps: int = 10):
    """Split-step companion run sampled on the same time lattice.

    Returns (ts, Z_stack, V_stack) with shapes matching the fixed-point pair.
    """
    perturbed, eq = add_perturbation(ens_eq, spec)
    dt = T / (n_steps * substeps)
    traj = evolve(perturbed, T, dt, obs_stride=substeps, reference=eq,
                  snapshot_stride=1)
    Z = traj.snapshots
    ts = traj.snapshot_times
    rho_eq = float(np.sum(eq.weights ** 2))
    # V on the same lattice from the stored snapshots plus the equilibrium
    V = np.empty((len(ts),) + eq.grid.shape)
    for i, t in enumerate(ts):
        V[i] = np.sum(np.abs(eq.equilibrium_fields(t) + Z[i]) ** 2, axis=0) - rho_eq
    return ts, Z, V
