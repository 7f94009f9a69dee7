"""Linearized potential response: the multiplier m_f, its table, and margins.

The multiplier is the half-line transform

    m_f(tau, xi) = -2 * integral_0^inf e^{-i tau t} sin(|xi|^2 t) h(2 xi t) dt.

With the sine as two exponentials and h along xi as the transform of the
line marginal rho1 of |f|^2, this is the Lindhard-type form of Lewin and
Sabin's stability condition: with r = |xi| and w-+ = tau/(2r) -+ r/2,

    m_f(tau, xi) = (i/(2r)) [H(w-) - H(w+)],

H from CovarianceProfile.half_line_transform, one batched call per grid;
m_f(-tau) = conj m_f(tau) exactly.  Each half-line transform starts as
h(0)/(i(tau -+ |xi|^2)), so to leading order, wherever |tau -+ |xi|^2| >> |xi|,

    m_f(tau, xi) ~ 2 |xi|^2 h(0) / (tau^2 - |xi|^4).

At fixed xi this decays like tau^-2; along tau = c|xi|^2 (c > 1) like 1/tau,
with tau m_f -> 2c h(0)/(c^2 - 1); at the resonance tau = |xi|^2 only like
tau^-1/2, which is where the weight of decay_bound_check is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .equilibrium import CovarianceProfile, InteractionPotential, sphere_area
from .field import fftn, ifftn
from .grid import TorusGrid

_SHELL_REL_TOL = 0.05       # epsilon_g: last two shell minima agree to this


def compute_mf_batch(cov: CovarianceProfile, taus, xis):
    """m_f on the grid taus x xis, exactly 0 at r = 0; returns (values, errors),
    each (len(taus), len(xis)), the errors (err(w-) + err(w+)) / (2r)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))[:, None]
    r = np.atleast_1d(np.asarray(xis, dtype=float))[None, :]
    live = r > 0.0
    r = np.where(live, r, 1.0)
    shift = taus / (2.0 * r)
    H, err = cov.half_line_transform(np.stack([shift - 0.5 * r, shift + 0.5 * r]))
    vals = np.where(live, (0.5j / r) * (H[0] - H[1]), 0.0)
    errs = np.where(live, (err[0] + err[1]) / (2.0 * r), 0.0)
    return vals, errs


@dataclass
class MultiplierTable:
    """Sampled m_f(tau, |xi|) with per-entry quadrature error estimates."""

    d: int
    taus: np.ndarray           # (n_tau,), symmetric about 0
    xis: np.ndarray            # (n_xi,) radial magnitudes
    values: np.ndarray         # (n_tau, n_xi) complex
    errors: np.ndarray         # (n_tau, n_xi)

    @classmethod
    def build(cls, cov: CovarianceProfile, taus, xis) -> "MultiplierTable":
        taus = np.asarray(taus, dtype=float)
        xis = np.asarray(xis, dtype=float)
        vals, errs = compute_mf_batch(cov, taus, xis)
        return cls(d=cov.d, taus=taus, xis=xis, values=vals, errors=errs)

    def conjugate_symmetry_defect(self) -> float:
        """max |m_f(-tau) - conj m_f(tau)| over grid pairs."""
        i, j = np.nonzero(np.isclose(self.taus[:, None], -self.taus, rtol=0, atol=1e-12))
        return float(np.max(np.abs(self.values[j] - np.conj(self.values[i])), initial=0.0))

    def max_error(self) -> float:
        return float(np.max(self.errors)) if self.errors.size else 0.0

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def default_tau_grid(tau_max: float = 32.0, tau_min: float = 1e-2, n_half: int = 12) -> np.ndarray:
    """Symmetric grid, log-spaced toward 0, with 0 included."""
    pos = np.geomspace(tau_min, tau_max, n_half)
    return np.concatenate([-pos[::-1], [0.0], pos])


def default_xi_grid(grid: TorusGrid, n: int = 16) -> np.ndarray:
    """n radii from the smallest nonzero lattice frequency to the Nyquist one."""
    return np.linspace(grid.xi_min, grid.nyquist, n)


# ---------------------------------------------------------------------------
# the linear operator in both representations


def _radial_lookup(grid: TorusGrid):
    r = grid.xi_norm.ravel()
    uniq, inv = np.unique(r, return_inverse=True)
    return uniq, inv


def apply_L1_time_domain(V_stack, ts, cov: CovarianceProfile, w: InteractionPotential,
                         grid: TorusGrid):
    """Causal in-time convolution per spatial frequency, trapezoid weights.

    V_stack is (n_t, *grid.shape) physical values on the uniform lattice ts;
    ValueError when cov is not a profile in the grid's dimension.
    """
    if cov.d != grid.d:
        raise ValueError(f"profile is for dimension {cov.d}, the grid for {grid.d}")
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    if V_stack.shape[0] != n_t:
        raise ValueError("time axis mismatch")
    dt = ts[1] - ts[0] if n_t > 1 else 0.0

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = fftn(V_stack, axes=space_axes).reshape(n_t, -1)

    uniq, inv = _radial_lookup(grid)
    lag = ts - ts[0]
    kern_r = -2.0 * np.sin(np.outer(lag, uniq ** 2)) * cov(2.0 * np.outer(lag, uniq))
    kern = kern_r[:, inv] * w.what(uniq)[inv][None, :]

    # trapezoid = full convolution (zero-padded past 2 n_t - 1, so the
    # transform does not wrap) minus half of the s=0 and s=t endpoint
    # terms; the kernel vanishes at zero lag so only s=0 remains.
    n_fft = (next_fast_len(2 * n_t - 1),)
    conv = fftn(kern, axes=(0,), s=n_fft)
    conv *= fftn(Vhat, axes=(0,), s=n_fft)
    conv = ifftn(conv, axes=(0,), overwrite_x=True)[:n_t]
    out_hat = dt * (conv - 0.5 * kern * Vhat[0][None, :])
    return ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes, overwrite_x=True)


def apply_L1_frequency_domain(V_stack, ts, cov: CovarianceProfile, w: InteractionPotential,
                              grid: TorusGrid):
    """Same operator through multiplication by w-hat * m_f on the time transform
    zero-padded to a power of 2 >= 2 n_t; m_f comes from rho1, not from the h
    table of the time-domain form, which makes this an independent representation.
    ValueError as there."""
    if cov.d != grid.d:
        raise ValueError(f"profile is for dimension {cov.d}, the grid for {grid.d}")
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    dt = ts[1] - ts[0]
    n_pad = 1 << (2 * n_t - 1).bit_length()

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = fftn(V_stack, axes=space_axes).reshape(n_t, -1)

    taus = 2.0 * math.pi * np.fft.fftfreq(n_pad, d=dt)
    uniq, inv = _radial_lookup(grid)
    mf_cols, _ = compute_mf_batch(cov, taus, uniq)
    symbol = mf_cols[:, inv] * w.what(uniq)[inv][None, :]

    out_pad = fftn(Vhat, axes=(0,), s=(n_pad,))
    out_pad *= symbol
    out_hat = ifftn(out_pad, axes=(0,), overwrite_x=True)[:n_t]
    return ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes, overwrite_x=True)


# ---------------------------------------------------------------------------
# margins and thresholds


@dataclass
class MarginReport:
    margin: float
    arg_tau: float
    arg_xi: float
    sup_wmf: float
    two_sphere_area: float

    @property
    def positive(self) -> bool:
        return self.margin > 0.0


def stability_margin(table: MultiplierTable, w: InteractionPotential) -> MarginReport:
    """Grid minimum of |1 - w-hat(xi) m_f(tau, xi)| with its location."""
    wvals = w.what(table.xis)[None, :]
    field = np.abs(1.0 - wvals * table.values)
    idx = np.unravel_index(np.argmin(field), field.shape)
    return MarginReport(
        margin=float(field[idx]),
        arg_tau=float(table.taus[idx[0]]),
        arg_xi=float(table.xis[idx[1]]),
        sup_wmf=float(np.max(np.abs(wvals * table.values))),
        two_sphere_area=2.0 * sphere_area(table.d),
    )


@dataclass
class EpsilonGReport:
    value: float
    shell_minima: list
    converged: bool


def epsilon_g(cov: CovarianceProfile, n_shells: int = 8) -> EpsilonGReport:
    """Dyadic-shell estimator of the low-frequency threshold.

    Each shell refines (tau, |xi|) toward the origin by a factor 2, from 1;
    the reported value is the sign-flipped running minimum of Re m_f over the
    last shell, normalized by 2|S^{d-1}|, with the full shell trace kept
    for convergence inspection.
    """
    two_area = 2.0 * sphere_area(cov.d)
    if cov.f.is_zero or cov.h0 == 0.0:
        return EpsilonGReport(0.0, [0.0] * n_shells, True)
    r_fracs = np.array([1.0, 0.75, 0.5, 0.375, 0.25])
    tau_fracs = np.array([0.0, 0.25, 0.5, 1.0])
    minima = []
    for rho in (2.0 ** (-k) for k in range(n_shells)):
        taus = np.concatenate([tau_fracs * rho, -tau_fracs[1:] * rho])
        vals, _ = compute_mf_batch(cov, taus, rho * r_fracs)
        minima.append(float(np.min(vals.real)))
    last, prev = minima[-1], minima[-2]
    scale = max(abs(last), abs(prev), 1e-300)
    converged = abs(last - prev) <= _SHELL_REL_TOL * scale
    return EpsilonGReport(value=-last / two_area, shell_minima=minima, converged=converged)


@dataclass
class DecayReport:
    sup_value: float
    arg_tau: float
    arg_xi: float
    finite: bool


def decay_bound_check(table: MultiplierTable) -> DecayReport:
    """sup over the grid of |m_f| (1+|tau|) / (1+|xi|), and where it sits."""
    weight = (1.0 + np.abs(table.taus))[:, None] / (1.0 + table.xis)[None, :]
    field = np.abs(table.values) * weight
    idx = np.unravel_index(np.argmax(field), field.shape)
    sup = float(field[idx])
    return DecayReport(sup_value=sup, arg_tau=float(table.taus[idx[0]]),
                       arg_xi=float(table.xis[idx[1]]), finite=bool(np.isfinite(sup)))


def decay_slope(cov: CovarianceProfile, xi_abs: float, tau_base: float = 4.0, doublings: int = 4):
    """Log-log slope of |m_f| under repeated tau doubling at fixed |xi|.

    At fixed |xi| the slope tends to -2 as tau grows, from the leading form
    2|xi|^2 h(0)/(tau^2 - |xi|^4); the ``tau_slope`` field of
    ``response_report.ndjson`` reports this slope over tau = 4|xi|^2 ...
    64|xi|^2.  The window must lie well above the resonance tau = |xi|^2:
    below it |m_f| is nearly flat in tau.
    """
    taus = tau_base * 2.0 ** np.arange(doublings + 1)
    vals, _ = compute_mf_batch(cov, taus, [xi_abs])
    mags = np.abs(vals[:, 0])
    slope = float(np.polyfit(np.log(taus), np.log(mags), 1)[0])
    return slope, taus, mags
