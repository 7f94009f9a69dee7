"""Linearized potential response: the multiplier m_f, its table, and margins.

The multiplier is the half-line transform

    m_f(tau, xi) = -2 * integral_0^inf e^{-i tau t} sin(|xi|^2 t) h(2 xi t) dt,

evaluated by panel Gauss quadrature with panel lengths tied to the total
oscillation rate and a tail bound drawn from the <x>^-2 decay of the
covariance profile.  A whole tau-batch shares one set of panels, which is
what makes dense tables affordable.

Writing the sine as two exponentials, each half-line transform of
h(2|xi|t) starts as h(0)/(i(tau -+ |xi|^2)), so to leading order, wherever
|tau -+ |xi|^2| >> |xi|,

    m_f(tau, xi) ~ 2 |xi|^2 h(0) / (tau^2 - |xi|^4).

At fixed xi this decays like tau^-2; along tau = c|xi|^2 (c > 1) like 1/tau,
with tau m_f -> 2c h(0)/(c^2 - 1); at the resonance tau = |xi|^2 only like
tau^-1/2, which is where the weight of decay_bound_check is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import fftconvolve

from .equilibrium import CovarianceProfile, InteractionPotential, as_profile, sphere_area
from .grid import TorusGrid

_GAUSS_HI = np.polynomial.legendre.leggauss(32)
_GAUSS_LO = np.polynomial.legendre.leggauss(16)
_PERIODS_PER_PANEL = 5.0


def _oscillation_rate(cov: CovarianceProfile, tau_max: float, xi_abs: float) -> float:
    r_sup = 1.0 if cov.f.is_zero else cov.f.support_radius(1e-10)
    return tau_max + xi_abs * xi_abs + 2.0 * xi_abs * r_sup


def compute_mf_batch(cov: CovarianceProfile, taus, xi_abs: float, rel_tail: float = 1e-10):
    """m_f at one radius for a whole batch of taus; returns (values, errors)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if xi_abs == 0.0 or cov.f.is_zero or cov.h0 == 0.0:
        return np.zeros(len(taus), dtype=complex), np.zeros(len(taus))

    _ = cov.spline  # force the table
    t_end = cov.x_max / (2.0 * xi_abs)
    omega = _oscillation_rate(cov, float(np.max(np.abs(taus))), xi_abs)
    panel = 2.0 * math.pi * _PERIODS_PER_PANEL / max(omega, 1e-12)
    panel = min(panel, max(t_end / 8.0, 1e-12))

    c2 = cov.decay_constant()
    b = xi_abs * xi_abs

    xh, wh = _GAUSS_HI
    xl, wl = _GAUSS_LO
    vals = np.zeros(len(taus), dtype=complex)
    errs = np.zeros(len(taus))

    def panel_sum(t0, t1, nodes, weights):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts = mid + half * nodes
        g = -2.0 * np.sin(b * ts) * cov(2.0 * xi_abs * ts)
        return half * (np.exp(-1j * np.outer(taus, ts)) * (weights * g)).sum(axis=1)

    t0 = 0.0
    while t0 < t_end:
        t1 = min(t0 + panel, t_end)
        hi = panel_sum(t0, t1, xh, wh)
        lo = panel_sum(t0, t1, xl, wl)
        vals += hi
        errs += np.abs(hi - lo)
        t0 = t1
        # tail bound from |h(x)| <= C <x>^-2
        if c2 > 0.0:
            tail = c2 / (2.0 * xi_abs) * (math.pi / 2.0 - math.atan(2.0 * xi_abs * t0))
            acc = float(np.min(np.abs(vals)))
            if tail < rel_tail * max(acc, 1e-300) and t0 > 4.0 * panel:
                errs += tail
                break
    else:
        if cov.table_truncated and c2 > 0.0:
            # the profile never fell below the table floor; charge the cut tail
            errs += c2 / (2.0 * xi_abs) * (math.pi / 2.0 - math.atan(2.0 * xi_abs * t_end))

    return vals, errs


def compute_mf(f, d: Optional[int], tau: float, xi_abs: float):
    """m_f(tau, |xi|) with an error estimate; exactly 0 at |xi| = 0."""
    cov = as_profile(f, d)
    vals, errs = compute_mf_batch(cov, [tau], xi_abs)
    return complex(vals[0]), float(errs[0])


@dataclass
class MultiplierTable:
    """Sampled m_f(tau, |xi|) with per-entry quadrature error estimates."""

    d: int
    taus: np.ndarray           # (n_tau,), symmetric about 0
    xis: np.ndarray            # (n_xi,) radial magnitudes
    values: np.ndarray         # (n_tau, n_xi) complex
    errors: np.ndarray         # (n_tau, n_xi)

    @classmethod
    def build(cls, f, d: int, taus, xis) -> "MultiplierTable":
        cov = as_profile(f, d)
        taus = np.asarray(taus, dtype=float)
        xis = np.asarray(xis, dtype=float)
        vals = np.zeros((len(taus), len(xis)), dtype=complex)
        errs = np.zeros((len(taus), len(xis)))
        for i, r in enumerate(xis):
            vals[:, i], errs[:, i] = compute_mf_batch(cov, taus, float(r))
        return cls(d=d, taus=taus, xis=xis, values=vals, errors=errs)

    def conjugate_symmetry_defect(self) -> float:
        """max |m_f(-tau) - conj m_f(tau)| over grid pairs."""
        order = np.argsort(self.taus)
        ts, vs = self.taus[order], self.values[order]
        defect = 0.0
        for i, t in enumerate(ts):
            jmatch = np.where(np.isclose(ts, -t, rtol=0, atol=1e-12))[0]
            if len(jmatch):
                defect = max(defect, float(np.max(np.abs(vs[jmatch[0]] - np.conj(vs[i])))))
        return defect

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


def apply_L1_time_domain(V_stack, ts, f, w: InteractionPotential, grid: TorusGrid, d: Optional[int] = None):
    """Causal in-time convolution per spatial frequency, trapezoid weights.

    V_stack is (n_t, *grid.shape) physical values on the uniform lattice ts.
    """
    cov = as_profile(f, d)
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    if V_stack.shape[0] != n_t:
        raise ValueError("time axis mismatch")
    dt = ts[1] - ts[0] if n_t > 1 else 0.0

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = np.fft.fftn(V_stack, axes=space_axes).reshape(n_t, -1)

    uniq, inv = _radial_lookup(grid)
    lag = ts - ts[0]
    kern_r = -2.0 * np.sin(np.outer(lag, uniq ** 2)) * cov(2.0 * np.outer(lag, uniq))
    kern = kern_r[:, inv] * w.what(uniq)[inv][None, :]

    # trapezoid = full convolution minus half of the s=0 and s=t endpoint
    # terms; the kernel vanishes at zero lag so only s=0 remains.
    conv = fftconvolve(kern, Vhat, axes=0)[:n_t]
    out_hat = dt * (conv - 0.5 * kern * Vhat[0][None, :])
    out = np.fft.ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes)
    return out


def apply_L1_frequency_domain(V_stack, ts, f, w: InteractionPotential, grid: TorusGrid,
                              d: Optional[int] = None, pad_factor: int = 2):
    """Same operator through multiplication by w-hat * m_f on a padded
    windowed time transform; the quadrature-backed multiplier makes this an
    independent representation."""
    cov = as_profile(f, d)
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    dt = ts[1] - ts[0]
    n_pad = 1
    while n_pad < pad_factor * n_t:
        n_pad *= 2

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = np.fft.fftn(V_stack, axes=space_axes).reshape(n_t, -1)
    Vpad = np.zeros((n_pad, Vhat.shape[1]), dtype=complex)
    Vpad[:n_t] = Vhat

    taus = 2.0 * math.pi * np.fft.fftfreq(n_pad, d=dt)
    uniq, inv = _radial_lookup(grid)
    mf_cols = np.zeros((n_pad, len(uniq)), dtype=complex)
    for i, r in enumerate(uniq):
        mf_cols[:, i], _ = compute_mf_batch(cov, taus, float(r))
    symbol = mf_cols[:, inv] * w.what(uniq)[inv][None, :]

    out_pad = np.fft.ifft(symbol * np.fft.fft(Vpad, axis=0), axis=0)
    out_hat = out_pad[:n_t]
    out = np.fft.ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes)
    return out


# ---------------------------------------------------------------------------
# margins and thresholds


@dataclass
class MarginReport:
    margin: float
    arg_tau: float
    arg_xi: float
    sup_wmf: float
    two_sphere_area: float
    d: int

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
        d=table.d,
    )


@dataclass
class EpsilonGReport:
    value: float
    shell_minima: list
    shell_radii: list
    converged: bool
    interval: tuple

    @property
    def flagged(self) -> bool:
        return not self.converged


def epsilon_g(f, d: int, rho0: float = 1.0, n_shells: int = 8, rel_tol: float = 0.05) -> EpsilonGReport:
    """Dyadic-shell estimator of the low-frequency threshold.

    Each shell refines (tau, |xi|) toward the origin by a factor 2; the
    reported value is the sign-flipped running minimum of Re m_f over the
    last shell, normalized by 2|S^{d-1}|, with the full shell trace kept
    for convergence inspection.
    """
    cov = as_profile(f, d)
    two_area = 2.0 * sphere_area(d)
    if cov.f.is_zero or cov.h0 == 0.0:
        return EpsilonGReport(0.0, [0.0] * n_shells, [rho0 * 2.0 ** (-k) for k in range(n_shells)],
                              True, (0.0, 0.0))
    r_fracs = np.array([1.0, 0.75, 0.5, 0.375, 0.25])
    tau_fracs = np.array([0.0, 0.25, 0.5, 1.0])
    minima = []
    radii = []
    for k in range(n_shells):
        rho = rho0 * 2.0 ** (-k)
        shell_min = math.inf
        for rf in r_fracs:
            r = rho * rf
            taus = np.concatenate([tau_fracs * rho, -tau_fracs[1:] * rho])
            vals, _ = compute_mf_batch(cov, taus, r)
            shell_min = min(shell_min, float(np.min(vals.real)))
        minima.append(shell_min)
        radii.append(rho)
    last, prev = minima[-1], minima[-2]
    scale = max(abs(last), abs(prev), 1e-300)
    converged = abs(last - prev) <= rel_tol * scale
    tail = minima[-3:]
    interval = (-max(tail) / two_area, -min(tail) / two_area)
    return EpsilonGReport(value=-last / two_area, shell_minima=minima, shell_radii=radii,
                          converged=converged, interval=interval)


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


def decay_slope(f, d: int, xi_abs: float, tau_base: float = 4.0, doublings: int = 4):
    """Log-log slope of |m_f| under repeated tau doubling at fixed |xi|.

    At fixed |xi| the slope tends to -2 as tau grows, from the leading form
    2|xi|^2 h(0)/(tau^2 - |xi|^4); the ``tau_slope`` field of
    ``response_report.ndjson`` reports this slope over tau = 4|xi|^2 ...
    64|xi|^2.  The window must lie well above the resonance tau = |xi|^2:
    below it |m_f| is nearly flat in tau.
    """
    cov = as_profile(f, d)
    taus = tau_base * 2.0 ** np.arange(doublings + 1)
    vals, _ = compute_mf_batch(cov, taus, xi_abs)
    mags = np.abs(vals)
    slope = float(np.polyfit(np.log(taus), np.log(mags), 1)[0])
    return slope, taus, mags
