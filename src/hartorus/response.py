"""Linearized potential response: the multiplier m_f, its table, and margins.

The multiplier is the half-line transform

    m_f(tau, xi) = -2 * integral_0^inf e^{-i tau t} sin(|xi|^2 t) h(2 xi t) dt.

With the sine as two exponentials and h along xi as the transform of the
line marginal rho1 of |f|^2, this is the Lindhard-type form of Lewin and
Sabin's stability condition: with r = |xi| and w-+ = tau/(2r) -+ r/2,

    m_f(tau, xi) = (i/(2r)) [H(w-) - H(w+)],

H from CovarianceProfile.half_line_transform, one batched call per grid;
m_f(-tau) = conj m_f(tau) exactly.  The error estimates of m_f are computed
only for a caller that reads them, linear-response's table: they cost the
16-point line table and principal values beside the 32-point pass.

Each half-line transform starts as h(0)/(i(tau -+ |xi|^2)), so to leading
order, wherever |tau -+ |xi|^2| >> |xi|,

    m_f(tau, xi) ~ 2 |xi|^2 h(0) / (tau^2 - |xi|^4).

At fixed xi this decays like tau^-2; along tau = c|xi|^2 (c > 1) like 1/tau,
with tau m_f -> 2c h(0)/(c^2 - 1); at the resonance tau = |xi|^2 only like
tau^-1/2, which is where the weight of decay_bound_check is tight.

The stability condition is read off m_f and the h table; the operator L1 in
both forms, which checks the two against each other, is a test oracle in
tests/l1_oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import CovarianceProfile, InteractionPotential, sphere_area
from .grid import TorusGrid

_SHELL_REL_TOL = 0.05       # epsilon_g: last two shell minima agree to this
_N_SHELLS = 8               # epsilon_g: dyadic shells toward the origin
_DOUBLINGS = 4              # decay_slope: tau doublings past tau_base


def compute_mf_batch(cov: CovarianceProfile, taus, xis, errors: bool = True):
    """m_f on the grid taus x xis, exactly 0 at r = 0; returns (values, errors),
    each (len(taus), len(xis)), the errors (err(w-) + err(w+)) / (2r).  The
    errors cost a 16-point pass and are None when errors is false: the margin,
    epsilon_g and the decay slope read values only, linear-response reports
    the estimates."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))[:, None]
    r = np.atleast_1d(np.asarray(xis, dtype=float))[None, :]
    live = r > 0.0
    r = np.where(live, r, 1.0)
    shift = taus / (2.0 * r)
    H, err = cov.half_line_transform(np.stack([shift - 0.5 * r, shift + 0.5 * r]), errors)
    vals = np.where(live, (0.5j / r) * (H[0] - H[1]), 0.0)
    errs = np.where(live, (err[0] + err[1]) / (2.0 * r), 0.0) if errors else None
    return vals, errs


@dataclass
class MultiplierTable:
    """Sampled m_f(tau, |xi|) with per-entry quadrature error estimates (None
    when built without errors)."""

    d: int
    taus: np.ndarray           # (n_tau,), symmetric about 0
    xis: np.ndarray            # (n_xi,) radial magnitudes
    values: np.ndarray         # (n_tau, n_xi) complex
    errors: np.ndarray | None  # (n_tau, n_xi)

    @classmethod
    def build(cls, cov: CovarianceProfile, taus, xis, errors: bool = True) -> "MultiplierTable":
        taus = np.asarray(taus, dtype=float)
        xis = np.asarray(xis, dtype=float)
        vals, errs = compute_mf_batch(cov, taus, xis, errors)
        return cls(d=cov.d, taus=taus, xis=xis, values=vals, errors=errs)

    def conjugate_symmetry_defect(self) -> float:
        """max |m_f(-tau) - conj m_f(tau)| over the pairs of tau i and tau
        n_tau - 1 - i, which are -tau and tau on a grid symmetric about 0."""
        return float(np.max(np.abs(self.values[::-1] - np.conj(self.values)), initial=0.0))

    def max_error(self) -> float:
        return float(np.max(self.errors)) if self.errors.size else 0.0

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


def default_tau_grid(tau_max: float, tau_min: float, n_half: int) -> np.ndarray:
    """Symmetric grid, log-spaced toward 0, with 0 included."""
    pos = np.geomspace(tau_min, tau_max, n_half)
    return np.concatenate([-pos[::-1], [0.0], pos])


def default_xi_grid(grid: TorusGrid, n: int) -> np.ndarray:
    """n radii from the smallest nonzero lattice frequency to the Nyquist one."""
    return np.linspace(grid.xi_min, grid.nyquist, n)


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


def epsilon_g(cov: CovarianceProfile) -> EpsilonGReport:
    """Dyadic-shell estimator of the low-frequency threshold.

    Each shell refines (tau, |xi|) toward the origin by a factor 2, from 1;
    the reported value is the sign-flipped running minimum of Re m_f over the
    last shell, normalized by 2|S^{d-1}|, with the full shell trace kept
    for convergence inspection.
    """
    two_area = 2.0 * sphere_area(cov.d)
    if cov.f.is_zero or cov.h0 == 0.0:
        return EpsilonGReport(0.0, [0.0] * _N_SHELLS, True)
    r_fracs = np.array([1.0, 0.75, 0.5, 0.375, 0.25])
    tau_fracs = np.array([0.0, 0.25, 0.5, 1.0])
    minima = []
    for rho in (2.0 ** (-k) for k in range(_N_SHELLS)):
        taus = np.concatenate([tau_fracs * rho, -tau_fracs[1:] * rho])
        vals, _ = compute_mf_batch(cov, taus, rho * r_fracs, errors=False)
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


def decay_slope(cov: CovarianceProfile, xi_abs: float, tau_base: float = 4.0):
    """Log-log slope of |m_f| under repeated tau doubling at fixed |xi|.

    At fixed |xi| the slope tends to -2 as tau grows, from the leading form
    2|xi|^2 h(0)/(tau^2 - |xi|^4); the ``tau_slope`` field of
    ``response_report.ndjson`` reports this slope over tau = 4|xi|^2 ...
    64|xi|^2.  The window must lie well above the resonance tau = |xi|^2:
    below it |m_f| is nearly flat in tau.  The slope is None where |m_f|
    vanishes on the window, as it does for the zero distribution, and where
    the window is at tau = 0, as when |xi|^2 underflows.
    """
    taus = tau_base * 2.0 ** np.arange(_DOUBLINGS + 1)
    vals, _ = compute_mf_batch(cov, taus, [xi_abs], errors=False)
    mags = np.abs(vals[:, 0])
    fit = tau_base > 0 and np.all(mags > 0)
    slope = float(np.polyfit(np.log(taus), np.log(mags), 1)[0]) if fit else None
    return slope, taus, mags
