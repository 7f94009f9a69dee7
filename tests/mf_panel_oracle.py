"""The time-domain panel quadrature of m_f, kept as a test oracle.

    m_f(tau, xi) = -2 * integral_0^inf e^{-i tau t} sin(|xi|^2 t) h(2 xi t) dt

by 32-point Gauss panels of a few periods of the total oscillation rate over
the h table (or over exact_h), with |GL32 - GL16| per panel and a tail bound
from the <x>^-2 decay of h as the error estimate.  It shares nothing with the
line-marginal route of hartorus.response but the h table; exact_h shares only
the radial panels of the table's transform at d = 1 and 3, and at d = 2 and 4
takes the Bessel kernels on f2, a route the table does not take.
"""

import math

import numpy as np

from hartorus import equilibrium
from hartorus.equilibrium import CovarianceProfile
from radial_oracle import direct_kernel, f2_panels

_GAUSS_HI = np.polynomial.legendre.leggauss(32)
_GAUSS_LO = np.polynomial.legendre.leggauss(16)
_PERIODS_PER_PANEL = 5.0


def _oscillation_rate(cov: CovarianceProfile, tau_max: float, xi_abs: float) -> float:
    r_sup = 1.0 if cov.f.is_zero else cov.f.support_radius(1e-10)
    return tau_max + xi_abs * xi_abs + 2.0 * xi_abs * r_sup


def exact_h(cov: CovarianceProfile):
    """h on [0, cov.x_max] by the direct kernel on f2 at each point, on the
    radial panels of f2 split at x_max, without the spline between table
    nodes; zero beyond, like the table."""
    f, d, x_max = cov.f, cov.d, cov.x_max
    panels = equilibrium._split_panels(*f2_panels(f, d), x_max)
    r, w = equilibrium._gauss_nodes(*panels, _GAUSS_HI)
    g = f.f2(r) * w

    def h(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.where(x > x_max, 0.0, cov.h0)
        inside = (x > 0.0) & (x <= x_max)
        out[inside] = direct_kernel(d, x[inside], r) @ g
        return out

    return h


def panel_mf(cov: CovarianceProfile, taus, xi_abs: float, h=None, rel_tail: float = 1e-10):
    """m_f at one radius for a whole batch of taus, integrating h (default:
    the table cov itself); returns (values, errors)."""
    h = cov if h is None else h
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if xi_abs == 0.0 or cov.f.is_zero or cov.h0 == 0.0:
        return np.zeros(len(taus), dtype=complex), np.zeros(len(taus))

    _ = cov.spline  # force the table
    t_end = cov.x_max / (2.0 * xi_abs)
    omega = _oscillation_rate(cov, float(np.max(np.abs(taus))), xi_abs)
    panel = 2.0 * math.pi * _PERIODS_PER_PANEL / max(omega, 1e-12)
    panel = min(panel, max(t_end / 8.0, 1e-12))

    # sup over the table of <x>^2 |h(x)| (tail-bound constant)
    xs = np.linspace(0.0, cov.x_max, 2048)
    c2 = float(np.max((1.0 + xs ** 2) * np.abs(h(xs))))
    b = xi_abs * xi_abs

    xh, wh = _GAUSS_HI
    xl, wl = _GAUSS_LO
    vals = np.zeros(len(taus), dtype=complex)
    errs = np.zeros(len(taus))

    def panel_sum(t0, t1, nodes, weights):
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        ts = mid + half * nodes
        g = -2.0 * np.sin(b * ts) * h(2.0 * xi_abs * ts)
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
        if cov.x_max >= equilibrium._X_MAX_CAP and c2 > 0.0:
            # the profile never fell below the table floor; charge the cut tail
            errs += c2 / (2.0 * xi_abs) * (math.pi / 2.0 - math.atan(2.0 * xi_abs * t_end))

    return vals, errs
