"""The h table built eagerly, kept as the oracle of CovarianceProfile's table
and of its error estimate.

Every block runs both Gauss rules at once, on panels made afresh for the
block.  CovarianceProfile builds the 32-point values alone and runs the
16-point pass over the blocks it kept when table_error() is first read; its
spline and its table_error() must equal this oracle's to the bit.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from hartorus import equilibrium as eq
from hartorus.equilibrium import CovarianceProfile


def _transform(f, d, xs, rend):
    """(GL32 values, |GL32 - GL16|) of h at the nodes xs > 0 (ascending), on
    panels of at most _PERIODS_PER_PANEL kernel periods at xs[-1]."""
    n = max(1, math.ceil(rend * xs[-1] / (2.0 * math.pi * eq._PERIODS_PER_PANEL)))
    a, b = eq._radial_panels(f, d, rend, n)
    sums = []
    for rule in (eq._GAUSS_HI, eq._GAUSS_LO):
        r, w = eq._gauss_nodes(a, b, rule)
        g = f.f2(r) * w
        acc = np.zeros(len(xs))
        for s in range(0, len(r), eq._RADIAL_CHUNK):
            acc += eq._radial_kernel(d, xs, r[s:s + eq._RADIAL_CHUNK]) @ g[s:s + eq._RADIAL_CHUNK]
        sums.append(acc)
    return sums[0], np.abs(sums[0] - sums[1])


def eager_table(cov: CovarianceProfile):
    """(spline, table_error()) of the h table of cov's profile: the nodes and
    their stop as in CovarianceProfile, the error the largest per-node |GL32 -
    GL16| (h0_err at x = 0 included) plus the largest gap between the spline
    and the 32-point transform at the node midpoints, taken in blocks of
    nodes as the table."""
    f, d = cov.f, cov.d
    if f.is_zero or cov.h0 == 0.0:
        return CubicSpline([0.0, 1.0], [0.0, 0.0], bc_type=((1, 0.0), "natural")), 0.0
    rsup, rend = f.support_radius(1e-10), f.support_radius()
    dx = min(0.05, math.pi / (16.0 * max(rsup, 1e-6)))
    floor = eq._TABLE_TOL * abs(cov.h0)
    quiet_stop = int(4.0 / dx) + 4
    xs, hs, errs = [np.zeros(1)], [np.array([cov.h0])], [np.array([cov.h0_err])]
    x, quiet = 0.0, 0
    while x < eq._X_MAX_CAP and quiet < quiet_stop:
        xb = np.cumsum(np.r_[x, np.full(eq._TABLE_BLOCK, dx)])[1:]
        xb = xb[:np.searchsorted(xb, eq._X_MAX_CAP) + 1]
        vb, eb = _transform(f, d, xb, rend)
        n = 0
        while n < len(xb) and x < eq._X_MAX_CAP and quiet < quiet_stop:
            x = xb[n]
            quiet = quiet + 1 if abs(vb[n]) < floor else 0
            n += 1
        xs.append(xb[:n])
        hs.append(vb[:n])
        errs.append(eb[:n])
    spline = CubicSpline(np.concatenate(xs), np.concatenate(hs), bc_type=((1, 0.0), "natural"))
    mids = 0.5 * (spline.x[1:] + spline.x[:-1])
    gap = 0.0
    for s in range(0, len(mids), eq._TABLE_BLOCK):
        xb = mids[s:s + eq._TABLE_BLOCK]
        gap = max(gap, float(np.max(np.abs(spline(xb) - _transform(f, d, xb, rend)[0]))))
    return spline, float(np.max(np.concatenate(errs))) + gap
