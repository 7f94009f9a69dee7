"""The h table built eagerly, kept as the oracle of CovarianceProfile's table
and of its error estimate.

Every block runs both Gauss rules at once through the package's transform,
on panels made afresh for the block, and its stop is found by a scan node by
node.  CovarianceProfile builds the 32-point values alone, finds the stop
with numpy, and runs the 16-point pass over the blocks it kept when
table_error() is first read; its spline and its table_error() must equal
this oracle's to the bit.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline

from hartorus import equilibrium as eq
from hartorus.equilibrium import CovarianceProfile


def _transform(f, d, xs, rend):
    """(GL32 values, |GL32 - GL16|) of h at the block nodes xs."""
    hi, lo = (eq._radial_transform(f, d, xs, rend, {}, rule) for rule in (eq._GAUSS_HI, eq._GAUSS_LO))
    return hi, np.abs(hi - lo)


def eager_table(cov: CovarianceProfile):
    """(spline, table_error()) of the h table of cov's profile: the nodes and
    their stop as in CovarianceProfile, the error the largest per-node |GL32 -
    GL16| (h0_err at x = 0 included) plus the largest gap between the spline
    and the 32-point transform at the points halfway to each node from the
    one before, taken per block as the table."""
    f, d = cov.f, cov.d
    if f.is_zero or cov.h0 == 0.0:
        return CubicSpline([0.0, 1.0], [0.0, 0.0], bc_type=((1, 0.0), "natural")), 0.0
    rsup, rend = f.support_radius(1e-10), f.support_radius()
    dx = min(0.05, math.pi / (16.0 * max(rsup, 1e-6)))
    floor = eq._TABLE_TOL * abs(cov.h0)
    quiet_stop = int(4.0 / dx) + 4
    xs, hs, errs, starts = [np.zeros(1)], [np.array([cov.h0])], [np.array([cov.h0_err])], []
    x, quiet = 0.0, 0
    while x < eq._X_MAX_CAP and quiet < quiet_stop:
        starts.append((x, sum(map(len, xs)) - 1))
        xb = eq._block_nodes(d, x, starts[-1][1], dx)
        vb, eb = _transform(f, d, xb, rend)
        xb = xb.ravel()
        n = 0
        while n < len(xb) and x < eq._X_MAX_CAP and quiet < quiet_stop:
            x = xb[n]
            quiet = quiet + 1 if abs(vb[n]) < floor else 0
            n += 1
        xs.append(xb[:n])
        hs.append(vb[:n])
        errs.append(eb[:n])
    spline = CubicSpline(np.concatenate(xs), np.concatenate(hs), bc_type=((1, 0.0), "natural"))
    gap = 0.0
    for (x0, m0), xb in zip(starts, xs[1:]):
        n = len(xb)
        if d in (1, 3):
            grid = eq._block_nodes(d, x0 - 0.5 * dx, m0 - 0.5, dx)
            mids, hb = grid.ravel()[:n], _transform(f, d, grid, rend)[0][:n]
        else:
            mids = 0.5 * (np.r_[x0, xb[:-1]] + xb)
            hb = _transform(f, d, mids, rend)[0]
        gap = max(gap, float(np.max(np.abs(spline(mids) - hb))))
    return spline, float(np.max(np.concatenate(errs))) + gap
