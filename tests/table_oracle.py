"""The h table built eagerly, kept as the oracle of CovarianceProfile's table
and of its error estimate.

The radial panels are bisected on f2 and, at d = 2 and 4, once more on the
line marginal rho1 on them, as in CovarianceProfile; rho1 is evaluated afresh
at every node, where CovarianceProfile keeps its values by node.  Every block
runs both Gauss rules at once through the package's transform on them, and
its stop is found by a scan node by node.  CovarianceProfile builds the
32-point values alone, finds the stop with numpy, and runs the 16-point pass
over the blocks it kept when table_error() is first read; its spline and its
table_error() must equal this oracle's to the bit.
"""

import functools
import math

import numpy as np
from scipy.interpolate import CubicSpline

from hartorus import equilibrium as eq
from hartorus.equilibrium import CovarianceProfile
from radial_oracle import f2_panels


def table_density(f, d):
    """(density, panels) of the h table's transform: f2 on the f2 panels at d
    = 1 and 3, and at d = 2 and 4 rho1 on the f2 panels, on panels bisected
    on rho1."""
    panels = f2_panels(f, d)
    if d in (1, 3):
        return f.f2, panels
    density = functools.partial(eq._line_marginal, f, d, *panels)
    return density, eq._radial_panels(density, f.support_radius(), 1)


def _transform(density, d, xs, panels):
    """(GL32 values, |GL32 - GL16|) of h at the block nodes xs."""
    hi, lo = (eq._radial_transform(density, d, xs, panels, rule) for rule in (eq._GAUSS_HI, eq._GAUSS_LO))
    return hi, np.abs(hi - lo)


def eager_table(cov: CovarianceProfile):
    """(spline, table_error()) of the h table of cov's profile: the nodes and
    their stop as in CovarianceProfile, the error the largest per-node |GL32 -
    GL16| (h0_err at x = 0 included) plus the largest gap between the spline
    and the 32-point transform at the points halfway to each node from the
    one before, taken per block as the table."""
    f, d = cov.f, cov.d
    if cov.h0 == 0.0:
        return CubicSpline([0.0, 1.0], [0.0, 0.0], bc_type=((1, 0.0), "natural")), 0.0
    rsup = f.support_radius(1e-10)
    density, panels = table_density(f, d)
    dx = min(0.05, math.pi / (16.0 * max(rsup, 1e-6)))
    floor = eq._TABLE_TOL * abs(cov.h0)
    quiet_stop = int(4.0 / dx) + 4
    xs, hs, errs, starts = [np.zeros(1)], [np.array([cov.h0])], [np.array([cov.h0_err])], []
    x, quiet = 0.0, 0
    while x < eq._X_MAX_CAP and quiet < quiet_stop:
        starts.append(sum(map(len, xs)) - 1)
        xb = eq._block_nodes(starts[-1], dx)
        vb, eb = _transform(density, d, xb, panels)
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
    for m0, xb in zip(starts, xs[1:]):
        n = len(xb)
        grid = eq._block_nodes(m0 - 0.5, dx)
        mids, hb = grid.ravel()[:n], _transform(density, d, grid, panels)[0][:n]
        gap = max(gap, float(np.max(np.abs(spline(mids) - hb))))
    return spline, float(np.max(np.concatenate(errs))) + gap
