"""The direct d = 1 and d = 3 paths of the covariance profile, kept as test
oracles of the package's one-dimensional identities there.

direct_kernel builds cos(xr) and sin(xr) over the whole (xs, rs) grid, where
the package's _radial_transform takes them by angle addition from two
_PHASE-row phase tables; q_marginal is rho1 by the q-integral over every
radial panel beyond v, which the package keeps at d = 2 and 4 and replaces
at d = 3 by a tail sum of panel masses and one partial-panel rule.
"""

import math

import numpy as np

from hartorus import equilibrium as eq


def direct_kernel(d, xs, rs):
    """K_d(x, r) on the (xs, rs) grid, x > 0, with h(x) = int_0^inf K_d f2(r)
    dr; the Bessel kernels of d = 2 and 4 are the package's own."""
    if d in (2, 4):
        return eq._radial_kernel(d, xs, rs)
    k = np.outer(xs, rs)
    if d == 1:
        return 2.0 * np.cos(k)
    return 4 * math.pi * rs * np.sin(k) / xs[:, None]


def direct_transform(f, d, xs, rend, panels, rule):
    """h at any ascending xs > 0 on the panels of _radial_transform, by the
    direct kernel in chunks of _RADIAL_CHUNK radial nodes."""
    xs = np.ravel(xs)
    n = max(1, math.ceil(rend * xs[-1] / (2.0 * math.pi * eq._PERIODS_PER_PANEL)))
    if n not in panels:
        panels[n] = eq._radial_panels(f, d, rend, n)
    r, w = eq._gauss_nodes(*panels[n], rule)
    g = f.f2(r) * w
    acc = np.zeros(len(xs))
    for s in range(0, len(r), eq._RADIAL_CHUNK):
        acc += direct_kernel(d, xs, r[s:s + eq._RADIAL_CHUNK]) @ g[s:s + eq._RADIAL_CHUNK]
    return acc


def q_marginal(f, d, a, b, v):
    """rho1 at v >= 0 for d >= 2 by the 32-point q-integral over the images q =
    sqrt(r^2 - v^2) of every radial panel (a, b) beyond v; zero from b[-1] on."""
    out = np.zeros(len(v))
    for i in np.flatnonzero(v < b[-1]):
        lo = np.sqrt(np.maximum(a, v[i]) ** 2 - v[i] ** 2)
        hi = np.sqrt(np.maximum(b * b - v[i] ** 2, 0.0))
        q, wq = eq._gauss_nodes(lo, hi, eq._GAUSS_HI)
        out[i] = np.sum(f.f2(np.sqrt(v[i] ** 2 + q * q)) * q ** (d - 2) * wq)
    return eq.sphere_area(d - 1) * out
