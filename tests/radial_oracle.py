"""The direct kernels and the q-quadrature line marginal of the covariance
profile, kept as test oracles of the package's one weighted kernel sum and of
its d = 3 line-marginal identity.

direct_kernel builds K_d(x, r) whole over the (xs, rs) grid: cos(xr) and
sin(xr) at d = 1 and 3, where the package's _radial_transform takes them by
angle addition from two _PHASE-row phase tables, and J0(xr) and J1(xr) at d =
2 and 4, each times its radial weight and over x at d >= 3, where the package
folds the weight into the Gauss weights and divides by x after the sum;
q_marginal is rho1 by the q-integral over every radial panel beyond v, which
the package keeps at d = 2 and 4 and replaces at d = 3 by a tail sum of panel
masses and one partial-panel rule.
"""

import math

import numpy as np
from scipy.special import j0, j1

from hartorus import equilibrium as eq


def direct_kernel(d, xs, rs):
    """K_d(x, r) on the (xs, rs) grid, x > 0, with h(x) = int_0^inf K_d f2(r) dr."""
    k = np.outer(xs, rs)
    if d == 1:
        return 2.0 * np.cos(k)
    if d == 2:
        return 2 * math.pi * rs * j0(k)
    if d == 3:
        return 4 * math.pi * rs * np.sin(k) / xs[:, None]
    return (2 * math.pi) ** 2 * rs * rs * j1(k) / xs[:, None]


def direct_transform(f, d, xs, panels, rule):
    """h at any ascending xs > 0 on the panels (a, b) as _radial_transform
    splits them, by the direct kernel in chunks of _RADIAL_CHUNK radial nodes."""
    xs = np.ravel(xs)
    r, w = eq._gauss_nodes(*eq._split_panels(*panels, xs[-1]), rule)
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
