"""The per-case two-wave path, kept as a test oracle.

One probe frequency at a time: xi.k and |k|^2 from np.dot, |k| from
np.linalg.norm, the closed form branching on c == 0 and xi.k == 0 in Python
floats, one 4x4 np.linalg.eigvals per case, and the eigenvalue matching by
scipy's linear_sum_assignment.  The fuzz and the ray scan loop over cases in
the order the instability experiment used to, and the growth fit evolves its
seeded frequency one sample time at a time.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from hartorus.field import fftn
from hartorus.twowave import _SEED_NOISE, GrowthFit, TwoWaveParams


def scalars(params, k):
    k = np.atleast_1d(np.asarray(k, dtype=float))
    xk = float(np.dot(params.xi, k))
    b = float(np.dot(k, k))
    c = params.m * float(params.w.what(np.linalg.norm(k)))
    return xk, b, c


def build_symbol(params, k):
    xk, b, c = scalars(params, k)
    ia = -2j * xk
    return np.array([
        [ia,     b,   0.0,    0.0],
        [-b - c, ia,  -c,     0.0],
        [0.0,    0.0, -ia,    b],
        [-c,     0.0, -b - c, -ia],
    ], dtype=complex)


def closed_form_spectrum(params, k):
    xk, b, c = scalars(params, k)
    a2 = -4.0 * xk * xk
    kap = 2.0 * abs(xk)
    if c == 0.0:
        ys = [-((kap - b) ** 2), -((kap + b) ** 2)]
    elif xk == 0.0:
        ys = [-b * (b + c - abs(c)), -b * (b + c + abs(c))]
    else:
        disc = complex(b * (b * c * c - 4.0 * (b + c) * a2))
        D = np.sqrt(disc)
        ys = [a2 - (b + c) * b + D, a2 - (b + c) * b - D]
    out = []
    for y in ys:
        root = np.sqrt(complex(y))
        out.extend([root, -root])
    return np.array(out, dtype=complex)


def eigensolver_spectrum(params, k):
    return np.linalg.eigvals(build_symbol(params, k))


def multiset_distance(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def ray_spectra(params, r_grid):
    """One closed-form spectrum per ray point k = r * xi, (n_r, 4)."""
    return np.array([closed_form_spectrum(params, r * params.xi) for r in r_grid])


def fuzz_max_distance(seed, d, count, w):
    """The instability experiment's fuzz: per-case draws, solves and matchings."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        pxi = rng.uniform(-2, 2, size=d)
        pk = rng.uniform(-4, 4, size=d)
        pm = rng.uniform(0, 4)
        p = TwoWaveParams(xi=pxi, m=pm, w=w)
        worst = max(worst, multiset_distance(closed_form_spectrum(p, pk),
                                             eigensolver_spectrum(p, pk)))
    return worst


def simulate_linearized(params, grid, k_seed, T, n_samples=256, seed=0):
    """The growth fit with one matrix-vector product and np.linalg.norm per sample."""
    k0 = grid.nearest_lattice_xi(k_seed)
    rng = np.random.default_rng(seed)
    u0 = np.empty((4,) + grid.shape, dtype=float)
    carrier = np.cos(grid.phase(k0))
    for i in range(4):
        u0[i] = carrier + _SEED_NOISE * rng.standard_normal(grid.shape)
    uhat0 = fftn(u0, axes=tuple(range(1, grid.d + 1)))
    eigvals, eigvecs = np.linalg.eig(build_symbol(params, k0))
    coeffs = np.linalg.solve(eigvecs, uhat0[(slice(None),) + grid.lattice_cells(k0)])
    times = np.linspace(0.0, T, n_samples)
    amp = np.empty(n_samples)
    for i, t in enumerate(times):
        mode = eigvecs @ (np.exp(eigvals * t) * coeffs)
        amp[i] = float(np.linalg.norm(mode))
    predicted = float(np.max(closed_form_spectrum(params, k0).real))
    a0 = amp[0]
    window = (amp >= 10.0 * a0) & (amp <= 1000.0 * a0)
    if window.sum() < 8:
        ripple = float(np.std(np.log(np.maximum(amp, 1e-300))))
        return GrowthFit(rate=0.0, residual=ripple, k_used=k0, predicted_rate=predicted,
                         discrepancy=predicted > 1e-6)
    logs = np.log(amp[window])
    tsel = times[window]
    slope, intercept = np.polyfit(tsel, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * tsel + intercept)) ** 2)))
    discrepancy = predicted > 1e-6 and slope <= 0.5 * predicted
    return GrowthFit(rate=float(slope), residual=resid, k_used=k0, predicted_rate=predicted,
                     discrepancy=discrepancy)
