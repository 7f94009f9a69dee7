"""Linearization around two counter-propagating waves: spectrum and growth.

The linearized dynamics of the four real components is a 4x4 matrix of
Fourier multipliers built from the shorthand symbols

    a^2 -> -4 (xi.k)^2,   b -> |k|^2,   c -> m * w-hat(k).

Its characteristic polynomial is biquadratic,

    X^4 + 2((b+c)b - a^2) X^2 + ((b+c)b + a^2)^2 - b^2 c^2,

so the spectrum is the four principal square roots +/- sqrt(Y+-) with

    Y+- = a^2 - (b+c) b +/- D,   D^2 = b (b c^2 - 4 (b+c) a^2).

For c = 0 and for a = 0 the roots collapse to explicitly nonpositive
products and are evaluated in that factored form, which keeps the real
parts exactly zero in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .equilibrium import InteractionPotential
from .field import fftn
from .grid import TorusGrid

_GROWTH_TOL = 1e-11     # growth above this marks a ray point unstable
_SEED_NOISE = 1e-10     # white noise on each component of the seeded carrier


@dataclass(frozen=True)
class TwoWaveParams:
    """Carrier frequency, mass, and interaction of the two-wave state."""

    xi: np.ndarray
    m: float
    w: InteractionPotential

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if self.m < 0:
            raise ValueError("mass m must be nonnegative")

    @property
    def d(self) -> int:
        return len(self.xi)

    @property
    def xi_abs(self) -> float:
        return float(np.linalg.norm(self.xi))


@dataclass
class SymbolMatrix:
    k: np.ndarray
    a2: float          # squared drift symbol, -4 (xi.k)^2
    b: float           # |k|^2
    c: float           # m * w-hat(k)
    matrix: np.ndarray


def _scalars(params: TwoWaveParams, k) -> tuple:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    xk = float(np.dot(params.xi, k))
    b = float(np.dot(k, k))
    c = params.m * float(params.w.what(np.linalg.norm(k)))
    return k, xk, b, c


def build_symbol(params: TwoWaveParams, k) -> SymbolMatrix:
    """The 4x4 multiplier at probe frequency k (gradients become i k)."""
    k, xk, b, c = _scalars(params, k)
    ia = -2j * xk  # symbol of -2 xi.grad
    mat = np.array([
        [ia,     b,   0.0,    0.0],
        [-b - c, ia,  -c,     0.0],
        [0.0,    0.0, -ia,    b],
        [-c,     0.0, -b - c, -ia],
    ], dtype=complex)
    return SymbolMatrix(k=k, a2=-4.0 * xk * xk, b=b, c=c, matrix=mat)


def closed_form_spectrum(params: TwoWaveParams, k) -> np.ndarray:
    """The four eigenvalues +/- sqrt(Y+-) as a multiset."""
    _, xk, b, c = _scalars(params, k)
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


def eigensolver_spectrum(params: TwoWaveParams, k) -> np.ndarray:
    """Dense-eigensolver oracle on the explicit 4x4 matrix."""
    sym = build_symbol(params, k)
    try:
        lam = np.linalg.eigvals(sym.matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge at k={k}") from exc
    if len(lam) != 4:
        raise RuntimeError(f"eigensolver returned {len(lam)} values at k={k}")
    return lam


def multiset_distance(a, b) -> float:
    """Max matched distance between two eigenvalue multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def char_poly_residual(params: TwoWaveParams, k, lam: complex) -> float:
    """|P(lambda)| relative to the polynomial's coefficient scale."""
    _, xk, b, c = _scalars(params, k)
    a2 = -4.0 * xk * xk
    c2 = 2.0 * ((b + c) * b - a2)
    c0 = ((b + c) * b + a2) ** 2 - b * b * c * c
    val = lam ** 4 + c2 * lam ** 2 + c0
    scale = max(1.0, abs(lam) ** 4, abs(c2) * abs(lam) ** 2, abs(c0))
    return float(abs(val) / scale)


@dataclass
class BandReport:
    r_grid: np.ndarray
    growth: np.ndarray            # max Re lambda along the ray k = r * xi
    band: Optional[tuple]         # detected (r_lo, r_hi), None if stable
    predicted_band: Optional[tuple]  # closed-form endpoints for w-hat == 1
    max_growth: float
    arg_r: float
    beyond_flat_potential: bool   # scan used a general w-hat

    @property
    def unstable(self) -> bool:
        return self.band is not None


def unstable_band(params: TwoWaveParams, r_grid) -> BandReport:
    """Scan the ray k = r*xi for positive growth.

    For the flat potential the predicted endpoints are
    r^2 in (4 - 2 m/|xi|^2, 4), clipped below at zero; for a general
    potential only the numerically detected sign-change band is reported.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    xi = params.xi
    growth = np.empty(len(r_grid))
    for i, r in enumerate(r_grid):
        lam = closed_form_spectrum(params, r * xi)
        growth[i] = float(np.max(lam.real))
    unstable = growth > _GROWTH_TOL
    band = None
    if np.any(unstable):
        idx = np.where(unstable)[0]
        band = (float(r_grid[idx[0]]), float(r_grid[idx[-1]]))
    flat = params.w.kind == "delta" and params.w.amplitude == 1.0
    predicted = None
    if flat and params.xi_abs > 0 and params.m > 0:
        lo2 = 4.0 - 2.0 * params.m / params.xi_abs ** 2
        predicted = (math.sqrt(max(lo2, 0.0)), 2.0)
    imax = int(np.argmax(growth))
    return BandReport(r_grid=r_grid, growth=growth, band=band, predicted_band=predicted,
                      max_growth=float(growth[imax]), arg_r=float(r_grid[imax]),
                      beyond_flat_potential=not flat)


def growth_rate(params: TwoWaveParams, k) -> float:
    """max Re lambda at an arbitrary probe frequency (off-ray points are a
    numerical finding beyond the on-ray band analysis)."""
    return float(np.max(closed_form_spectrum(params, k).real))


def most_unstable_ray_frequency(params: TwoWaveParams) -> Optional[np.ndarray]:
    """The marked frequency xi * sqrt(4 - min(2, m/|xi|^2)) on the ray."""
    if params.m <= 0 or params.xi_abs == 0:
        return None
    return params.xi * math.sqrt(4.0 - min(2.0, params.m / params.xi_abs ** 2))


@dataclass
class GrowthFit:
    rate: float
    residual: float
    window: tuple
    n_points: int
    k_used: np.ndarray
    predicted_rate: Optional[float]
    discrepancy: bool


def simulate_linearized(params: TwoWaveParams, grid: TorusGrid, k_seed, T: float,
                        n_samples: int = 256, seed: int = 0) -> GrowthFit:
    """Evolve the four-component linear system spectrally and fit the growth.

    The seeded lattice frequency evolves by the exact matrix exponential
    through an eigendecomposition of its 4x4 symbol; the fitted quantity is
    its coefficient's log-amplitude over the window between 10x the initial
    amplitude and 1000x it (transient and saturation both excluded).  If the
    amplitude never leaves that oscillation band the rate is reported as
    zero with the ripple size as the residual.
    """
    if grid.d != params.d:
        raise ValueError("grid dimension must match the carrier dimension")
    k0 = grid.nearest_lattice_xi(k_seed)
    rng = np.random.default_rng(seed)

    shape = grid.shape
    u0 = np.empty((4,) + shape, dtype=float)
    carrier = np.cos(grid.phase(k0))
    for i in range(4):
        u0[i] = carrier + _SEED_NOISE * rng.standard_normal(shape)
    uhat0 = fftn(u0, axes=tuple(range(1, grid.d + 1))).reshape(4, -1)

    # the seeded lattice frequency and its eigendecomposition
    lattice = np.stack([g.ravel() for g in grid.xi_vectors], axis=1)
    p0 = int(np.argmin(np.sum((lattice - k0) ** 2, axis=1)))
    eigvals, eigvecs = np.linalg.eig(build_symbol(params, lattice[p0]).matrix)
    coeffs = np.linalg.solve(eigvecs, uhat0[:, p0])

    times = np.linspace(0.0, T, n_samples)
    amp = np.empty(n_samples)
    for i, t in enumerate(times):
        mode = eigvecs @ (np.exp(eigvals * t) * coeffs)
        amp[i] = float(np.linalg.norm(mode))

    predicted = float(np.max(closed_form_spectrum(params, k0).real))
    a0 = amp[0]
    window = (amp >= 10.0 * a0) & (amp <= 1000.0 * a0)
    if window.sum() < 8:
        # amplitude never escaped the oscillation band: no growth window
        ripple = float(np.std(np.log(np.maximum(amp, 1e-300))))
        return GrowthFit(rate=0.0, residual=ripple, window=(0.0, float(T)), n_points=0,
                         k_used=k0, predicted_rate=predicted,
                         discrepancy=predicted > 1e-6)
    logs = np.log(amp[window])
    tsel = times[window]
    slope, intercept = np.polyfit(tsel, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * tsel + intercept)) ** 2)))
    discrepancy = predicted > 1e-6 and slope <= 0.5 * predicted
    return GrowthFit(rate=float(slope), residual=resid,
                     window=(float(tsel[0]), float(tsel[-1])), n_points=int(window.sum()),
                     k_used=k0, predicted_rate=predicted, discrepancy=discrepancy)
