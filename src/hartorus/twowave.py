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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibrium import InteractionPotential
from .field import fftn
from .grid import TorusGrid

_GROWTH_TOL = 1e-11     # growth above this marks a ray point unstable
_SEED_NOISE = 1e-10     # white noise on each component of the seeded carrier
_FUZZ_CASES = 500       # fuzz cases per stacked solve; no distance depends on it


@dataclass(frozen=True)
class TwoWaveParams:
    """Carrier frequency, mass, and interaction of one two-wave state (xi of
    shape (d,), scalar m) or of a stack of n states (xi (n, d), m (n,))."""

    xi: np.ndarray
    m: float | np.ndarray
    w: InteractionPotential

    def __post_init__(self):
        object.__setattr__(self, "xi", np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if np.any(np.asarray(self.m) < 0):
            raise ValueError("mass m must be nonnegative")

    @property
    def d(self) -> int:
        return self.xi.shape[-1]

    @property
    def xi_abs(self) -> float | np.ndarray:
        """|xi|: a float for one state, (n,) for a stack; inf past the largest float."""
        with np.errstate(over="ignore"):
            r = np.sqrt(np.vecdot(self.xi, self.xi))
        return float(r) if r.ndim == 0 else r


def _one_state(params: TwoWaveParams, name: str) -> None:
    if params.xi.ndim != 1 or np.ndim(params.m) != 0:  # a stack, where name takes one state
        raise ValueError(f"{name} takes one state (xi of shape (d,), scalar m), got xi of "
                         f"shape {params.xi.shape} and m of shape {np.shape(params.m)}")


def _scalars(params: TwoWaveParams, k) -> tuple:
    """xi.k, |k|^2 and m w-hat(|k|) for k of shape (..., d)."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    xk = np.vecdot(params.xi, k)    # np.vecdot keeps np.dot's bits; an elementwise sum does not
    b = np.vecdot(k, k)
    c = params.m * params.w.what(np.sqrt(b))
    return np.broadcast_arrays(xk, b, c)


def build_symbol(params: TwoWaveParams, k) -> np.ndarray:
    """The 4x4 multiplier at probe frequency k (gradients become i k), (..., 4, 4)."""
    xk, b, c = _scalars(params, k)
    ia = -2j * xk  # symbol of -2 xi.grad
    # rows [ia, b, 0, 0], [-b-c, ia, -c, 0], [0, 0, -ia, b], [-c, 0, -b-c, -ia]
    out = np.zeros(xk.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = ia
    out[..., 2, 2] = out[..., 3, 3] = -ia
    out[..., 0, 1] = out[..., 2, 3] = b
    out[..., 1, 0] = out[..., 3, 2] = -b - c
    out[..., 1, 2] = out[..., 3, 0] = -c
    return out


def closed_form_spectrum(params: TwoWaveParams, k) -> np.ndarray:
    """The four eigenvalues +/- sqrt(Y+-) as a multiset, (..., 4)."""
    xk, b, c = _scalars(params, k)
    a2 = -4.0 * xk * xk
    kap = 2.0 * np.abs(xk)
    D = np.sqrt((b * (b * c * c - 4.0 * (b + c) * a2)).astype(complex))
    ys = np.stack([a2 - (b + c) * b + D, a2 - (b + c) * b - D], axis=-1)
    zero_xk = np.stack([-b * (b + c - np.abs(c)), -b * (b + c + np.abs(c))], axis=-1)
    zero_c = np.stack([-np.square(kap - b), -np.square(kap + b)], axis=-1)
    roots = np.sqrt(np.where(c[..., None] == 0.0, zero_c,
                             np.where(xk[..., None] == 0.0, zero_xk, ys)))
    return np.stack([roots, -roots], axis=-1).reshape(*roots.shape[:-1], 4)


def eigensolver_spectrum(params: TwoWaveParams, k) -> np.ndarray:
    """Dense-eigensolver oracle on the explicit 4x4 matrices, (..., 4)."""
    try:
        return np.linalg.eigvals(build_symbol(params, k))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge at k={k}") from exc


def multiset_distance(a, b):
    """Max matched distance between eigenvalue multisets (..., n): the pairing of
    least summed distance, the first in lexicographic order among ties."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[-1]
    perms = np.array(list(itertools.permutations(range(n))))
    cost = np.abs(a[..., :, None] - b[..., None, :])
    best = perms[np.argmin(sum(cost[..., i, perms[:, i]] for i in range(n)), axis=-1)]
    return np.take_along_axis(cost, best[..., None], axis=-1).max(axis=(-2, -1))


def fuzz_max_distance(w: InteractionPotential, d: int, count: int, seed: int) -> float:
    """Largest closed-form vs eigensolver distance over count random (xi, k, m),
    drawn bit for bit as per-case rng.uniform(-2, 2, d), (-4, 4, d), (0, 4) calls."""
    worst = 0.0
    for u in np.split(np.random.default_rng(seed).random((count, 2 * d + 1)),
                      range(_FUZZ_CASES, count, _FUZZ_CASES)):
        params = TwoWaveParams(xi=-2.0 + 4.0 * u[:, :d], m=4.0 * u[:, -1], w=w)
        k = -4.0 + 8.0 * u[:, d:-1]
        worst = np.maximum(worst, multiset_distance(closed_form_spectrum(params, k),
                                                    eigensolver_spectrum(params, k)).max(initial=0.0))
    return float(worst)


@dataclass
class BandReport:
    r_grid: np.ndarray
    spectra: np.ndarray           # (n_r, 4) closed-form spectrum at k = r * xi
    growth: np.ndarray            # max Re lambda along the ray k = r * xi
    band: Optional[tuple]         # detected (r_lo, r_hi), None if stable
    predicted_band: Optional[tuple]  # closed-form endpoints for w-hat == 1
    max_growth: float
    arg_r: float


def unstable_band(params: TwoWaveParams, r_grid) -> BandReport:
    """Scan the ray k = r*xi for positive growth with one closed-form call over
    the ray points; the report keeps the spectra.

    For the flat potential the predicted endpoints are
    r^2 in (4 - 2 m/|xi|^2, 4), clipped below at zero; for a general
    potential only the numerically detected sign-change band is reported.
    """
    _one_state(params, "unstable_band")
    r_grid = np.asarray(r_grid, dtype=float)
    spectra = closed_form_spectrum(params, r_grid[:, None] * params.xi)
    growth = np.max(spectra.real, axis=1)
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
    return BandReport(r_grid=r_grid, spectra=spectra, growth=growth, band=band,
                      predicted_band=predicted, max_growth=float(growth[imax]),
                      arg_r=float(r_grid[imax]))


def most_unstable_ray_frequency(params: TwoWaveParams) -> Optional[np.ndarray]:
    """The marked frequency xi * sqrt(4 - min(2, m/|xi|^2)) on the ray."""
    _one_state(params, "most_unstable_ray_frequency")
    if params.m <= 0 or params.xi_abs == 0:
        return None
    return params.xi * math.sqrt(4.0 - min(2.0, params.m / params.xi_abs ** 2))


@dataclass
class GrowthFit:
    rate: float
    residual: float
    k_used: np.ndarray
    predicted_rate: Optional[float]
    discrepancy: bool


def simulate_linearized(params: TwoWaveParams, grid: TorusGrid, k_seed, T: float, seed: int,
                        n_samples: int = 256) -> GrowthFit:
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
    uhat0 = fftn(u0, axes=tuple(range(1, grid.d + 1)))

    # the seeded lattice frequency and its eigendecomposition
    eigvals, eigvecs = np.linalg.eig(build_symbol(params, k0))
    coeffs = np.linalg.solve(eigvecs, uhat0[(slice(None),) + grid.lattice_cells(k0)])

    times = np.linspace(0.0, T, n_samples)
    # one matrix-vector product per sample (a matrix product rounds differently);
    # an amplitude past the largest float reads inf or nan, outside every window
    with np.errstate(over="ignore", invalid="ignore"):
        modes = (eigvecs @ (np.exp(eigvals * times[:, None]) * coeffs)[..., None])[..., 0]
        amp = np.sqrt(np.vecdot(modes.real, modes.real) + np.vecdot(modes.imag, modes.imag))

    predicted = float(np.max(closed_form_spectrum(params, k0).real))
    a0 = amp[0]
    window = (amp >= 10.0 * a0) & (amp <= 1000.0 * a0)
    if window.sum() < 8:
        # amplitude never escaped the oscillation band, or jumped past it: no growth window
        ripple = float(np.std(np.log(np.maximum(amp, 1e-300)))) if np.all(np.isfinite(amp)) else math.inf
        return GrowthFit(rate=0.0, residual=ripple, k_used=k0, predicted_rate=predicted,
                         discrepancy=predicted > 1e-6)
    logs = np.log(amp[window])
    tsel = times[window]
    slope, intercept = np.polyfit(tsel, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * tsel + intercept)) ** 2)))
    discrepancy = predicted > 1e-6 and slope <= 0.5 * predicted
    return GrowthFit(rate=float(slope), residual=resid, k_used=k0, predicted_rate=predicted,
                     discrepancy=discrepancy)
