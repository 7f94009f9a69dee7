"""One-field spectral norms on torus fields, kept as a test oracle.

SpectralField holds one complex field with lazily cached Fourier
coefficients: the forward transform integrates against e^{-i x.xi}
(coefficients carry the physical cell volume), the inverse carries (2*pi)^-d
and the frequency cell volume.  The Lebesgue, Sobolev, two-exponent dyadic
block (Besov-type) and Bernstein norms below project a field onto one block
at a time through its coefficients.  The package computes the same norms on
plain arrays and mode stacks (hartorus.ensemble); this module shares with it
only the FFT pair and the block symbols (LittlewoodPaley.symbols, eta_j).
"""

import math

import numpy as np

from hartorus.field import fftn, ifftn
from hartorus.lpaley import LittlewoodPaley, eta_j


class SpectralField:
    """Immutable field with physical values and lazily cached coefficients."""

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid, values=None, coefficients=None):
        if (values is None) == (coefficients is None):
            raise ValueError("provide exactly one of values / coefficients")
        self.grid = grid
        self._values = self._prepare(values)
        self._hat = self._prepare(coefficients)

    def _prepare(self, arr):
        if arr is None:
            return None
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != self.grid.shape:
            raise ValueError(f"array shape {arr.shape} does not match grid {self.grid.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_coefficients(cls, grid, coefficients):
        return cls(grid, coefficients=coefficients)

    @classmethod
    def zero(cls, grid):
        return cls(grid, values=np.zeros(grid.shape, dtype=complex))

    @classmethod
    def constant(cls, grid, c):
        return cls(grid, values=np.full(grid.shape, c, dtype=complex))

    @classmethod
    def plane_wave(cls, grid, xi, amplitude=1.0):
        """amplitude * e^{i xi.x}; xi need not be a lattice point."""
        return cls(grid, values=amplitude * np.exp(1j * grid.phase(xi)))

    @classmethod
    def random(cls, grid, rng):
        re = rng.standard_normal(grid.shape)
        im = rng.standard_normal(grid.shape)
        return cls(grid, values=re + 1j * im)

    @property
    def values(self):
        if self._values is None:
            vals = ifftn(self._hat) / self.grid.dx
            vals.flags.writeable = False
            self._values = vals
        return self._values

    @property
    def coefficients(self):
        if self._hat is None:
            hat = fftn(self._values) * self.grid.dx
            hat.flags.writeable = False
            self._hat = hat
        return self._hat

    def apply_multiplier(self, symbol):
        """Multiply the coefficients by an array symbol on the frequency lattice."""
        sym = np.asarray(symbol)
        if sym.shape != self.grid.shape:
            raise ValueError(f"symbol shape {sym.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(sym.view(float) if sym.dtype == complex else sym)):
            raise ValueError("symbol takes non-finite values on the lattice")
        return SpectralField(self.grid, coefficients=sym * self.coefficients)

    def shift(self, cells):
        """Translate by an integer number of lattice cells per axis."""
        cells = tuple(int(c) for c in np.atleast_1d(cells))
        return SpectralField(self.grid, values=np.roll(self.values, cells, axis=tuple(range(self.grid.d))))

    def __add__(self, other):
        return SpectralField(self.grid, values=self.values + other.values)

    def __mul__(self, scalar):
        return SpectralField(self.grid, values=self.values * scalar)

    __rmul__ = __mul__

    def l2_physical(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def l2_frequency(self):
        g = self.grid
        return float(np.sqrt(np.sum(np.abs(self.coefficients) ** 2) * g.dxi) * (2 * np.pi) ** (-g.d / 2))


def project(lp: LittlewoodPaley, f: SpectralField, j: int) -> SpectralField:
    """Band-limit a field to block j (the zero field if j covers nothing)."""
    sym = lp.symbols.get(j)
    return f.apply_multiplier(eta_j(lp.grid.xi_norm, j) if sym is None else sym)


def lebesgue_norm(f: SpectralField, p) -> float:
    vals = np.abs(f.values)
    if p == math.inf:
        return float(np.max(vals))
    p = float(p)
    return float((np.sum(vals ** p) * f.grid.dx) ** (1.0 / p))


def sobolev_norm(f: SpectralField, s: float, p=2) -> float:
    """Bessel-potential norm: apply <xi>^s in frequency, then L^p."""
    return lebesgue_norm(f.apply_multiplier((1.0 + f.grid.xi_squared) ** (s / 2.0)), p)


def besov_norm(f: SpectralField, p, s: float, t: float, lp: LittlewoodPaley = None) -> float:
    """Exponent s on the blocks j < 0 and t on j >= 0, over the resolvable range."""
    lp = lp or LittlewoodPaley(f.grid)
    acc = 0.0
    for j in lp.j_resolvable:
        nj = lebesgue_norm(project(lp, f, j), p)
        w = 2.0 ** (2 * j * s) if j < 0 else 2.0 ** (2 * j * t)
        acc += w * nj * nj
    return math.sqrt(acc)


def bernstein_ratio(f: SpectralField, j: int, a, b, lp: LittlewoodPaley = None) -> float:
    """||f_j||_a / (2^{jd(1/b-1/a)} ||f_j||_b); NaN flags a zero block."""
    lp = lp or LittlewoodPaley(f.grid)
    fj = project(lp, f, j)
    na = lebesgue_norm(fj, a)
    nb = lebesgue_norm(fj, b)
    if nb == 0.0:
        return math.nan
    inv_a = 0.0 if a == math.inf else 1.0 / float(a)
    inv_b = 0.0 if b == math.inf else 1.0 / float(b)
    return na / (2.0 ** (j * f.grid.d * (inv_b - inv_a)) * nb)
