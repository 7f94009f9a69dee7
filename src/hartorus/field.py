"""Complex scalar fields on a torus grid with cached Fourier coefficients.

Convention: forward transform integrates against e^{-i x.xi} (coefficients
carry the physical cell volume), the inverse carries (2*pi)^-d and the
frequency cell volume.  Both are realized through the FFT so a round trip
is exact to rounding.

fftn / ifftn are the package's one FFT pair: unnormalised scipy.fft
transforms on one worker.  More workers split the batch of 1-D transforms
statically and do not change the output bits, but then every transform
waits for its slowest thread: on a shared 2-CPU host, where another
process's load took the second CPU now and then, two workers made the
d=3 split-step op vary by about 25% from run to run, while one worker ran
steadily at a time that tracks the host's single-thread speed.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .grid import TorusGrid

_WORKERS = 1


def fftn(x, axes=None, s=None, overwrite_x=False):
    """Unnormalised forward FFT over axes (all by default), zero-padded to s;
    overwrite_x only on a temporary the caller no longer needs."""
    return scipy.fft.fftn(x, s=s, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)


def ifftn(x, axes=None, overwrite_x=False):
    """Inverse of fftn (carries the 1/n)."""
    return scipy.fft.ifftn(x, axes=axes, overwrite_x=overwrite_x, workers=_WORKERS)


class SpectralField:
    """Immutable field with physical values and lazily cached coefficients."""

    __slots__ = ("grid", "_values", "_hat")

    def __init__(self, grid: TorusGrid, values=None, coefficients=None):
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

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_values(cls, grid, values):
        return cls(grid, values=values)

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

    # -- representations -------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            vals = ifftn(self._hat) / self.grid.dx
            vals.flags.writeable = False
            self._values = vals
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._hat is None:
            hat = fftn(self._values) * self.grid.dx
            hat.flags.writeable = False
            self._hat = hat
        return self._hat

    # -- operations ------------------------------------------------------

    def apply_multiplier(self, symbol) -> "SpectralField":
        """Multiply coefficients by symbol(xi); symbol is an array on the
        frequency lattice or a callable taking the xi meshgrid tuple."""
        if callable(symbol):
            sym = np.asarray(symbol(*self.grid.xi_vectors))
        else:
            sym = np.asarray(symbol)
        if sym.shape != self.grid.shape:
            raise ValueError(f"symbol shape {sym.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(sym.view(float) if sym.dtype == complex else sym)):
            raise ValueError("symbol takes non-finite values on the lattice")
        return SpectralField(self.grid, coefficients=sym * self.coefficients)

    def free_propagate(self, t, mass=0.0) -> "SpectralField":
        """Apply e^{-i t (mass + |xi|^2)} in frequency."""
        sym = np.exp(-1j * t * (mass + self.grid.xi_squared))
        return self.apply_multiplier(sym)

    def shift(self, cells) -> "SpectralField":
        """Translate by an integer number of lattice cells per axis."""
        cells = tuple(int(c) for c in np.atleast_1d(cells))
        return SpectralField(self.grid, values=np.roll(self.values, cells, axis=tuple(range(self.grid.d))))

    def __add__(self, other):
        return SpectralField(self.grid, values=self.values + other.values)

    def __sub__(self, other):
        return SpectralField(self.grid, values=self.values - other.values)

    def __mul__(self, scalar):
        return SpectralField(self.grid, values=self.values * scalar)

    __rmul__ = __mul__

    # -- diagnostics -----------------------------------------------------

    def l2_physical(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def l2_frequency(self) -> float:
        g = self.grid
        return float(np.sqrt(np.sum(np.abs(self.coefficients) ** 2) * g.dxi) * (2 * np.pi) ** (-g.d / 2))

    def roundtrip_error(self) -> float:
        back = ifftn(fftn(self.values), overwrite_x=True)
        scale = max(1.0, float(np.max(np.abs(self.values))))
        return float(np.max(np.abs(back - self.values)) / scale)
