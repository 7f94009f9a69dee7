"""Periodic torus discretization: lattices in space and frequency."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform lattice on the torus [0, L)^d with its dual frequency lattice.

    Frequencies are xi_k = (2*pi/L)*k for integer k in [-N/2, N/2), stored
    in FFT order along every axis.
    """

    d: int
    L: float
    N: int

    def __post_init__(self):
        if not 1 <= self.d <= 4:
            raise ValueError(f"dimension d={self.d} outside supported range 1..4")
        if self.L <= 0:
            raise ValueError(f"box length L={self.L} must be positive")
        if not _is_power_of_two(self.N):
            raise ValueError(f"points per axis N={self.N} must be a power of two")

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def dx(self) -> float:
        """Physical cell volume."""
        return (self.L / self.N) ** self.d

    @property
    def dxi(self) -> float:
        """Frequency cell volume (2*pi/L)^d."""
        return (2 * np.pi / self.L) ** self.d

    @property
    def parseval_weight(self) -> float:
        """(2*pi)^-d dxi dx^2: sum_x |u|^2 dx is this times sum_k |fftn(u)_k|^2."""
        return (2 * np.pi) ** (-self.d) * self.dxi * self.dx ** 2

    @property
    def volume(self) -> float:
        return self.L ** self.d

    @property
    def xi_min(self) -> float:
        """Smallest nonzero frequency magnitude, 2*pi/L."""
        return 2 * np.pi / self.L

    @property
    def nyquist(self) -> float:
        """Per-axis Nyquist frequency (N/2)*(2*pi/L)."""
        return (self.N // 2) * 2 * np.pi / self.L

    @cached_property
    def x_axis(self) -> np.ndarray:
        return self.L * np.arange(self.N) / self.N

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Per-axis frequencies in FFT order."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)  # integers 0..N/2-1, -N/2..-1
        return (2 * np.pi / self.L) * k

    @cached_property
    def x_vectors(self) -> tuple:
        axes = [self.x_axis] * self.d
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def xi_vectors(self) -> tuple:
        axes = [self.xi_axis] * self.d
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def xi_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for comp in self.xi_vectors:
            out += comp * comp
        out.flags.writeable = False
        return out

    @cached_property
    def xi_norm(self) -> np.ndarray:
        out = np.sqrt(self.xi_squared)
        out.flags.writeable = False
        return out

    @property
    def xi_max_abs(self) -> float:
        """Largest frequency magnitude present on the lattice."""
        return float(np.sqrt(self.d) * self.nyquist)

    @property
    def recurrence_time(self) -> float:
        """Free-flow refocusing time scale L^2/(4*pi)."""
        return self.L ** 2 / (4 * np.pi)

    def phase(self, carriers) -> np.ndarray:
        """The phase xi.x on the lattice for one carrier (d,) or a stack (M, d),
        summed axis by axis from zero; shape carriers.shape[:-1] + grid shape."""
        carriers = np.atleast_1d(np.asarray(carriers, dtype=float))
        lead = carriers.shape[:-1] + (1,) * self.d
        out = np.zeros(carriers.shape[:-1] + self.shape)
        for a, x in enumerate(self.x_vectors):
            out += carriers[..., a].reshape(lead) * x
        return out

    def min_image_dist2(self, center) -> np.ndarray:
        """Squared minimum-image distance of every lattice point to center."""
        center = np.atleast_1d(np.asarray(center, dtype=float))
        out = np.zeros(self.shape)
        for a, x in enumerate(self.x_vectors):
            dx = x - center[a]
            dx = dx - self.L * np.round(dx / self.L)
            out = out + dx * dx
        return out

    def lattice_cells(self, xis) -> tuple:
        """Index of the frequencies xis (..., d) in an array over the frequency
        lattice: rint(xi L / 2 pi) mod N per axis, one index array (or integer)
        per axis.  ValueError for a frequency off the lattice."""
        k = np.asarray(xis, dtype=float) * (self.L / (2 * np.pi))
        cells = np.rint(k)
        if np.any(np.abs(k - cells) > 1e-9 * np.maximum(1.0, np.abs(k))):
            raise ValueError("a frequency is off the frequency lattice")
        return tuple(np.moveaxis(cells.astype(int) % self.N, -1, 0))

    def nearest_lattice_xi(self, target) -> np.ndarray:
        """Snap a frequency vector to the nearest lattice point."""
        target = np.atleast_1d(np.asarray(target, dtype=float))
        if target.shape != (self.d,):
            raise ValueError(f"expected a {self.d}-vector, got shape {target.shape}")
        step = 2 * np.pi / self.L
        k = np.rint(target / step)
        half = self.N // 2
        k = np.clip(k, -half, half - 1)
        return k * step
