"""Dyadic frequency decomposition on the torus lattice.

The block profile is built by telescoping a smooth cutoff chi (equal to 1
below r=1 and 0 above r=2): eta(r) = chi(r) - chi(2r).  This gives
eta supported in the open annulus (1/2, 2), eta(1) = 1, and an exact
partition of unity sum_j eta(2^-j r) = 1 on every covered dyadic range.

The norms of a plain field live here: lebesgue, the resolvable block norms
(LittlewoodPaley.block_norms) and their dyadic sum (dyadic_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import ifftn
from .grid import TorusGrid


def _smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def chi(r):
    """Smooth radial cutoff: 1 on [0,1], 0 on [2,inf)."""
    r = np.asarray(r, dtype=float)
    return _smooth_step(2.0 - r)


def eta(r):
    """Annulus profile chi(r) - chi(2r); support (1/2, 2), eta(1) = 1."""
    r = np.asarray(r, dtype=float)
    return chi(r) - chi(2.0 * r)


def eta_j(r, j: int):
    return eta(np.asarray(r, dtype=float) * 2.0 ** (-j))


def lebesgue(vals: np.ndarray, p: float, dx: float, axes: tuple):
    """L^p over the space axes of lattice values; inf past the largest float."""
    with np.errstate(over="ignore"):
        return (np.sum(vals ** p, axis=axes) * dx) ** (1.0 / p)


def dyadic_norm(block_norms, s: float, t: float):
    """sqrt(sum_j 2^{2j (s if j < 0 else t)} n_j^2) over the (j, n_j) pairs of
    block_norms, the two-exponent dyadic norm; inf past the largest float."""
    acc = 0.0
    with np.errstate(over="ignore"):
        for j, n in block_norms:
            acc = acc + 2.0 ** (2 * j * (s if j < 0 else t)) * n ** 2
        return np.sqrt(acc)


def critical_exponents(d: int) -> dict:
    """s = d/2-1, p = 2(d+2)/d, q = 4d/(d+1), the cubic-critical family."""
    return {"s": d / 2 - 1, "p": 2 * (d + 2) / d, "q": 4 * d / (d + 1)}


@dataclass(frozen=True)
class LittlewoodPaley:
    """Block family adapted to one grid.

    cover range  : every j whose annulus meets a nonzero lattice frequency;
                   summing these blocks reconstructs any zero-mean field.
    resolvable   : the stricter range with 2^(j-1) >= 2*pi/L and
                   2^(j+1) <= Nyquist; the block norms are evaluated on it.

    The lattice symbols of the resolvable blocks and the Bessel weight of the
    critical exponent s are evaluated once per instance.
    """

    grid: TorusGrid

    @property
    def j_cover(self) -> range:
        g = self.grid
        j_lo = math.floor(math.log2(g.xi_min) + 1e-12)
        j_hi = math.ceil(math.log2(g.xi_max_abs) - 1e-12)
        return range(j_lo, j_hi + 1)

    @property
    def j_resolvable(self) -> range:
        g = self.grid
        j_min = math.ceil(1.0 + math.log2(g.xi_min) - 1e-12)
        j_max = math.floor(math.log2(g.nyquist) - 1.0 + 1e-12)
        return range(j_min, j_max + 1)

    @cached_property
    def symbols(self) -> dict:
        """j -> eta_j on the lattice, for every resolvable j."""
        return {j: eta_j(self.grid.xi_norm, j) for j in self.j_resolvable}

    @cached_property
    def bessel(self) -> np.ndarray:
        """(1 + |xi|^2)^{s/2} on the lattice at s = critical_exponents(d)["s"]."""
        s = critical_exponents(self.grid.d)["s"]
        return (1 + self.grid.xi_squared) ** (s / 2)

    def partition_values(self, js=None) -> np.ndarray:
        """sum_j eta_j on the lattice over the given (default cover) range."""
        js = self.j_cover if js is None else js
        out = np.zeros(self.grid.shape)
        for j in js:
            out = out + (self.symbols[j] if j in self.symbols else eta_j(self.grid.xi_norm, j))
        return out

    def block_norms(self, hat: np.ndarray, p: float) -> list:
        """(j, ||u_j||_p) for each resolvable block u_j, in the order of symbols,
        of the field with unnormalised FFT hat, from one batched inverse FFT."""
        g = self.grid
        blocks = ifftn(np.stack(list(self.symbols.values())) * hat, axes=tuple(range(1, g.d + 1)),
                       overwrite_x=True)
        return [(j, lebesgue(np.abs(b), p, g.dx, tuple(range(g.d)))) for j, b in zip(self.symbols, blocks)]
