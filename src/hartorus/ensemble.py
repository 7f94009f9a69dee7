"""Finite Gaussian-mode ensembles and their coupled mean-field dynamics.

The random field is represented by modes (xi_j, a_j, u_j) attached to
orthonormal Gaussian factors, so every expectation is an exact finite sum
over modes: the density is sum_j |u_j|^2 with no sampling error.

Time stepping is Strang splitting for

    i d/dt u_j = -Lap u_j + (w * rho) u_j,      rho = sum_k |u_k|^2,

written in the gauged form with the constant m inside the kinetic factor:
half-step e^{-i dt/2 (m + |xi|^2)} in frequency, full-step physical phase
e^{-i dt ((w*rho)(x) - m)}, half-step kinetic.  Equilibria then rotate by
the exact phases e^{-i t (m + |xi_j|^2)} and the splitting preserves every
per-mode mass to rounding.

A run lives in one (M, *grid) buffer, stepped in place by mode chunks of
about _CHUNK_BYTES (2 MiB, one core's L2 cache on the 2-CPU Xeon host it
was measured on).  step(eq, dt, n, hat) steps the spectrum buffer hat
through a window of n steps with the adjacent kinetic half-steps fused: each
step is one pass over the chunks (the potential phase of the last step, a
forward FFT, the kinetic factor, an inverse FFT, the chunk's |u|^2 added to
the density), then the potential of that density.  Between windows the
buffer holds the spectrum, so a step costs one forward and one inverse stack
FFT.  On two CPUs a chunk's part of a pass is one task of the package's worker
pool (field.ordered_map), at most one in flight per thread, each reusing
its thread's |u|^2 rows, and the main thread adds the chunks' |u|^2 into the
density in mode order.
Every mode sum (the density, the spectral power, the sums behind the norms)
is added mode after mode in np.sum's order over a leading axis (_ModeSum),
so the chunk size changes none of them by a bit.  Two scalar sums are the
exceptions: _NormSums.l2 and the z_gap of picard.reference_trajectory add
one np.sum per chunk, so the chunk size regroups them at rounding.

A ModeEnsemble is the equilibrium alone, and that buffer is the only state
of a run.  observations(eq, bump, ...) is the one stepping loop: it fills
the buffer with the spectrum of the start, y_j's one entry N^d a_j per mode
plus the bump's transform in bump.mode (none for bump None), and yields
(t, chunks) at step 0 and after every window; chunks hands over a Chunk
record per mode chunk, its modes, its spectrum and the way to read its
fields, and evolve (_record), the scattering probe and the Picard reference
accumulate what they record from them; the chunks are the only way to read
a run, and only the start fill and step write its buffer.  A start whose
mass overflows the sums, or a step whose potential is not finite, raises
FloatingPointError: no consumer sees non-finite values.

Each of those readers makes an observation one field.ordered_map over the
parts of its chunks, evolve and the Picard reference with buffers from the
map's factory (_buffers), the probe in chunks of its own that it holds: a
chunk's read (its fields by an inverse FFT, and what the reader squares or
unwinds of them and of its deviation) is one task, and with the norms each
half of the chunk under each weight is one more.  The calling thread only
adds each part's rows into its mode sums, in mode order, so on two CPUs the
whole observation runs on the pool and no sum depends on the pool.

The deviation of a state at time t is Z = u - y against the exact
equilibrium phases of eq.  The carriers are lattice frequencies, so Y(t) is
built per chunk where it is read from the modes' per-axis factors, d tables
of M x N roots of unity (equilibrium_at), and no copy is stored; the spectrum of y_j has one nonzero
entry (equilibrium_spectrum at carrier_cells), so the spectrum of Z is the
stream's own but at those entries.  No reader makes it: a weighted transform
takes the weight times hat with those entries made afresh, and |Z-hat|^2 is
|hat|^2 with those entries made afresh, each to the bit, with no forward
FFT.  deviation_norms adds the (key, rows) parts of a deviation into its
mode sums (_NormSums) and takes lpaley's norms of them; a Picard slice is
one chunk given in full (_NormSums.add).  No mode whose weighted spectrum is
all zero is transformed in the norms, nor any chunk whose unwound spectrum
is all zero in the probe, and no sum changes by a bit for it.

The start is the equilibrium plus the bump in one mode, so every start
chunk without bump.mode is the equilibrium itself: its u is Y(0) and its
hat y_j's entries, and its deviation is +0.0 exactly.  The stream marks
those chunks (Chunk.cells), and that one mark serves every reader: the
norms and the probe do not read their deviation, and evolve adds their
power at the carrier cells alone.  The start's overflow check sums y_j's
entries and the bump's mode, not the whole buffer.  A skipped chunk would
only have added +0.0 rows, so no sum changes by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .equilibrium import DistributionFunction, InteractionPotential
from .field import fftn, ifftn, ordered_map
from .grid import TorusGrid
from .lpaley import LittlewoodPaley, critical_exponents, dyadic_norm, lebesgue

_CHUNK_BYTES = 1 << 21  # complex fields per mode chunk: 32 modes at d=3, N=16


def _mode_chunks(n_modes: int, grid: TorusGrid) -> list:
    """Slices of consecutive modes holding about _CHUNK_BYTES of fields each."""
    size = max(1, _CHUNK_BYTES // (16 * grid.N ** grid.d))
    return [slice(i, min(i + size, n_modes)) for i in range(0, n_modes, size)]


class _ModeSum:
    """sum_j |x_j|^2 over the leading (mode) axis of chunks fed in mode order.

    Each chunk is added mode after mode onto the running total, the order in
    which np.sum reduces that axis, so any chunking gives the sum over the
    whole stack to the bit.
    """

    def __init__(self, shape: tuple):
        self.total = np.zeros(shape)

    def add_squares(self, work: np.ndarray) -> None:
        """Add a chunk's |x|^2 from rows 1.. of work, as _squares leaves
        them."""
        work[0] = self.total
        np.sum(work, axis=0, out=self.total)


def _squares(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|x|^2 of the chunk x in rows 1.. of the leading len(x) + 1 rows of
    rows, which it returns; row 0 is left for _ModeSum.add_squares.  x may be
    the complex view of the last 2 len(x) rows of rows, two rows ahead of it
    at least (_as_complex): the rows are then written a block of modes at a
    time, each block once the modes its rows overlap are read."""
    n = len(x)
    work = rows[:n + 1]
    ahead = len(rows) - 2 * n if np.may_share_memory(x, rows) else n + 1
    i = 0
    while i < n:
        block = min(n - i, ahead - 1 + i)
        sq = np.abs(x[i:i + block], out=work[1 + i:1 + i + block])
        with np.errstate(over="ignore"):  # past the largest float: inf, which the callers judge
            np.square(sq, out=sq)
        i += block
    return work


def _into(out: np.ndarray, x: np.ndarray) -> None:
    """Leave in x the result of a transform of x run with overwrite_x."""
    if not np.may_share_memory(out, x):
        x[...] = out


def _as_complex(rows: np.ndarray, n: int) -> np.ndarray:
    """The first 2n rows of the real buffer rows as n complex rows."""
    return rows[:2 * n].reshape(-1).view(complex).reshape((n,) + rows.shape[1:])


def _nonzero(x: np.ndarray) -> np.ndarray:
    """The mask of the modes (leading axis) of x that have a nonzero entry."""
    return x.reshape(len(x), -1).any(axis=1)


def _buffers(eq, *sets: int) -> Callable:
    """The factory of one thread's scratch for the parts of an observation's
    chunks (field.ordered_map's): for each k of sets a real array of k (n + 1)
    rows of the grid, n the modes of the largest chunk, room for k chunks of
    |.|^2 rows (_squares) or for a complex chunk in two of them (_as_complex)."""
    size = _mode_chunks(eq.n_modes, eq.grid)[0].stop + 1 if eq.n_modes else 1  # the first chunk is the largest
    shape = eq.grid.shape
    return lambda: tuple(np.empty((k * size,) + shape) for k in sets)


@dataclass(frozen=True)
class Chunk:
    """A mode chunk of one observation of the stream (observations).

    modes is a slice of mode indices and hat the unnormalised spectrum of
    those modes, a read-only view of the run's buffer; cells indexes y_j's
    one entry per mode in hat when the chunk is the equilibrium alone (a
    start chunk without the bump's mode), whose deviation is +0.0, and is
    None otherwise.  fields(out) writes the chunk's fields u into out, a
    complex array of hat's shape, and returns them: at a later observation
    the inverse transform of hat, at the start Y(0) with the bump added to
    its mode.  It writes nothing else, so any thread may read a chunk.
    """

    modes: slice
    hat: np.ndarray
    cells: Optional[tuple]
    fields: Callable[[np.ndarray], np.ndarray]


def _inverse(hat: np.ndarray, axes: tuple, out: np.ndarray) -> np.ndarray:
    """The inverse transform of hat over axes, made in out."""
    np.copyto(out, hat)
    return ifftn(out, axes=axes, overwrite_x=True)


def _deviation_squares(eq, t: float, modes: slice, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|Z|^2 (_squares) of Z = u - Y(t), u the fields of modes, in rows 1..
    of the leading len(u) + 1 rows of the real buffer rows, which it returns.
    Z is made an eighth of the modes at a time in a scratch of that size,
    beside u, which it only reads, so rows may hold u from their start on
    (_as_complex): each row is written once the modes it overlaps are read."""
    work = rows[:len(u) + 1]
    block = -(-len(u) // 8)
    scratch = np.empty((block,) + u.shape[1:], complex)
    for i in range(0, len(u), block):
        part = slice(modes.start + i, min(modes.start + i + block, modes.stop))
        Z = eq.equilibrium_at(t, part, out=scratch[:part.stop - part.start])
        np.subtract(u[i:i + block], Z, out=Z)
        sq = np.abs(Z, out=work[1 + i:1 + i + len(Z)])
        with np.errstate(over="ignore"):  # past the largest float: inf, which the callers judge
            np.square(sq, out=sq)
    return work


@dataclass(frozen=True)
class ModeEnsemble:
    """The equilibrium of a run: grid, lattice carriers (M, d), weights (M,),
    the gauge mass m and the potential w; its plane waves are never stored,
    only their per-axis factors, d tables of M x N."""

    grid: TorusGrid
    carriers: np.ndarray
    weights: np.ndarray
    m: float
    w: InteractionPotential

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    @property
    def space_axes(self) -> tuple:
        return tuple(range(1, self.grid.d + 1))

    @cached_property
    def _rates(self) -> np.ndarray:
        """m + |xi_j|^2 per mode."""
        return self.m + np.vecdot(self.carriers, self.carriers)  # a summed square rounds otherwise

    @cached_property
    def _cells(self) -> tuple:
        """k_{j,a} mod N of every carrier, one (M,) index array per axis
        (grid.lattice_cells)."""
        return self.grid.lattice_cells(self.carriers)

    @cached_property
    def _phases(self) -> tuple:
        """The per-axis factors omega^{(k_{j,a} n_a) mod N} of every mode, one
        (M, N) table per axis a, omega = e^{2 pi i/N}."""
        roots = np.exp(2j * np.pi * np.fft.fftfreq(self.grid.N))  # omega^m, from angles in [-pi, pi)
        n = np.arange(self.grid.N)
        return tuple(roots[np.multiply.outer(k, n) % self.grid.N] for k in self._cells)

    @cached_property
    def _what(self) -> np.ndarray:
        """w-hat on the frequency lattice."""
        return self.w.what(self.grid.xi_norm)

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """w * rho over the trailing grid axes of rho."""
        axes = tuple(range(rho.ndim - self.grid.d, rho.ndim))
        return ifftn(fftn(rho, axes=axes) * self._what, axes=axes, overwrite_x=True).real

    def equilibrium_at(self, t: float, modes: slice = slice(None),
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Y(t) of the modes in the slice modes (all by default), written into
        out when given: a_j e^{-i t (m + |xi_j|^2)} times the per-axis factors
        omega^{(k_{j,a} n_a) mod N}, omega = e^{2 pi i/N}, about one complex
        multiply per point.  ValueError for a carrier off the lattice."""
        y = self.weights[modes] * np.exp(-1j * (t * self._rates[modes]))
        for a, phase in enumerate(self._phases):
            factor = phase[modes].reshape((len(y),) + (1,) * a + (self.grid.N,))
            y = np.multiply(y[..., None], factor, out=out if a == self.grid.d - 1 else None)
        return y

    def carrier_cells(self, modes: slice = slice(None)) -> tuple:
        """Index of the carrier of each mode of the slice modes (all by default)
        in a spectrum stack of those modes: the one cell where the unnormalised
        spectrum of y_j is nonzero.  ValueError for a carrier off the frequency
        lattice, whose y_j has no such cell."""
        return (np.arange(len(self.weights[modes])),) + tuple(k[modes] for k in self._cells)

    def equilibrium_spectrum(self, t: float) -> np.ndarray:
        """The (M,) entries N^d a_j e^{-i t (m + |xi_j|^2)} of the unnormalised
        spectrum of Y(t) at carrier_cells(); every other entry is zero."""
        return self.grid.N ** self.grid.d * self.weights * np.exp(-1j * t * self._rates)


@dataclass
class InitReport:
    retained_mass: float
    truncated_mass: float

    @property
    def truncated_fraction(self) -> float:
        tot = self.retained_mass + self.truncated_mass
        return self.truncated_mass / tot if tot > 0 else 0.0


def cell_masses(grid: TorusGrid, f: DistributionFunction, threshold: float):
    """f2(|xi|) dxi per lattice cell and the mask of the cells kept as modes."""
    cell_mass = f.f2(grid.xi_norm) * grid.dxi
    return cell_mass, cell_mass >= threshold


def init_equilibrium(grid: TorusGrid, f: DistributionFunction, w: InteractionPotential,
                     threshold: float = 1e-8):
    """Equilibrium ensemble from all lattice modes with f2 * dxi >= threshold.

    The gauge mass is w-hat(0) times the *retained lattice* mass, the unique
    value that makes the discrete equilibrium an exact solution; the
    continuum quadrature value is available from equilibrium_mass().
    Returns (ensemble, InitReport with the discarded weight).
    """
    cell_mass, keep = cell_masses(grid, f, threshold)
    total = float(np.sum(cell_mass))
    retained = float(np.sum(cell_mass[keep]))
    if not np.any(keep):
        if total > 0.0:
            raise ValueError("mode threshold removed every lattice mode of a nonzero distribution")
        ens = ModeEnsemble(grid=grid, carriers=np.zeros((0, grid.d)), weights=np.zeros(0), m=0.0, w=w)
        return ens, InitReport(0.0, 0.0)

    idx = np.argwhere(keep)
    carriers = np.empty((len(idx), grid.d))
    for a in range(grid.d):
        carriers[:, a] = grid.xi_axis[idx[:, a]]
    weights = np.sqrt(cell_mass[keep])
    order = np.lexsort(carriers.T[::-1])  # fixed mode order: lexicographic carriers
    ens = ModeEnsemble(grid=grid, carriers=carriers[order], weights=weights[order],
                       m=w.what0 * retained, w=w)
    return ens, InitReport(retained_mass=retained, truncated_mass=total - retained)


def step(eq: ModeEnsemble, dt: float, n: int, hat: np.ndarray) -> None:
    """n Strang steps with adjacent kinetic half-steps fused, one pass over
    the mode chunks per step, on the grid and with the gauge mass and the
    potential of the equilibrium eq.

    hat is an (M, *grid) buffer holding the unnormalised spectrum of the
    state; the window steps it in place and leaves there the spectrum at the
    window's end.
    FloatingPointError when a non-finite field value reaches a step's potential.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    g = eq.grid
    axes = eq.space_axes
    chunks = _mode_chunks(eq.n_modes, g)
    half = np.exp(-0.5j * dt * (eq.m + g.xi_squared))
    full = half * half

    size = chunks[0].stop if chunks else 0  # the first chunk is the largest
    rows = partial(np.empty, (size + 1,) + g.shape)  # a thread's |u|^2 rows
    phase = None
    for k in range(n + 1):  # pass k: the kinetic factor between potentials k-1 and k
        rho = _ModeSum(g.shape)
        task = partial(_chunk_pass, hat, axes, phase, half if k in (0, n) else full)
        for sq in ordered_map(task, chunks, rows if k < n else None):  # mode order: rho keeps its bits
            if k < n:
                rho.add_squares(sq)
        if k < n:
            pot = eq.potential(rho.total)
            if not np.all(np.isfinite(pot)):
                raise FloatingPointError(f"non-finite field values in a window of {n} steps of dt={dt}")
            phase = np.exp(-1j * dt * (pot - eq.m))


def _chunk_pass(hat, axes, phase, factor, rows, c):
    """The mode chunk c's part of a step pass, in place in hat[c]: the
    potential phase (none for None), a forward FFT and the kinetic factor,
    then with rows an inverse FFT; returns the chunk's |u|^2 (_squares) in
    rows, or None without rows."""
    x = hat[c]
    if phase is not None:
        x *= phase
        _into(fftn(x, axes=axes, overwrite_x=True), x)
    x *= factor
    if rows is None:
        return None
    _into(ifftn(x, axes=axes, overwrite_x=True), x)
    return _squares(x, rows)


def conserved_energy(ens: ModeEnsemble, rho: np.ndarray, power: np.ndarray) -> float:
    """Kinetic + gauge + interaction energy (constant along the exact flow) of
    a state with density rho and spectral power sum_j |hat_j|^2, hat_j the
    unnormalised spectra of its modes; the kinetic and gauge terms come from
    the power by Parseval (TorusGrid.parseval_weight).
    """
    g = ens.grid
    wgt = g.parseval_weight
    kinetic = float(np.sum(g.xi_squared * power)) * wgt
    gauge = ens.m * float(np.sum(power)) * wgt
    interaction = 0.5 * float(np.sum(ens.potential(rho) * rho) * g.dx)
    return kinetic + gauge + interaction


# ---------------------------------------------------------------------------
# perturbations


@dataclass(frozen=True)
class BumpSpec:
    """Gaussian envelope times a carrier wave, targeted at one ensemble mode."""

    amplitude: float
    width: float
    center: tuple
    carrier: tuple
    mode: int = 0

    def field_values(self, grid: TorusGrid) -> np.ndarray:
        with np.errstate(over="ignore"):  # a quotient past the largest float: exp's limit 0
            env = np.exp(-grid.min_image_dist2(self.center) / (2.0 * self.width ** 2))
        return self.amplitude * env * np.exp(1j * grid.phase(self.carrier))


def _check_bump(eq: ModeEnsemble, bump: Optional[BumpSpec]) -> None:
    """ValueError when bump targets no mode of eq."""
    if bump is not None and not 0 <= bump.mode < eq.n_modes:
        raise ValueError(f"mode index {bump.mode} outside 0..{eq.n_modes - 1}")


# ---------------------------------------------------------------------------
# deviation norms (the solution-space ingredients)


class _NormSums:
    """The mode sums behind l2, l_dplus2, w_sp, besov_q and hs of a deviation
    on the grid of lp, fed in mode order as the |.|^2 rows of its parts
    (add_part): as (M, *grid) (Z, Z-hat) pairs (add), or as the parts of the
    stream's chunks (_Observation).  At d = 2 the Bessel weight of w_sp is 1
    and p = d + 2, so w_sp is l_dplus2 with no transform pair.
    """

    def __init__(self, lp: LittlewoodPaley):
        self.grid = grid = lp.grid
        self.l2 = 0.0
        self.dens = _ModeSum(grid.shape)
        self.power = _ModeSum(grid.shape)  # sum_j |Z-hat_j|^2
        self.smooth = _ModeSum(grid.shape) if critical_exponents(grid.d)["s"] != 0 else None
        self.blocks = {j: _ModeSum(grid.shape) for j in lp.symbols}
        # (sum, spectral weight) of each weighted inverse transform
        self.weighted = ([(self.smooth, lp.bessel)] if self.smooth is not None else []) + [
            (self.blocks[j], sym) for j, sym in lp.symbols.items()]

    def parts(self, n: int) -> list:
        """The weighted transforms of a chunk of n modes as (k, half): the
        weight weighted[k] on each half of the chunk, so the two threads'
        transform buffers together weigh one chunk."""
        size = max(1, -(-n // 2))
        return [(k, slice(i, min(i + size, n))) for k in range(len(self.weighted)) for i in range(0, n, size)]

    def add(self, Z: np.ndarray, Z_hat: np.ndarray) -> None:
        """Add the |Z|^2 and the weighted transforms of a chunk given in full;
        Z_hat, the unnormalised FFT of Z over space, is only read."""
        self.add_part("dens", _squares(Z, np.empty((len(Z) + 1,) + Z.shape[1:])))
        for k, sq in self.weighted_rows(Z_hat):
            self.add_part(k, sq)

    def weighted_rows(self, Z_hat: np.ndarray):
        """(k, rows) for each weighted transform of the chunk Z_hat given in
        full, in mode order, the transforms tasks of field.ordered_map."""
        parts = self.parts(len(Z_hat))
        size = parts[0][1].stop if parts else 0

        def buffers():  # a thread's half-chunk transform and |.|^2 rows
            return np.empty((size,) + Z_hat.shape[1:], complex), np.empty((size + 1,) + Z_hat.shape[1:])

        def task(bufs, part):
            return part[0], self._weighted(bufs, part[0], Z_hat[part[1]])
        return ordered_map(task, parts, buffers)

    def _weighted(self, buffers: tuple, k: int, hat: np.ndarray, fix: Optional[tuple] = None):
        """|.|^2 (_squares) of the inverse transform of weighted[k]'s weight
        times the chunk hat, in buffers = (transform, rows) or their leading
        parts; fix = (index, values) gives the values that stand in for hat's
        entries at index (None: none).  A mode whose weighted spectrum is all
        zero gets no transform and no row, and None stands for no row: with
        finite weights its rows are +0.0, and leaving them out changes no sum."""
        weight = self.weighted[k][1]
        x = np.multiply(weight[None], hat, out=buffers[0][:len(hat)])
        if fix is not None:
            index, values = fix
            x[index] = weight[index[1:]] * values
        keep = _nonzero(x)
        if not keep.all():
            x = x[keep]
        if not len(x):
            return None
        return _squares(ifftn(x, axes=tuple(range(1, x.ndim)), overwrite_x=True), buffers[1])

    def add_part(self, key, rows: Optional[np.ndarray]) -> None:
        """Add a part's |.|^2 rows (as _squares leaves them): key "dens" for
        |Z|^2, with its one np.sum into l2, "power" for |Z-hat|^2, and an
        index k for weighted[k]'s transform (none for None)."""
        if key == "dens":
            self.l2 = self.l2 + np.sum(rows[1:], axis=tuple(range(rows.ndim)))
            self.dens.add_squares(rows)
        elif key == "power":
            self.power.add_squares(rows)
        elif rows is not None:
            self.weighted[key][0].add_squares(rows)

    def ingredients(self, hs: bool = False) -> dict:
        """The norms of the sums, and with hs the H^s norm of the power."""
        g = self.grid
        d, dx = g.d, g.dx
        ex = critical_exponents(d)
        pointwise = tuple(range(d))  # space axes once modes are summed
        root = np.sqrt(self.dens.total)
        out = {"l2": np.sqrt(self.l2 * dx),
               "l_dplus2": lebesgue(root, float(d + 2), dx, pointwise)}
        if self.smooth is not None:
            root = np.sqrt(self.smooth.total)
        out["w_sp"] = lebesgue(root, ex["p"], dx, pointwise)
        out["besov_q"] = dyadic_norm(
            ((j, lebesgue(np.sqrt(b.total), ex["q"], dx, pointwise)) for j, b in self.blocks.items()),
            0.0, 0.25)
        if hs:
            out["hs"] = np.sqrt(np.sum((1 + g.xi_squared) ** ex["s"] * self.power.total) * g.parseval_weight)
        return out


def deviation_norms(lp: LittlewoodPaley, parts) -> dict:
    """Spatial ingredient norms of a deviation at one time, on the grid of the
    block family lp, from the (key, rows) parts of an observation's chunks in
    mode order, as _Observation.summed passes them on to _NormSums.add_part:
    the span of an observation's norms in _record."""
    sums = _NormSums(lp)
    for key, rows in parts:
        sums.add_part(key, rows)
    return {k: float(v) for k, v in sums.ingredients(hs=True).items()}


# ---------------------------------------------------------------------------
# trajectories


# the largest power of the lattice density that an observation sums: the cube
# (l_dplus2 at d = 4, w_sp at d = 1)
_MASS_LIMIT = np.finfo(float).max ** (1.0 / 3.0)


def _step_count(T: float, dt: float) -> int:
    """The number of steps of dt in T; ValueError unless T and dt are positive,
    T / dt is finite and T is a whole number of steps, one at least."""
    if T <= 0:
        raise ValueError("T must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(T / dt):
        raise ValueError(f"T={T} in steps of dt={dt} is more steps than can be counted")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer number of steps of dt={dt}")
    return n_steps


def observations(eq: ModeEnsemble, bump: Optional[BumpSpec], T: float, dt: float,
                 obs_stride: int = 1):
    """The one stepping loop of the start eq + bump (eq itself when bump is
    None): yields (t, chunks) at step 0 and at the end of every window of
    obs_stride steps up to time T (the last window shorter when obs_stride
    does not divide T/dt).

    chunks yields a Chunk for each mode chunk in mode order: its modes, hat
    the unnormalised spectrum of those modes at time t, a read-only view of
    the run's (M, *grid) buffer, and fields, which reads their fields into a
    caller's array.  The chunks are the only way to read the run, whose
    buffer holds the spectrum from the start (y_j's one entry per mode, plus
    the bump's transform) on, written by step only; reading a chunk, on any
    thread, leaving it unread or holding it changes nothing, and a chunk is
    read as it stands until the stream steps on.  At step 0 a chunk without
    bump.mode (every chunk for bump None) is the equilibrium alone and has
    its cells set.
    Before the first observation, ValueError for a T that is not a whole
    number of steps of dt, a bump that targets no mode of eq or a stride
    below 1, and FloatingPointError when the start's mass overflows the sums.
    """
    n_steps = _step_count(T, dt)
    if obs_stride < 1:
        raise ValueError("obs_stride must be at least 1")
    _check_bump(eq, bump)
    chunks = _mode_chunks(eq.n_modes, eq.grid)
    buf = np.zeros((eq.n_modes,) + eq.grid.shape, dtype=complex)
    buf[eq.carrier_cells()] = y = eq.equilibrium_spectrum(0.0)
    nonzero = [y]  # the start's nonzero entries: y_j's, and the bump's mode in full
    if bump is not None:
        buf[bump.mode] += fftn(bump.field_values(eq.grid))
        nonzero = [np.delete(y, bump.mode), buf[bump.mode]]
    with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned
        mass = sum(np.sum(np.square(x.view(float))) / eq.grid.N ** eq.grid.d for x in nonzero)
    if not mass <= _MASS_LIMIT:
        raise FloatingPointError(f"non-finite field values at the start: the mass "
                                 f"sum {mass:.3g} overflows the observations")

    def read(start):
        for c in chunks:
            hat = buf[c]
            if not start:
                yield Chunk(c, hat, None, partial(_inverse, hat, eq.space_axes))
            elif bump is None or not c.start <= bump.mode < c.stop:
                yield Chunk(c, hat, eq.carrier_cells(c), partial(eq.equilibrium_at, 0.0, c))
            else:
                yield Chunk(c, hat, None, partial(_bumped, eq, bump, c))

    t, reader = 0.0, read(start=True)
    yield t, reader
    for i in range(0, n_steps, obs_stride):
        n = min(obs_stride, n_steps - i)
        reader.close()  # a stale reader hands out no chunk of the next window under the old t
        step(eq, dt, n, hat=buf)
        for _ in range(n):
            t += dt  # the time of n single steps, to the bit
        reader = read(start=False)
        yield t, reader


def _bumped(eq: ModeEnsemble, bump: BumpSpec, modes: slice, out: np.ndarray) -> np.ndarray:
    """The start's fields of the chunk modes that holds bump.mode, made in
    out: Y(0), the bump added to its mode."""
    u = eq.equilibrium_at(0.0, modes, out=out)
    u[bump.mode - modes.start] += bump.field_values(eq.grid)
    return u


@dataclass
class Trajectory:
    """What evolve records at each observation of the stream."""

    times: np.ndarray
    mode_masses: np.ndarray        # (n_obs, M)
    energies: np.ndarray           # (n_obs,)
    norms: Optional[dict]          # name -> (n_obs,) arrays, with a bump only
    density_extrema: np.ndarray    # (n_obs, 2) min/max of the density
    density: np.ndarray            # (*grid) the density at the last observation


@dataclass(frozen=True)
class _Read:
    """What the read part of a chunk makes (_Observation.task): its |u|^2
    rows, its mode masses and its power, the |hat|^2 rows or, for a chunk
    that is the equilibrium alone, |hat|^2 at its carrier cells; with the
    norms also its |Z|^2 rows and fix = (index, values), |Z-hat|^2 at the
    entries where it is not |hat|^2."""

    sq: np.ndarray
    masses: np.ndarray
    power: np.ndarray
    dev: Optional[np.ndarray] = None
    fix: Optional[tuple] = None


class _Observation:
    """What _record sums over one observation at time t of a run around the
    equilibrium eq, in mode order: the per-mode masses, the density rho and
    the spectral power, and with the block family lp the parts of the
    deviation's norms, which it hands on to deviation_norms.

    Each chunk is a read part, and with lp the weighted transforms of its
    deviation (_NormSums.parts, from a _NormSums of its own); task makes a
    part's rows on any thread, and summed adds them on the caller's.  The
    read part makes the fields u, its |u|^2, |hat|^2 and, with lp, Z = u -
    Y(t) and |Z|^2.  Neither part makes Z-hat: it is hat but at y_j's one
    entry per mode, so the weighted transforms take the weight times hat
    with those entries made afresh, and |Z-hat|^2 is |hat|^2 with those
    entries made afresh, each to the bit.  A chunk that is the equilibrium
    alone adds its power at its carrier cells only (a cell's sum over the
    modes has at most two nonzero terms, its carrier's and the bump mode's,
    so it keeps its bits) and no deviation.
    """

    def __init__(self, eq: ModeEnsemble, t: float, lp: Optional[LittlewoodPaley]):
        self.eq, self.t = eq, t
        self.y = eq.equilibrium_spectrum(t)
        self.masses = np.zeros(eq.n_modes)
        self.rho, self.power = _ModeSum(eq.grid.shape), _ModeSum(eq.grid.shape)
        self.norms = None if lp is None else _NormSums(lp)

    @staticmethod
    def sets(lp: Optional[LittlewoodPaley]) -> int:
        """The chunks of |.|^2 rows that a read part's buffer holds (_buffers):
        |u|^2 and |hat|^2, and with lp |Z|^2."""
        return 2 if lp is None else 3

    def parts(self, chunks) -> list:
        """(chunk, None) for the read part of each of chunks, then with lp
        (chunk, (k, half)) for the weighted transforms of each: parts of like
        cost side by side, so that neither thread waits long on the other's
        part, whose result comes first."""
        chunks = list(chunks)
        weighted = [] if self.norms is None else [
            (chunk, part) for chunk in chunks if chunk.cells is None for part in self.norms.parts(len(chunk.hat))]
        return [(chunk, None) for chunk in chunks] + weighted

    def task(self, buffers: tuple, item: tuple) -> tuple:
        """(item, what item's part makes) in buffers (_buffers(eq, sets(lp))):
        a _Read for a read part (_read), the rows of its transform for a
        weighted part (_NormSums._weighted), None for no row."""
        chunk, part = item
        fields = buffers[0]
        if part is None:
            return item, self._read(fields, chunk)
        k, half = part
        modes = slice(chunk.modes.start + half.start, chunk.modes.start + half.stop)
        hat = chunk.hat[half]
        index = self.eq.carrier_cells(modes)
        return item, self.norms._weighted((_as_complex(fields, len(hat)), fields[2 * len(hat):]), k, hat,
                                          (index, hat[index] - self.y[modes]))

    def _read(self, fields: np.ndarray, chunk: Chunk) -> _Read:
        """The read part of chunk, of n modes, in the leading sets (n + 1) rows
        of fields: u in the last 2n of them, then over it |u|^2 in the first n
        + 1, |Z|^2 in the next n + 1 with lp, and |hat|^2 in the last n + 1."""
        eq, n = self.eq, len(chunk.hat)
        rows = fields[:self.sets(self.norms) * (n + 1)]
        u = chunk.fields(_as_complex(rows[len(rows) - 2 * n:], n))
        sq = _squares(u, rows)
        masses = np.sum(sq[1:], axis=eq.space_axes)
        if chunk.cells is not None:
            power = np.abs(chunk.hat[chunk.cells])
            return _Read(sq, masses, np.square(power, out=power))
        if self.norms is None:
            return _Read(sq, masses, _squares(chunk.hat, rows[n + 1:]))
        dev = _deviation_squares(eq, self.t, chunk.modes, u, rows[n + 1:])
        index = eq.carrier_cells(chunk.modes)
        at_y = np.abs(chunk.hat[index] - self.y[chunk.modes])
        return _Read(sq, masses, _squares(chunk.hat, rows[2 * n + 2:]), dev, (index, np.square(at_y, out=at_y)))

    def summed(self, results):
        """Add what task made, (item, its part's output) in item order, and
        pass on the deviation's (key, rows) parts as deviation_norms takes
        them."""
        for (chunk, part), out in results:
            if part is not None:
                yield part[0], out
                continue
            self.rho.add_squares(out.sq)
            self.masses[chunk.modes] = out.masses
            if chunk.cells is not None:
                self.power.total[chunk.cells[1:]] += out.power
                continue
            self.power.add_squares(out.power)
            if out.dev is not None:
                index, at_y = out.fix
                out.power[1:][index] = at_y  # |Z-hat|^2
                yield "power", out.power
                yield "dens", out.dev


def _record(eq: ModeEnsemble, stream, lp: Optional[LittlewoodPaley] = None) -> Trajectory:
    """The Trajectory of the (t, chunks) observations of stream, a run around
    the equilibrium eq: the mode masses, the energy and the density extrema,
    and with the block family lp the deviation norms from eq.

    Each observation is one field.ordered_map over the parts of its chunks
    (_Observation): the masses, the density and the spectral power (the
    energy's kinetic and gauge terms, by Parseval) are summed as the parts
    come back, and so are the deviation norms (deviation_norms): at the
    start, of the bump's chunk alone.
    """
    times, masses, energies, extrema, norm_rows = [], [], [], [], []
    buffers = _buffers(eq, _Observation.sets(lp))
    for t, chunks in stream:
        obs = _Observation(eq, t, lp)
        seen = obs.summed(ordered_map(obs.task, obs.parts(chunks), buffers))
        if lp is not None:
            norm_rows.append(deviation_norms(lp, seen))
        for _ in seen:  # what the norms left unread: all of it without lp
            pass
        rho = obs.rho.total
        times.append(t)
        masses.append(obs.masses * eq.grid.dx)
        energies.append(conserved_energy(eq, rho=rho, power=obs.power.total))
        extrema.append((float(rho.min()), float(rho.max())))

    norms = {k: np.array([row[k] for row in norm_rows]) for k in norm_rows[0]} if norm_rows else None
    return Trajectory(times=np.array(times), mode_masses=np.array(masses),
                      energies=np.array(energies), norms=norms,
                      density_extrema=np.array(extrema), density=rho)


def evolve(eq: ModeEnsemble, bump: Optional[BumpSpec], T: float, dt: float,
           obs_stride: int = 1) -> Trajectory:
    """Step the start eq + bump (eq itself when bump is None) to time T,
    recording every obs_stride steps the mode masses, the energy, the density
    extrema and, with a bump, the deviation norms from eq (_record)."""
    lp = LittlewoodPaley(eq.grid) if bump is not None else None
    return _record(eq, observations(eq, bump, T, dt, obs_stride), lp)


# ---------------------------------------------------------------------------
# scattering probe


@dataclass
class ProbeReport:
    times: np.ndarray
    cauchy: np.ndarray         # consecutive unwound differences, length n-1
    local_mass: np.ndarray     # L2 mass of the deviation in a fixed ball
    cauchy_decreasing: bool
    mass_decreasing: bool
    recurrence_time: float
    window_warning: bool


def _squared_gap(old: Optional[np.ndarray], new: Optional[np.ndarray]):
    """sum |old - new|^2 of two unwound chunks, None for a zero one; old is
    overwritten, so a gap takes no temporary unless old is None.  A zero
    side adds exact zeros, so the sum is the one of the two chunks in full."""
    if old is None:
        return 0.0 if new is None else np.sum(np.square(new.view(float)))
    if new is not None:
        old -= new
    sq = old.view(float)
    return np.sum(np.square(sq, out=sq))


def scattering_probe(eq: ModeEnsemble, stream, ball_center=None,
                     ball_radius: Optional[float] = None) -> ProbeReport:
    """Free-unwound Cauchy differences and local mass of the deviation from
    the equilibrium eq, unwound by eq's gauge mass on eq's grid.

    stream yields (t, chunks) as observations(...) does: each observation is
    one field.ordered_map over its chunks (_unwound), and its squares and
    gaps are added in mode order.  A chunk that is the
    equilibrium alone (at the start, every chunk but the bump's) has a zero
    deviation and is not read.  The probe holds the previous unwound
    deviation, chunk by chunk, and nothing else of stack size, so its memory
    does not grow with the number of observations; a chunk whose deviation
    spectrum is all zero unwinds to zero with no transform and is not held.
    Decreasing Cauchy differences signal convergence of S(-t)Z(t); the
    potential-free control run keeps it exactly constant.  A window past the
    torus recurrence time gets a warning flag.
    """
    grid, m = eq.grid, eq.m
    center = np.full(grid.d, grid.L / 2.0) if ball_center is None else ball_center
    radius = grid.L / 8.0 if ball_radius is None else ball_radius
    ball = grid.min_image_dist2(center) <= radius * radius
    times, cauchy, local = [], [], []
    prev = None  # the unwound deviation of the last observation by chunk start, zero ones left out
    for t, chunks in stream:
        back = np.exp(1j * (t * (m + grid.xi_squared)))
        task = partial(_unwound, eq, t, eq.equilibrium_spectrum(t), back, prev)
        dens = _ModeSum(grid.shape)
        unwound, diff = {}, 0.0
        for start, dev, new, gap in ordered_map(task, [c for c in chunks if c.cells is None]):
            dens.add_squares(dev)
            if new is not None:
                unwound[start] = new
            diff += gap
        dev = new = None  # the next window steps without the last part's chunks
        if prev is not None:
            for old in prev.values():  # chunks this observation left out
                diff += _squared_gap(old, None)
            cauchy.append(np.sqrt(diff * grid.dx))
        prev = unwound
        times.append(t)
        local.append(np.sqrt(np.sum(dens.total[ball]) * grid.dx))

    ts, cauchy, local = np.array(times), np.array(cauchy), np.array(local)
    return ProbeReport(
        times=ts,
        cauchy=cauchy,
        local_mass=local,
        cauchy_decreasing=bool(np.all(np.diff(cauchy) < 0)),
        mass_decreasing=bool(np.all(np.diff(local) < 0)),
        recurrence_time=grid.recurrence_time,
        window_warning=bool(ts[-1] > grid.recurrence_time),
    )


def _unwound(eq: ModeEnsemble, t: float, y: np.ndarray, back: np.ndarray, prev: Optional[dict],
             _, chunk: Chunk) -> tuple:
    """The probe's part of chunk at time t, y the equilibrium's spectral
    entries and back the unwinding symbol: (modes.start, |Z|^2 rows, the
    unwound deviation or None for a zero one, and its squared gap to the
    previous unwound deviation of its modes, which it pops from prev, None
    at the first observation).  The unwound deviation is made in a chunk of
    its own, which the probe holds; then u is read into the memory that the
    previous one, used up by the gap, leaves (or that a zero deviation
    leaves), and |Z|^2 made over it."""
    n = len(chunk.hat)
    x = np.empty_like(chunk.hat)  # S(-t) Z-hat: hat's, but at y_j's one entry per mode
    for j in range(n):  # a mode at a time: numpy would buffer back, broadcast over the modes, up to 128 KiB
        np.multiply(chunk.hat[j], back, out=x[j])
    index = eq.carrier_cells(chunk.modes)
    x[index] = (chunk.hat[index] - y[chunk.modes]) * back[index[1:]]
    new = ifftn(x, axes=eq.space_axes, overwrite_x=True) if _nonzero(x).any() else None
    old = None if prev is None else prev.pop(chunk.modes.start, None)
    gap = 0.0 if prev is None else _squared_gap(old, new)
    fields = old if old is not None else x if new is None else np.empty_like(x)
    u = chunk.fields(fields)
    rows = fields.reshape(-1).view(float).reshape((2 * n,) + fields.shape[1:])
    return chunk.modes.start, _deviation_squares(eq, t, chunk.modes, u, rows), new, gap
