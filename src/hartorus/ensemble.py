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
pool (field.ordered_map), at most one in flight per thread, each lane
reusing one buffer of |u|^2 rows, and the main thread adds the chunks' |u|^2
into the density in mode order; the weighted inverse transforms of the
deviation norms run there too, half a chunk per task.
Every mode sum (the density, the spectral power, the sums behind the norms)
is added mode after mode in np.sum's order over a leading axis (_ModeSum),
so the chunk size changes none of them by a bit.

A ModeEnsemble is the equilibrium alone, and that buffer is the only state
of a run.  observations(eq, bump, ...) is the one stepping loop: it fills
the buffer with the spectrum of the start, y_j's one entry N^d a_j per mode
plus the bump's transform in bump.mode (none for bump None), and yields
(t, chunks) at step 0 and after every window; chunks hands over each mode
chunk's spectrum and fields as they go by, and evolve, the scattering probe
and the Picard reference accumulate what they record from them; the chunks
are the only way to read a run.  A start whose mass overflows the
observation sums, or a step whose potential is not finite, raises
FloatingPointError, so no consumer computes on non-finite values.

The deviation of a state at time t is Z = u - y against the exact
equilibrium phases of eq.  The carriers are lattice frequencies, so Y(t) is
built per chunk where it is read from one table of the N roots of unity
(equilibrium_at), and no copy is stored; the spectrum of y_j has one nonzero
entry (equilibrium_spectrum at carrier_cells), so deviation_chunks takes the
spectrum of Z from the stream's, with no forward FFT of its own.
deviation_norms reads those (modes, Z, Z-hat) chunks and nothing else; a
whole stack is one chunk whose spectrum the caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .equilibrium import DistributionFunction, InteractionPotential
from .field import fftn, ifftn, lanes, ordered_map
from .grid import TorusGrid
from .lpaley import LittlewoodPaley, critical_exponents

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

    def add(self, x: np.ndarray) -> np.ndarray:
        """Add the chunk x; returns its |x|^2."""
        return self.add_squares(_squares(x, np.empty((len(x) + 1,) + x.shape[1:])))

    def add_squares(self, work: np.ndarray) -> np.ndarray:
        """Add a chunk's |x|^2 from rows 1.. of work, as _squares leaves
        them; returns those rows."""
        work[0] = self.total
        np.sum(work, axis=0, out=self.total)
        return work[1:]


def _squares(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|x|^2 of the chunk x in rows 1.. of the leading len(x) + 1 rows of
    rows, which it returns; row 0 is left for _ModeSum.add_squares."""
    work = rows[:len(x) + 1]
    sq = work[1:]
    np.abs(x, out=sq)
    np.square(sq, out=sq)
    return work


def _into(out: np.ndarray, x: np.ndarray) -> None:
    """Leave in x the result of a transform of x run with overwrite_x."""
    if not np.may_share_memory(out, x):
        x[...] = out


def _drain(chunks) -> None:
    """Read the rest of a chunk iterator, holding no chunk afterwards."""
    for _ in chunks:
        pass


@dataclass(frozen=True)
class ModeEnsemble:
    """The equilibrium of a run: grid, lattice carriers (M, d), weights (M,),
    the gauge mass m and the potential w; its plane waves are never stored."""

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
        return self.m + np.array([np.dot(c, c) for c in self.carriers])  # a summed square rounds otherwise

    def equilibrium_at(self, t: float, modes: slice = slice(None),
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Y(t) of the modes in the slice modes (all by default), written into
        out when given: a_j e^{-i t (m + |xi_j|^2)} times the per-axis factors
        omega^{(k_{j,a} n_a) mod N}, omega = e^{2 pi i/N}, about one complex
        multiply per point.  ValueError for a carrier off the lattice."""
        g = self.grid
        roots = np.exp(2j * np.pi * np.fft.fftfreq(g.N))  # omega^m, from angles in [-pi, pi)
        y = self.weights[modes] * np.exp(-1j * (t * self._rates[modes]))
        n = np.arange(g.N)
        for a, k in enumerate(g.lattice_cells(self.carriers[modes])):  # k_{j,a} mod N
            factor = roots[np.multiply.outer(k, n) % g.N].reshape((len(k),) + (1,) * a + (g.N,))
            y = np.multiply(y[..., None], factor, out=out if a == g.d - 1 else None)
        return y

    def carrier_cells(self) -> tuple:
        """Index of each mode's carrier in an (M, *grid) spectrum stack: the one
        cell where the unnormalised spectrum of y_j is nonzero.  ValueError for
        a carrier off the frequency lattice, whose y_j has no such cell."""
        return (np.arange(self.n_modes),) + self.grid.lattice_cells(self.carriers)

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
    sym = eq.w.what(g.xi_norm)

    size = chunks[0].stop if chunks else 0  # the first chunk is the largest
    rows = [np.empty((size + 1,) + g.shape) for _ in range(lanes(len(chunks)))]  # each lane's |u|^2
    phase = None
    for k in range(n + 1):  # pass k: the kinetic factor between potentials k-1 and k
        rho = _ModeSum(g.shape)
        task = partial(_chunk_pass, hat, axes, phase, half if k in (0, n) else full,
                       rows if k < n else None)
        for sq in ordered_map(task, chunks):  # mode order: rho keeps its bits
            if k < n:
                rho.add_squares(sq)
        if k < n:
            pot = ifftn(sym * fftn(rho.total), overwrite_x=True).real
            if not np.all(np.isfinite(pot)):
                raise FloatingPointError(f"non-finite field values in a window of {n} steps of dt={dt}")
            phase = np.exp(-1j * dt * (pot - eq.m))


def _chunk_pass(hat, axes, phase, factor, rows, lane, c):
    """The mode chunk c's part of a step pass, in place in hat[c]: the
    potential phase (none for None), a forward FFT and the kinetic factor,
    then with the lanes' rows an inverse FFT; returns the chunk's |u|^2
    (_squares) in rows[lane], or None without rows."""
    x = hat[c]
    if phase is not None:
        x *= phase
        _into(fftn(x, axes=axes, overwrite_x=True), x)
    x *= factor
    if rows is None:
        return None
    _into(ifftn(x, axes=axes, overwrite_x=True), x)
    return _squares(x, rows[lane])


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
    sym = ens.w.what(g.xi_norm)
    wrho = ifftn(sym * fftn(rho), overwrite_x=True).real
    interaction = 0.5 * float(np.sum(wrho * rho) * g.dx)
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
        env = np.exp(-grid.min_image_dist2(self.center) / (2.0 * self.width ** 2))
        return self.amplitude * env * np.exp(1j * grid.phase(self.carrier))


def _check_bump(eq: ModeEnsemble, bump: Optional[BumpSpec]) -> None:
    """ValueError when bump targets no mode of eq."""
    if bump is not None and not 0 <= bump.mode < eq.n_modes:
        raise ValueError(f"mode index {bump.mode} outside 0..{eq.n_modes - 1}")


# ---------------------------------------------------------------------------
# deviation norms (the solution-space ingredients)


def _lebesgue(vals: np.ndarray, p: float, dx: float, axes: tuple):
    """L^p over the space axes of lattice values."""
    return (np.sum(vals ** p, axis=axes) * dx) ** (1.0 / p)


def _dyadic_norm(block_norms, s: float, t: float):
    """sqrt(sum_j 2^{2j (s if j < 0 else t)} n_j^2) over the (j, n_j) pairs of
    block_norms: the two-exponent dyadic block norm from its block norms."""
    acc = 0.0
    for j, n in block_norms:
        acc = acc + 2.0 ** (2 * j * (s if j < 0 else t)) * n ** 2
    return np.sqrt(acc)


def _dyadic_blocks(lp: LittlewoodPaley, hat: np.ndarray) -> np.ndarray:
    """The resolvable dyadic blocks in space, stacked on a leading axis in the
    order of lp.symbols, from one batched inverse FFT; hat is an unnormalised
    FFT on lp's grid."""
    symbols = np.stack(list(lp.symbols.values()))
    return ifftn(symbols * hat, axes=tuple(range(1, 1 + lp.grid.d)), overwrite_x=True)


class _NormSums:
    """The mode sums behind l2, l_dplus2, w_sp and besov_q of a deviation on
    the grid of lp, fed chunk by chunk in mode order as (M, *grid) (Z, Z-hat)
    pairs.  At d = 2 the Bessel weight of w_sp is 1 and p = d + 2, so w_sp is
    l_dplus2 with no transform pair.
    """

    def __init__(self, lp: LittlewoodPaley):
        self.grid = grid = lp.grid
        self.l2 = 0.0
        self.dens = _ModeSum(grid.shape)
        self.smooth = _ModeSum(grid.shape) if critical_exponents(grid.d)["s"] != 0 else None
        self.blocks = {j: _ModeSum(grid.shape) for j in lp.symbols}
        # (sum, spectral weight) of each weighted inverse transform
        self.weighted = ([(self.smooth, lp.bessel)] if self.smooth is not None else []) + [
            (self.blocks[j], sym) for j, sym in lp.symbols.items()]
        self.lanes = []  # each lane's (transform, |.|^2 rows), sized by the first chunk

    def add(self, Z: np.ndarray, Z_hat: np.ndarray) -> None:
        """Add a chunk of modes; Z_hat, the unnormalised FFT of Z over space,
        is only read.  Each weighted transform takes the chunk in two halves,
        so the two lanes' transform buffers together weigh one chunk."""
        space = tuple(range(1, Z.ndim))
        self.l2 = self.l2 + np.sum(self.dens.add(Z), axis=(0,) + space)
        size = max(1, -(-len(Z) // 2))
        parts = [(sums, weight, slice(i, i + size))
                 for sums, weight in self.weighted for i in range(0, len(Z), size)]
        while len(self.lanes) < lanes(len(parts)):  # allocated here, not on a pool thread
            self.lanes.append((np.empty((size,) + Z.shape[1:], complex),
                               np.empty((size + 1,) + Z.shape[1:])))
        for sq, (sums, _, _) in zip(ordered_map(partial(self._weighted, Z_hat), parts), parts):
            sums.add_squares(sq)  # in mode order: each sum keeps its bits

    def _weighted(self, Z_hat: np.ndarray, lane: int, part: tuple) -> np.ndarray:
        """|.|^2 (_squares) of the inverse transform of weight Z_hat[modes],
        part = (sums, weight, modes), in lane's buffers."""
        _, weight, modes = part
        hat = Z_hat[modes]
        scratch, rows = self.lanes[lane]
        x = np.multiply(weight[None], hat, out=scratch[:len(hat)])
        return _squares(ifftn(x, axes=tuple(range(1, x.ndim)), overwrite_x=True), rows)

    def ingredients(self) -> dict:
        d, dx = self.grid.d, self.grid.dx
        ex = critical_exponents(d)
        pointwise = tuple(range(d))  # space axes once modes are summed
        root = np.sqrt(self.dens.total)
        out = {"l2": np.sqrt(self.l2 * dx),
               "l_dplus2": _lebesgue(root, float(d + 2), dx, pointwise)}
        if self.smooth is not None:
            root = np.sqrt(self.smooth.total)
        out["w_sp"] = _lebesgue(root, ex["p"], dx, pointwise)
        out["besov_q"] = _dyadic_norm(
            ((j, _lebesgue(np.sqrt(b.total), ex["q"], dx, pointwise)) for j, b in self.blocks.items()),
            0.0, 0.25)
        return out


def deviation_chunks(eq: ModeEnsemble, t: float, chunks):
    """The deviation Z = u - y from the equilibrium eq of a state at time t,
    chunk by chunk: chunks yields the (modes, hat, u) chunks of an observation
    of the stream (observations), and this yields (modes, Z, Z-hat) for the
    same modes.  Z is u minus eq.equilibrium_at(t); Z-hat is hat minus y_j's
    one entry per mode, subtracted in place in the stream's buffer, which
    puts the entry back bit for bit once the consumer moves on from the chunk,
    or before the stream steps, so a reader held across a window changes
    nothing.  Both are read-only."""
    cells = eq.carrier_cells()
    y = eq.equilibrium_spectrum(t)
    scratch = None  # one chunk of Z, reused: the first chunk is the largest
    for modes, hat, u in chunks:
        hat[(np.arange(len(hat)),) + tuple(c[modes] for c in cells[1:])] -= y[modes]
        if scratch is None:
            scratch = np.empty_like(u)
        Z = eq.equilibrium_at(t, modes, out=scratch[:len(u)])
        yield modes, np.subtract(u, Z, out=Z), hat


def deviation_norms(lp: LittlewoodPaley, chunks) -> dict:
    """Spatial ingredient norms of a deviation at one time, on the grid of the
    block family lp, from the iterable of its (modes, Z, Z-hat) chunks as
    deviation_chunks yields them (Z-hat only read)."""
    grid = lp.grid
    sums, power = _NormSums(lp), _ModeSum(grid.shape)
    for _, Z, Z_hat in chunks:
        power.add(Z_hat)  # its |Z-hat|^2 freed before the norms' lanes are made
        sums.add(Z, Z_hat)
    out = sums.ingredients()
    s = critical_exponents(grid.d)["s"]
    out["hs"] = np.sqrt(np.sum((1 + grid.xi_squared) ** s * power.total) * grid.parseval_weight)
    return {k: float(v) for k, v in out.items()}


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

    chunks yields (modes, hat, u) for each mode chunk in mode order: modes a
    slice of mode indices, hat the unnormalised spectrum and u the fields of
    those modes at time t, both valid until the next chunk and read-only,
    but for the entries deviation_chunks takes out of hat, which the stream
    puts back.  They are the only way to read the run, whose (M, *grid)
    buffer holds the spectrum from the start (y_j's one entry per mode, plus
    the bump's transform) on; reading a chunk or leaving it unread changes
    nothing.
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
    cells = eq.carrier_cells()
    buf[cells] = eq.equilibrium_spectrum(0.0)
    if bump is not None:
        buf[bump.mode] += fftn(bump.field_values(eq.grid))
    mass = 0.0
    for c in chunks:
        with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned
            mass += np.sum(np.square(buf[c].view(float))) / eq.grid.N ** eq.grid.d
    if not mass <= _MASS_LIMIT:
        raise FloatingPointError(f"non-finite field values at the start: the mass "
                                 f"sum {mass:.3g} overflows the observations")

    def read(start):
        scratch = None  # one chunk of fields, reused: the first chunk is the largest
        for c in chunks:
            hat = buf[c]
            if scratch is None:
                scratch = np.empty_like(hat)
            u = scratch[:len(hat)]
            if start:  # the start rebuilt: Y(0), the bump added to its mode
                eq.equilibrium_at(0.0, c, out=u)
                if bump is not None and c.start <= bump.mode < c.stop:
                    u[bump.mode - c.start] += bump.field_values(eq.grid)
            else:
                np.copyto(u, hat)
                u = ifftn(u, axes=eq.space_axes, overwrite_x=True)
            at = tuple(cell[c] for cell in cells)
            saved = buf[at]
            try:
                yield c, hat, u
            finally:
                buf[at] = saved  # what deviation_chunks took out of the chunk

    t, reader = 0.0, read(start=True)
    yield t, reader
    for i in range(0, n_steps, obs_stride):
        n = min(obs_stride, n_steps - i)
        reader.close()  # a chunk still held is put back before the buffer steps
        step(eq, dt, n, hat=buf)
        for _ in range(n):
            t += dt  # the time of n single steps, to the bit
        reader = read(start=False)
        yield t, reader


@dataclass
class Trajectory:
    """What evolve records at each observation of the stream."""

    times: np.ndarray
    mode_masses: np.ndarray        # (n_obs, M)
    energies: np.ndarray           # (n_obs,)
    norms: Optional[dict]          # name -> (n_obs,) arrays, with a bump only
    density_extrema: np.ndarray    # (n_obs, 2) min/max of the density
    density: np.ndarray            # (*grid) the density at the last observation


def _summed(chunks, rho, sq_sums=None, power=None):
    """Pass the (modes, hat, u) chunks on, adding each to the density rho and,
    when given, writing the per-mode sums of |u|^2 into sq_sums and adding
    the spectral power."""
    for modes, hat, u in chunks:
        if sq_sums is None:
            rho.add(u)
        else:
            sq_sums[modes] = np.sum(rho.add(u), axis=tuple(range(1, u.ndim)))
        if power is not None:
            power.add(hat)
        yield modes, hat, u


def _record(eq: ModeEnsemble, stream, lp: Optional[LittlewoodPaley] = None) -> Trajectory:
    """The Trajectory of the (t, chunks) observations of stream, a run around
    the equilibrium eq: the mode masses, the energy and the density extrema,
    and with the block family lp the deviation norms from eq.

    Each observation is one pass over the stream's chunks: the masses, the
    density and the spectral power (the energy's kinetic and gauge terms, by
    Parseval) are summed as the chunks go by, and so are the deviation norms,
    from deviation_chunks.
    """
    g = eq.grid
    times, masses, energies, extrema, norm_rows = [], [], [], [], []
    for t, chunks in stream:
        sq_sums = np.zeros(eq.n_modes)
        rho, power = _ModeSum(g.shape), _ModeSum(g.shape)
        seen = _summed(chunks, rho, sq_sums, power)
        if lp is not None:
            norm_rows.append(deviation_norms(lp, deviation_chunks(eq, t, seen)))
        _drain(seen)  # what the norms left unread: all of it without lp
        times.append(t)
        masses.append(sq_sums * g.dx)
        energies.append(conserved_energy(eq, rho=rho.total, power=power.total))
        extrema.append((float(rho.total.min()), float(rho.total.max())))

    norms = {k: np.array([row[k] for row in norm_rows]) for k in norm_rows[0]} if norm_rows else None
    return Trajectory(times=np.array(times), mode_masses=np.array(masses),
                      energies=np.array(energies), norms=norms,
                      density_extrema=np.array(extrema), density=rho.total)


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


def scattering_probe(eq: ModeEnsemble, deviations, ball_center=None,
                     ball_radius: Optional[float] = None) -> ProbeReport:
    """Free-unwound Cauchy differences and local mass of the deviation from
    the equilibrium eq, unwound by eq's gauge mass on eq's grid.

    deviations yields (t, chunks), chunks the (modes, Z, Z-hat) mode chunks of
    the deviation at time t, as ((t, deviation_chunks(eq, t, c)) for t, c in
    observations(...)) does.  The probe holds the previous unwound deviation,
    chunk by chunk, and nothing else of stack size, so its memory does not
    grow with the number of observations.  Decreasing Cauchy differences
    signal convergence of S(-t)Z(t); the potential-free control run keeps it
    exactly constant.  A window past the torus recurrence time gets a
    warning flag.
    """
    grid, m = eq.grid, eq.m
    axes = eq.space_axes  # of one (M, *grid) stack
    center = np.full(grid.d, grid.L / 2.0) if ball_center is None else ball_center
    radius = grid.L / 8.0 if ball_radius is None else ball_radius
    ball = grid.min_image_dist2(center) <= radius * radius
    times, cauchy, local = [], [], []
    prev = None  # the unwound deviation of the last observation, per chunk
    for t, chunks in deviations:
        back = np.exp(1j * (t * (m + grid.xi_squared)))
        dens = _ModeSum(grid.shape)
        unwound, diff = [], 0.0
        for i, (_, Z, Z_hat) in enumerate(chunks):
            dens.add(Z)
            unwound.append(ifftn(Z_hat * back, axes=axes, overwrite_x=True))
            if prev is not None:
                prev[i] -= unwound[i]
                sq = prev[i].view(float)  # squared in place: no temporary
                diff += np.sum(np.square(sq, out=sq))
                prev[i] = sq = None  # released chunk by chunk as the new one grows
        Z = Z_hat = None  # the next window steps without the last chunk
        if prev is not None:
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
