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
per-mode mass to rounding.  step(ens, dt, n) runs a window of n steps with
the adjacent kinetic half-steps fused into one full kinetic step, so a step
costs one forward and one inverse stack FFT.  Given the spectrum of its
input in a buffer, a window starts from it and leaves the spectrum of its
output there, and then costs one stack FFT less.  observations is the one
stepping loop: one forward stack FFT at t=0, then a (state, spectrum) stream
that evolve, the scattering probe and the Picard reference read, each
holding only what it uses.  A step whose density goes non-finite raises
FloatingPointError, so no consumer writes non-finite records.

An unperturbed ensemble is its own reference: add_perturbation returns
(perturbed, eq), and eq.deviations(perturbed) is Z = u - y against the exact
equilibrium phases of eq at the perturbed ensemble's time.  Y(t) is eq's
stored plane-wave stack times one phase per mode (equilibrium_at), not an
exp over the whole stack; equilibrium_fields builds the plane waves from
scratch and is its oracle.  The carriers are lattice frequencies, so the
spectrum of y_j has one nonzero entry (equilibrium_spectrum at
carrier_cells): evolve's observations take the energy and the spectrum of Z
from the carried buffer, with no forward stack FFT of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equilibrium import DistributionFunction, InteractionPotential
from .field import fftn, ifftn
from .grid import TorusGrid
from .lpaley import LittlewoodPaley, critical_exponents


@dataclass(frozen=True)
class ModeEnsemble:
    """Grid, carriers (M, d), weights (M,), stacked fields (M, *grid), time, mass.

    The carriers, weights and mass fix the equilibrium; the deviation methods
    measure another ensemble on the same modes against it.
    """

    grid: TorusGrid
    carriers: np.ndarray
    weights: np.ndarray
    fields: np.ndarray
    t: float
    m: float
    w: InteractionPotential

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    @property
    def space_axes(self) -> tuple:
        return tuple(range(1, self.grid.d + 1))

    def mode_masses(self) -> np.ndarray:
        """Per-mode squared L2 norm ||u_j||^2."""
        if self.n_modes == 0:
            return np.zeros(0)
        return np.sum(np.abs(self.fields) ** 2, axis=self.space_axes) * self.grid.dx

    def density_values(self) -> np.ndarray:
        if self.n_modes == 0:
            return np.zeros(self.grid.shape)
        return np.sum(np.abs(self.fields) ** 2, axis=0)

    def _rates(self) -> np.ndarray:
        """m + |xi_j|^2 per mode."""
        return self.m + np.array([np.dot(c, c) for c in self.carriers])  # a summed square rounds otherwise

    def equilibrium_fields(self, t: Optional[float] = None) -> np.ndarray:
        """Analytic equilibrium modes a_j e^{i xi_j.x - i t (m + |xi_j|^2)}."""
        t = self.t if t is None else t
        lead = (-1,) + (1,) * self.grid.d
        rotation = (t * self._rates()).reshape(lead)
        return self.weights.reshape(lead) * np.exp(1j * (self.grid.phase(self.carriers) - rotation))

    def equilibrium_phases(self, t) -> np.ndarray:
        """The (M,) phases e^{-i (t - self.t)(m + |xi_j|^2)} that carry the stored
        fields to time t, shaped (M, 1, ..., 1) to broadcast against them;
        (n_t, M, 1, ..., 1) for an array of times."""
        rot = np.exp(-1j * np.multiply.outer(np.asarray(t) - self.t, self._rates()))
        return rot.reshape(rot.shape + (1,) * self.grid.d)

    def equilibrium_at(self, t) -> np.ndarray:
        """Y(t): the stored fields times equilibrium_phases(t), one exp per mode;
        (n_t, M, *grid) for an array of times.  The stored fields must be the
        exact equilibrium at self.t, as init_equilibrium and add_perturbation
        leave them (equilibrium_fields is the oracle)."""
        return self.fields * self.equilibrium_phases(t)

    def deviations(self, ens: "ModeEnsemble") -> np.ndarray:
        """Z = u - y: the modes of ens minus this equilibrium at time ens.t."""
        Y = self.equilibrium_at(ens.t)
        return np.subtract(ens.fields, Y, out=Y)

    def carrier_cells(self) -> tuple:
        """Index of each mode's carrier in an (M, *grid) spectrum stack: the one
        cell where the unnormalised spectrum of y_j is nonzero.  ValueError for
        a carrier off the frequency lattice, whose y_j has no such cell."""
        k = self.carriers * (self.grid.L / (2 * math.pi))
        cells = np.rint(k)
        if np.any(np.abs(k - cells) > 1e-9 * np.maximum(1.0, np.abs(k))):
            raise ValueError("a carrier is off the frequency lattice")
        return (np.arange(self.n_modes),) + tuple((cells.astype(int) % self.grid.N).T)

    def equilibrium_spectrum(self, t: float) -> np.ndarray:
        """The (M,) entries N^d a_j e^{-i t (m + |xi_j|^2)} of the unnormalised
        spectrum of Y(t) at carrier_cells(); every other entry is zero."""
        return self.grid.N ** self.grid.d * self.weights * np.exp(-1j * t * self._rates())

    def induced_potential(self, ens: "ModeEnsemble") -> np.ndarray:
        """V = sum_j (|u_j|^2 - |y_j|^2), exactly real."""
        return ens.density_values() - np.sum(self.weights ** 2)

    def reconstructed_potential(self, ens: "ModeEnsemble") -> np.ndarray:
        """V rebuilt from E|Z|^2 + 2 Re E(Y-bar Z); equals induced_potential
        by the mode-orthogonality identity."""
        Y = self.equilibrium_at(ens.t)
        Z = ens.fields - Y
        return (np.sum(np.abs(Z) ** 2, axis=0)
                + 2.0 * np.sum(np.conj(Y) * Z, axis=0).real)


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
                     threshold: float = 1e-8, m_override: Optional[float] = None):
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
        ens = ModeEnsemble(grid=grid, carriers=np.zeros((0, grid.d)), weights=np.zeros(0),
                           fields=np.zeros((0,) + grid.shape, dtype=complex), t=0.0,
                           m=0.0 if m_override is None else m_override, w=w)
        return ens, InitReport(0.0, 0.0)

    idx = np.argwhere(keep)
    carriers = np.empty((len(idx), grid.d))
    for a in range(grid.d):
        carriers[:, a] = grid.xi_axis[idx[:, a]]
    weights = np.sqrt(cell_mass[keep])
    order = np.lexsort(carriers.T[::-1])  # fixed mode order: lexicographic carriers
    carriers, weights = carriers[order], weights[order]

    m = w.what0 * retained if m_override is None else m_override
    ens = ModeEnsemble(grid=grid, carriers=carriers, weights=weights, fields=None,
                       t=0.0, m=m, w=w)
    return (replace(ens, fields=ens.equilibrium_fields()),
            InitReport(retained_mass=retained, truncated_mass=total - retained))


def step(ens: ModeEnsemble, dt: float, n: int = 1, hat: Optional[np.ndarray] = None) -> ModeEnsemble:
    """n Strang steps with adjacent kinetic half-steps fused.

    Without hat, pure: returns the advanced ensemble and leaves ens.fields as
    it was.  hat is a buffer holding the unnormalised spectrum of ens.fields:
    the window starts from it instead of a forward FFT and leaves in it the
    spectrum of the returned fields (the array before its last inverse FFT).
    FloatingPointError when a non-finite field value reaches a step's potential.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    t = ens.t
    for _ in range(n):
        t += dt  # the time of n single steps, to the bit
    if ens.n_modes == 0:
        return replace(ens, t=t)
    g = ens.grid
    axes = ens.space_axes
    half = np.exp(-0.5j * dt * (ens.m + g.xi_squared))
    full = half * half
    sym = ens.w.what(g.xi_norm)

    spec = fftn(ens.fields, axes=axes) if hat is None else hat
    spec *= half
    for k in range(n):
        u = ifftn(spec, axes=axes, overwrite_x=True)
        rho = np.sum(np.abs(u) ** 2, axis=0)
        pot = ifftn(sym * fftn(rho), overwrite_x=True).real
        if not np.all(np.isfinite(pot)):
            raise FloatingPointError(f"non-finite field values in the window from t={ens.t}")
        u *= np.exp(-1j * dt * (pot - ens.m))
        spec = fftn(u, axes=axes, overwrite_x=True)
        spec *= full if k < n - 1 else half
    del half, full, sym, rho, pot  # grid temporaries go before the output stack comes
    if hat is None:
        return replace(ens, fields=ifftn(spec, axes=axes, overwrite_x=True), t=t)
    if not np.may_share_memory(spec, hat):  # the transforms ran out of place
        hat[...] = spec
    return replace(ens, fields=ifftn(hat, axes=axes), t=t)


def conserved_energy(ens: ModeEnsemble, hat: Optional[np.ndarray] = None,
                     rho: Optional[np.ndarray] = None) -> float:
    """Kinetic + gauge + interaction energy (constant along the exact flow).

    hat is the unnormalised spectrum of ens.fields and rho its density when
    the caller holds them; the kinetic and gauge terms come from one |hat|^2
    pass by Parseval, sum_x |u|^2 dx = dx^2 (2 pi)^-d dxi sum_k |hat_k|^2.
    """
    if ens.n_modes == 0:
        return 0.0
    g = ens.grid
    if hat is None:
        hat = fftn(ens.fields, axes=ens.space_axes)
    if rho is None:
        rho = ens.density_values()
    power = np.sum(np.abs(hat) ** 2, axis=0)
    wgt = (2 * math.pi) ** (-g.d) * g.dxi * g.dx ** 2
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
    """Gaussian envelope times a carrier wave, targeted at ensemble modes."""

    amplitude: float
    width: float
    center: tuple
    carrier: tuple
    mode: int = 0
    coefficients: Optional[np.ndarray] = None  # spread over modes when given

    def field_values(self, grid: TorusGrid) -> np.ndarray:
        env = np.exp(-grid.min_image_dist2(self.center) / (2.0 * self.width ** 2))
        return self.amplitude * env * np.exp(1j * grid.phase(self.carrier))


def add_perturbation(ens: ModeEnsemble, spec: BumpSpec):
    """Perturb one mode (or spread over modes); returns (perturbed, ens), the
    unperturbed ensemble being the equilibrium reference of the perturbed one."""
    bump = spec.field_values(ens.grid)
    fields = ens.fields.copy()
    if spec.coefficients is not None:
        coeffs = np.asarray(spec.coefficients, dtype=complex)
        if len(coeffs) != ens.n_modes:
            raise ValueError("one spread coefficient per mode is required")
        for j in range(ens.n_modes):
            fields[j] = fields[j] + coeffs[j] * bump
    else:
        if not 0 <= spec.mode < ens.n_modes:
            raise ValueError(f"mode index {spec.mode} outside 0..{ens.n_modes - 1}")
        fields[spec.mode] = fields[spec.mode] + bump
    return replace(ens, fields=fields), ens


# ---------------------------------------------------------------------------
# deviation norms (the solution-space ingredients)


def _lebesgue(vals: np.ndarray, p: float, dx: float, axes: tuple):
    """L^p over the space axes of lattice values."""
    return (np.sum(vals ** p, axis=axes) * dx) ** (1.0 / p)


def _dyadic_blocks(grid: TorusGrid, hat: np.ndarray, lp: LittlewoodPaley):
    """(j, block j in space) for every resolvable j; hat is a stack of
    unnormalised FFTs whose trailing axes are the grid's."""
    lead = hat.ndim - grid.d
    for j, sym in lp.symbols.items():
        yield j, ifftn(sym[(None,) * lead] * hat, axes=tuple(range(lead, hat.ndim)), overwrite_x=True)


def _stack_norms(grid: TorusGrid, stack: np.ndarray, lp: LittlewoodPaley,
                 hat: Optional[np.ndarray] = None):
    """Spatial ingredients l2, l_dplus2, w_sp, besov_q of a mode stack
    (M, *grid), or per time slice of (n_t, M, *grid) as (n_t,) arrays.

    hat is the unnormalised FFT of the stack over space when the caller holds
    it (it is only read).  Returns (ingredients, that FFT).  At d = 2 the
    Bessel weight of w_sp is 1 and p = d + 2, so w_sp is l_dplus2 with no
    transform pair.
    """
    d, dx = grid.d, grid.dx
    ex = critical_exponents(d)
    mode = stack.ndim - d - 1                       # 1 with a leading time axis
    space = tuple(range(mode + 1, stack.ndim))
    pointwise = tuple(range(mode, mode + d))        # space axes once modes are summed
    dens = np.abs(stack) ** 2
    root = np.sqrt(np.sum(dens, axis=mode))
    out = {"l2": np.sqrt(np.sum(dens, axis=(mode,) + space) * dx),
           "l_dplus2": _lebesgue(root, float(d + 2), dx, pointwise)}
    del dens
    if hat is None:
        hat = fftn(stack, axes=space)
    if ex["s"] != 0:
        smooth = ifftn(lp.bessel[(None,) * (mode + 1)] * hat, axes=space, overwrite_x=True)
        root = np.sqrt(np.sum(np.abs(smooth) ** 2, axis=mode))
        del smooth
    out["w_sp"] = _lebesgue(root, ex["p"], dx, pointwise)
    del root
    acc = np.zeros(stack.shape[:mode])
    for j, block in _dyadic_blocks(grid, hat, lp):
        nq = _lebesgue(np.sqrt(np.sum(np.abs(block) ** 2, axis=mode)), ex["q"], dx, pointwise)
        acc += (1.0 if j < 0 else 2.0 ** (j / 2.0)) * nq ** 2
    out["besov_q"] = np.sqrt(acc)
    return out, hat


def deviation_norms(grid: TorusGrid, stack: np.ndarray, lp: Optional[LittlewoodPaley] = None,
                    hat: Optional[np.ndarray] = None) -> dict:
    """Spatial ingredient norms of a deviation stack (M, *grid) at one time;
    hat is its unnormalised spectrum when the caller holds it (only read)."""
    if stack.shape[0] == 0:
        return {k: 0.0 for k in ("l2", "hs", "l_dplus2", "w_sp", "besov_q")}
    out, hat = _stack_norms(grid, stack, lp or LittlewoodPaley(grid), hat)
    s = critical_exponents(grid.d)["s"]
    wgt = (2 * math.pi) ** (-grid.d) * grid.dxi * grid.dx ** 2
    power = np.sum(np.abs(hat) ** 2, axis=0)
    out["hs"] = np.sqrt(np.sum((1 + grid.xi_squared) ** s * power) * wgt)
    return {k: float(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# trajectories


def observations(ens: ModeEnsemble, T: float, dt: float, obs_stride: int = 1):
    """Yield (state, hat) at step 0 and at the end of every window of
    obs_stride steps up to time ens.t + T (the last window shorter when
    obs_stride does not divide T/dt).

    hat is one buffer, carried through the whole run, holding the
    unnormalised spectrum of state.fields: one forward stack FFT at step 0,
    then every window starts from it and leaves its output's spectrum there.
    A consumer that changes hat between windows must put it back bit for bit.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if obs_stride < 1:
        raise ValueError("obs_stride must be at least 1")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer number of steps of dt={dt}")
    hat = fftn(ens.fields, axes=ens.space_axes)
    yield ens, hat
    for i in range(0, n_steps, obs_stride):
        ens = step(ens, dt, min(obs_stride, n_steps - i), hat=hat)
        yield ens, hat


@dataclass
class Trajectory:
    """What evolve records at each observation of the stream."""

    times: np.ndarray
    mode_masses: np.ndarray        # (n_obs, M)
    energies: np.ndarray           # (n_obs,)
    norms: Optional[dict]          # name -> (n_obs,) arrays, with a reference only
    density_extrema: np.ndarray    # (n_obs, 2) min/max of the density
    final: ModeEnsemble


def evolve(ens: ModeEnsemble, T: float, dt: float, obs_stride: int = 1,
           reference: Optional[ModeEnsemble] = None) -> Trajectory:
    """Step to time T recording the mode masses, the energy and the density
    extrema every obs_stride steps, and with the equilibrium reference the
    deviation norms.

    The observations read the stream's carried spectrum: the energy's kinetic
    and gauge terms by Parseval, and the spectrum of Z as the carried buffer
    minus y_j's one entry per mode, subtracted in place and put back bit for
    bit before the next window reads it.
    """
    lp = LittlewoodPaley(ens.grid) if reference is not None else None
    cells = reference.carrier_cells() if reference is not None else None
    axes = ens.space_axes
    times, masses, energies, extrema, norm_rows = [], [], [], [], []
    for state, hat in observations(ens, T, dt, obs_stride):
        dens = np.abs(state.fields) ** 2    # one pass gives the masses and the density
        masses.append(np.sum(dens, axis=axes) * state.grid.dx)
        rho = np.sum(dens, axis=0)
        del dens
        times.append(state.t)
        energies.append(conserved_energy(state, hat, rho))
        extrema.append((float(rho.min()), float(rho.max())))
        if reference is not None:
            saved = hat[cells]
            hat[cells] -= reference.equilibrium_spectrum(state.t)
            norm_rows.append(deviation_norms(state.grid, reference.deviations(state), lp, hat=hat))
            hat[cells] = saved

    norms = {k: np.array([row[k] for row in norm_rows]) for k in norm_rows[0]} if norm_rows else None
    return Trajectory(times=np.array(times), mode_masses=np.array(masses),
                      energies=np.array(energies), norms=norms,
                      density_extrema=np.array(extrema), final=state)


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


def scattering_probe(deviations, grid: TorusGrid, m: float,
                     ball_center=None, ball_radius: Optional[float] = None) -> ProbeReport:
    """Free-unwound Cauchy differences and local mass of the deviation.

    deviations yields (t, Z) pairs, Z an (M, *grid) deviation stack, as
    ((s.t, eq.deviations(s)) for s, _ in observations(...)) does.  The probe
    holds the previous unwound deviation and nothing else of stack size, so
    its memory does not grow with the number of pairs.  Decreasing Cauchy
    differences signal convergence of S(-t)Z(t); the potential-free control
    run keeps it exactly constant.  A window past the torus recurrence time
    gets a warning flag.
    """
    axes = tuple(range(1, 1 + grid.d))  # space axes of one (M, *grid) stack
    center = np.full(grid.d, grid.L / 2.0) if ball_center is None else ball_center
    radius = grid.L / 8.0 if ball_radius is None else ball_radius
    ball = grid.min_image_dist2(center) <= radius * radius
    times, cauchy, local = [], [], []
    prev = None
    for t, Z in deviations:
        unwound = fftn(Z, axes=axes)
        unwound *= np.exp(1j * (t * (m + grid.xi_squared)))
        unwound = ifftn(unwound, axes=axes, overwrite_x=True)
        if prev is not None:
            prev -= unwound
            cauchy.append(np.sqrt(np.sum(np.abs(prev) ** 2) * grid.dx))
        prev = unwound
        times.append(t)
        local.append(np.sqrt(np.sum(np.sum(np.abs(Z) ** 2, axis=0)[ball]) * grid.dx))
        del Z  # the next window steps with only the unwound deviation held

    ts, cauchy, local = np.array(times), np.array(cauchy), np.array(local)
    return ProbeReport(
        times=ts,
        cauchy=cauchy,
        local_mass=local,
        cauchy_decreasing=bool(np.all(np.diff(cauchy) < 0)) if len(cauchy) > 1 else True,
        mass_decreasing=bool(np.all(np.diff(local) < 0)),
        recurrence_time=grid.recurrence_time,
        window_warning=bool(ts[-1] > grid.recurrence_time),
    )
