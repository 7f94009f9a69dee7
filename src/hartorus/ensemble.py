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
costs one forward and one inverse stack FFT; evolve steps one observation
window at a time.

An unperturbed ensemble is its own reference: add_perturbation returns
(perturbed, eq), and eq.deviations(perturbed) is Z = u - y against the exact
equilibrium phases of eq at the perturbed ensemble's time.  Y(t) is eq's
stored plane-wave stack times one phase per mode (equilibrium_at), not an
exp over the whole stack; equilibrium_fields builds the plane waves from
scratch and is its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equilibrium import DistributionFunction, InteractionPotential
from .field import fftn, ifftn
from .grid import TorusGrid
from .lpaley import LittlewoodPaley, eta_j


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

    def equilibrium_at(self, t) -> np.ndarray:
        """Y(t): the stored fields times the (M,) phases e^{-i (t - self.t)(m + |xi_j|^2)},
        one exp per mode; (n_t, M, *grid) for an array of times.  The stored
        fields must be the exact equilibrium at self.t, as init_equilibrium and
        add_perturbation leave them (equilibrium_fields is the oracle)."""
        rot = np.exp(-1j * np.multiply.outer(np.asarray(t) - self.t, self._rates()))
        return self.fields * rot.reshape(rot.shape + (1,) * self.grid.d)

    def deviations(self, ens: "ModeEnsemble") -> np.ndarray:
        """Z = u - y: the modes of ens minus this equilibrium at time ens.t."""
        Y = self.equilibrium_at(ens.t)
        return np.subtract(ens.fields, Y, out=Y)

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


def init_equilibrium(grid: TorusGrid, f: DistributionFunction, w: InteractionPotential,
                     threshold: float = 1e-8, m_override: Optional[float] = None):
    """Equilibrium ensemble from all lattice modes with f2 * dxi >= threshold.

    The gauge mass is w-hat(0) times the *retained lattice* mass, the unique
    value that makes the discrete equilibrium an exact solution; the
    continuum quadrature value is available from equilibrium_mass().
    Returns (ensemble, InitReport with the discarded weight).
    """
    r = grid.xi_norm
    cell_mass = f.f2(r) * grid.dxi
    keep = cell_mass >= threshold
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


def step(ens: ModeEnsemble, dt: float, n: int = 1) -> ModeEnsemble:
    """n Strang steps with adjacent kinetic half-steps fused; pure (returns
    the advanced ensemble, ens.fields is left as it was)."""
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

    hat = fftn(ens.fields, axes=axes)
    hat *= half
    for k in range(n):
        u = ifftn(hat, axes=axes, overwrite_x=True)
        rho = np.sum(np.abs(u) ** 2, axis=0)
        pot = ifftn(sym * fftn(rho), overwrite_x=True).real
        u *= np.exp(-1j * dt * (pot - ens.m))
        hat = fftn(u, axes=axes, overwrite_x=True)
        hat *= full if k < n - 1 else half
    return replace(ens, fields=ifftn(hat, axes=axes, overwrite_x=True), t=t)


def conserved_energy(ens: ModeEnsemble) -> float:
    """Kinetic + gauge + interaction energy (constant along the exact flow)."""
    if ens.n_modes == 0:
        return 0.0
    g = ens.grid
    hat = fftn(ens.fields, axes=ens.space_axes) * g.dx
    wgt = (2 * math.pi) ** (-g.d) * g.dxi
    kinetic = float(np.sum(g.xi_squared[None] * np.abs(hat) ** 2) * wgt)
    gauge = ens.m * float(np.sum(ens.mode_masses()))
    rho = ens.density_values()
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


def critical_exponents(d: int) -> dict:
    """s = d/2-1, p = 2(d+2)/d, q = 4d/(d+1), the cubic-critical family."""
    return {"s": d / 2 - 1, "p": 2 * (d + 2) / d, "q": 4 * d / (d + 1)}


def _lebesgue(vals: np.ndarray, p: float, dx: float, axes: tuple):
    """L^p over the space axes of lattice values."""
    return (np.sum(vals ** p, axis=axes) * dx) ** (1.0 / p)


def _dyadic_blocks(grid: TorusGrid, hat: np.ndarray, lp: LittlewoodPaley):
    """(j, block j in space) for every resolvable j; hat is a stack of
    unnormalised FFTs whose trailing axes are the grid's."""
    lead = hat.ndim - grid.d
    for j in lp.j_resolvable:
        yield j, ifftn(eta_j(grid.xi_norm, j)[(None,) * lead] * hat,
                       axes=tuple(range(lead, hat.ndim)), overwrite_x=True)


def _stack_norms(grid: TorusGrid, stack: np.ndarray, lp: LittlewoodPaley):
    """Spatial ingredients l2, l_dplus2, w_sp, besov_q of a mode stack
    (M, *grid), or per time slice of (n_t, M, *grid) as (n_t,) arrays.

    Returns (ingredients, unnormalised FFT of the stack over space).
    """
    d, dx = grid.d, grid.dx
    ex = critical_exponents(d)
    mode = stack.ndim - d - 1                       # 1 with a leading time axis
    space = tuple(range(mode + 1, stack.ndim))
    pointwise = tuple(range(mode, mode + d))        # space axes once modes are summed
    dens = np.abs(stack) ** 2
    out = {"l2": np.sqrt(np.sum(dens, axis=(mode,) + space) * dx),
           "l_dplus2": _lebesgue(np.sqrt(np.sum(dens, axis=mode)), float(d + 2), dx, pointwise)}
    del dens
    hat = fftn(stack, axes=space)
    bessel = ((1 + grid.xi_squared) ** (ex["s"] / 2))[(None,) * (mode + 1)]
    smooth = ifftn(bessel * hat, axes=space, overwrite_x=True)
    out["w_sp"] = _lebesgue(np.sqrt(np.sum(np.abs(smooth) ** 2, axis=mode)), ex["p"], dx, pointwise)
    del smooth
    acc = np.zeros(stack.shape[:mode])
    for j, block in _dyadic_blocks(grid, hat, lp):
        nq = _lebesgue(np.sqrt(np.sum(np.abs(block) ** 2, axis=mode)), ex["q"], dx, pointwise)
        acc += (1.0 if j < 0 else 2.0 ** (j / 2.0)) * nq ** 2
    out["besov_q"] = np.sqrt(acc)
    return out, hat


def deviation_norms(grid: TorusGrid, stack: np.ndarray, lp: Optional[LittlewoodPaley] = None) -> dict:
    """Spatial ingredient norms of a deviation stack (M, *grid) at one time."""
    if stack.shape[0] == 0:
        return {k: 0.0 for k in ("l2", "hs", "l_dplus2", "w_sp", "besov_q")}
    out, hat = _stack_norms(grid, stack, lp or LittlewoodPaley(grid))
    s = critical_exponents(grid.d)["s"]
    wgt = (2 * math.pi) ** (-grid.d) * grid.dxi
    out["hs"] = np.sqrt(np.sum((1 + grid.xi_squared[None]) ** s * np.abs(hat * grid.dx) ** 2) * wgt)
    return {k: float(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    times: np.ndarray
    mode_masses: np.ndarray        # (n_obs, M)
    energies: np.ndarray           # (n_obs,)
    norms: Optional[dict]          # name -> (n_obs,) arrays, perturbation runs only
    snapshot_times: np.ndarray
    snapshots: Optional[np.ndarray]       # (n_snap, M, *grid) deviation stacks
    density_extrema: np.ndarray    # (n_obs, 2) min/max of the density
    final: ModeEnsemble


def evolve(ens: ModeEnsemble, T: float, dt: float, obs_stride: int = 1,
           reference: Optional[ModeEnsemble] = None,
           snapshot_stride: Optional[int] = None,
           record_norms: bool = False) -> Trajectory:
    """Step to time T recording observables every obs_stride steps.

    With the equilibrium reference, snapshots hold deviations and
    record_norms records their norms.  Aborts with a diagnostic on non-finite
    field values.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integer number of steps of dt={dt}")

    lp = LittlewoodPaley(ens.grid) if record_norms else None
    times, masses, energies, extrema = [], [], [], []
    norm_rows = [] if (record_norms and reference is not None) else None
    snap_times, snaps = [], [] if snapshot_stride else None

    def observe(i, state):
        if not np.all(np.isfinite(state.fields.view(float))):
            raise FloatingPointError(f"non-finite field values at step {i}, t={state.t}")
        times.append(state.t)
        masses.append(state.mode_masses())
        energies.append(conserved_energy(state))
        rho = state.density_values()
        extrema.append((float(rho.min()) if rho.size else 0.0,
                        float(rho.max()) if rho.size else 0.0))
        if norm_rows is not None:
            norm_rows.append(deviation_norms(state.grid, reference.deviations(state), lp))
        if snaps is not None and (i % (snapshot_stride * obs_stride) == 0 or i == n_steps):
            snap_times.append(state.t)
            if reference is not None:
                snaps.append(reference.deviations(state))
            else:
                snaps.append(state.fields.copy())

    state = ens
    observe(0, state)
    for i in range(0, n_steps, obs_stride):
        n = min(obs_stride, n_steps - i)
        state = step(state, dt, n)
        observe(i + n, state)

    norms = None
    if norm_rows:
        norms = {k: np.array([row[k] for row in norm_rows]) for k in norm_rows[0]}
    return Trajectory(times=np.array(times),
                      mode_masses=np.array(masses) if masses else np.zeros((0, 0)),
                      energies=np.array(energies),
                      norms=norms,
                      snapshot_times=np.array(snap_times),
                      snapshots=np.array(snaps) if snaps else None,
                      density_extrema=np.array(extrema),
                      final=state)


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


def scattering_probe(traj: Trajectory, grid: TorusGrid, m: float,
                     ball_center=None, ball_radius: Optional[float] = None) -> ProbeReport:
    """Free-unwound Cauchy differences and local mass of the deviation.

    Decreasing Cauchy differences signal convergence of S(-t)Z(t); the
    potential-free control run keeps it exactly constant.  A window past
    the torus recurrence time gets a warning flag.
    """
    if traj.snapshots is None:
        raise ValueError("trajectory carries no snapshots; evolve with snapshot_stride")
    ts = traj.snapshot_times
    Z = traj.snapshots
    axes = tuple(range(2, 2 + grid.d))  # space axes of the (n_snap, M, *grid) stack

    phase = np.exp(1j * np.multiply.outer(ts, m + grid.xi_squared))[:, None]
    unwound = fftn(Z, axes=axes)
    unwound *= phase
    unwound = ifftn(unwound, axes=axes, overwrite_x=True)

    diffs = unwound[1:] - unwound[:-1]
    cauchy = np.sqrt(np.sum(np.abs(diffs) ** 2, axis=tuple(range(1, 2 + grid.d))) * grid.dx)

    center = np.full(grid.d, grid.L / 2.0) if ball_center is None else ball_center
    radius = grid.L / 8.0 if ball_radius is None else ball_radius
    ball = grid.min_image_dist2(center) <= radius * radius
    dens = np.sum(np.abs(Z) ** 2, axis=1)
    local = np.sqrt(np.sum(dens[:, ball], axis=1) * grid.dx)

    return ProbeReport(
        times=ts,
        cauchy=cauchy,
        local_mass=local,
        cauchy_decreasing=bool(np.all(np.diff(cauchy) < 0)) if len(cauchy) > 1 else True,
        mass_decreasing=bool(np.all(np.diff(local) < 0)),
        recurrence_time=grid.recurrence_time,
        window_warning=bool(ts[-1] > grid.recurrence_time),
    )
