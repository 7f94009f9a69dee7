"""The whole-stack observation stream, kept as a test oracle.

Each window transforms the whole (M, *grid) mode stack at once, and the
stream carries a spectrum buffer beside the fields of every state it yields.
The observations take the energy, the masses, the density and the deviation
norms of whole stacks: np.abs(stack) ** 2 and the Bessel-weighted and dyadic
block stacks are made in full.  It shares with the chunked stream in
hartorus.ensemble only ModeEnsemble, its equilibrium methods, the FFT pair,
the LittlewoodPaley symbols and _lebesgue.
"""

import math
from dataclasses import replace

import numpy as np

from hartorus.ensemble import _lebesgue
from hartorus.field import fftn, ifftn
from hartorus.lpaley import LittlewoodPaley, critical_exponents


def step(ens, dt, n=1, hat=None):
    """n Strang steps with adjacent kinetic half-steps fused, on the whole
    stack.  Without hat, pure; hat holds the spectrum of ens.fields, the
    window starts from it and leaves there the spectrum of the returned
    fields."""
    t = ens.t
    for _ in range(n):
        t += dt
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
    if hat is None:
        return replace(ens, fields=ifftn(spec, axes=axes, overwrite_x=True), t=t)
    if not np.may_share_memory(spec, hat):
        hat[...] = spec
    return replace(ens, fields=ifftn(hat, axes=axes), t=t)


def conserved_energy(ens, hat, rho):
    power = np.sum(np.abs(hat) ** 2, axis=0)
    g = ens.grid
    wgt = (2 * math.pi) ** (-g.d) * g.dxi * g.dx ** 2
    kinetic = float(np.sum(g.xi_squared * power)) * wgt
    gauge = ens.m * float(np.sum(power)) * wgt
    wrho = ifftn(ens.w.what(g.xi_norm) * fftn(rho), overwrite_x=True).real
    return kinetic + gauge + 0.5 * float(np.sum(wrho * rho) * g.dx)


def deviation_norms(grid, stack, lp, hat):
    """The ingredient norms of an (M, *grid) deviation stack with spectrum hat."""
    d, dx = grid.d, grid.dx
    ex = critical_exponents(d)
    space = tuple(range(1, d + 1))
    pointwise = tuple(range(d))
    dens = np.abs(stack) ** 2
    root = np.sqrt(np.sum(dens, axis=0))
    out = {"l2": np.sqrt(np.sum(dens, axis=(0,) + space) * dx),
           "l_dplus2": _lebesgue(root, float(d + 2), dx, pointwise)}
    if ex["s"] != 0:
        smooth = ifftn(lp.bessel[None] * hat, axes=space, overwrite_x=True)
        root = np.sqrt(np.sum(np.abs(smooth) ** 2, axis=0))
    out["w_sp"] = _lebesgue(root, ex["p"], dx, pointwise)
    acc = 0.0
    for j, sym in lp.symbols.items():
        block = ifftn(sym[None] * hat, axes=space, overwrite_x=True)
        nq = _lebesgue(np.sqrt(np.sum(np.abs(block) ** 2, axis=0)), ex["q"], dx, pointwise)
        acc += (1.0 if j < 0 else 2.0 ** (j / 2.0)) * nq ** 2
    out["besov_q"] = np.sqrt(acc)
    wgt = (2 * math.pi) ** (-d) * grid.dxi * dx ** 2
    power = np.sum(np.abs(hat) ** 2, axis=0)
    out["hs"] = np.sqrt(np.sum((1 + grid.xi_squared) ** ex["s"] * power) * wgt)
    return {k: float(v) for k, v in out.items()}


def observations(ens, T, dt, obs_stride=1):
    """Yield (state, hat) at step 0 and after every window, hat the carried
    spectrum of state.fields."""
    n_steps = int(round(T / dt))
    hat = fftn(ens.fields, axes=ens.space_axes)
    yield ens, hat
    for i in range(0, n_steps, obs_stride):
        ens = step(ens, dt, min(obs_stride, n_steps - i), hat=hat)
        yield ens, hat


def evolve(ens, T, dt, obs_stride=1, reference=None):
    """(times, masses, energies, extrema, norm rows or None, final state)."""
    lp = LittlewoodPaley(ens.grid)
    axes = ens.space_axes
    times, masses, energies, extrema, rows = [], [], [], [], []
    for state, hat in observations(ens, T, dt, obs_stride):
        dens = np.abs(state.fields) ** 2
        masses.append(np.sum(dens, axis=axes) * state.grid.dx)
        rho = np.sum(dens, axis=0)
        times.append(state.t)
        energies.append(conserved_energy(state, hat, rho))
        extrema.append((float(rho.min()), float(rho.max())))
        if reference is not None:
            Z_hat = hat.copy()
            Z_hat[reference.carrier_cells()] -= reference.equilibrium_spectrum(state.t)
            rows.append(deviation_norms(state.grid, reference.deviations(state), lp, Z_hat))
    return (np.array(times), np.array(masses), np.array(energies), np.array(extrema),
            rows if reference is not None else None, state)


def deviation_stacks(pert, eq, T, dt, obs_stride):
    """(t, Z, Z-hat) of every observation, Z-hat the carried spectrum minus
    y_j's entries."""
    out = []
    for state, hat in observations(pert, T, dt, obs_stride):
        Z_hat = hat.copy()
        Z_hat[eq.carrier_cells()] -= eq.equilibrium_spectrum(state.t)
        out.append((state.t, eq.deviations(state), Z_hat))
    return out


def scattering_probe(deviations, grid, m, center, radius):
    """Cauchy differences of the free-unwound deviations and the local mass,
    from whole (t, Z, Z-hat) stacks."""
    axes = tuple(range(1, 1 + grid.d))
    ball = grid.min_image_dist2(center) <= radius * radius
    cauchy, local, prev = [], [], None
    for t, Z, Z_hat in deviations:
        unwound = ifftn(Z_hat * np.exp(1j * (t * (m + grid.xi_squared))), axes=axes)
        if prev is not None:
            cauchy.append(np.sqrt(np.sum(np.abs(prev - unwound) ** 2) * grid.dx))
        prev = unwound
        local.append(np.sqrt(np.sum(np.sum(np.abs(Z) ** 2, axis=0)[ball]) * grid.dx))
    return np.array(cauchy), np.array(local)
