"""The whole-stack observation stream, kept as a test oracle.

It builds its own start, Y(0) with the bump added, and the spectrum the
stream starts from, and each window transforms the whole (M, *grid) mode
stack at once; the stream carries a spectrum buffer beside the fields of
every state it yields.
The observations take the energy, the masses, the density and the deviation
norms of whole stacks: np.abs(stack) ** 2 and the Bessel-weighted and dyadic
block stacks are made in full.  It shares with the chunked stream in
hartorus.ensemble only ModeEnsemble, its equilibrium methods, BumpSpec's
field values, the FFT pair, the LittlewoodPaley symbols, lpaley.lebesgue and,
for the all-chunk start, _mode_chunks.
equilibrium_fields, the plane waves from one complex exp of the summed
phase, is the oracle of the factor-built ModeEnsemble.equilibrium_at.

start_chunks and start_mass are the start as the chunked stream once read
it: every chunk a plain (modes, hat, u) tuple, which its readers take in
full, and the overflow check one pass over the whole spectrum.  They are
the oracle of the stream's start, which marks the chunks that are the
equilibrium alone and sums only the start's nonzero entries.
"""

import math

import numpy as np

from hartorus.ensemble import _mode_chunks
from hartorus.field import fftn, ifftn
from hartorus.lpaley import LittlewoodPaley, critical_exponents, lebesgue


def equilibrium_fields(eq, t, modes=slice(None), extended=False):
    """The analytic equilibrium modes a_j e^{i xi_j.x - i t (m + |xi_j|^2)}
    of the modes in the slice modes: one complex exp over the whole stack of
    the phase xi.x summed axis by axis (the oracle of eq.equilibrium_at).
    With extended, the phase is 2 pi (k.n)/N from the carriers' integer
    lattice indices k and the exp is taken in long double, rounded once to
    complex128 at the end."""
    g = eq.grid
    lead = (-1,) + (1,) * g.d
    rates = eq._rates[modes].reshape(lead)
    if not extended:
        phase = g.phase(eq.carriers[modes])
        phase -= t * rates
        out = np.exp(1j * phase)
        out *= eq.weights[modes].reshape(lead)
        return out
    k = np.rint(eq.carriers[modes] * (g.L / (2 * np.pi))).astype(np.int64)
    kn = sum(k[:, a].reshape(lead) * n for a, n in enumerate(np.indices(g.shape)))
    two_pi = 8 * np.arctan(np.longdouble(1))
    phase = two_pi * kn.astype(np.longdouble) / g.N - np.longdouble(t) * rates.astype(np.longdouble)
    out = np.exp(1j * phase) * eq.weights[modes].astype(np.longdouble).reshape(lead)
    return out.astype(complex)


def start(eq, bump=None):
    """The start of a run: Y(0), bump added to its mode."""
    u = eq.equilibrium_at(0.0)
    if bump is not None:
        u[bump.mode] = u[bump.mode] + bump.field_values(eq.grid)
    return u


def start_spectrum(eq, bump=None):
    """The unnormalised spectrum the stream starts from: y_j's one entry at
    its carrier's cell, and the transform of the bump in the bump's mode."""
    hat = np.zeros((eq.n_modes,) + eq.grid.shape, dtype=complex)
    hat[eq.carrier_cells()] = eq.equilibrium_spectrum(0.0)
    if bump is not None:
        hat[bump.mode] += fftn(bump.field_values(eq.grid))
    return hat


def start_mass(eq, hat):
    """The start's mass sum, with hat its spectrum: one pass over every mode
    chunk, each chunk's sum of squares divided by N^d and added."""
    mass = 0.0
    for c in _mode_chunks(eq.n_modes, eq.grid):
        with np.errstate(over="ignore", invalid="ignore"):
            mass += np.sum(np.square(hat[c].view(float))) / eq.grid.N ** eq.grid.d
    return mass


def start_chunks(eq, bump=None):
    """The (modes, hat, u) chunks of the start observation, each a plain
    tuple: hat a view of start_spectrum(eq, bump), u Y(0) rebuilt per chunk
    in one reused scratch chunk, the bump added to its mode."""
    spectrum = start_spectrum(eq, bump)
    scratch = None
    for c in _mode_chunks(eq.n_modes, eq.grid):
        hat = spectrum[c]
        if scratch is None:
            scratch = np.empty_like(hat)
        u = eq.equilibrium_at(0.0, c, out=scratch[:len(hat)])
        if bump is not None and c.start <= bump.mode < c.stop:
            u[bump.mode - c.start] += bump.field_values(eq.grid)
        yield c, hat, u


def step(eq, u, dt, n=1, hat=None):
    """The fields after n Strang steps from u, with adjacent kinetic
    half-steps fused, on the whole stack.  Without hat, pure; hat holds the
    spectrum of u, the window starts from it and leaves there the spectrum
    of the returned fields."""
    if eq.n_modes == 0:
        return u
    g = eq.grid
    axes = eq.space_axes
    half = np.exp(-0.5j * dt * (eq.m + g.xi_squared))
    full = half * half
    sym = eq.w.what(g.xi_norm)

    spec = fftn(u, axes=axes) if hat is None else hat
    spec *= half
    for k in range(n):
        u = ifftn(spec, axes=axes, overwrite_x=True)
        rho = np.sum(np.abs(u) ** 2, axis=0)
        pot = ifftn(sym * fftn(rho), overwrite_x=True).real
        if not np.all(np.isfinite(pot)):
            raise FloatingPointError("non-finite field values in the window")
        u *= np.exp(-1j * dt * (pot - eq.m))
        spec = fftn(u, axes=axes, overwrite_x=True)
        spec *= full if k < n - 1 else half
    if hat is None:
        return ifftn(spec, axes=axes, overwrite_x=True)
    if not np.may_share_memory(spec, hat):
        hat[...] = spec
    return ifftn(hat, axes=axes)


def conserved_energy(ens, hat, rho):
    power = np.sum(np.abs(hat) ** 2, axis=0)
    g = ens.grid
    wgt = (2 * math.pi) ** (-g.d) * g.dxi * g.dx ** 2
    kinetic = float(np.sum(g.xi_squared * power)) * wgt
    gauge = ens.m * float(np.sum(power)) * wgt
    wrho = ifftn(ens.w.what(g.xi_norm) * fftn(rho), overwrite_x=True).real
    return kinetic + gauge + 0.5 * float(np.sum(wrho * rho) * g.dx)


def deviation_norms(grid, stack, hat, lp):
    """The ingredient norms of an (M, *grid) deviation stack with spectrum hat."""
    d, dx = grid.d, grid.dx
    ex = critical_exponents(d)
    space = tuple(range(1, d + 1))
    pointwise = tuple(range(d))
    dens = np.abs(stack) ** 2
    root = np.sqrt(np.sum(dens, axis=0))
    out = {"l2": np.sqrt(np.sum(dens, axis=(0,) + space) * dx),
           "l_dplus2": lebesgue(root, float(d + 2), dx, pointwise)}
    if ex["s"] != 0:
        smooth = ifftn(lp.bessel[None] * hat, axes=space, overwrite_x=True)
        root = np.sqrt(np.sum(np.abs(smooth) ** 2, axis=0))
    out["w_sp"] = lebesgue(root, ex["p"], dx, pointwise)
    acc = 0.0
    for j, sym in lp.symbols.items():
        block = ifftn(sym[None] * hat, axes=space, overwrite_x=True)
        nq = lebesgue(np.sqrt(np.sum(np.abs(block) ** 2, axis=0)), ex["q"], dx, pointwise)
        acc += (1.0 if j < 0 else 2.0 ** (j / 2.0)) * nq ** 2
    out["besov_q"] = np.sqrt(acc)
    wgt = (2 * math.pi) ** (-d) * grid.dxi * dx ** 2
    power = np.sum(np.abs(hat) ** 2, axis=0)
    out["hs"] = np.sqrt(np.sum((1 + grid.xi_squared) ** ex["s"] * power) * wgt)
    return {k: float(v) for k, v in out.items()}


def observations(eq, bump, T, dt, obs_stride=1):
    """Yield (t, u, hat) at step 0 and after every window, hat the carried
    spectrum of the fields u."""
    n_steps = int(round(T / dt))
    t, u, hat = 0.0, start(eq, bump), start_spectrum(eq, bump)
    yield t, u, hat
    for i in range(0, n_steps, obs_stride):
        n = min(obs_stride, n_steps - i)
        u = step(eq, u, dt, n, hat=hat)
        for _ in range(n):
            t += dt
        yield t, u, hat


def _deviation(eq, t, u, hat):
    """Z = u - Y(t) and its spectrum, the carried spectrum minus y_j's entries."""
    Z_hat = hat.copy()
    Z_hat[eq.carrier_cells()] -= eq.equilibrium_spectrum(t)
    return u - eq.equilibrium_at(t), Z_hat


def evolve(eq, bump, T, dt, obs_stride=1):
    """(times, masses, energies, extrema, norm rows or None, final fields);
    the norm rows with a bump only."""
    lp = LittlewoodPaley(eq.grid)
    axes = eq.space_axes
    times, masses, energies, extrema, rows = [], [], [], [], []
    for t, u, hat in observations(eq, bump, T, dt, obs_stride):
        dens = np.abs(u) ** 2
        masses.append(np.sum(dens, axis=axes) * eq.grid.dx)
        rho = np.sum(dens, axis=0)
        times.append(t)
        energies.append(conserved_energy(eq, hat, rho))
        extrema.append((float(rho.min()), float(rho.max())))
        if bump is not None:
            rows.append(deviation_norms(eq.grid, *_deviation(eq, t, u, hat), lp))
    return (np.array(times), np.array(masses), np.array(energies), np.array(extrema),
            rows if bump is not None else None, u)


def deviation_stacks(eq, bump, T, dt, obs_stride):
    """(t, Z, Z-hat) of every observation, Z-hat the carried spectrum minus
    y_j's entries."""
    return [(t, *_deviation(eq, t, u, hat)) for t, u, hat in observations(eq, bump, T, dt, obs_stride)]


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
