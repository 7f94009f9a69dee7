import itertools
import math
import numpy as np
import pytest

import stream_oracle as oracle

from field_oracle import SpectralField, besov_norm, lebesgue_norm, sobolev_norm
from stack_norms import keeping_fields, stack_norms, transforming_every_chunk, unskipped
from hartorus import (BumpSpec, LittlewoodPaley, TorusGrid, conserved_energy, critical_exponents,
                      custom_radial, delta_potential, deviation_chunks, evolve,
                      fermi, init_equilibrium, observations, parse_config, run_experiment,
                      scattering_probe, step, zero_distribution, zero_potential)
from hartorus import ensemble as ens_mod
from hartorus.field import fftn, ifftn


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 2 * np.pi, 64)


@pytest.fixture(scope="module")
def eq(grid):
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    return ens


def shell_distribution(radius, value=1.0):
    return custom_radial(lambda r: value * (np.abs(np.asarray(r) - radius) < 0.4),
                         support_hint=radius + 1.0)


def _density(u):
    return np.sum(np.abs(u) ** 2, axis=0)


def _masses(ens, u):
    return np.sum(np.abs(u) ** 2, axis=ens.space_axes) * ens.grid.dx


def _final(eq, bump, T, dt, obs_stride=10 ** 9):
    """(t, fields) at the end of the run: the last time the stream yields and
    the fields of its last observation, copied from its chunks."""
    stream, u = keeping_fields(eq, observations(eq, bump, T, dt, obs_stride))
    for t, chunks in stream:
        for _ in chunks:
            pass
    return t, u


_NAN_BUMP = BumpSpec(np.nan, 0.8, (np.pi,), (1.0,), mode=0)


def test_init_zero_distribution_empty(grid):
    ens, rep = init_equilibrium(grid, zero_distribution(), delta_potential(1.0), 1e-8)
    assert ens.n_modes == 0
    assert ens.equilibrium_at(0.0).shape == (0,) + grid.shape
    assert np.max(np.abs(_density(ens.equilibrium_at(0.0)))) == 0.0
    assert rep.truncated_fraction == 0.0


def test_equilibrium_fields_match_per_mode_plane_waves():
    # the exp oracle against its one-mode-at-a-time form
    g = TorusGrid(2, 5.0, 16)  # carriers off the integers
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    for t in (0.0, 0.37):
        ref = np.empty((ens.n_modes,) + g.shape, dtype=complex)
        for j, (xi, a) in enumerate(zip(ens.carriers, ens.weights)):
            phase = np.zeros(g.shape)
            for comp, x in zip(xi, g.x_vectors):
                phase = phase + comp * x
            ref[j] = a * np.exp(1j * (phase - t * (ens.m + float(np.dot(xi, xi)))))
        assert np.array_equal(oracle.equilibrium_fields(ens, t), ref)


@pytest.mark.parametrize("d, N, L, theta", [(1, 64, 2 * np.pi, 1e-8), (2, 16, 5.0, 1e-8),
                                            (3, 8, 2 * np.pi, 1e-8), (4, 8, 2 * np.pi, 1e-4)])
def test_equilibrium_from_lattice_factors_matches_the_exp_oracle(d, N, L, theta):
    # Y built from the per-axis roots of unity against one long-double exp of
    # the exact lattice phase: 8.2e-16 of a_j measured at most, where the
    # double-precision exp of the summed phase is off by up to 8.2e-15
    g = TorusGrid(d, L, N)
    eq, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), theta)
    a = eq.weights.reshape((-1,) + (1,) * d)
    for t in (0.0, 0.37):
        want = oracle.equilibrium_fields(eq, t, extended=True)
        assert np.max(np.abs(eq.equilibrium_at(t) - want) / a) <= 1e-14
        chunk = np.empty((5,) + g.shape, dtype=complex)
        assert eq.equilibrium_at(t, slice(3, 8), out=chunk) is chunk
        assert np.array_equal(chunk, eq.equilibrium_at(t)[3:8])


def test_start_spectrum_has_one_entry_per_unbumped_mode():
    # the stream starts from y_j's one lattice entry N^d a_j; only the bumped
    # mode carries the bump's transform
    eq, spec = _perturbed(2, 16)
    _, chunks = next(iter(observations(eq, spec, 0.01, 1e-3)))
    cells = eq.carrier_cells()
    for modes, hat, _ in chunks:
        for i, j in enumerate(range(modes.start, modes.stop)):
            if j != spec.mode:
                assert np.count_nonzero(hat[i]) == 1
                assert hat[i][tuple(c[j] for c in cells[1:])] == eq.grid.N ** 2 * eq.weights[j]
            else:
                assert np.count_nonzero(hat[i]) == hat[i].size


def test_init_threshold_rejects_everything(grid):
    with pytest.raises(ValueError):
        init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), threshold=1e6)


def test_init_single_mode(grid):
    f = custom_radial(lambda r: 1.0 * (np.asarray(r) < 0.5), support_hint=1.0)
    ens, _ = init_equilibrium(grid, f, delta_potential(1.0), 1e-8)
    assert ens.n_modes == 1
    assert np.allclose(_density(ens.equilibrium_at(0.0)), ens.weights[0] ** 2)
    assert ens.m == pytest.approx(ens.weights[0] ** 2)


def test_init_fermi_truncation(grid, eq):
    _, rep = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    assert eq.n_modes == 9
    assert rep.truncated_fraction < 1e-6


def test_equilibrium_density_constant(eq):
    rho = _density(eq.equilibrium_at(0.0))
    assert rho.max() - rho.min() <= 1e-12
    assert rho.mean() == pytest.approx(np.sum(eq.weights ** 2), rel=1e-12)


def test_two_counterpropagating_modes_density(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(1.0), delta_potential(1.0), 1e-8)
    assert ens.n_modes == 2
    rho = _density(ens.equilibrium_at(0.0))
    assert np.allclose(rho, rho.mean())


def test_step_requires_positive_dt(eq):
    with pytest.raises(ValueError):
        step(eq, -1e-3, 1, oracle.start_spectrum(eq))


def test_free_step_exact_phase(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(3.0), zero_potential(), 1e-8)
    y0 = ens.equilibrium_at(0.0)
    hat = fftn(y0, axes=ens.space_axes)
    step(ens, 1e-3, 1, hat)
    expect = y0 * np.exp(-1j * 1e-3 * (ens.m + 9.0))
    assert np.max(np.abs(ifftn(hat, axes=ens.space_axes) - expect)) <= 1e-14


def test_equilibrium_invariance_short(eq):
    traj = evolve(eq, None, 0.1, 1e-3, obs_stride=10)
    m0 = traj.mode_masses[0]
    assert np.max(np.abs(traj.mode_masses - m0) / m0) <= 1e-12
    _, u = _final(eq, None, 0.1, 1e-3, obs_stride=10)
    assert np.max(np.abs(np.abs(u) - eq.weights[:, None])) <= 1e-12


def test_gauge_consistency(eq):
    t, u = _final(eq, None, 0.25, 1e-3, obs_stride=250)
    residual = u - oracle.equilibrium_fields(eq, t)
    assert np.max(np.abs(residual)) <= 1e-12


def test_strang_second_order(grid, eq):
    bump = BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4)

    def final(dt):
        return _final(eq, bump, 0.5, dt)[1]

    u1, u2, u3 = final(1e-3), final(5e-4), final(2.5e-4)
    ratio = np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u3))
    assert ratio == pytest.approx(4.0, abs=0.8)


def _energy(ens, u):
    # conserved_energy from the density and the spectral power of the fields u
    power = np.sum(np.abs(fftn(u, axes=ens.space_axes)) ** 2, axis=0)
    return conserved_energy(ens, _density(u), power)


def test_energy_examples(grid):
    ens, _ = init_equilibrium(grid, custom_radial(lambda r: 1.0 * (np.asarray(r) < 0.5)),
                              zero_potential(), 1e-8)
    assert _energy(ens, ens.equilibrium_at(0.0)) == pytest.approx(0.0, abs=1e-14)  # constant mode, w = 0
    ens2, _ = init_equilibrium(grid, shell_distribution(2.0), zero_potential(), 1e-8)
    y0 = ens2.equilibrium_at(0.0)
    kinetic = _energy(ens2, y0)
    expect = 4.0 * float(np.sum(_masses(ens2, y0)))
    assert kinetic == pytest.approx(expect, rel=1e-12)


def test_energy_drift_second_order(eq):
    bump = BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4)

    def drift(dt):
        traj = evolve(eq, bump, 0.5, dt, obs_stride=5)
        return np.max(np.abs(traj.energies - traj.energies[0]))

    ratio = drift(4e-3) / drift(2e-3)
    assert 3.2 <= ratio <= 4.8


def test_perturbation_null(eq):
    traj = evolve(eq, BumpSpec(0.0, 1.0, (np.pi,), (0.0,), mode=0), 1e-3, 1e-3)
    assert traj.norms["l2"][0] == traj.norms["l_dplus2"][0] == 0.0
    # V is a difference of float mode sums: zero up to one ulp of the density
    assert np.max(np.abs(traj.density_extrema[0] - np.sum(eq.weights ** 2))) <= 1e-15


def test_perturbation_identity(eq):
    t, u = _final(eq, BumpSpec(0.05, 0.7, (2.0,), (2.0,), mode=3), 0.05, 1e-3, obs_stride=50)
    v1 = _density(u) - np.sum(eq.weights ** 2)
    # V from E|Z|^2 + 2 Re E(Y-bar Z), by the mode-orthogonality identity
    Y = eq.equilibrium_at(t)
    Z = u - Y
    v2 = np.sum(np.abs(Z) ** 2, axis=0) + 2.0 * np.sum(np.conj(Y) * Z, axis=0).real
    assert np.max(np.abs(v1 - v2)) <= 1e-12
    assert np.max(np.abs(v1.imag)) == 0.0  # density difference is real


def test_perturbation_norms_scale_linearly(grid, eq):
    spec1 = BumpSpec(1e-4, 0.8, (np.pi,), (1.0,), mode=4)
    spec2 = BumpSpec(2e-4, 0.8, (np.pi,), (1.0,), mode=4)
    lp = LittlewoodPaley(grid)
    n1 = stack_norms(lp, oracle.start(eq, spec1) - eq.equilibrium_at(0.0))
    n2 = stack_norms(lp, oracle.start(eq, spec2) - eq.equilibrium_at(0.0))
    for key in n1:
        assert n2[key] == pytest.approx(2.0 * n1[key], rel=1e-10)
        assert math.isfinite(n1[key])


def test_free_evolution_matches_closed_form(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(2.0), zero_potential(), 1e-8)
    bump = BumpSpec(0.3, 0.9, (np.pi,), (1.0,), mode=0)
    _, u = _final(ens, bump, 0.3, 1e-3)
    g = grid
    hat0 = np.fft.fftn(oracle.start(ens, bump), axes=(1,))
    expect = np.fft.ifftn(np.exp(-1j * 0.3 * (ens.m + g.xi_squared))[None] * hat0, axes=(1,))
    assert np.max(np.abs(u - expect)) <= 1e-12


def test_evolve_aborts_on_nonfinite(grid):
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    with pytest.raises(FloatingPointError):
        evolve(ens, _NAN_BUMP, 0.01, 1e-3)


def test_bump_off_the_modes_is_refused(eq):
    off = BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), mode=eq.n_modes)
    with pytest.raises(ValueError, match="mode index"):
        next(iter(observations(eq, off, 0.01, 1e-3)))


def _deviation_stream(eq, bump, T, dt, stride):
    return ((t, deviation_chunks(eq, t, c)) for t, c in observations(eq, bump, T, dt, stride))


def _whole(deviations):
    # whole (t, Z, Z-hat) stacks as the probe's one-chunk deviation stream
    return ((t, [(slice(None), Z, Z_hat)]) for t, Z, Z_hat in deviations)


def test_scattering_probe_aborts_on_nonfinite(eq):
    # the check is in the step, so a streamed consumer stops at the first
    # window: no record of the NaN state is ever written
    with pytest.raises(FloatingPointError, match="non-finite"):
        scattering_probe(eq, _deviation_stream(eq, _NAN_BUMP, 0.01, 1e-3, 5))


def test_scattering_probe_free_flow_constant():
    g = TorusGrid(2, 16 * np.pi, 32)
    f = custom_radial(lambda r: 6.4e-5 * np.exp(-(np.asarray(r) / 1e-2) ** 2), support_hint=0.1)
    ens, _ = init_equilibrium(g, f, zero_potential(), 1e-12)
    spec = BumpSpec(1e-2, 2.0, (g.L / 2, g.L / 2), (0.5, 0.0), mode=0)
    rpt = scattering_probe(ens, _deviation_stream(ens, spec, 4.0, 1e-2, 100))
    assert np.max(rpt.cauchy) <= 1e-10
    assert not rpt.window_warning


def test_equilibrium_invariance_d2():
    g = TorusGrid(2, 2 * np.pi, 16)
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
    assert ens.n_modes == 45
    traj = evolve(ens, None, 0.2, 1e-3, obs_stride=20)
    m0 = traj.mode_masses[0]
    assert np.max(np.abs(traj.mode_masses - m0) / m0) <= 1e-12
    t, u = _final(ens, None, 0.2, 1e-3)
    residual = u - oracle.equilibrium_fields(ens, t)
    assert np.max(np.abs(residual)) <= 1e-12


def test_scattering_probe_null_perturbation():
    g = TorusGrid(2, 16 * np.pi, 32)
    f = custom_radial(lambda r: 6.4e-5 * np.exp(-(np.asarray(r) / 1e-2) ** 2), support_hint=0.1)
    ens, _ = init_equilibrium(g, f, delta_potential(1.0), 1e-12)
    bump = BumpSpec(0.0, 2.0, (g.L / 2, g.L / 2), (0.5, 0.0), mode=0)
    rpt = scattering_probe(ens, _deviation_stream(ens, bump, 2.0, 1e-2, 50))
    assert np.max(rpt.cauchy) <= 1e-14
    assert np.max(rpt.local_mass) <= 1e-14


def test_scattering_probe_warns_past_recurrence():
    g = TorusGrid(1, 2 * np.pi, 32)
    f = custom_radial(lambda r: 1e-4 * (np.asarray(r) < 0.5), support_hint=1.0)
    ens, _ = init_equilibrium(g, f, zero_potential(), 1e-12)
    bump = BumpSpec(1e-3, 0.5, (np.pi,), (1.0,), mode=0)
    rpt = scattering_probe(ens, _deviation_stream(ens, bump, 4.0, 1e-2, 100))
    assert rpt.window_warning  # recurrence time is pi here


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_fused_window_matches_single_steps(d, N):
    # the fused window is the product of n single Strang steps with the
    # adjacent kinetic half-steps merged; single steps are its oracle
    g = TorusGrid(d, 2 * np.pi, N)
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
    spec = BumpSpec(0.2, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=ens.n_modes // 2)
    start = oracle.start(ens, spec)
    dt, n = 1e-3, 7
    axes = ens.space_axes

    fused_hat, single_hat = fftn(start, axes=axes), fftn(start, axes=axes)
    step(ens, dt, n, fused_hat)
    for _ in range(n):
        step(ens, dt, 1, single_hat)
    fused, single = (ifftn(h, axes=axes) for h in (fused_hat, single_hat))
    assert np.max(np.abs(fused - single)) <= 1e-12
    m0 = _masses(ens, start)
    assert np.max(np.abs(_masses(ens, fused) - m0) / m0) <= 1e-13

    # windows of 6 steps, the last one of 2, against one observation per step
    t_strided, strided = _final(ens, spec, 0.02, dt, obs_stride=6)
    t_every, every = _final(ens, spec, 0.02, dt, obs_stride=1)
    assert t_strided == t_every
    assert np.max(np.abs(strided - every)) <= 1e-12


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
def test_deviation_norms_of_one_mode_match_norms_module(d, N):
    # the stacked production kernel on a one-mode stack against the
    # one-field norms of the norms module
    grid = TorusGrid(d, 2 * np.pi, N)
    fld = SpectralField.random(grid, np.random.default_rng(d))
    ex = critical_exponents(d)
    got = stack_norms(LittlewoodPaley(grid), fld.values[None])
    want = {"l2": lebesgue_norm(fld, 2), "l_dplus2": lebesgue_norm(fld, d + 2),
            "w_sp": sobolev_norm(fld, ex["s"], ex["p"]),
            "besov_q": besov_norm(fld, ex["q"], 0.0, 0.25), "hs": sobolev_norm(fld, ex["s"], 2)}
    assert set(got) == set(want)
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=1e-13, abs=0), k


# ---------------------------------------------------------------------------
# observations from the carried spectrum: each fast path against its slow path


def _perturbed(d, N, theta=1e-6):
    g = TorusGrid(d, 2 * np.pi, N)
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), theta)
    spec = BumpSpec(0.05, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=ens.n_modes // 2)
    return ens, spec


def _energy_oracle(ens, u):
    # the physical-space energy of the fields u: its own forward FFT, masses and density
    g = ens.grid
    hat = np.fft.fftn(u, axes=ens.space_axes) * g.dx
    kinetic = float(np.sum(g.xi_squared[None] * np.abs(hat) ** 2)) * (2 * math.pi) ** (-g.d) * g.dxi
    rho = _density(u)
    wrho = np.fft.ifftn(ens.w.what(g.xi_norm) * np.fft.fftn(rho)).real
    return kinetic + ens.m * float(np.sum(_masses(ens, u))) + 0.5 * float(np.sum(wrho * rho) * g.dx)


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_step_from_carried_spectrum_matches_pure_step(d, N):
    # the window steps the spectrum buffer in place and leaves there the
    # spectrum whose inverse transform is the whole-stack pure step's fields,
    # to the bit (one mode chunk holds every mode here)
    eq, spec = _perturbed(d, N)
    start = oracle.start(eq, spec)
    hat = fftn(start, axes=eq.space_axes)   # the package's own transform
    assert step(eq, 1e-3, 3, hat=hat) is None
    pure = oracle.step(eq, start, 1e-3, 3)
    assert np.array_equal(ifftn(hat, axes=eq.space_axes), pure)
    want = np.fft.fftn(pure, axes=eq.space_axes)
    assert np.max(np.abs(hat - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_energy_from_spectrum_matches_physical_oracle(d, N):
    eq, spec = _perturbed(d, N)
    u = oracle.step(eq, oracle.start(eq, spec), 1e-3, 2)
    hat = np.fft.fftn(u, axes=eq.space_axes)
    rho = _density(u)
    want = _energy_oracle(eq, u)
    got = conserved_energy(eq, rho, np.sum(np.abs(hat) ** 2, axis=0))
    assert got == pytest.approx(oracle.conserved_energy(eq, hat, rho), rel=1e-13)
    assert got == pytest.approx(want, rel=1e-13)
    assert _energy(eq, u) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d, N, L", [(1, 64, 2 * np.pi), (2, 16, 2 * np.pi), (3, 8, 2 * np.pi),
                                     (2, 16, 5.0)])
def test_carrier_entries_are_the_spectrum_of_y(d, N, L):
    # L=5 puts the carriers off the integers
    g = TorusGrid(d, L, N)
    eq, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
    for t in (0.0, 0.37):
        dense = np.zeros((eq.n_modes,) + g.shape, dtype=complex)
        dense[eq.carrier_cells()] = eq.equilibrium_spectrum(t)
        want = np.fft.fftn(eq.equilibrium_at(t), axes=eq.space_axes)
        assert np.max(np.abs(dense - want)) <= 1e-12 * g.N ** d * np.max(eq.weights)


def test_carrier_off_the_lattice_is_refused(eq):
    from dataclasses import replace
    off = replace(eq, carriers=eq.carriers + 0.25)
    with pytest.raises(ValueError, match="lattice"):
        off.carrier_cells()


def test_multiwindow_norms_match_recomputed_deviation_norms():
    eq, spec = _perturbed(2, 16)
    traj = evolve(eq, spec, 0.012, 1e-3, obs_stride=5)
    deviations = [Z for _, Z, _ in oracle.deviation_stacks(eq, spec, 0.012, 1e-3, 5)]
    assert len(traj.times) == len(deviations) == 4
    for i, Z in enumerate(deviations):
        want = stack_norms(LittlewoodPaley(eq.grid), Z)
        for k, v in want.items():
            assert traj.norms[k][i] == pytest.approx(v, rel=1e-12), (i, k)


def test_normed_evolve_restores_the_carried_spectrum():
    # the deviation spectrum is made in the carried buffer and undone bit
    # for bit: the run with norms steps exactly as the run without
    eq, spec = _perturbed(2, 16)
    runs = []
    for lp in (LittlewoodPaley(eq.grid), None):
        stream, u = keeping_fields(eq, observations(eq, spec, 0.01, 1e-3, 3))
        runs.append((ens_mod._record(eq, stream, lp), u))
    (with_norms, u), (without, u_without) = runs
    assert with_norms.norms is not None and without.norms is None
    assert np.array_equal(u, u_without)
    assert np.array_equal(with_norms.energies, without.energies)


def test_empty_ensemble_evolves_with_norms(grid):
    # no mode takes a bump, so the norms of the empty run are taken of its
    # stream directly
    ens, _ = init_equilibrium(grid, zero_distribution(), delta_potential(1.0), 1e-8)
    traj = ens_mod._record(ens, observations(ens, None, 0.01, 1e-3, 4), LittlewoodPaley(grid))
    assert traj.times[-1] == pytest.approx(0.01)
    assert traj.mode_masses.shape == (4, 0)
    assert all(np.all(v == 0.0) for v in traj.norms.values())
    assert np.all(traj.energies == 0.0)


@pytest.mark.parametrize("dt, kwargs, name", [(-0.01, {}, "dt"), (0.0, {}, "dt"),
                                              (0.01, {"obs_stride": 0}, "obs_stride"),
                                              (0.01, {"obs_stride": -3}, "obs_stride")])
def test_evolve_refuses_nonpositive_steps_and_strides(eq, dt, kwargs, name):
    with pytest.raises(ValueError, match=name):
        evolve(eq, None, 0.1, dt, **kwargs)


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _stack_bytes(eq):
    return 16 * eq.n_modes * eq.grid.N ** eq.grid.d


def test_evolve_peak_does_not_grow_with_observations():
    # the equilibrium built inside the run holds no stack: the stream's one
    # buffer, and the one mode chunk (all 45 modes here) of the observation's
    # inverse transform and |u|^2 rows, 2.60 stacks measured with one step
    # per observation (3.62 with eq's stored plane waves)
    eq, _ = _perturbed(2, 32)
    assert len(ens_mod._mode_chunks(eq.n_modes, eq.grid)) == 1

    def run(T):
        ens, _ = init_equilibrium(eq.grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
        return evolve(ens, None, T, 1e-3, obs_stride=1)

    for T in (0.01, 0.04):
        traj, peak = _traced_peak(lambda: run(T))
        assert len(traj.times) == round(T / 1e-3) + 1
        assert peak <= 2.75 * _stack_bytes(eq), peak / _stack_bytes(eq)


_D3_RUN = "\n".join(["grid.d = 3", "grid.N = 16", "f.kind = fermi", "w.kind = delta",
                     "pert.amplitude = 1e-3", "T = 0.02", "dt = 0.01", "obs.stride = 1", ""])


def test_simulate_d3_peak_is_one_stack(tmp_path):
    # d=3, N=16, M=341 in 11 chunks of 32 modes: the stream's buffer, plus
    # about four chunks of temporaries and a few grids (1.37 stacks measured;
    # 2.40 with eq's stored plane waves)
    env, peak = _traced_peak(lambda: run_experiment(parse_config(_D3_RUN, "simulate"), tmp_path))
    assert env.all_passed
    stack = 341 * 16 ** 3 * 16
    assert peak <= 1.5 * stack, peak / stack


def test_scattering_probe_d3_peak_is_two_stacks(tmp_path):
    # the stream's buffer and the previous unwound deviation, plus chunk
    # temporaries (2.31 stacks measured; 3.35 with eq's stored plane waves)
    env, peak = _traced_peak(lambda: run_experiment(parse_config(_D3_RUN, "scattering-probe"),
                                                    tmp_path))
    assert set(env.verdicts) == {"cauchy_decreasing", "local_mass_decreasing",
                                 "window_within_recurrence"}
    stack = 341 * 16 ** 3 * 16
    assert peak <= 2.5 * stack, peak / stack


def test_streamed_probe_peak_does_not_grow_with_observations():
    # d=2, N=32, M=61, one step per observation: 11 and 41 observations peak
    # within one deviation-stack size of each other (stored snapshots gave
    # 15.5 and 45.5 stack sizes, evolve and probe together)
    eq, spec = _perturbed(2, 32, theta=1e-8)
    assert eq.n_modes == 61
    size = _stack_bytes(eq)
    peaks = []
    for T in (0.01, 0.04):
        rpt, peak = _traced_peak(lambda: scattering_probe(
            eq, _deviation_stream(eq, spec, T, 1e-3, 1)))
        assert len(rpt.times) == round(T / 1e-3) + 1
        peaks.append(peak / size)
    assert abs(peaks[1] - peaks[0]) <= 0.1, peaks
    # the stream's buffer, the previous and the current unwound deviation,
    # and the one mode chunk (all 61 modes) of the fields and the deviation:
    # 5.19 measured, the start built inside the run
    assert max(peaks) <= 5.4, peaks


def _bump_half(M, size, mode):
    # the number of modes in the half of its mode chunk that holds mode, the
    # chunks of size modes and their halves cut as _NormSums.add cuts them
    start = mode - mode % size
    chunk = min(size, M - start)
    half = max(1, -(-chunk // 2))
    first = start + (mode - start) // half * half
    return min(first + half, start + chunk) - first


def test_normed_evolve_stack_transform_budget(monkeypatch):
    # counted in mode transforms: 2n stacks per window of n steps and the
    # inverse stack that gives each later observation its fields; per later
    # observation the w_sp inverse plus one inverse per resolvable block of
    # the whole stack; at t=0 none for the fields (the start spectrum is y_j's
    # one entry per mode plus one grid transform of the bump) and the norms'
    # inverses of the one half-chunk holding the bump, every other half of
    # the deviation being zero
    from hartorus import LittlewoodPaley
    eq, spec = _perturbed(3, 8, theta=1e-8)
    M, d = eq.n_modes, eq.grid.d
    modes = {}

    def counting(fn):
        def wrapper(x, *args, **kwargs):
            if np.ndim(x) == d + 1:
                modes[fn.__name__] += np.shape(x)[0]
            return fn(x, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ens_mod, "fftn", counting(ens_mod.fftn))
    monkeypatch.setattr(ens_mod, "ifftn", counting(ens_mod.ifftn))
    windows = [2, 2, 1]
    n_weights = 1 + len(LittlewoodPaley(eq.grid).j_resolvable)
    for chunk_modes in (M, 7, 1):
        monkeypatch.setattr(ens_mod, "_CHUNK_BYTES", chunk_modes * 16 * 8 ** 3)
        modes.update(fftn=0, ifftn=0)
        traj = evolve(eq, spec, 0.05, 0.01, obs_stride=2)
        assert len(traj.times) == len(windows) + 1
        later = M * (sum(2 * n + 1 for n in windows) + len(windows) * n_weights)
        start = _bump_half(M, chunk_modes, spec.mode) * n_weights
        assert 1 <= start // n_weights < M
        assert modes["fftn"] + modes["ifftn"] == later + start
        assert modes["fftn"] == M * sum(windows)


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
def test_w_sp_transform_route_only_off_d2(d, N, monkeypatch):
    # at d = 2 the Bessel weight is 1 and p = d + 2: w_sp is l_dplus2 exactly,
    # with no inverse transform of its own; elsewhere w_sp is still the
    # Bessel-weighted transform pair, to the bit
    from hartorus.lpaley import lebesgue
    g = TorusGrid(d, 2 * np.pi, N)
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((3,) + g.shape) + 1j * rng.standard_normal((3,) + g.shape)
    lp = LittlewoodPaley(g)
    inverses = []

    def counting(x, *args, **kwargs):
        inverses.append(np.shape(x))
        return ifftn(x, *args, **kwargs)

    monkeypatch.setattr(ens_mod, "ifftn", counting)
    got = stack_norms(lp, stack)
    # one inverse transform of the 3 modes per weight, taken in two parts
    assert sum(shape[0] for shape in inverses) == 3 * (len(lp.j_resolvable) + (d != 2))
    ex = critical_exponents(d)
    axes = tuple(range(1, 1 + d))
    smooth = ifftn(((1 + g.xi_squared) ** (ex["s"] / 2))[None] * fftn(stack, axes=axes), axes=axes)
    route = lebesgue(np.sqrt(np.sum(np.abs(smooth) ** 2, axis=0)), ex["p"], g.dx, tuple(range(d)))
    if d == 2:
        assert got["w_sp"] == got["l_dplus2"]
        assert got["w_sp"] == pytest.approx(route, rel=1e-14)
    else:
        assert got["w_sp"] == route


def _batched_probe(deviations, grid, m, center, radius):
    # the whole-stack formula: one transform pair for all deviations and the
    # consecutive differences as one more stack
    ts = np.array([t for t, _, _ in deviations])
    Z = np.stack([Z for _, Z, _ in deviations])
    axes = tuple(range(2, 2 + grid.d))
    phase = np.exp(1j * np.multiply.outer(ts, m + grid.xi_squared))[:, None]
    unwound = ifftn(fftn(Z, axes=axes) * phase, axes=axes)
    cauchy = np.sqrt(np.sum(np.abs(unwound[1:] - unwound[:-1]) ** 2,
                            axis=tuple(range(1, 2 + grid.d))) * grid.dx)
    ball = grid.min_image_dist2(center) <= radius * radius
    local = np.sqrt(np.sum(np.sum(np.abs(Z) ** 2, axis=1)[:, ball], axis=1) * grid.dx)
    return cauchy, local


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_streamed_probe_matches_batched_formula(d, N):
    eq, spec = _perturbed(d, N)
    deviations = oracle.deviation_stacks(eq, spec, 0.2, 1e-2, 2)
    center, radius = (np.pi,) * d, 1.0
    rpt, peak = _traced_peak(lambda: scattering_probe(
        eq, _whole(deviations), ball_center=center, ball_radius=radius))
    cauchy, local = _batched_probe(deviations, eq.grid, eq.m, center, radius)
    assert np.min(cauchy) > 0
    assert rpt.cauchy == pytest.approx(cauchy, rel=1e-13, abs=0)
    assert rpt.local_mass == pytest.approx(local, rel=1e-13, abs=0)
    # the previous and the current unwound deviation, not copies of the
    # whole list: 3.71 stacks of 7 KiB (d=1) and 2.77 of 180 KiB (d=2)
    # measured, about 8 KiB of it fixed; one more stack fails both cases
    assert peak <= 2.85 * _stack_bytes(eq) + 8 * 1024


# ---------------------------------------------------------------------------
# the chunked stream against the whole-stack stream of tests/stream_oracle.py


def _with_chunks(monkeypatch, ens, chunk_modes):
    monkeypatch.setattr(ens_mod, "_CHUNK_BYTES", chunk_modes * 16 * ens.grid.N ** ens.grid.d)
    assert len(ens_mod._mode_chunks(ens.n_modes, ens.grid)) == -(-ens.n_modes // chunk_modes)


def _evolved(eq, spec, T, dt, obs_stride):
    """evolve's record of the run with its deviation norms, and the fields of
    its last observation."""
    stream, u = keeping_fields(eq, observations(eq, spec, T, dt, obs_stride))
    return ens_mod._record(eq, stream, LittlewoodPaley(eq.grid)), u


def _assert_matches_oracle(traj, u, want, rel):
    times, masses, energies, extrema, rows, final = want
    assert np.array_equal(traj.times, times)
    same = np.array_equal if rel == 0 else (lambda a, b: a == pytest.approx(b, rel=rel, abs=0))
    assert same(u, final)
    assert same(traj.density, _density(final))
    assert same(traj.mode_masses, masses)
    assert same(traj.energies, energies)
    assert same(traj.density_extrema, extrema)
    for k in rows[0]:
        assert same(traj.norms[k], np.array([row[k] for row in rows])), k


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
def test_one_chunk_stream_is_the_whole_stack_oracle(d, N, monkeypatch):
    # one chunk of all M modes: fields, masses, energies, extrema and norms
    # to the bit, over several windows
    eq, spec = _perturbed(d, N, theta=1e-8)
    _with_chunks(monkeypatch, eq, eq.n_modes)
    traj, u = _evolved(eq, spec, 0.05, 1e-2, 2)
    _assert_matches_oracle(traj, u, oracle.evolve(eq, spec, 0.05, 1e-2, 2), rel=0)


@pytest.mark.parametrize("chunk_modes", [1, 3, 8])
def test_chunked_stream_matches_the_whole_stack_oracle(chunk_modes, monkeypatch):
    # mode sums are added mode after mode whatever the chunking, so only the
    # l2 norm's whole-stack sum is regrouped; everything stays within 1e-13
    eq, spec = _perturbed(3, 8, theta=1e-8)
    _with_chunks(monkeypatch, eq, chunk_modes)
    traj, u = _evolved(eq, spec, 0.05, 1e-2, 2)
    want = oracle.evolve(eq, spec, 0.05, 1e-2, 2)
    _assert_matches_oracle(traj, u, want, rel=1e-13)
    assert np.array_equal(u, want[-1])
    assert np.array_equal(traj.density, _density(want[-1]))
    assert np.array_equal(traj.mode_masses, want[1])
    assert np.array_equal(traj.energies, want[2])
    assert np.array_equal(traj.density_extrema, want[3])
    for k in set(want[4][0]) - {"l2"}:
        assert np.array_equal(traj.norms[k], [row[k] for row in want[4]]), k


@pytest.mark.parametrize("deviations", [False, True], ids=["raw", "deviation"])
@pytest.mark.parametrize("chunk_modes", [1, 3])
def test_a_reader_of_first_chunks_leaves_the_run_as_it_is(chunk_modes, deviations, monkeypatch):
    # every odd observation is read only as far as its first chunk, raw or
    # through deviation_chunks (which writes only the chunk's fields and its
    # own scratch); the even ones give the same records and last fields, to
    # the bit, as a run whose every chunk is read
    eq, spec = _perturbed(3, 8, theta=1e-8)
    _with_chunks(monkeypatch, eq, chunk_modes)
    assert eq.n_modes > chunk_modes

    def skimmed(stream):
        for i, (t, chunks) in enumerate(stream):
            if i % 2 == 0:
                yield t, chunks
                continue
            for modes, _, _ in deviation_chunks(eq, t, chunks) if deviations else chunks:
                assert modes == slice(0, chunk_modes)
                break

    want, u_want = _evolved(eq, spec, 0.06, 1e-2, 1)
    stream, u = keeping_fields(eq, skimmed(observations(eq, spec, 0.06, 1e-2, 1)))
    got = ens_mod._record(eq, stream, LittlewoodPaley(eq.grid))
    assert len(want.times) == 7 and np.array_equal(got.times, want.times[::2])
    assert np.array_equal(u, u_want)
    assert np.array_equal(got.energies, want.energies[::2])
    assert np.array_equal(got.mode_masses, want.mode_masses[::2])
    for k, v in want.norms.items():
        assert np.array_equal(got.norms[k], v[::2]), k


@pytest.mark.parametrize("keep", [False, True], ids=["rebound", "kept"])
def test_a_deviation_reader_held_across_windows_changes_nothing(keep):
    # d=1, N=64: one chunk of all 9 modes.  A reader takes the first deviation
    # chunk at t = 0.01 and at t = 0.02 and is held, bound to a name, while
    # the stream steps: the reader never writes the stream's buffer.  When it
    # took y_j's entries out of the buffer and put them back itself, the
    # stream stepped the spectrum with the equilibrium taken out, and a
    # reader dropped after the step wrote the old entries over the new: the
    # energy at t = 0.03 read 0.0167 against 14.966
    eq, spec = _perturbed(1, 64, theta=1e-8)
    assert eq.n_modes == 9 and len(ens_mod._mode_chunks(eq.n_modes, eq.grid)) == 1
    held = []

    def holding(stream):
        for t, chunks in stream:
            if 0.005 < t < 0.025:
                reader = deviation_chunks(eq, t, chunks)
                next(reader)
                held[:] = held + [reader] if keep else [reader]
                yield t, iter(())
            else:
                yield t, chunks

    want = ens_mod._record(eq, observations(eq, spec, 0.03, 0.01, 1))
    got = ens_mod._record(eq, holding(observations(eq, spec, 0.03, 0.01, 1)))
    assert len(held) == (2 if keep else 1)
    assert want.energies[-1] == pytest.approx(14.966, abs=1e-3)
    assert got.energies[-1] == want.energies[-1]
    assert np.array_equal(got.mode_masses[-1], want.mode_masses[-1])
    assert np.array_equal(got.density, want.density)


@pytest.mark.parametrize("chunk_modes", [1, 3])
def test_a_deviation_reader_held_at_a_chunk_leaves_its_spectrum_as_it_is(chunk_modes, monkeypatch):
    # a reader handed one chunk and held there, at the start and after each
    # window: the chunk's hat, a view of the stream's buffer, reads as it did
    # before the reader saw it, to the bit, and the reader's Z-hat is hat
    # minus y_j's one entry per mode
    eq, spec = _perturbed(3, 8, theta=1e-8)
    _with_chunks(monkeypatch, eq, chunk_modes)
    cells = eq.carrier_cells()
    for t, chunks in observations(eq, spec, 0.02, 1e-2, 1):
        modes, hat, u = next(chunks)
        before = hat.copy()
        reader = deviation_chunks(eq, t, iter([(modes, hat, u)]))
        _, _, Z_hat = next(reader)
        assert np.array_equal(hat, before)
        want = before.copy()
        want[(np.arange(len(hat)),) + tuple(c[modes] for c in cells[1:])] -= eq.equilibrium_spectrum(t)[modes]
        assert np.array_equal(Z_hat, want)


@pytest.mark.parametrize("chunk_modes", [None, 1, 3])
def test_chunked_probe_matches_the_whole_stack_oracle(chunk_modes, monkeypatch):
    eq, spec = _perturbed(2, 16)
    _with_chunks(monkeypatch, eq, chunk_modes or eq.n_modes)
    center, radius = (np.pi, np.pi), 1.0
    rpt = scattering_probe(eq, _deviation_stream(eq, spec, 0.2, 1e-2, 2),
                           ball_center=center, ball_radius=radius)
    cauchy, local = oracle.scattering_probe(oracle.deviation_stacks(eq, spec, 0.2, 1e-2, 2),
                                            eq.grid, eq.m, center, radius)
    assert np.array_equal(rpt.local_mass, local)
    assert rpt.cauchy == pytest.approx(cauchy, rel=1e-13, abs=0)


def _sparse_chunk(g, rng, n, nonzero):
    # (modes, Z, Z-hat) of n modes, Z-hat exactly zero outside the modes in nonzero
    Z_hat = np.zeros((n,) + g.shape, dtype=complex)
    for j in nonzero:
        Z_hat[j] = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return slice(None), ifftn(Z_hat, axes=tuple(range(1, 1 + g.d))), Z_hat


_ZERO_HALF_CASES = {  # the nonzero modes of each chunk, in feeding order
    "all_zero": [(6, [])],
    "first_half": [(6, [1])],
    "second_half": [(6, [4])],
    "one_mode": [(1, [0])],
    "full": [(5, range(5))],
    "mixed": [(4, []), (6, [1]), (1, [0]), (5, [4]), (1, []), (3, range(3))],
}


@pytest.mark.parametrize("case", sorted(_ZERO_HALF_CASES))
@pytest.mark.parametrize("d, N", [(2, 16), (3, 8)])
def test_zero_halves_skipped_match_every_half_transformed(d, N, case, monkeypatch):
    # a half-chunk whose Z-hat is all zero gets no weighted transform, and
    # the norms keep their bits against the sums that transform every half
    g = TorusGrid(d, 2 * np.pi, N)
    rng = np.random.default_rng(d)
    chunks = [_sparse_chunk(g, rng, n, nonzero) for n, nonzero in _ZERO_HALF_CASES[case]]
    lp = LittlewoodPaley(g)
    got = ens_mod.deviation_norms(lp, chunks)
    unskipped(monkeypatch)
    want = ens_mod.deviation_norms(lp, chunks)
    assert got == want
    assert (got["l2"] == 0) == (case == "all_zero")


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_zero_half_skip_keeps_evolve_bits(n_cpus, cpus, monkeypatch):
    # at t=0 all chunks but the bump's are zero; later every chunk is nonzero
    eq, spec = _perturbed(3, 8, theta=1e-8)
    _with_chunks(monkeypatch, eq, 7)
    cpus(n_cpus)
    got = evolve(eq, spec, 0.03, 0.01, obs_stride=2)
    unskipped(monkeypatch)
    want = evolve(eq, spec, 0.03, 0.01, obs_stride=2)
    assert set(got.norms) == set(want.norms)
    for k in want.norms:
        assert np.array_equal(got.norms[k], want.norms[k]), k
    assert np.array_equal(got.energies, want.energies)


@pytest.mark.parametrize("chunk_modes", [1, 7])
def test_zero_chunks_unwound_without_transform_keep_the_probe_bits(chunk_modes, monkeypatch):
    # an all-zero deviation chunk unwinds to zeros with no transform: the
    # report is the one with every chunk transformed, and the t=0
    # observation transforms only the bump's chunk
    eq, spec = _perturbed(3, 8, theta=1e-8)
    _with_chunks(monkeypatch, eq, chunk_modes)
    got = scattering_probe(eq, _deviation_stream(eq, spec, 0.03, 0.01, 1))
    want = scattering_probe(eq, transforming_every_chunk(_deviation_stream(eq, spec, 0.03, 0.01, 1)))
    for name in ("times", "cauchy", "local_mass"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("cauchy_decreasing", "mass_decreasing", "recurrence_time", "window_warning"):
        assert getattr(got, name) == getattr(want, name), name
    transformed = []

    def counting(x, *args, **kwargs):
        transformed.append(len(x))
        return ifftn(x, *args, **kwargs)

    monkeypatch.setattr(ens_mod, "ifftn", counting)
    scattering_probe(eq, itertools.islice(_deviation_stream(eq, spec, 0.01, 0.01, 1), 1))
    assert transformed == [chunk_modes]


# ---------------------------------------------------------------------------
# the start: chunks that are the equilibrium alone, against the all-chunk
# start of tests/stream_oracle.py


_START_GRIDS = {1: (64, 1e-8, 2), 2: (16, 1e-8, 5), 3: (8, 1e-8, 7), 4: (8, 1e-4, 16)}  # N, theta, chunk modes


def _start_case(d, case):
    """(eq, bump, modes per chunk) of a start case at dimension d: the bump in
    the first or the last chunk, in a one-chunk run, no bump, or w zero."""
    N, theta, chunk_modes = _START_GRIDS[d]
    w = zero_potential() if case == "zero-w" else delta_potential(1.0)
    eq, _ = init_equilibrium(TorusGrid(d, 2 * np.pi, N), fermi(1.0, 0.0), w, theta)
    mode = {"first": 0, "last": eq.n_modes - 1}.get(case, eq.n_modes // 2)
    bump = None if case == "none" else BumpSpec(0.05, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode)
    return eq, bump, eq.n_modes if case == "one-chunk" else chunk_modes


def _oracle_start(stream, eq, bump):
    """The (t, chunks) observations of stream with the start's chunks those of
    the all-chunk start, which its readers take in full."""
    for i, (t, chunks) in enumerate(stream):
        yield t, oracle.start_chunks(eq, bump) if i == 0 else chunks


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("case", ["first", "last", "one-chunk", "none", "zero-w"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_start_matches_the_all_chunk_start(d, case, n_cpus, cpus, monkeypatch):
    # masses, energy, extrema, norms and probe rows keep every bit when the
    # start's equilibrium chunks are skipped by the deviation and summed at
    # their carrier cells by the power
    eq, bump, chunk_modes = _start_case(d, case)
    _with_chunks(monkeypatch, eq, chunk_modes)
    assert eq.n_modes > chunk_modes or case == "one-chunk"
    cpus(n_cpus)
    lp = LittlewoodPaley(eq.grid)
    got = ens_mod._record(eq, observations(eq, bump, 0.02, 0.01, 1), lp)
    want = ens_mod._record(eq, _oracle_start(observations(eq, bump, 0.02, 0.01, 1), eq, bump), lp)
    for name in ("times", "mode_masses", "energies", "density_extrema", "density"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert set(got.norms) == set(want.norms)
    for k in want.norms:
        assert _bits(got.norms[k]) == _bits(want.norms[k]), k
    if bump is None:
        assert all(v[0] == 0.0 for v in got.norms.values())
    got = scattering_probe(eq, _deviation_stream(eq, bump, 0.02, 0.01, 1))
    want = scattering_probe(eq, ((t, deviation_chunks(eq, t, c)) for t, c in
                                 _oracle_start(observations(eq, bump, 0.02, 0.01, 1), eq, bump)))
    for name in ("times", "cauchy", "local_mass"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


def test_a_start_chunk_built_by_the_caller_is_read_in_full(monkeypatch):
    # the same start chunks as plain tuples: deviation_chunks yields every
    # one of them, zero deviations included
    eq, bump, chunk_modes = _start_case(2, "first")
    _with_chunks(monkeypatch, eq, chunk_modes)
    _, chunks = next(iter(observations(eq, bump, 0.01, 0.01)))
    marked = [modes for modes, _, _ in deviation_chunks(eq, 0.0, chunks)]
    plain = [(modes, Z.copy(), Z_hat.copy()) for modes, Z, Z_hat in
             deviation_chunks(eq, 0.0, oracle.start_chunks(eq, bump))]
    assert marked == [slice(0, chunk_modes)]
    assert [modes for modes, _, _ in plain] == ens_mod._mode_chunks(eq.n_modes, eq.grid)
    assert all(not Z.any() and not Z_hat.any() for _, Z, Z_hat in plain[1:])
    assert plain[0][2][0].any()


def _evolve_d3():
    """The equilibrium of the evolve-d3 bench op, d=3, N=16: 341 modes in 11 chunks."""
    cfg = parse_config("grid.d = 3\ngrid.N = 16\nf.kind = fermi\nf.T = 1.0\nf.mu = 0.0\n"
                       "w.kind = delta\ndt = 0.01\nT = 0.05\npert.amplitude = 1e-3\n", "simulate")
    eq, _ = init_equilibrium(cfg.make_grid(), cfg.make_distribution(), cfg.make_potential(), cfg["theta"])
    assert eq.n_modes == 341 and len(ens_mod._mode_chunks(eq.n_modes, eq.grid)) == 11
    return eq


def test_start_deviation_reads_the_bump_chunk_alone(monkeypatch):
    # at the evolve-d3 size, the t = 0 observation builds Y once per chunk for
    # the fields and once more for the bump's deviation, and squares the
    # fields once (the density and the masses) and the bump's chunk only
    eq = _evolve_d3()
    bump = BumpSpec(1e-3, 0.8, (1.0, 2.0, 3.0), (1.0, -1.0, 0.0), mode=200)
    chunks = ens_mod._mode_chunks(eq.n_modes, eq.grid)
    bumped = next(c for c in chunks if c.start <= bump.mode < c.stop)
    built, squared = [], []
    equilibrium_at, squares = ens_mod.ModeEnsemble.equilibrium_at, ens_mod._squares

    def counting_y(self, t, modes=slice(None), out=None):
        built.append(modes)
        return equilibrium_at(self, t, modes, out)

    def counting_squares(x, rows):
        squared.append(len(x))
        return squares(x, rows)

    monkeypatch.setattr(ens_mod.ModeEnsemble, "equilibrium_at", counting_y)
    monkeypatch.setattr(ens_mod, "_squares", counting_squares)
    lp = LittlewoodPaley(eq.grid)
    ens_mod._record(eq, itertools.islice(observations(eq, bump, 0.01, 0.01), 1), lp)
    assert sorted(built, key=lambda c: c.start) == sorted(chunks + [bumped], key=lambda c: c.start)
    n = bumped.stop - bumped.start
    weighted = len(ens_mod._NormSums(lp).weighted)
    # the density's rows, the bump chunk's power, its |Z|^2 and |Z-hat|^2, and
    # one weighted transform of its nonzero half per weight
    assert sum(squared) == eq.n_modes + 3 * n + weighted * -(-n // 2)


class _CountingSquares:
    """numpy, with the sizes of np.square's operands recorded."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __getattr__(self, name):
        return getattr(np, name)

    def square(self, x, *args, **kwargs):
        self.sizes.append(np.size(x))
        return np.square(x, *args, **kwargs)


def test_start_overflow_check_makes_no_pass_over_the_buffer(monkeypatch):
    # the check squares y_j's entries and the bump's mode, not the (M, *grid) buffer
    eq = _evolve_d3()
    bump = BumpSpec(1e-3, 0.8, (1.0, 2.0, 3.0), (1.0, -1.0, 0.0), mode=200)
    sizes = []
    monkeypatch.setattr(ens_mod, "np", _CountingSquares(sizes))
    next(iter(observations(eq, bump, 0.01, 0.01)))
    assert sum(sizes) == 2 * (eq.n_modes - 1) + 2 * eq.grid.N ** 3


def _overflowing(case):
    """(eq, bump) whose start overflows: in the bump alone, in one
    equilibrium entry alone (inf, or finite past the limit), or a NaN bump."""
    from dataclasses import replace
    eq, bump, _ = _start_case(2, "first")
    if case == "bump":
        return eq, replace(bump, amplitude=1e200)
    if case == "nan-bump":
        return eq, replace(bump, amplitude=np.nan)
    weights = eq.weights.copy()
    weights[5] = {"entry-inf": 1e200, "entry-past-limit": 1e60}[case]
    return replace(eq, weights=weights), bump


@pytest.mark.parametrize("case", ["bump", "nan-bump", "entry-inf", "entry-past-limit"])
def test_overflowing_start_is_refused_with_the_all_chunk_message(case):
    eq, bump = _overflowing(case)
    with np.errstate(over="ignore", invalid="ignore"):
        mass = oracle.start_mass(eq, oracle.start_spectrum(eq, bump))
    assert not mass <= ens_mod._MASS_LIMIT
    want = f"non-finite field values at the start: the mass sum {mass:.3g} overflows the observations"
    with pytest.raises(FloatingPointError) as err:
        next(iter(observations(eq, bump, 0.01, 0.01)))
    assert str(err.value) == want
