import math

import numpy as np
import pytest

from hartorus import (BumpSpec, TorusGrid, add_perturbation, conserved_energy,
                      custom_radial, delta_potential, deviation_norms, evolve, fermi,
                      init_equilibrium, scattering_probe, step, zero_distribution,
                      zero_potential)


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


def test_init_zero_distribution_empty(grid):
    ens, rep = init_equilibrium(grid, zero_distribution(), delta_potential(1.0), 1e-8)
    assert ens.n_modes == 0
    assert np.max(np.abs(ens.density_values())) == 0.0
    assert rep.truncated_fraction == 0.0


def test_equilibrium_fields_match_per_mode_plane_waves():
    g = TorusGrid(2, 5.0, 16)  # carriers off the integers
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    for t in (0.0, 0.37):
        ref = np.empty_like(ens.fields)
        for j, (xi, a) in enumerate(zip(ens.carriers, ens.weights)):
            phase = np.zeros(g.shape)
            for comp, x in zip(xi, g.x_vectors):
                phase = phase + comp * x
            ref[j] = a * np.exp(1j * (phase - t * (ens.m + float(np.dot(xi, xi)))))
        assert np.array_equal(ens.equilibrium_fields(t), ref)
    assert np.array_equal(ens.fields, ens.equilibrium_fields(0.0))


def test_init_threshold_rejects_everything(grid):
    with pytest.raises(ValueError):
        init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), threshold=1e6)


def test_init_single_mode(grid):
    f = custom_radial(lambda r: 1.0 * (np.asarray(r) < 0.5), support_hint=1.0)
    ens, _ = init_equilibrium(grid, f, delta_potential(1.0), 1e-8)
    assert ens.n_modes == 1
    assert np.allclose(ens.density_values(), ens.weights[0] ** 2)
    assert ens.m == pytest.approx(ens.weights[0] ** 2)


def test_init_fermi_truncation(grid, eq):
    _, rep = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    assert eq.n_modes == 9
    assert rep.truncated_fraction < 1e-6


def test_equilibrium_density_constant(eq):
    rho = eq.density_values()
    assert rho.max() - rho.min() <= 1e-12
    assert rho.mean() == pytest.approx(np.sum(eq.weights ** 2), rel=1e-12)


def test_two_counterpropagating_modes_density(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(1.0), delta_potential(1.0), 1e-8)
    assert ens.n_modes == 2
    rho = ens.density_values()
    assert np.allclose(rho, rho.mean())


def test_step_requires_positive_dt(eq):
    with pytest.raises(ValueError):
        step(eq, -1e-3)


def test_free_step_exact_phase(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(3.0), zero_potential(), 1e-8)
    out = step(ens, 1e-3)
    expect = ens.fields * np.exp(-1j * 1e-3 * (ens.m + 9.0))
    assert np.max(np.abs(out.fields - expect)) <= 1e-14


def test_equilibrium_invariance_short(eq):
    traj = evolve(eq, 0.1, 1e-3, obs_stride=10)
    m0 = traj.mode_masses[0]
    assert np.max(np.abs(traj.mode_masses - m0) / m0) <= 1e-12
    assert np.max(np.abs(np.abs(traj.final.fields) - eq.weights[:, None])) <= 1e-12


def test_gauge_consistency(eq):
    traj = evolve(eq, 0.25, 1e-3, obs_stride=250)
    residual = traj.final.fields - eq.equilibrium_fields(traj.final.t)
    assert np.max(np.abs(residual)) <= 1e-12


def test_strang_second_order(grid, eq):
    pert, _ = add_perturbation(eq, BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4))

    def final(dt):
        return evolve(pert, 0.5, dt, obs_stride=10 ** 9).final.fields

    u1, u2, u3 = final(1e-3), final(5e-4), final(2.5e-4)
    ratio = np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u3))
    assert ratio == pytest.approx(4.0, abs=0.8)


def test_energy_examples(grid):
    ens, _ = init_equilibrium(grid, custom_radial(lambda r: 1.0 * (np.asarray(r) < 0.5)),
                              zero_potential(), 1e-8)
    assert conserved_energy(ens) == pytest.approx(0.0, abs=1e-14)  # constant mode, w = 0
    ens2, _ = init_equilibrium(grid, shell_distribution(2.0), zero_potential(), 1e-8)
    kinetic = conserved_energy(ens2)
    expect = 4.0 * float(np.sum(ens2.mode_masses()))
    assert kinetic == pytest.approx(expect, rel=1e-12)


def test_energy_drift_second_order(eq):
    pert, _ = add_perturbation(eq, BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4))

    def drift(dt):
        traj = evolve(pert, 0.5, dt, obs_stride=5)
        return np.max(np.abs(traj.energies - traj.energies[0]))

    ratio = drift(4e-3) / drift(2e-3)
    assert 3.2 <= ratio <= 4.8


def test_perturbation_null(eq):
    pert, state = add_perturbation(eq, BumpSpec(0.0, 1.0, (np.pi,), (0.0,), mode=0))
    assert np.max(np.abs(state.deviations(pert))) == 0.0
    # V is a difference of float mode sums: zero up to one ulp of the density
    assert np.max(np.abs(state.induced_potential(pert))) <= 1e-15


def test_perturbation_identity(eq):
    pert, state = add_perturbation(eq, BumpSpec(0.05, 0.7, (2.0,), (2.0,), mode=3))
    traj = evolve(pert, 0.05, 1e-3, obs_stride=50)
    v1 = state.induced_potential(traj.final)
    v2 = state.reconstructed_potential(traj.final)
    assert np.max(np.abs(v1 - v2)) <= 1e-12
    assert np.max(np.abs(v1.imag)) == 0.0  # density difference is real


def test_perturbation_norms_scale_linearly(grid, eq):
    spec1 = BumpSpec(1e-4, 0.8, (np.pi,), (1.0,), mode=4)
    spec2 = BumpSpec(2e-4, 0.8, (np.pi,), (1.0,), mode=4)
    p1, s1 = add_perturbation(eq, spec1)
    p2, s2 = add_perturbation(eq, spec2)
    n1 = deviation_norms(grid, s1.deviations(p1))
    n2 = deviation_norms(grid, s2.deviations(p2))
    for key in n1:
        assert n2[key] == pytest.approx(2.0 * n1[key], rel=1e-10)
        assert math.isfinite(n1[key])


def test_spread_perturbation(eq):
    coeffs = np.zeros(eq.n_modes, dtype=complex)
    coeffs[2] = 0.5
    coeffs[6] = 0.5j
    spec = BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), coefficients=coeffs)
    pert, state = add_perturbation(eq, spec)
    Z = state.deviations(pert)
    assert np.max(np.abs(Z[0])) == 0.0
    assert np.max(np.abs(Z[2])) > 0.0


def test_free_evolution_matches_closed_form(grid):
    ens, _ = init_equilibrium(grid, shell_distribution(2.0), zero_potential(), 1e-8)
    pert, state = add_perturbation(ens, BumpSpec(0.3, 0.9, (np.pi,), (1.0,), mode=0))
    traj = evolve(pert, 0.3, 1e-3, obs_stride=300)
    g = grid
    hat0 = np.fft.fftn(pert.fields, axes=(1,))
    expect = np.fft.ifftn(np.exp(-1j * 0.3 * (ens.m + g.xi_squared))[None] * hat0, axes=(1,))
    assert np.max(np.abs(traj.final.fields - expect)) <= 1e-12


def test_evolve_aborts_on_nonfinite(grid):
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    bad = ens.fields.copy()
    bad[0].flat[0] = np.nan
    from dataclasses import replace
    broken = replace(ens, fields=bad)
    with pytest.raises(FloatingPointError):
        evolve(broken, 0.01, 1e-3)


def test_scattering_probe_free_flow_constant():
    g = TorusGrid(2, 16 * np.pi, 32)
    f = custom_radial(lambda r: 6.4e-5 * np.exp(-(np.asarray(r) / 1e-2) ** 2), support_hint=0.1)
    ens, _ = init_equilibrium(g, f, zero_potential(), 1e-12)
    spec = BumpSpec(1e-2, 2.0, (g.L / 2, g.L / 2), (0.5, 0.0), mode=0)
    pert, state = add_perturbation(ens, spec)
    traj = evolve(pert, 4.0, 1e-2, obs_stride=100, reference=state, snapshot_stride=1)
    rpt = scattering_probe(traj, g, state.m)
    assert np.max(rpt.cauchy) <= 1e-10
    assert not rpt.window_warning


def test_equilibrium_invariance_d2():
    g = TorusGrid(2, 2 * np.pi, 16)
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
    assert ens.n_modes == 45
    traj = evolve(ens, 0.2, 1e-3, obs_stride=20)
    m0 = traj.mode_masses[0]
    assert np.max(np.abs(traj.mode_masses - m0) / m0) <= 1e-12
    residual = traj.final.fields - ens.equilibrium_fields(traj.final.t)
    assert np.max(np.abs(residual)) <= 1e-12


def test_scattering_probe_null_perturbation():
    g = TorusGrid(2, 16 * np.pi, 32)
    f = custom_radial(lambda r: 6.4e-5 * np.exp(-(np.asarray(r) / 1e-2) ** 2), support_hint=0.1)
    ens, _ = init_equilibrium(g, f, delta_potential(1.0), 1e-12)
    pert, state = add_perturbation(ens, BumpSpec(0.0, 2.0, (g.L / 2, g.L / 2), (0.5, 0.0), mode=0))
    traj = evolve(pert, 2.0, 1e-2, obs_stride=50, reference=state, snapshot_stride=1)
    rpt = scattering_probe(traj, g, state.m)
    assert np.max(rpt.cauchy) <= 1e-14
    assert np.max(rpt.local_mass) <= 1e-14


def test_scattering_probe_warns_past_recurrence():
    g = TorusGrid(1, 2 * np.pi, 32)
    f = custom_radial(lambda r: 1e-4 * (np.asarray(r) < 0.5), support_hint=1.0)
    ens, _ = init_equilibrium(g, f, zero_potential(), 1e-12)
    pert, state = add_perturbation(ens, BumpSpec(1e-3, 0.5, (np.pi,), (1.0,), mode=0))
    traj = evolve(pert, 4.0, 1e-2, obs_stride=100, reference=state, snapshot_stride=1)
    rpt = scattering_probe(traj, g, state.m)
    assert rpt.window_warning  # recurrence time is pi here


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_fused_window_matches_single_steps(d, N):
    # the fused window is the product of n single Strang steps with the
    # adjacent kinetic half-steps merged; single steps are its oracle
    g = TorusGrid(d, 2 * np.pi, N)
    ens, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-6)
    spec = BumpSpec(0.2, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=ens.n_modes // 2)
    pert, _ = add_perturbation(ens, spec)
    before = pert.fields.copy()
    dt, n = 1e-3, 7

    fused = step(pert, dt, n)
    single = pert
    for _ in range(n):
        single = step(single, dt)
    assert np.array_equal(pert.fields, before)  # step is pure
    assert fused.t == single.t
    assert np.max(np.abs(fused.fields - single.fields)) <= 1e-12
    m0 = pert.mode_masses()
    assert np.max(np.abs(fused.mode_masses() - m0) / m0) <= 1e-13

    # windows of 6 steps, the last one of 2, against one observation per step
    strided = evolve(pert, 0.02, dt, obs_stride=6).final
    every = evolve(pert, 0.02, dt, obs_stride=1).final
    assert strided.t == every.t
    assert np.max(np.abs(strided.fields - every.fields)) <= 1e-12
    assert np.array_equal(pert.fields, before)
