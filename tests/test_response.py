import math

import numpy as np
import pytest
from scipy.special import dawsn

from hartorus import (CovarianceProfile, MultiplierTable, TorusGrid, apply_L1_frequency_domain,
                      apply_L1_time_domain, compute_mf, decay_bound_check,
                      decay_slope, default_tau_grid, delta_potential, epsilon_g, fermi,
                      gaussian_f2, sphere_area, stability_margin, zero_distribution,
                      zero_potential)


@pytest.fixture(scope="module")
def cov3():
    return CovarianceProfile(gaussian_f2(), 3)


def test_mf_zero_distribution():
    cov = CovarianceProfile(zero_distribution(), 3)
    val, err = compute_mf(cov, 3, 1.0, 1.0)
    assert val == 0.0 and err == 0.0


def test_mf_zero_frequency_exact(cov3):
    for tau in (-3.0, 0.0, 5.5):
        val, err = compute_mf(cov3, 3, tau, 0.0)
        assert val == 0.0 and err == 0.0


def test_mf_dawson_oracle(cov3):
    # half-line sine transform of a gaussian profile reduces to the Dawson
    # function: integral_0^inf e^{-t^2} sin(a t) dt = F(a/2)
    val, err = compute_mf(cov3, 3, 0.0, 1.0)
    oracle = -2.0 * math.pi ** 1.5 * float(dawsn(0.5))
    assert abs(val - oracle) <= 1e-6
    assert abs(val - oracle) <= 10 * max(err, 1e-8)


def test_mf_against_direct_quadrature(cov3):
    from scipy.integrate import quad
    h0 = math.pi ** 1.5
    tau, r = 2.0, 1.7
    re = quad(lambda t: -2 * math.cos(tau * t) * math.sin(r * r * t) * h0 * math.exp(-(r * t) ** 2),
              0, np.inf, limit=400)[0]
    im = quad(lambda t: 2 * math.sin(tau * t) * math.sin(r * r * t) * h0 * math.exp(-(r * t) ** 2),
              0, np.inf, limit=400)[0]
    got, _ = compute_mf(cov3, 3, tau, r)
    assert abs(got - complex(re, im)) <= 1e-6


def test_mf_conjugate_symmetry(cov3):
    taus = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    table = MultiplierTable.build(cov3, 3, taus, np.array([0.7, 1.9]))
    assert table.conjugate_symmetry_defect() <= 2 * max(table.max_error(), 1e-12)


def test_mf_decay_slope_is_quadratic(cov3):
    # for a smooth rapidly decaying profile the half-line transform of
    # sin(b t) h(2 xi t) loses its boundary term (the integrand vanishes at
    # t=0), so the asymptotic decay at fixed xi is tau^-2, not tau^-1
    slope, taus, mags = decay_slope(cov3, 3, 1.0, tau_base=8.0, doublings=3)
    assert slope == pytest.approx(-2.0, abs=0.15)


def test_decay_bound_check(cov3):
    g = TorusGrid(3, 2 * np.pi, 16)
    taus = default_tau_grid(32.0, 1e-2, 10)
    xis = np.linspace(g.xi_min, g.nyquist, 10)
    t1 = MultiplierTable.build(cov3, 3, taus, xis)
    r1 = decay_bound_check(t1)
    assert r1.finite
    t2 = MultiplierTable.build(cov3, 3, default_tau_grid(32.0, 1e-2, 20),
                               np.linspace(g.xi_min, g.nyquist, 20))
    r2 = decay_bound_check(t2)
    assert abs(r2.sup_value - r1.sup_value) <= 0.10 * r1.sup_value


def test_L1_trivial_inputs():
    g = TorusGrid(1, 2 * np.pi, 16)
    ts = np.linspace(0, 1, 32)
    V = np.zeros((32,) + g.shape)
    cov = CovarianceProfile(gaussian_f2(), 1)
    out = apply_L1_time_domain(V, ts, cov, delta_potential(1.0), g)
    assert np.max(np.abs(out)) == 0.0
    cov0 = CovarianceProfile(zero_distribution(), 1)
    V2 = np.random.default_rng(0).standard_normal((32,) + g.shape)
    out2 = apply_L1_time_domain(V2, ts, cov0, delta_potential(1.0), g)
    assert np.max(np.abs(out2)) == 0.0


def test_L1_representations_agree():
    g = TorusGrid(1, 2 * np.pi, 16)
    cov = CovarianceProfile(gaussian_f2(), 1)
    w = delta_potential(1.0)
    n_t, T = 1024, 8.0
    ts = np.linspace(0, T, n_t)
    rng = np.random.default_rng(3)
    V = np.zeros((n_t, 16))
    for k in (-3, -2, -1, 0, 1, 2, 3):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        V += np.outer(np.sin(np.pi * ts / T) ** 2 * np.cos(0.7 * k * ts + 0.3),
                      (c * np.exp(1j * k * g.x_axis)).real)
    V /= np.max(np.abs(V))
    out_t = apply_L1_time_domain(V.astype(complex), ts, cov, w, g)
    out_f = apply_L1_frequency_domain(V.astype(complex), ts, cov, w, g, pad_factor=2)
    assert np.max(np.abs(out_t - out_f)) <= 1e-4


def test_L1_matches_exact_mode_sums():
    # the operator through the continuum covariance kernel against the same
    # linear term computed from exact mode sums (the fixed-point machinery);
    # agreement to the lattice-discretization error validates the h
    # normalization, the -2 sin kernel, and the gauge conventions end to end
    import hartorus as ht
    g = TorusGrid(1, 4 * np.pi, 128)
    f = fermi(1.0, 0.0)
    w = delta_potential(1.0)
    ens, _ = ht.init_equilibrium(g, f, w, 1e-10)
    _, state = ht.add_perturbation(ens, ht.BumpSpec(0.0, 1.0, (np.pi,), (0.0,), mode=0))
    op = ht.PicardOperator(g, state, w, np.zeros((ens.n_modes,) + g.shape, complex),
                           T=1.0, n_steps=200)
    ts = op.ts
    rng = np.random.default_rng(4)
    V = np.zeros((len(ts),) + g.shape)
    for k in (-2, -1, 0, 1, 2):
        V += rng.standard_normal() * np.outer(np.sin(np.pi * ts) ** 2 * np.cos(1.3 * k * ts + 0.4),
                                              np.cos(k * g.x_axis))
    V /= np.max(np.abs(V))

    wV = op.convolve_potential(V)
    W = op.duhamel(wV[:, None] * op.Y)
    lattice_route = 2.0 * np.sum(np.conj(op.Y) * W, axis=1).real

    cov = CovarianceProfile(f, 1)
    continuum_route = apply_L1_time_domain(V.astype(complex), ts, cov, w, g).real
    diff = float(np.max(np.abs(lattice_route - continuum_route)))
    assert diff <= 1e-4 * max(1.0, float(np.max(np.abs(lattice_route))))


def test_margin_trivial_cases():
    g = TorusGrid(3, 2 * np.pi, 8)
    cov = CovarianceProfile(gaussian_f2(), 3)
    table = MultiplierTable.build(cov, 3, default_tau_grid(8.0, 0.1, 6),
                                  np.linspace(g.xi_min, g.nyquist, 6))
    assert stability_margin(table, zero_potential()).margin == 1.0
    cov0 = CovarianceProfile(zero_distribution(), 3)
    table0 = MultiplierTable.build(cov0, 3, table.taus, table.xis)
    assert stability_margin(table0, delta_potential(1.0)).margin == 1.0


def test_margin_small_amplitude_bound():
    cov = CovarianceProfile(fermi(1.0, 0.0), 4)
    g = TorusGrid(4, 2 * np.pi, 8)
    table = MultiplierTable.build(cov, 4, default_tau_grid(16.0, 0.05, 8),
                                  np.linspace(g.xi_min, g.nyquist, 8))
    sup = table.sup_abs()
    for a in (0.01, 0.05):
        m = stability_margin(table, delta_potential(a)).margin
        assert m >= 1.0 - a * sup - 1e-12
        assert m > 0
    assert stability_margin(table, delta_potential(0.9 / sup)).margin > 0


def test_epsilon_g_zero_distribution():
    rep = epsilon_g(CovarianceProfile(zero_distribution(), 3), 3)
    assert rep.value == 0.0 and rep.converged


def test_epsilon_g_bounded_by_sup(cov3):
    rep = epsilon_g(cov3, 3, n_shells=6)
    g = TorusGrid(3, 2 * np.pi, 8)
    # the sup table must cover the near-origin region the shells sample
    table = MultiplierTable.build(cov3, 3, default_tau_grid(8.0, 1e-3, 14),
                                  np.geomspace(3e-3, g.nyquist, 40))
    bound = table.sup_abs() / (2 * sphere_area(3))
    assert abs(rep.value) <= bound + 1e-9


def test_epsilon_g_fermi_d4_converges():
    cov = CovarianceProfile(fermi(1.0, 0.0), 4)
    rep = epsilon_g(cov, 4, n_shells=8)
    assert rep.converged
    last, prev = rep.shell_minima[-1], rep.shell_minima[-2]
    assert abs(last - prev) <= 0.05 * abs(last)
    # independent limit along the slow-time path: (1/2) int u h(u) du / (2|S^3|)
    xs = np.linspace(0, cov.x_max, 4000)
    pred = 0.5 * float(np.trapezoid(xs * cov(xs), xs)) / (2 * sphere_area(4))
    assert rep.value == pytest.approx(pred, rel=2e-3)
