import math

import numpy as np
import pytest
from scipy.special import dawsn

from hartorus import (CovarianceProfile, MultiplierTable, TorusGrid, bose, compute_mf_batch,
                      custom_radial, decay_bound_check, decay_slope, default_tau_grid,
                      delta_potential, epsilon_g, fermi, gaussian_f2, sphere_area,
                      stability_margin, zero_distribution, zero_potential, zero_temp_fermi)
from hartorus import response
from hartorus.config import _SCHEMA
import picard_oracle
from l1_oracle import apply_L1_frequency_domain, apply_L1_time_domain
from mf_panel_oracle import exact_h, panel_mf


@pytest.fixture(scope="module")
def cov3():
    return CovarianceProfile(gaussian_f2(), 3)


def test_mf_zero_distribution():
    cov = CovarianceProfile(zero_distribution(), 3)
    vals, errs = compute_mf_batch(cov, [1.0], [1.0])
    assert vals[0, 0] == 0.0 and errs[0, 0] == 0.0


def test_mf_zero_frequency_exact(cov3):
    vals, errs = compute_mf_batch(cov3, [-3.0, 0.0, 5.5], [0.0])
    assert np.all(vals == 0.0) and np.all(errs == 0.0)


def test_mf_dawson_oracle(cov3):
    # half-line sine transform of a gaussian profile reduces to the Dawson
    # function: integral_0^inf e^{-t^2} sin(a t) dt = F(a/2)
    vals, errs = compute_mf_batch(cov3, [0.0], [1.0])
    val, err = vals[0, 0], errs[0, 0]
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
    got = compute_mf_batch(cov3, [tau], [r])[0][0, 0]
    assert abs(got - complex(re, im)) <= 1e-6


def test_mf_conjugate_symmetry(cov3):
    taus = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    table = MultiplierTable.build(cov3, taus, np.array([0.7, 1.9]))
    assert table.conjugate_symmetry_defect() <= 2 * max(table.max_error(), 1e-12)


@pytest.mark.parametrize("tau_max, tau_min, n_half", [
    (_SCHEMA["tau.max"][2], _SCHEMA["tau.min"][2], _SCHEMA["tau.count"][2]),
    (32.0, 1e-2, 2), (32.0, 1e-2, 400), (1e3, 1e-6, 3000)])
def test_tau_pairs_by_index_are_the_isclose_pairs(tau_max, tau_min, n_half):
    # on a default grid tau i is -tau n_tau - 1 - i and no other tau: the
    # defect compares the pairs the (n_tau, n_tau) isclose square found
    taus = default_tau_grid(tau_max, tau_min, n_half)
    i, j = np.nonzero(np.isclose(taus[:, None], -taus, rtol=0, atol=1e-12))
    assert np.array_equal(i, np.arange(len(taus)))
    assert np.array_equal(j, len(taus) - 1 - i)
    table = MultiplierTable.build(CovarianceProfile(zero_temp_fermi(4.0), 3), taus,
                                  np.linspace(0.1, 8.0, 5))
    assert table.conjugate_symmetry_defect() == 0.0  # H(-w) = conj H(w) exactly
    table.values += 1e-9 * np.random.default_rng(n_half).standard_normal(table.values.shape)
    square = float(np.max(np.abs(table.values[j] - np.conj(table.values[i]))))
    assert table.conjugate_symmetry_defect() == square > 0.0


def test_mf_decay_slope_is_quadratic(cov3, monkeypatch):
    # for a smooth rapidly decaying profile the half-line transform of
    # sin(b t) h(2 xi t) loses its boundary term (the integrand vanishes at
    # t=0), so the asymptotic decay at fixed xi is tau^-2, not tau^-1
    monkeypatch.setattr(response, "_DOUBLINGS", 3)
    slope, taus, mags = decay_slope(cov3, 1.0, tau_base=8.0)
    assert taus[-1] == 64.0
    assert slope == pytest.approx(-2.0, abs=0.15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decay_slope_on_a_window_at_tau_zero_is_none(cov3):
    # at |xi| = 1e-300 the window 4|xi|^2 ... underflows to tau = 0, whose log
    # would hand polyfit -inf (an SVD that does not converge)
    slope, taus, _ = decay_slope(cov3, 1e-300, tau_base=4.0 * 1e-300 ** 2)
    assert slope is None and not np.any(taus)


def test_decay_bound_check(cov3):
    g = TorusGrid(3, 2 * np.pi, 16)
    taus = default_tau_grid(32.0, 1e-2, 10)
    xis = np.linspace(g.xi_min, g.nyquist, 10)
    t1 = MultiplierTable.build(cov3, taus, xis)
    r1 = decay_bound_check(t1)
    assert r1.finite
    t2 = MultiplierTable.build(cov3, default_tau_grid(32.0, 1e-2, 20),
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


@pytest.mark.parametrize("apply_L1", [apply_L1_time_domain, apply_L1_frequency_domain])
def test_L1_rejects_profile_of_other_dimension(apply_L1):
    # the profile carries its dimension; a d=2 profile on a d=3 grid is refused
    g = TorusGrid(3, 2 * np.pi, 8)
    ts = np.linspace(0, 1, 5)
    V = np.zeros((5,) + g.shape)
    with pytest.raises(ValueError, match="dimension 2"):
        apply_L1(V, ts, CovarianceProfile(gaussian_f2(), 2), delta_potential(1.0), g)


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
    out_f = apply_L1_frequency_domain(V.astype(complex), ts, cov, w, g)
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
    op = ht.PicardOperator(ens, None, T=1.0, n_steps=200)
    ts = op.ts
    rng = np.random.default_rng(4)
    V = np.zeros((len(ts),) + g.shape)
    for k in (-2, -1, 0, 1, 2):
        V += rng.standard_normal() * np.outer(np.sin(np.pi * ts) ** 2 * np.cos(1.3 * k * ts + 0.4),
                                              np.cos(k * g.x_axis))
    V /= np.max(np.abs(V))

    Y = picard_oracle.equilibrium_stack(op)
    W = picard_oracle.duhamel(op, op.eq.potential(V)[:, None] * Y)
    lattice_route = 2.0 * np.sum(np.conj(Y) * W, axis=1).real

    cov = CovarianceProfile(f, 1)
    continuum_route = apply_L1_time_domain(V.astype(complex), ts, cov, w, g).real
    diff = float(np.max(np.abs(lattice_route - continuum_route)))
    assert diff <= 1e-4 * max(1.0, float(np.max(np.abs(lattice_route))))


def test_margin_trivial_cases():
    g = TorusGrid(3, 2 * np.pi, 8)
    cov = CovarianceProfile(gaussian_f2(), 3)
    table = MultiplierTable.build(cov, default_tau_grid(8.0, 0.1, 6),
                                  np.linspace(g.xi_min, g.nyquist, 6))
    assert stability_margin(table, zero_potential()).margin == 1.0
    cov0 = CovarianceProfile(zero_distribution(), 3)
    table0 = MultiplierTable.build(cov0, table.taus, table.xis)
    assert stability_margin(table0, delta_potential(1.0)).margin == 1.0


def test_margin_small_amplitude_bound():
    cov = CovarianceProfile(fermi(1.0, 0.0), 4)
    g = TorusGrid(4, 2 * np.pi, 8)
    table = MultiplierTable.build(cov, default_tau_grid(16.0, 0.05, 8),
                                  np.linspace(g.xi_min, g.nyquist, 8))
    sup = table.sup_abs()
    for a in (0.01, 0.05):
        m = stability_margin(table, delta_potential(a)).margin
        assert m >= 1.0 - a * sup - 1e-12
        assert m > 0
    assert stability_margin(table, delta_potential(0.9 / sup)).margin > 0


def test_epsilon_g_zero_distribution():
    rep = epsilon_g(CovarianceProfile(zero_distribution(), 3))
    assert rep.value == 0.0 and rep.converged


def test_epsilon_g_bounded_by_sup(cov3, monkeypatch):
    monkeypatch.setattr(response, "_N_SHELLS", 6)
    rep = epsilon_g(cov3)
    assert len(rep.shell_minima) == 6
    g = TorusGrid(3, 2 * np.pi, 8)
    # the sup table must cover the near-origin region the shells sample
    table = MultiplierTable.build(cov3, default_tau_grid(8.0, 1e-3, 14),
                                  np.geomspace(3e-3, g.nyquist, 40))
    bound = table.sup_abs() / (2 * sphere_area(3))
    assert abs(rep.value) <= bound + 1e-9


def test_epsilon_g_fermi_d4_converges():
    cov = CovarianceProfile(fermi(1.0, 0.0), 4)
    rep = epsilon_g(cov)
    assert rep.converged
    last, prev = rep.shell_minima[-1], rep.shell_minima[-2]
    assert abs(last - prev) <= 0.05 * abs(last)
    # independent limit along the slow-time path: (1/2) int u h(u) du / (2|S^3|)
    xs = np.linspace(0, cov.x_max, 4000)
    pred = 0.5 * float(np.trapezoid(xs * cov(xs), xs)) / (2 * sphere_area(4))
    assert rep.value == pytest.approx(pred, rel=2e-3)


# ---------------------------------------------------------------------------
# m_f from the line marginal against closed forms and the panel oracle


def _shifts(taus, r):
    """w-+ = tau/(2r) -+ r/2 as compute_mf_batch forms them."""
    shift = np.asarray(taus, dtype=float) / (2.0 * r)
    return shift - 0.5 * r, shift + 0.5 * r


def _lindhard_H(w, mu):
    """H(w) of zero-temperature fermi(mu) at d = 3, rho1 = pi (mu - v^2)_+ (Lindhard 1954)."""
    k = math.sqrt(mu)
    edge = np.abs(w) == k
    x = np.where(edge, 0.0, w)
    log = np.where(edge, 0.0, np.log(np.abs((x + k) / (x - k))))
    return (math.pi ** 2 * np.maximum(mu - w * w, 0.0)
            - 1j * math.pi * (2.0 * k * w + (k * k - w * w) * log))


def test_mf_lindhard_zero_temperature():
    mu, k = 4.0, 2.0
    cov = CovarianceProfile(zero_temp_fermi(mu), 3)
    for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        # the grid plus the four taus that put w- or w+ on the Fermi edge +-k
        edge = [2.0 * r * (s * k + t * r / 2.0) for s in (-1, 1) for t in (-1, 1)]
        taus = np.concatenate([default_tau_grid(64.0, 1e-2, 12), edge])
        wm, wp = _shifts(taus, r)
        assert np.count_nonzero(np.abs(np.r_[wm, wp]) == k) >= 4
        exact = 0.5j / r * (_lindhard_H(wm, mu) - _lindhard_H(wp, mu))
        vals, _ = compute_mf_batch(cov, taus, [r])
        assert np.max(np.abs(vals[:, 0] - exact)) <= 1e-8, r


def test_mf_fermi_imaginary_part_closed_form():
    # fermi(T=1, mu=0) at d = 3: rho1 = pi ln(1 + e^{-v^2}) and
    # Im m_f = (pi/(2r)) (rho1(w-) - rho1(w+))
    cov = CovarianceProfile(fermi(1.0, 0.0), 3)
    taus = default_tau_grid(32.0, 1e-2, 12)
    rho1 = lambda v: math.pi * np.log1p(np.exp(-v * v))
    for r in (0.25, 0.7, 1.5, 3.0, 5.0, 8.0):
        wm, wp = _shifts(taus, r)
        vals, _ = compute_mf_batch(cov, taus, [r])
        assert np.max(np.abs(vals[:, 0].imag - math.pi / (2 * r) * (rho1(wm) - rho1(wp)))) <= 1e-10


@pytest.mark.parametrize("mu", [1.0, 4.0])
def test_epsilon_g_zero_temperature_fermi(mu):
    # the low-frequency limit of m_f gives epsilon_g = sqrt(mu)/4 exactly at d = 3
    rep = epsilon_g(CovarianceProfile(zero_temp_fermi(mu), 3))
    assert rep.value == pytest.approx(math.sqrt(mu) / 4.0, rel=1e-6)
    assert np.all(np.diff(rep.shell_minima) < 0)


ORACLE_PROFILES = {
    "fermi": fermi(1.0, 0.0),
    "bose": bose(1.0, -0.5),
    "gaussian_f2": gaussian_f2(),
    "zero_temp_fermi": zero_temp_fermi(1.5),
    # jumps at r = 0.6 and 1.4
    "shell": custom_radial(lambda r: 1.0 * (np.abs(np.asarray(r) - 1.0) < 0.4)),
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
def test_mf_matches_panel_oracle(name, d):
    cov = CovarianceProfile(ORACLE_PROFILES[name], d)
    taus = np.array([-9.0, -2.5, -0.4, 0.0, 0.7, 3.0, 11.0])
    xis = np.array([0.3, 1.1, 2.6, 5.0])
    vals, errs = compute_mf_batch(cov, taus, xis)
    # where f2 is smooth the oracle integrates the exact h: the h spline's
    # interpolation error (about 1e-8) is not in the oracle's estimate.  At a
    # jump of f2 the gap is far above it, and the exact h costs seconds there.
    h = None if name in ("shell", "zero_temp_fermi") else exact_h(cov)
    oracle = [panel_mf(cov, taus, r, h) for r in xis]
    gap = np.max(np.abs(vals - np.stack([v for v, _ in oracle], axis=1)))
    # sup norms: at a jump the oracle's per-entry estimate leaves out the
    # interpolation error of the h spline it integrates
    assert gap <= max(np.max(e) for _, e in oracle) + np.max(errs) + 1e-12 * cov.h0
    # H(w) ~ h(0)/(iw) for large w: the tabulated rho1 integrates to h(0)
    H, _ = cov.half_line_transform(np.array([1e6]))
    assert -1e6 * H[0].imag == pytest.approx(cov.h0, rel=1e-9)
