import math

import numpy as np
import pytest

from hartorus import (CovarianceProfile, bose, custom_radial, delta_potential, equilibrium_mass,
                      eval_f2, eval_h, fermi, gaussian_f2, gaussian_potential, hypothesis_check,
                      zero_distribution, zero_potential, zero_temp_fermi)
from hartorus.equilibrium import as_profile


def test_fermi_value_at_origin():
    assert eval_f2(fermi(1.0, 0.0), 0.0) == pytest.approx(0.5)


def test_bose_value_at_origin():
    assert eval_f2(bose(1.0, -1.0), 0.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)


def test_zero_temp_fermi_indicator():
    f = zero_temp_fermi(1.0)
    assert eval_f2(f, 0.5) == 1.0
    assert eval_f2(f, 1.5) == 0.0


def test_bose_positive_mu_rejected():
    with pytest.raises(ValueError):
        bose(1.0, 0.5)


def test_f2_monotone_for_thermal_kinds():
    rs = np.geomspace(1e-3, 6.0, 200)
    for f in (fermi(1.0, 0.0), bose(0.7, -0.3), fermi(2.0, 1.0)):
        vals = f.f2(rs)
        assert np.all(np.diff(vals) < 0)


def test_f2_overflow_safe():
    assert fermi(1.0, 0.0).f2(100.0) <= 1e-300
    assert np.isfinite(bose(1.0, -1.0).f2(np.array([0.0, 50.0, 500.0]))).all()


def test_h_zero_distribution():
    val, err = eval_h(zero_distribution(), 3, 1.3)
    assert val == 0.0 and err == 0.0


def test_h_gaussian_d2_analytic():
    val, err = eval_h(gaussian_f2(), 2, 0.0)
    assert val == pytest.approx(math.pi, abs=1e-8)
    val, err = eval_h(gaussian_f2(), 2, 2.0)
    assert val == pytest.approx(math.pi * math.exp(-1.0), abs=1e-8)


def test_h_gaussian_d3_analytic():
    val, _ = eval_h(gaussian_f2(), 3, 2.0)
    assert val == pytest.approx(math.pi ** 1.5 * math.exp(-1.0), abs=1e-8)


def test_h_zero_temp_fermi_d1_closed_form():
    f = zero_temp_fermi(1.0)
    for x in (0.5, 1.0, 3.0, 7.0):
        val, _ = eval_h(f, 1, x)
        assert val == pytest.approx(2 * math.sin(x) / x, abs=1e-8)


def test_h_even_and_real():
    cov = CovarianceProfile(fermi(1.0, 0.0), 2)
    xs = np.array([0.3, 1.7, 4.2])
    assert np.allclose(cov(xs), cov(-xs))  # radial table: even by construction
    for x in xs:
        direct, err = eval_h(fermi(1.0, 0.0), 2, float(x))
        assert abs(direct - cov(x)) < 1e-6  # spline vs direct quadrature


TABLE_PROFILES = {
    "fermi": fermi(1.0, 0.0),
    "bose": bose(1.0, -0.5),
    "zero_temp_fermi": zero_temp_fermi(1.0),
    "gaussian_f2": gaussian_f2(),
    "zero": zero_distribution(),
    # jumps at r = 0.6 and 1.4, both inside the quadrature interval [0, 1.5]
    "shell": custom_radial(lambda r: 1.0 * (np.abs(np.asarray(r) - 1.0) < 0.4)),
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(TABLE_PROFILES))
def test_table_matches_eval_h_oracle(name, d):
    f = TABLE_PROFILES[name]
    cov = CovarianceProfile(f, d)
    sp = cov.spline
    nodes = sp.x if hasattr(sp, "x") else np.linspace(0.0, cov.x_max, 40)
    picks = nodes[np.unique(np.linspace(0, len(nodes) - 1, 40).astype(int))]
    # the budget itself stays small: unresolved jumps would inflate it
    assert cov.table_error() <= 1e-6 * abs(cov.h0)
    for x in picks:
        exact, err = eval_h(f, d, float(x))
        assert abs(float(cov(x)) - exact) <= cov.table_error() + err + 1e-12 * abs(cov.h0), x
    if hasattr(sp, "c"):
        assert np.array_equal(CovarianceProfile(f, d).spline.c, sp.c)


def test_as_profile_rejects_dimension_mismatch():
    cov = CovarianceProfile(fermi(1.0, 0.0), 3)
    assert as_profile(cov, 3) is cov
    with pytest.raises(ValueError):
        as_profile(cov, 2)
    with pytest.raises(ValueError):
        as_profile(fermi(1.0, 0.0))


def test_h0_two_ways():
    # radial quadrature against a plain lattice Riemann sum
    f = fermi(1.0, 0.0)
    d = 2
    h0, _ = eval_h(f, d, 0.0)
    dxi = 0.02
    ax = np.arange(-8, 8, dxi)
    X, Y = np.meshgrid(ax, ax)
    lattice = float(np.sum(f.f2(np.sqrt(X ** 2 + Y ** 2))) * dxi ** 2)
    assert abs(h0 - lattice) <= 1e-6 * abs(h0) + 1e-4


def test_h0_of_shells_from_panel_masses():
    # h(0) of 1 (|r - c| < 0.4) at d = 3 is the shell volume
    for c in np.linspace(0.5, 30.0, 300):
        f = custom_radial(lambda r, c=c: 1.0 * (np.abs(np.asarray(r) - c) < 0.4))
        exact = 4.0 * math.pi / 3.0 * ((c + 0.4) ** 3 - (c - 0.4) ** 3)
        assert CovarianceProfile(f, 3).h0 == pytest.approx(exact, rel=1e-9), c


def test_equilibrium_mass():
    assert equilibrium_mass(fermi(1.0, 0.0), zero_potential(), 2) == 0.0
    assert equilibrium_mass(gaussian_f2(), delta_potential(1.0), 2) == pytest.approx(math.pi, abs=1e-8)
    f = fermi(1.0, 0.0)
    h0, _ = eval_h(f, 3, 0.0)
    assert equilibrium_mass(f, delta_potential(1.0), 3) == pytest.approx(h0, rel=1e-12)


def test_potential_kinds():
    w = gaussian_potential(2.0, 0.5)
    assert w.what0 == pytest.approx(2.0)
    assert w.what(3.0) == pytest.approx(2.0 * math.exp(-0.5 * (0.5 * 3.0) ** 2), rel=1e-12)
    assert zero_potential().what(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


def test_hypothesis_fermi_d4_passes_monotonicity():
    rep = hypothesis_check(fermi(1.0, 0.0), delta_potential(0.1), 4)
    assert rep.bullet("monotone_decreasing").passed is True
    assert rep.bullet("weighted_l2").passed is True
    assert rep.bullet("h_derivative_decay").passed is True


def test_hypothesis_zero_temp_fermi_fails_monotonicity():
    rep = hypothesis_check(zero_temp_fermi(1.0), delta_potential(0.1), 4)
    assert rep.bullet("monotone_decreasing").passed is False


def test_hypothesis_zero_distribution_all_pass():
    rep = hypothesis_check(zero_distribution(), delta_potential(1.0), 3)
    for b in rep.bullets:
        if b.passed is not None:
            assert b.passed, b.name
        assert b.value == 0.0 or b.name.startswith("potential")


def test_hypothesis_defocusing_bullet_uses_epsilon_g():
    rep = hypothesis_check(fermi(1.0, 0.0), delta_potential(0.1), 4, epsilon_g=0.17)
    b = rep.bullet("potential_defocusing_part")
    assert b.passed is True
    rep2 = hypothesis_check(fermi(1.0, 0.0), delta_potential(0.1), 4)
    assert rep2.bullet("potential_defocusing_part").passed is None


def test_hypothesis_accepts_profile():
    f, w = fermi(1.0, 0.0), delta_potential(0.1)
    cov = CovarianceProfile(f, 3)
    assert hypothesis_check(cov, w, 3, epsilon_g=0.17).bullets == \
        hypothesis_check(f, w, 3, epsilon_g=0.17).bullets


def test_custom_support_radius_reaches_shell_beyond_r1():
    # the profile vanishes at r = 1 but not on (2.6, 3.4)
    f = custom_radial(lambda r: 1.0 * (np.abs(np.asarray(r) - 3.0) < 0.4))
    assert 3.4 <= f.support_radius() <= 3.5
    exact = 4 * math.pi * (3.4 ** 3 - 2.6 ** 3) / 3
    assert CovarianceProfile(f, 3).h0 == pytest.approx(exact, rel=1e-6)
