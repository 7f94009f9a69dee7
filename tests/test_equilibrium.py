import hashlib
import math

import numpy as np
import pytest

from hartorus import (CovarianceProfile, bose, custom_radial, delta_potential, equilibrium_mass,
                      eval_h, fermi, gaussian_f2, gaussian_potential, hypothesis_check,
                      sphere_area, zero_distribution, zero_potential, zero_temp_fermi)
from hartorus import equilibrium
from radial_oracle import direct_transform, q_marginal
from table_oracle import eager_table


def test_fermi_value_at_origin():
    assert fermi(1.0, 0.0).f2(0.0) == pytest.approx(0.5)


def test_bose_value_at_origin():
    assert bose(1.0, -1.0).f2(0.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)


def test_zero_temp_fermi_indicator():
    f = zero_temp_fermi(1.0)
    assert f.f2(0.5) == 1.0
    assert f.f2(1.5) == 0.0


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
    at = np.unique(np.linspace(0, len(nodes) - 2, 40).astype(int))
    # the nodes and the midpoints after them, where the spline interpolates
    picks = np.concatenate([nodes[at], 0.5 * (nodes[at] + nodes[at + 1])])
    # the budget itself stays small: unresolved jumps would inflate it
    assert cov.table_error() <= 1e-6 * abs(cov.h0)
    for x in picks:
        exact, err = eval_h(f, d, float(x))
        assert abs(float(cov(x)) - exact) <= cov.table_error() + err + 1e-12 * abs(cov.h0), x
    if hasattr(sp, "c"):
        assert np.array_equal(CovarianceProfile(f, d).spline.c, sp.c)
    # the table and its lazily computed estimate are the eager build's, to the bit
    oracle_spline, oracle_error = eager_table(cov)
    assert np.array_equal(oracle_spline.x, sp.x) and np.array_equal(oracle_spline.c, sp.c)
    assert cov.table_error() == oracle_error


# sha256 of the spline nodes, the spline coefficients and table_error() of
# the Bessel-kernel tables (d = 2 and 4): the weighted kernel sum on the grid
# of exact-sum block nodes, with the midpoints of table_error() in that form
BESSEL_TABLE_DIGESTS = {
    ("fermi", 2): "5bc0167554d7c1b3aad09191f8d7c8f5b09b813fc7ef3c807cfa39ea01804def",
    ("fermi", 4): "82f475561c47a87356e86640a174cc621688784524aad13c4aa44d7625d31bc6",
    ("bose", 2): "a432a5cfd2e91ad300669d0cfcbdb6d9fba142163e47036ca36561780a548b68",
    ("bose", 4): "acebe2521c032aea795dba01ec486fae2e9a0860a2bbae93c133f1a5a2ac85a3",
    ("zero_temp_fermi", 2): "04a22aa7ecec78a4136da747e5afe79c56b5d29bc7071d8ccb9739df3bb7a9f2",
    ("zero_temp_fermi", 4): "907da1bcc91201e0e1679944c50d4864f1afd03ab70211aa59c8a1d49d43e67d",
    ("gaussian_f2", 2): "de64dbaf77e9744b15ae56424a00e5ca31f511525a7d4830f627024eabb735c7",
    ("gaussian_f2", 4): "3ad07c4689b9f42d017952afca59aa482a1ade7ec97f5d59c611967e48cf7f78",
}


@pytest.mark.parametrize("name, d", sorted(BESSEL_TABLE_DIGESTS))
def test_bessel_kernel_tables_keep_their_bits(name, d):
    cov = CovarianceProfile(TABLE_PROFILES[name], d)
    sp = cov.spline
    got = sp.x.tobytes() + sp.c.tobytes() + np.float64(cov.table_error()).tobytes()
    assert hashlib.sha256(got).hexdigest() == BESSEL_TABLE_DIGESTS[name, d]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(set(TABLE_PROFILES) - {"zero"}))
def test_factorised_kernel_matches_the_direct_kernel(name, d):
    # angle addition (d = 1, 3) and the radial weight folded into the Gauss
    # weights (every d) regroup the rounding of the kernel: each table
    # block's 32-point values are within 1e-14 h(0) of the direct kernel's
    # at the same nodes and panels (3.9e-15 h(0) at most, the shell at d = 1;
    # 1.2e-15 h(0) at d = 2 and 4, the shell at d = 4)
    f = TABLE_PROFILES[name]
    cov = CovarianceProfile(f, d)
    _, blocks, _, _ = cov._table
    assert blocks
    for _, xb, vb, _ in blocks:
        direct = direct_transform(f, d, xb, f.support_radius(), {}, equilibrium._GAUSS_HI)
        assert np.max(np.abs(vb - direct)) <= 1e-14 * cov.h0


@pytest.mark.parametrize("name", sorted(set(TABLE_PROFILES) - {"zero"}))
def test_d3_line_marginal_matches_the_q_quadrature_oracle(name):
    # the tail sum of panel masses plus one partial-panel rule against the
    # 32-point q-integral over every panel beyond v, on a grid and at every
    # panel end: 5e-16 of the largest rho1 for the smooth profiles; at a jump
    # of f2 the two rules meet its sliver panel at other nodes (3.7e-13 for
    # zero-temperature fermi, 1.2e-12 for the shell)
    f = TABLE_PROFILES[name]
    a, b = CovarianceProfile(f, 3)._panels
    v = np.r_[np.linspace(0.0, 1.05 * b[-1], 1001), a, b]
    want = q_marginal(f, 3, a, b, v)
    tol = 1e-11 if name in ("shell", "zero_temp_fermi") else 2e-15
    assert np.max(np.abs(equilibrium._line_marginal(f, 3, a, b, v) - want)) <= tol * np.max(want)


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


def _bullets(f, d, epsilon_g=0.17):
    """hypothesis_check's bullets for a fresh profile and w-hat = 0.1, by name."""
    return {b.name: b for b in hypothesis_check(CovarianceProfile(f, d), delta_potential(0.1),
                                                epsilon_g)}


def test_hypothesis_fermi_d4_passes_monotonicity():
    rep = _bullets(fermi(1.0, 0.0), 4)
    assert rep["monotone_decreasing"].passed is True
    assert rep["weighted_l2"].passed is True
    assert rep["h_derivative_decay"].passed is True


def test_hypothesis_zero_temp_fermi_fails_monotonicity():
    rep = _bullets(zero_temp_fermi(1.0), 4)
    assert rep["monotone_decreasing"].passed is False


def test_hypothesis_zero_distribution_all_pass():
    # epsilon_g of the zero distribution is 0
    for b in hypothesis_check(CovarianceProfile(zero_distribution(), 3), delta_potential(1.0), 0.0):
        if b.passed is not None:
            assert b.passed, b.name
        assert b.value == 0.0 or b.name.startswith("potential")


def test_hypothesis_defocusing_bullet_uses_epsilon_g():
    assert _bullets(fermi(1.0, 0.0), 4)["potential_defocusing_part"].passed is True
    # 2 |S^3| = 4 pi^2 is the bound on epsilon_g * w-hat(0)
    assert _bullets(fermi(1.0, 0.0), 4, 1e3)["potential_defocusing_part"].passed is False


def test_hypothesis_accepts_profile():
    # a profile whose tables were already read gives the bullets of a fresh one
    f, w = fermi(1.0, 0.0), delta_potential(0.1)
    cov = CovarianceProfile(f, 3)
    cov(np.linspace(0.0, 2.0, 5))
    cov.half_line_transform(np.linspace(-2.0, 2.0, 5))
    assert hypothesis_check(cov, w, epsilon_g=0.17) == \
        hypothesis_check(CovarianceProfile(f, 3), w, epsilon_g=0.17)


def test_hypothesis_table_failure_marks_the_table_bullets_indeterminate():
    # the h table of a NaN f2 is refused; the three bullets read off the
    # table turn indeterminate and the others keep their values
    cov = CovarianceProfile(custom_radial(lambda r: np.full(np.shape(r), np.nan), 1.0), 3)
    with pytest.raises(ValueError, match="finite"):
        cov.spline
    got = hypothesis_check(cov, gaussian_potential(-1.0, 1.0), epsilon_g=0.17)
    np.testing.assert_equal([(b.name, b.passed, b.value, b.threshold, b.note) for b in got], [
        ("weighted_l2", None, math.nan, None, ""),
        ("f_gradf_integrable", None, math.nan, None,
         "total variation of f2 over the radial panels, halved"),
        ("monotone_decreasing", False, 0.0, None, "max consecutive increment on a log grid"),
        ("h_derivative_decay", None, math.nan, None, "table build failed"),
        ("h_low_frequency_integrable", None, math.nan, None, ""),
        ("potential_focusing_part", None, 1.0, None, ""),
        ("potential_defocusing_part", True, 0.0, 2 * sphere_area(3) / 0.17, "")])


def test_a_nonfinite_profile_is_refused_before_any_transform(monkeypatch):
    # an all-NaN f2 has a NaN h(0): the table is refused on every read with
    # no radial transform, where the block loop ran 32 of them before
    # CubicSpline refused the NaN nodes, and did so again on each later read
    calls = []
    transform = equilibrium._radial_transform

    def counting(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(equilibrium, "_radial_transform", counting)
    cov = CovarianceProfile(custom_radial(lambda r: np.full(np.shape(r), np.nan), 1.0), 3)
    assert math.isnan(cov.h0)
    got = {b.name: b.passed for b in hypothesis_check(cov, gaussian_potential(-1.0, 1.0), epsilon_g=0.17)}
    assert [got[k] for k in ("h_derivative_decay", "h_low_frequency_integrable",
                             "potential_focusing_part")] == [None, None, None]
    for read in (lambda: cov.table_error(), lambda: cov(0.5), lambda: cov.x_max):
        with pytest.raises(ValueError, match="finite"):
            read()
    assert calls == []


@pytest.mark.parametrize("T", [1e6, 1e300])
def test_a_table_past_the_node_budget_is_refused_before_any_transform(T, monkeypatch):
    # a fermi of support radius 4.8e3 or 4.8e150 spaces its table nodes
    # pi / (16 R) apart, so its last stretch of 4 in x alone takes more than
    # _TABLE_MAX_NODES: refused at once, where the loop ran for minutes (1e6)
    # or without end (1e300); the bullets read off the table are indeterminate
    monkeypatch.setattr(equilibrium, "_radial_transform", None)
    cov = CovarianceProfile(fermi(T, 0.0), 1)
    with pytest.raises(ValueError, match="h table nodes"):
        cov.spline
    got = {b.name: b.note for b in hypothesis_check(cov, delta_potential(0.1), epsilon_g=0.17)}
    assert got["h_derivative_decay"] == "table build failed"


@pytest.mark.parametrize("mu", [1034.0, 1035.0, 1e4])
def test_a_zero_temperature_table_past_the_node_budget_is_refused(mu, monkeypatch):
    # h of a jump never goes quiet, so the table runs to _X_MAX_CAP: 400 *
    # 16 sqrt(mu) / pi nodes, over _TABLE_MAX_NODES past mu = 1034.9 (203,718
    # at mu = 1e4, a stability-check of over a minute): refused before any
    # transform, where a table inside the budget reaches its first one
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(equilibrium, "_radial_transform", reached)
    cov = CovarianceProfile(zero_temp_fermi(mu), 3)
    with pytest.raises(Reached) if mu < 1034.9 else pytest.raises(ValueError, match="h table nodes"):
        cov.spline


def test_profile_builds_its_table_once(table_builds):
    cov = CovarianceProfile(gaussian_f2(), 3)
    hypothesis_check(cov, delta_potential(0.1), epsilon_g=0.17)
    cov.table_error()
    cov(np.linspace(0.0, 2.0, 5))
    assert table_builds == [cov]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_custom_support_radius_refuses_a_nonfinite_profile(value):
    # without a hint the scan has no radius to give, where it gave 1.0; with
    # a hint the profile is taken as it is, and its h(0) is refused later
    f = custom_radial(lambda r: np.where(np.asarray(r) < 2.0, value, 0.0))
    with pytest.raises(ValueError, match="custom profile is not finite"):
        f.support_radius()
    with pytest.raises(ValueError, match="custom profile is not finite"):
        CovarianceProfile(f, 3)
    assert custom_radial(f.profile, 2.5).support_radius() == 2.5


def test_custom_support_radius_reaches_shell_beyond_r1():
    # the profile vanishes at r = 1 but not on (2.6, 3.4)
    f = custom_radial(lambda r: 1.0 * (np.abs(np.asarray(r) - 3.0) < 0.4))
    assert 3.4 <= f.support_radius() <= 3.5
    exact = 4 * math.pi * (3.4 ** 3 - 2.6 ** 3) / 3
    assert CovarianceProfile(f, 3).h0 == pytest.approx(exact, rel=1e-6)


SHELL = custom_radial(lambda r: 1.0 * (np.abs(np.asarray(r) - 1.0) < 0.4))


@pytest.mark.parametrize("f, exact", [(fermi(1.0, 0.0), math.pi),
                                      (zero_temp_fermi(4.0), 2 * math.pi),
                                      (SHELL, 4 * math.pi)],
                         ids=["fermi", "zero_temp_fermi", "shell"])
def test_hypothesis_f_gradf_counts_jumps(f, exact):
    # int |f f'| = TV(f2) / 2 radially: f2 falls by 1/2 for fermi(1, 0), jumps
    # once by 1 for zero-temperature fermi and twice for the shell; d = 3
    assert _bullets(f, 3)["f_gradf_integrable"].value == pytest.approx(exact, rel=1e-12)


def test_hypothesis_weighted_l2_of_shell_exact():
    # 4 pi int_0.6^1.4 (1 + r^2) r^2 dr at d = 3, where ceil(s) = 1
    exact = 4 * math.pi * ((1.4 ** 3 / 3 + 1.4 ** 5 / 5) - (0.6 ** 3 / 3 + 0.6 ** 5 / 5))
    assert _bullets(SHELL, 3)["weighted_l2"].value == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("f, d", [(gaussian_f2(), 3), (fermi(1.0, 0.0), 3),
                                  (zero_temp_fermi(4.0), 3), (fermi(1.0, 0.0), 4)],
                         ids=["gaussian-3", "fermi-3", "zero_temp_fermi-3", "fermi-4"])
def test_table_between_nodes_near_origin(f, d):
    # h is even: the clamped start h'(0) = 0 keeps the spline on h off the nodes
    cov = CovarianceProfile(f, d)
    xs = np.linspace(0.0, 0.05, 12)[1:-1] + 0.0013
    exact = np.array([eval_h(f, d, float(x))[0] for x in xs])
    assert np.max(np.abs(cov(xs) - exact)) <= 1e-7 * abs(cov.h0)


def test_table_curvature_at_origin():
    # h = pi^{3/2} exp(-x^2 / 4) for |f|^2 = exp(-r^2) at d = 3
    h2 = float(CovarianceProfile(gaussian_f2(), 3).derivative(2)(0.0))
    assert h2 == pytest.approx(-math.pi ** 1.5 / 2, rel=1e-3)
