import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# the h tables at every d: the weighted kernel sum on the grid of exact-sum
# block nodes, over the table's bisected radial panels split per block, with
# the midpoints of table_error() in that form.  A zero-temperature profile
# has no jump inside [0, R], so its one panel is not bisected and each block
# splits it as np.linspace(0, R, n + 1).
DIGEST_PROFILES = {**TABLE_PROFILES, "zero_temp_fermi_1.5": zero_temp_fermi(1.5),
                   "zero_temp_fermi_4": zero_temp_fermi(4.0)}
TABLE_DIGESTS = {
    ("fermi", 1): "1ec987dae91f073757083c3ea57e0ed8c535df78aca7e7d4ed668ebdf7956332",
    ("fermi", 2): "e58397a0668b7f09f9b3daf86934dee6cfd7cce11366b8a823af31911f5ebf62",
    ("fermi", 3): "d39a255d93b734a7454556f817c346eb235ed096dff171ba11de72e7469645e6",
    ("fermi", 4): "bc0558595b0859cb439e251f99b9c6621ff076c76c507655bff09a1768951a0c",
    ("bose", 1): "5d7a64294b50a6568deb2cafbea8624eb22e4cea71825b58e4f43101ff18f416",
    ("bose", 2): "8e88891a810163669659d1471c2868ec54557cdf8ad18b51728babdb5785dcef",
    ("bose", 3): "524212661bb6857ddc9e9f73040cbef9b6afff7aa536d6dc774396cfa66542a6",
    ("bose", 4): "1f8cd0b493bd7d28e81d96c688fadbc048d0e4bfd43350f13852e10d0db08ce7",
    ("gaussian_f2", 1): "a86ca22086979e917424734446ec3329f50b68a11233ad203e1e511fed335701",
    ("gaussian_f2", 2): "6e8120e6d9770ea4b3bee08714b4d200ed554c99e5a7e8f0f9a3a0d93ebf7ecc",
    ("gaussian_f2", 3): "f64ea88aeafbf7dc7bb633c8d5030e1eb5c7bdeda9f41e4d84e5a33ad3c4a988",
    ("gaussian_f2", 4): "8a2a01e035eb3821fd1b5b88dfbc90e2e83b4384fd9dab3ab8f61c14495940f1",
    ("zero_temp_fermi", 1): "ffe110435839bc172dfbd918a7898162eb954be1547651fba38a678226d06393",
    ("zero_temp_fermi", 2): "04a22aa7ecec78a4136da747e5afe79c56b5d29bc7071d8ccb9739df3bb7a9f2",
    ("zero_temp_fermi", 3): "55b9d87727c6f5d52039e6cc740970db2c43ab478028d6f1831bf814766e5beb",
    ("zero_temp_fermi", 4): "907da1bcc91201e0e1679944c50d4864f1afd03ab70211aa59c8a1d49d43e67d",
    ("zero_temp_fermi_1.5", 1): "b451ebf24eae6579ffcdcbd2119cf8bf64013ac2b09cf23cd9e6676719865df8",
    ("zero_temp_fermi_1.5", 2): "2819b52220909ac271c5f8caeea4f9aac32d4700249b09c19b2892ff5a16843e",
    ("zero_temp_fermi_1.5", 3): "cc0c3bb15fbd41e1e8d7083104ae6a0574bf4928dce47ed363433332cf22844a",
    ("zero_temp_fermi_1.5", 4): "7ebc9a743cd2fe8c49e710c1cd4d9d0e53089321d653a3e6217b87047f787fca",
    ("zero_temp_fermi_4", 1): "a74d47ca131b172999302fa45c1e7b4606136178f9d5e0047d8b341bc76a19d2",
    ("zero_temp_fermi_4", 2): "aaec9dbe36009f63e1bff9172feb4a0bca835c06478f7f565c8611e5f7dc571f",
    ("zero_temp_fermi_4", 3): "9ebdf0a75bd33f456145c9ca98b4451a53d799534c4203e77776d75fac15d3b2",
    ("zero_temp_fermi_4", 4): "efbb6c181b6bc6c49161e6625de0ece30dfe29091678c067f41e9413877eb862",
}


def _table_digest(name, d):
    cov = CovarianceProfile(DIGEST_PROFILES[name], d)
    sp = cov.spline
    got = sp.x.tobytes() + sp.c.tobytes() + np.float64(cov.table_error()).tobytes()
    return hashlib.sha256(got).hexdigest()


@pytest.mark.parametrize("name, d", sorted(k for k in TABLE_DIGESTS if k[1] in (2, 4)))
def test_bessel_kernel_tables_keep_their_bits(name, d):
    assert _table_digest(name, d) == TABLE_DIGESTS[name, d]


@pytest.mark.parametrize("name, d", sorted(k for k in TABLE_DIGESTS if k[1] in (1, 3)))
def test_angle_addition_tables_keep_their_bits(name, d):
    assert _table_digest(name, d) == TABLE_DIGESTS[name, d]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(start=st.floats(0.0, 100.0),
       widths=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=8),
       x=st.floats(1e-3, 500.0))
def test_split_panels_tile_each_panel_with_the_fewest_parts(start, widths, x):
    # each base panel splits into k equal parts of at most _PERIODS_PER_PANEL
    # kernel periods 2 pi / x, where k - 1 parts would hold more; the parts
    # tile it to the bit, and the split of all panels at once is the splits
    # of each one in turn
    edges = start + np.cumsum(np.r_[0.0, widths])
    a, b = edges[:-1], edges[1:]
    lo, hi = equilibrium._split_panels(a, b, x)
    assert np.array_equal(hi[:-1], lo[1:])
    period = 2.0 * math.pi * equilibrium._PERIODS_PER_PANEL / x
    at = 0
    for ai, bi in zip(a, b):
        pl, ph = equilibrium._split_panels(np.array([ai]), np.array([bi]), x)
        k = len(pl)
        assert pl[0] == ai and ph[-1] == bi and np.array_equal(ph[:-1], pl[1:])
        assert np.array_equal(pl, lo[at:at + k]) and np.array_equal(ph, hi[at:at + k])
        # the part ends are rounded to the float spacing at bi
        assert np.all(ph - pl <= period * (1 + 1e-12) + 2 * np.spacing(bi))
        assert k == 1 or (bi - ai) / (k - 1) > period * (1 - 1e-12)
        at += k
    assert at == len(lo)
    # one panel [0, R] splits as the uniform panels of its parts' count
    R = edges[-1]
    n = max(1, math.ceil(R * x / (2.0 * math.pi * equilibrium._PERIODS_PER_PANEL)))
    lo, hi = equilibrium._split_panels(np.zeros(1), np.array([R]), x)
    assert np.array_equal(np.r_[lo, hi[-1]], np.linspace(0.0, R, n + 1))


@pytest.mark.parametrize("name, d", [("zero_temp_fermi_4", 3), ("zero_temp_fermi_4", 4),
                                     ("shell", 3)])
def test_a_profile_bisects_its_radial_panels_twice(name, d, monkeypatch):
    # once for h(0) and once for the h table, whose blocks and table_error()
    # passes all split the table's panels
    calls = []
    bisect = equilibrium._radial_panels

    def counting(*args):
        calls.append(args)
        return bisect(*args)

    monkeypatch.setattr(equilibrium, "_radial_panels", counting)
    cov = CovarianceProfile(DIGEST_PROFILES[name], d)
    cov(np.linspace(0.0, 2.0, 5))
    cov.table_error()
    assert len(calls) == 2


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
    _, blocks, panels, _ = cov._table
    assert blocks
    for _, xb, vb, _ in blocks:
        direct = direct_transform(f, d, xb, panels, equilibrium._GAUSS_HI)
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
