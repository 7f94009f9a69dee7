import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twowave_oracle as oracle

from hartorus import (TorusGrid, TwoWaveParams, build_symbol, closed_form_spectrum,
                      delta_potential, eigensolver_spectrum,
                      gaussian_potential, most_unstable_ray_frequency, multiset_distance,
                      simulate_linearized, unstable_band, zero_potential)
from hartorus import twowave
from hartorus.twowave import _scalars, fuzz_max_distance


def flat(m=1.0, xi=(1.0,)):
    return TwoWaveParams(xi=np.array(xi), m=m, w=delta_potential(1.0))


def test_symbol_m0_block_diagonal():
    sym = build_symbol(flat(m=0.0), [0.7])
    assert np.all(sym[:2, 2:] == 0) and np.all(sym[2:, :2] == 0)


def test_symbol_xi0_matches_displayed_form():
    k = np.array([1.3])
    b = float(k @ k)
    c = 1.0 * 1.0
    sym = build_symbol(flat(m=1.0, xi=(0.0,)), k)
    expect = np.array([
        [0, b, 0, 0],
        [-b - c, 0, -c, 0],
        [0, 0, 0, b],
        [-c, 0, -b - c, 0]], dtype=complex)
    assert np.max(np.abs(sym - expect)) == 0.0


def test_symbol_k0():
    assert np.max(np.abs(build_symbol(flat(m=0.0), [0.0]))) == 0.0
    # with mass the matrix keeps the potential entries but is nilpotent
    sym = build_symbol(flat(m=2.0), [0.0])
    assert np.max(np.abs(sym @ sym)) == 0.0
    assert np.max(np.abs(closed_form_spectrum(flat(m=2.0), [0.0]))) == 0.0


def test_closed_form_m0_example():
    lam = np.sort_complex(closed_form_spectrum(flat(m=0.0), [1.0]))
    expect = np.sort_complex(np.array([1j, -1j, 3j, -3j]))
    assert np.max(np.abs(lam - expect)) <= 1e-14


def test_closed_form_xi0_example():
    lam = np.sort_complex(closed_form_spectrum(flat(m=1.0, xi=(0.0,)), [1.0]))
    expect = np.sort_complex(np.array([1j, -1j, 1j * math.sqrt(3), -1j * math.sqrt(3)]))
    assert np.max(np.abs(lam - expect)) <= 1e-14


def test_closed_form_mixed_example():
    # Y+- = -24 +- sqrt(585): one real pair, one imaginary pair
    lam = closed_form_spectrum(flat(), [math.sqrt(3.0)])
    reals = sorted(v.real for v in lam if abs(v.imag) < 1e-12)
    imags = sorted(v.imag for v in lam if abs(v.real) < 1e-12)
    yp = -24.0 + math.sqrt(585.0)
    ym = -24.0 - math.sqrt(585.0)
    assert reals == pytest.approx([-math.sqrt(yp), math.sqrt(yp)], rel=1e-12)
    assert imags == pytest.approx([-math.sqrt(-ym), math.sqrt(-ym)], rel=1e-12)
    assert math.sqrt(yp) == pytest.approx(0.432, abs=5e-4)
    assert math.sqrt(-ym) == pytest.approx(6.94, abs=5e-3)


def test_eigensolver_matches_examples():
    for params, k in ((flat(m=0.0), [1.0]), (flat(m=1.0, xi=(0.0,)), [1.0]),
                      (flat(), [math.sqrt(3.0)])):
        d = multiset_distance(closed_form_spectrum(params, k), eigensolver_spectrum(params, k))
        assert d <= 1e-10


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_spectrum_fuzz(seed):
    # derandomized: at defective band-edge points the generic eigensolver
    # loses half its digits (see test_band_edge_defective_point), so random
    # draws must stay reproducible for the 1e-10 agreement bound
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    xi = rng.uniform(-2, 2, size=d)
    k = rng.uniform(-4, 4, size=d)
    m = rng.uniform(0, 4)
    amp = rng.uniform(-1.5, 1.5)
    params = TwoWaveParams(xi=xi, m=m, w=delta_potential(amp))
    lam_c = closed_form_spectrum(params, k)
    lam_e = eigensolver_spectrum(params, k)
    assert multiset_distance(lam_c, lam_e) <= 1e-10
    # closure under negation and conjugation
    assert multiset_distance(lam_c, -lam_c) <= 1e-12
    assert multiset_distance(lam_c, np.conj(lam_c)) <= 1e-12
    for v in lam_c:
        assert oracle.char_poly_residual(params, k, v) <= 1e-8


def test_band_edge_defective_point():
    # at a generic band edge the growing pair coalesces at zero (defective
    # matrix) and both routes are limited to about sqrt(machine epsilon);
    # the polynomial residual still meets its stated bound, and the exact
    # zero cases (c = 0, xi.k = 0) are handled by the factored branches
    xi, m = 1.9692370437799684, 3.0174432254547794
    params = TwoWaveParams(xi=[xi], m=m, w=delta_potential(1.0))
    k = [2.0 * xi]  # r = 2 is always an edge of the flat-potential band
    lam = closed_form_spectrum(params, k)
    for v in lam:
        assert oracle.char_poly_residual(params, k, v) <= 1e-8
    d = multiset_distance(lam, eigensolver_spectrum(params, k))
    assert d <= 1e-5


def test_band_flat_potential():
    band = unstable_band(flat(), np.linspace(0.05, 3.0, 512))
    assert band.band is not None
    cell = (3.0 - 0.05) / 511
    assert abs(band.band[0] - math.sqrt(2.0)) <= cell
    assert abs(band.band[1] - 2.0) <= cell
    assert band.predicted_band == pytest.approx((math.sqrt(2.0), 2.0))
    kstar = most_unstable_ray_frequency(flat())
    assert kstar == pytest.approx([math.sqrt(3.0)])


def test_band_empty_for_m0():
    band = unstable_band(flat(m=0.0), np.linspace(0.05, 3.0, 256))
    assert band.band is None
    assert band.max_growth <= 1e-12


def test_band_clipped_for_large_mass():
    band = unstable_band(flat(m=10.0), np.linspace(0.05, 3.0, 512))
    assert band.predicted_band[0] == 0.0  # 4 - 2m/|xi|^2 < 0 clips at the grid floor
    assert band.band[0] == pytest.approx(0.05)
    assert band.band[1] == pytest.approx(2.0, abs=0.01)


def test_band_general_potential_scan():
    w = gaussian_potential(1.0, math.sqrt(0.2))  # w-hat(k) = exp(-0.1 k^2)
    band = unstable_band(TwoWaveParams(xi=[1.0], m=1.0, w=w), np.linspace(0.05, 3.0, 512))
    assert band.predicted_band is None
    assert band.band is not None  # weakened but still unstable


def test_simulated_growth_matches_closed_form():
    g = TorusGrid(1, 16 * np.pi, 256)
    fit = simulate_linearized(flat(), g, [math.sqrt(3.0)], T=24.0, n_samples=400, seed=1)
    assert fit.predicted_rate > 0
    assert abs(fit.rate - fit.predicted_rate) <= 0.05 * fit.predicted_rate
    assert not fit.discrepancy


def test_simulated_growth_d2():
    g = TorusGrid(2, 16 * np.pi, 64)
    params = TwoWaveParams(xi=[1.0, 0.0], m=1.0, w=delta_potential(1.0))
    fit = simulate_linearized(params, g, [math.sqrt(3.0), 0.0], T=24.0, n_samples=300, seed=2)
    assert abs(fit.rate - fit.predicted_rate) <= 0.05 * fit.predicted_rate


def test_off_ray_growth_supported():
    params = TwoWaveParams(xi=[1.0, 0.0], m=1.0, w=delta_potential(1.0))
    val = closed_form_spectrum(params, [1.2, 0.8]).real.max()
    assert val > 0.1  # instability persists off the carrier ray
    d = multiset_distance(closed_form_spectrum(params, [1.2, 0.8]),
                          eigensolver_spectrum(params, [1.2, 0.8]))
    assert d <= 1e-10


def test_simulated_no_growth_m0():
    g = TorusGrid(1, 16 * np.pi, 256)
    fit = simulate_linearized(flat(m=0.0), g, [1.5], T=24.0, seed=1)
    assert abs(fit.rate) <= 1e-8
    assert not fit.discrepancy


def test_simulated_no_growth_xi0_defocusing():
    g = TorusGrid(1, 16 * np.pi, 256)
    fit = simulate_linearized(flat(m=1.0, xi=(0.0,)), g, [1.0], T=24.0, seed=1)
    assert abs(fit.rate) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 8.0), st.floats(0.2, 3.0))
def test_instability_dichotomy_flat_potential(m, xi_abs):
    # growth along the ray iff (r^2-4)(r^2-4+2m/|xi|^2) < 0 somewhere sampled
    params = TwoWaveParams(xi=[xi_abs], m=m, w=delta_potential(1.0))
    rs = np.linspace(0.05, 3.0, 256)
    band = unstable_band(params, rs)
    poly = (rs ** 2 - 4.0) * (rs ** 2 - 4.0 + 2.0 * m / xi_abs ** 2)
    assert (band.band is not None) == bool(np.any(poly < -1e-12))


def test_negative_mass_rejected():
    with pytest.raises(ValueError):
        TwoWaveParams(xi=[1.0], m=-1.0, w=delta_potential(1.0))


# ---------------------------------------------------------------------------
# the stack path against the per-case path of tests/twowave_oracle.py

_FUZZ_SEEDS = (301, 0, 1, 12345)


@pytest.mark.parametrize("w", [delta_potential(1.0), zero_potential()], ids=["delta", "zero"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fuzz_max_distance_matches_the_per_case_oracle(d, w):
    for seed in _FUZZ_SEEDS:
        assert fuzz_max_distance(w, d, 2000, seed) == oracle.fuzz_max_distance(seed, d, 2000, w)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gaussian_fuzz_matches_the_per_case_oracle_to_rounding(d):
    # w-hat of a gaussian goes through np.exp, whose vectorised loop on arrays
    # differs from the 0-d call by 1 ulp on a few arguments (3 of 5000 here),
    # so the stacked closed form agrees with the per-case one to rounding of
    # the spectral radius, not to the bit; the fuzz distances, about 1e-13,
    # then agree far inside the 1e-10 verdict bound
    w = gaussian_potential(1.3, 0.6)
    rng = np.random.default_rng(d)
    xi, k, m = rng.uniform(-2, 2, (2000, d)), rng.uniform(-4, 4, (2000, d)), rng.uniform(0, 4, 2000)
    got = closed_form_spectrum(TwoWaveParams(xi=xi, m=m, w=w), k)
    want = np.array([oracle.closed_form_spectrum(TwoWaveParams(xi=x, m=mm, w=w), kk)
                     for x, kk, mm in zip(xi, k, m)])
    radius = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-15 * radius)
    for seed in _FUZZ_SEEDS:
        assert fuzz_max_distance(w, d, 2000, seed) == pytest.approx(
            oracle.fuzz_max_distance(seed, d, 2000, w), rel=0, abs=1e-14)


@pytest.mark.parametrize("params", [flat(), flat(m=0.0), flat(m=10.0), flat(xi=(1.0, 0.0)),
                                    flat(xi=(0.3, -1.2, 0.7)),
                                    TwoWaveParams(xi=[1.0, 1.0], m=1.0, w=zero_potential())],
                         ids=["flat", "m0", "m10", "d2", "d3", "zero"])
def test_ray_scan_spectra_match_the_per_case_oracle(params):
    rs = np.linspace(0.05, 3.0, 512)
    assert np.array_equal(unstable_band(params, rs).spectra, oracle.ray_spectra(params, rs))


def _bits(a):
    return np.asarray(a).view(np.uint64)  # tells 0.0 from -0.0


def test_one_case_keeps_the_per_case_bits():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 4):
        for w in (delta_potential(-0.7), zero_potential(), gaussian_potential(1.3, 0.6)):
            # a generic case, c == 0 and xi.k == 0
            for m, xi in ((rng.uniform(0, 4), rng.uniform(-2, 2, d)),
                          (0.0, rng.uniform(-2, 2, d)), (1.5, np.zeros(d))):
                params = TwoWaveParams(xi=xi, m=m, w=w)
                k = rng.uniform(-4, 4, d)
                xk, b, c = _scalars(params, k)
                assert xk.ndim == b.ndim == c.ndim == 0
                assert np.array_equal(_bits(build_symbol(params, k)),
                                      _bits(oracle.build_symbol(params, k)))
                assert np.array_equal(_bits(closed_form_spectrum(params, k)),
                                      _bits(oracle.closed_form_spectrum(params, k)))
                assert np.array_equal(_bits(eigensolver_spectrum(params, k)),
                                      _bits(oracle.eigensolver_spectrum(params, k)))


def test_permutation_matching_is_the_assignment_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    near = a[:, rng.permutation(4)] + 1e-3 * rng.standard_normal((1000, 4))
    far = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
    for b in (near, far):
        assert np.array_equal(multiset_distance(a, b),
                              [oracle.multiset_distance(x, y) for x, y in zip(a, b)])
    # ties: the spectrum is closed under negation and conjugation
    u = np.random.default_rng(301).random((500, 5))
    params = TwoWaveParams(xi=-2.0 + 4.0 * u[:, :2], m=4.0 * u[:, 4], w=delta_potential(1.0))
    lam = closed_form_spectrum(params, -4.0 + 8.0 * u[:, 2:4])
    for b in (-lam, np.conj(lam)):
        assert np.array_equal(multiset_distance(lam, b),
                              [oracle.multiset_distance(x, y) for x, y in zip(lam, b)])


@pytest.mark.parametrize("params, N, k_seed, n_samples, seed", [
    (flat(), 128, [math.sqrt(3.0)], 256, 301),
    (flat(), 256, [math.sqrt(3.0)], 400, 1),
    (flat(xi=(1.0, 0.0)), 64, [math.sqrt(3.0), 0.0], 256, 301),
    (flat(m=0.0), 256, [1.5], 256, 1)], ids=["tier1", "d1", "bench", "m0"])
def test_growth_fit_matches_the_per_sample_oracle(params, N, k_seed, n_samples, seed):
    grid = TorusGrid(params.d, 16 * np.pi, N)
    got = simulate_linearized(params, grid, k_seed, T=24.0, n_samples=n_samples, seed=seed)
    want = oracle.simulate_linearized(params, grid, k_seed, T=24.0, n_samples=n_samples, seed=seed)
    assert (got.rate, got.residual, got.predicted_rate, got.discrepancy) == (
        want.rate, want.residual, want.predicted_rate, want.discrepancy)
    assert np.array_equal(got.k_used, want.k_used)


def test_stacked_state_has_one_norm_per_state():
    stack = TwoWaveParams(xi=np.ones((3, 2)), m=np.ones(3), w=delta_potential(1.0))
    assert np.array_equal(stack.xi_abs, np.full(3, math.sqrt(2.0)))
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        xi = rng.uniform(-2, 2, d)
        one = TwoWaveParams(xi=xi, m=1.0, w=delta_potential(1.0)).xi_abs
        assert isinstance(one, float)
        assert one == float(np.linalg.norm(xi))  # the bits of one state's norm are kept


@pytest.mark.parametrize("xi, m", [(np.ones((3, 2)), np.ones(3)), (np.ones(2), np.ones(3))],
                         ids=["xi-stack", "m-stack"])
def test_one_state_functions_refuse_a_stack(xi, m):
    params = TwoWaveParams(xi=xi, m=m, w=delta_potential(1.0))
    shapes = rf"xi of shape {re.escape(str(np.shape(xi)))} and m of shape {re.escape(str(np.shape(m)))}"
    with pytest.raises(ValueError, match="unstable_band takes one state.*" + shapes):
        unstable_band(params, np.linspace(0.1, 3.0, 8))
    with pytest.raises(ValueError, match="most_unstable_ray_frequency takes one state.*" + shapes):
        most_unstable_ray_frequency(params)


def test_fuzz_slicing_keeps_the_bits(monkeypatch):
    # the fuzz is solved _FUZZ_CASES cases at a time; each case's distance is
    # its own, so any slicing (here 7, which does not divide 100) gives the
    # same maximum
    for w in (delta_potential(1.0), gaussian_potential(1.3, 0.6)):
        whole = fuzz_max_distance(w, 2, 100, 7)
        monkeypatch.setattr(twowave, "_FUZZ_CASES", 7)
        assert fuzz_max_distance(w, 2, 100, 7) == whole
        monkeypatch.undo()
