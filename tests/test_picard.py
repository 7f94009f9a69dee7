import numpy as np
import pytest

from hartorus import (BumpSpec, LittlewoodPaley, PicardOperator, SpectralField, TorusGrid,
                      add_perturbation, besov_norm, critical_exponents, delta_potential,
                      deviation_norms, fermi, init_equilibrium, lebesgue_norm, picard_solve,
                      reference_trajectory)
from hartorus.ensemble import _stack_norms
from hartorus.field import fftn, ifftn


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(1, 2 * np.pi, 64)
    w = delta_potential(1.0)
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), w, 1e-8)
    spec = BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), mode=4)
    pert, state = add_perturbation(ens, spec)
    return grid, w, ens, spec, pert, state


def _zero_pair(op):
    return (np.zeros((op.n_t, op.M) + op.grid.shape, dtype=complex),
            np.zeros((op.n_t,) + op.grid.shape))


def test_zero_data_is_fixed_point(setup):
    grid, w, ens, spec, pert, state = setup
    op = PicardOperator(state, np.zeros_like(pert.fields), T=0.5, n_steps=50)
    Z, V = op.apply(*_zero_pair(op))
    assert np.max(np.abs(Z)) == 0.0
    assert np.max(np.abs(V)) == 0.0


def test_source_pair_matches_first_iterate(setup):
    grid, w, ens, spec, pert, state = setup
    z0 = state.deviations(pert)
    op = PicardOperator(state, z0, T=0.5, n_steps=50)
    Z1, V1 = op.apply(*_zero_pair(op))
    Zs, Vs = op.source_pair()
    assert np.max(np.abs(Z1 - Zs)) == 0.0
    assert np.max(np.abs(V1 - Vs)) == 0.0


def test_source_pair_is_the_per_slice_free_flow(setup):
    # the free flow S(t_i) Z0 one time slice at a time, as the operator
    # once stored it, is the oracle of the time-batched source pair
    grid, w, ens, spec, pert, state = setup
    z0 = state.deviations(pert)
    op = PicardOperator(state, z0, T=0.5, n_steps=50)
    space = tuple(range(1, 1 + grid.d))
    z0_hat = fftn(z0, axes=space)
    SZ0 = np.empty_like(op.Y)
    for i, t in enumerate(op.ts):
        ph = np.exp(-1j * t * (state.m + grid.xi_squared))
        SZ0[i] = ifftn(ph[None] * z0_hat, axes=space, overwrite_x=True)
    assert np.array_equal(op.source_pair()[0], SZ0)


def test_first_difference_is_the_source_pair(setup):
    grid, w, ens, spec, pert, state = setup
    op = PicardOperator(state, state.deviations(pert), T=0.5, n_steps=50)
    res = picard_solve(op, max_iters=3)
    assert res.diff_norms[0] == op.pair_norms(*op.source_pair())
    assert res.n_iterations == len(res.diff_norms) == len(res.contraction) + 1 == 3


def test_contraction_small_data(setup):
    grid, w, ens, spec, pert, state = setup
    z0 = state.deviations(pert)
    op = PicardOperator(state, z0, T=1.0, n_steps=100)
    res = picard_solve(op, max_iters=6)
    assert res.converged and not res.diverged
    assert max(res.contraction[1:5]) < 0.5


def test_picard_limit_matches_split_step(setup):
    grid, w, ens, spec, pert, state = setup
    z0 = state.deviations(pert)
    op = PicardOperator(state, z0, T=1.0, n_steps=100)
    res = picard_solve(op, max_iters=8)
    ts, Zref, Vref = reference_trajectory(pert, state, 1.0, 100, substeps=10)
    sup = np.max(np.sqrt(np.sum(np.abs(res.Z - Zref) ** 2, axis=(1, 2)) * grid.dx))
    assert sup <= 1e-4
    assert np.max(np.abs(res.V - Vref)) <= 1e-4


def test_divergence_flagged(setup):
    grid, w, ens, spec, pert, state = setup
    # amplitude far outside the smallness regime blows the quadratic term up
    big, big_state = add_perturbation(ens, BumpSpec(30.0, 0.8, (np.pi,), (1.0,), mode=4))
    z0 = big_state.deviations(big)
    op = PicardOperator(big_state, z0, T=1.0, n_steps=60)
    res = picard_solve(op, max_iters=12)
    assert res.diverged
    assert not res.converged


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_pair_norms_are_time_norms_of_stacked_ingredients(d, N):
    grid = TorusGrid(d, 2 * np.pi, N)
    w = delta_potential(1.0)
    eq, _ = init_equilibrium(grid, fermi(1.0, 0.0), w, 1e-8)
    op = PicardOperator(eq, np.zeros_like(eq.fields), T=0.3, n_steps=3)
    rng = np.random.default_rng(d)
    shape = (op.n_t, op.M) + grid.shape
    Z = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    lp = LittlewoodPaley(grid)
    per_time, _ = _stack_norms(grid, Z, lp)
    for i in range(op.n_t):
        one = deviation_norms(grid, Z[i], lp)
        for k, v in per_time.items():
            assert v[i] == pytest.approx(one[k], rel=1e-14, abs=0), k

    def time_norm(vals, power):
        return np.trapezoid(vals ** power, dx=op.dt) ** (1.0 / power)

    got = op.pair_norms(Z, np.zeros((op.n_t,) + grid.shape), lp)
    assert got["z_sup_l2"] == np.max(per_time["l2"])
    assert got["z_l_dplus2"] == time_norm(per_time["l_dplus2"], d + 2)
    assert got["z_lp_wsp"] == time_norm(per_time["w_sp"], critical_exponents(d)["p"])
    assert got["z_l4_besov"] == time_norm(per_time["besov_q"], 4)


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
def test_pair_norms_of_constant_potential_match_norms_module(d, N):
    # V constant in time: its window norms are T^{1/p} times the one-field norms
    grid = TorusGrid(d, 2 * np.pi, N)
    eq, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    T = 0.3
    op = PicardOperator(eq, np.zeros_like(eq.fields), T=T, n_steps=3)
    fld = SpectralField(grid, values=np.random.default_rng(d).standard_normal(grid.shape))
    V = np.broadcast_to(fld.values.real, (op.n_t,) + grid.shape)
    got = op.pair_norms(_zero_pair(op)[0], V)
    vp = (d + 2) / 2.0
    assert got["v_l_half"] == pytest.approx(T ** (1 / vp) * lebesgue_norm(fld, vp), rel=1e-13)
    assert got["v_l2_besov"] == pytest.approx(T ** 0.5 * besov_norm(fld, 2, -0.5, 0.0), rel=1e-13)
