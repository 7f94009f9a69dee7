import os
import select
import signal
import threading
import tracemalloc

import numpy as np
import picard_oracle as oracle
import pytest
import stream_oracle

from field_oracle import SpectralField, besov_norm, lebesgue_norm
from stack_norms import stack_norms, unskipped
from hartorus import (BumpSpec, LittlewoodPaley, PicardOperator, PicardResult, TorusGrid,
                      critical_exponents, delta_potential, fermi,
                      init_equilibrium, parse_config, picard_solve, reference_trajectory,
                      run_experiment)
from hartorus import field
from hartorus.field import fftn, ifftn


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(1, 2 * np.pi, 64)
    w = delta_potential(1.0)
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), w, 1e-8)
    spec = BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), mode=4)
    return grid, w, ens, spec


def _z0(eq, spec):
    """Z0, the start of the run minus Y(0): the bump in its mode."""
    z0 = np.zeros((eq.n_modes,) + eq.grid.shape, dtype=complex)
    z0[spec.mode] = spec.field_values(eq.grid)
    return z0


def _zero_pair(op):
    """Zero (Z, V) stacks and a zero integral I, the state picard_solve starts from."""
    Z = np.zeros((op.n_t, op.M) + op.grid.shape, dtype=complex)
    return Z, np.zeros((op.n_t,) + op.grid.shape), np.zeros_like(Z)


def _on_lattice(Z, V, T):
    """The pair (Z, V) as a result on the Picard lattice np.linspace(0, T, len(Z))."""
    return PicardResult(Z=Z, V=V, ts=np.linspace(0.0, T, len(Z)), diff_norms=[], contraction=[],
                        converged=False, diverged=False, n_iterations=0)


def _first_pass(op):
    Z, V, I = _zero_pair(op)
    rows = op.apply(Z, V, I, first=True)
    return Z, V, I, rows


def test_zero_data_is_fixed_point(setup):
    grid, w, ens, spec = setup
    op = PicardOperator(ens, None, T=0.5, n_steps=50)
    Z, V, I, rows = _first_pass(op)
    rows.update(op.apply(Z, V, I))
    assert np.max(np.abs(Z)) == 0.0
    assert np.max(np.abs(V)) == 0.0
    assert np.max(np.abs(I)) == 0.0
    assert all(np.max(v) == 0.0 for v in rows.values())


def test_source_pair_matches_first_iterate(setup):
    # the streamed first pass skips the zero integrand; the batched map of
    # (0, 0) and the batched source pair are its oracles, to the bit
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=0.5, n_steps=50)
    Z, V, I, _ = _first_pass(op)
    assert np.max(np.abs(I)) == 0.0
    Zs, Vs = oracle.source_pair(op)
    assert np.array_equal(Z, Zs)
    assert np.array_equal(V, Vs)
    Z1, V1 = oracle.apply(op, *_zero_pair(op)[:2])
    assert np.array_equal(Z1, Zs)
    assert np.array_equal(V1, Vs)


def test_first_pass_skips_the_integrand(setup, monkeypatch):
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=0.5, n_steps=50)
    calls = []
    duhamel = PicardOperator.duhamel

    def counting(self, s, F, carry=None):
        calls.append(s)
        return duhamel(self, s, F, carry)

    monkeypatch.setattr(PicardOperator, "duhamel", counting)
    Z, V, I, _ = _first_pass(op)
    assert calls == []
    op.apply(Z, V, I)
    assert calls == list(range(op.n_t))


def test_source_pair_is_the_per_slice_free_flow(setup):
    # the free flow S(t_i) Z0 one time slice at a time, as the operator
    # once stored it, is the oracle of the first pass
    grid, w, ens, spec = setup
    z0 = _z0(ens, spec)
    op = PicardOperator(ens, spec, T=0.5, n_steps=50)
    space = tuple(range(1, 1 + grid.d))
    z0_hat = fftn(z0, axes=space)
    SZ0 = np.empty((op.n_t,) + z0.shape, dtype=complex)
    for i, t in enumerate(op.ts):
        ph = np.exp(-1j * t * (ens.m + grid.xi_squared))
        SZ0[i] = ifftn(ph[None] * z0_hat, axes=space, overwrite_x=True)
    assert np.array_equal(_first_pass(op)[0], SZ0)


def test_first_difference_is_the_source_pair(setup):
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=0.5, n_steps=50)
    res = picard_solve(op, max_iters=3)
    assert res.diff_norms[0] == op.pair_norms(_first_pass(op)[3])
    # the first difference spectrum is the source pair's own, not a transform of it
    want = oracle.pair_norms(op, *oracle.source_pair(op))
    for k, v in want.items():
        assert res.diff_norms[0][k] == pytest.approx(v, rel=1e-13, abs=0), k
    assert res.n_iterations == len(res.diff_norms) == len(res.contraction) + 1 == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e300, 1e100, np.inf])
def test_non_finite_difference_halts_as_diverged(setup, amplitude):
    # an overflowing bump gives non-finite difference norms in the first
    # passes: the iteration stops there, diverged, instead of running to
    # max_iters with no finite ratio left and calling that converged
    grid, w, ens, spec = setup
    op = PicardOperator(ens, BumpSpec(amplitude, 0.8, (np.pi,), (1.0,), mode=4), T=0.5, n_steps=5)
    res = picard_solve(op, max_iters=1000)
    assert res.diverged and not res.converged
    assert res.n_iterations <= 2
    assert not np.all(np.isfinite(list(res.diff_norms[-1].values())))


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_streamed_map_matches_batched_oracle(d, N):
    # iterates to the bit; the difference norms to rounding, since the
    # streamed spectrum of Z' - Z is S(t)(-i)(I' - I), not a transform of it
    grid = TorusGrid(d, 2 * np.pi, N)
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    spec = BumpSpec(1e-3, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=4)
    op = PicardOperator(ens, spec, T=0.5, n_steps=20)
    want = oracle.iterate(op, 6)
    Z, V, I = _zero_pair(op)
    for n, (Zw, Vw, nw) in enumerate(want):
        got = op.pair_norms(op.apply(Z, V, I, first=n == 0))
        assert np.array_equal(Z, Zw), n
        assert np.array_equal(V, Vw), n
        for k, v in nw.items():
            assert got[k] == pytest.approx(v, rel=1e-12, abs=1e-15 * want[0][2][k]), (n, k)


_PICARD_D2 = "\n".join([
    "grid.d = 2", "grid.N = 32", "T = 0.25", "picard.steps = 15", "picard.iters = 8",
    "picard.substeps = 5", "f.kind = fermi", "f.T = 1.0", "f.mu = 0.0", "w.kind = delta",
    "pert.amplitude = 1e-3", "pert.center = 2.0,4.0", "pert.carrier = 1.0,-1.0",
    "pert.mode = 7", ""])


def test_picard_op_peaks_at_three_stacks(tmp_path):
    # one picard op at the bench's picard-d2 size: the solve sets the peak
    # (about 2.60 stacks, 2.54 inline: the iterate, the carried integral,
    # the per-slice temporaries and the norm tasks on the pool);
    # the reference adds slices to the held iterate
    cfg = parse_config(_PICARD_D2, "picard")
    M = init_equilibrium(cfg.make_grid(), cfg.make_distribution(), cfg.make_potential(),
                         cfg["theta"])[0].n_modes
    stack = 16 * M * 32 ** 2 * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        env = run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert env.all_passed
    assert peak <= 3 * stack, peak / stack


def _worker_case(d, amplitude=1e-3):
    grid = TorusGrid(d, 2 * np.pi, {1: 64, 2: 16, 3: 8}[d])
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    spec = BumpSpec(amplitude, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=4)
    return PicardOperator(ens, spec, T=1.0 if amplitude > 1 else 0.5, n_steps=20)


@pytest.mark.parametrize("d, amplitude, iters", [(1, 1e-3, 1), (1, 1e-3, 5), (2, 1e-3, 1),
                                                 (2, 1e-3, 5), (3, 1e-3, 1), (3, 1e-3, 4),
                                                 (1, 30.0, 12)])
def test_norm_worker_keeps_the_bits(d, amplitude, iters, cpus):
    # each slice's norms are one task on one thread, collected in slice
    # order: the worker and the inline path give the same bits
    op = _worker_case(d, amplitude)
    cpus(2)
    threaded = picard_solve(op, max_iters=iters)
    assert field._POOL is not None
    cpus(1)
    inline = picard_solve(op, max_iters=iters)
    assert field._POOL is None
    assert threaded.diverged == inline.diverged == (amplitude > 1)
    assert threaded.n_iterations == inline.n_iterations
    assert np.array_equal(threaded.Z, inline.Z)
    assert np.array_equal(threaded.V, inline.V)
    assert threaded.diff_norms == inline.diff_norms
    assert threaded.contraction == inline.contraction


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_zero_half_skip_keeps_the_bits(d, n_cpus, cpus, monkeypatch):
    # the first pass's dz-hat is the bump alone, so one half of each slice
    # gets no weighted transform; the iterates and every norm keep their bits
    op = _worker_case(d)
    cpus(n_cpus)
    got = picard_solve(op, max_iters=3)
    unskipped(monkeypatch)
    want = picard_solve(op, max_iters=3)
    assert np.array_equal(got.Z, want.Z)
    assert np.array_equal(got.V, want.V)
    assert got.diff_norms == want.diff_norms
    assert got.contraction == want.contraction


def test_norm_worker_error_comes_out_of_apply(cpus, monkeypatch):
    op = _worker_case(1)
    want = picard_solve(op, max_iters=3)
    cpus(2)
    err = ValueError("norms of slice 3 of the second pass")
    ingredients = PicardOperator._ingredients
    seen = []

    def failing(self, *args):
        seen.append(threading.current_thread())
        if len(seen) == 25:
            raise err
        return ingredients(self, *args)

    monkeypatch.setattr(PicardOperator, "_ingredients", failing)
    with pytest.raises(ValueError) as exc:
        picard_solve(op, max_iters=3)
    assert exc.value is err
    assert threading.main_thread() not in seen
    monkeypatch.setattr(PicardOperator, "_ingredients", ingredients)
    again = picard_solve(op, max_iters=3)
    assert np.array_equal(again.Z, want.Z)
    assert again.diff_norms == want.diff_norms


def test_one_cpu_starts_no_thread(setup, cpus):
    grid, w, ens, spec = setup
    cpus(1)
    threads = set(threading.enumerate())
    picard_solve(PicardOperator(ens, spec, T=0.5, n_steps=20), max_iters=3)
    assert field._POOL is None
    assert set(threading.enumerate()) == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_worker(setup, cpus):
    # a forked child has the parent's executor but not its thread: its first
    # apply must start a worker of its own, not wait on one that never runs
    grid, w, ens, spec = setup
    cpus(2)
    op = PicardOperator(ens, spec, T=0.5, n_steps=20)
    want = picard_solve(op, max_iters=3)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and skips pytest's teardown
        ok = False
        try:
            got = picard_solve(op, max_iters=3)
            ok = np.array_equal(got.Z, want.Z) and got.diff_norms == want.diff_norms
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], 30)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert ready, "the child's solve waited on the parent's worker"
    assert os.read(read, 1) == b"1"
    os.close(read)


def test_operator_fills_the_lazy_norm_caches():
    # the worker only reads what the operator filled on the main thread
    grid = TorusGrid(2, 2 * np.pi, 16)
    ens, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    op = PicardOperator(ens, None, T=0.5, n_steps=4)
    for name in ("symbols", "bessel"):
        assert name in vars(op.lp), name


def test_contraction_small_data(setup):
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=1.0, n_steps=100)
    res = picard_solve(op, max_iters=6)
    assert res.converged and not res.diverged
    assert max(res.contraction[1:5]) < 0.5


def test_picard_limit_matches_split_step(setup):
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=1.0, n_steps=100)
    res = picard_solve(op, max_iters=8)
    z_gap, v_gap = reference_trajectory(ens, spec, res, substeps=10)
    assert z_gap.shape == v_gap.shape == (op.n_t,)
    assert np.max(z_gap) <= 1e-4
    assert np.max(v_gap) <= 1e-4


def test_reference_gaps_match_a_stored_split_step_stack(setup):
    # the slice-by-slice gaps against the stored-snapshot formula: Z from the
    # deviations, V from |Y + Z|^2 minus the equilibrium density
    grid, w, ens, spec = setup
    op = PicardOperator(ens, spec, T=0.5, n_steps=20)
    res = picard_solve(op, max_iters=4)
    z_gap, v_gap = reference_trajectory(ens, spec, res, substeps=3)
    stream = [(t, u) for t, u, _ in stream_oracle.observations(ens, spec, 0.5, 0.5 / 60, 3)]
    Zref = np.stack([u - ens.equilibrium_at(t) for t, u in stream])
    Vref = np.stack([np.sum(np.abs(ens.equilibrium_at(t) + Zref[i]) ** 2, axis=0)
                     - np.sum(ens.weights ** 2) for i, (t, _) in enumerate(stream)])
    assert np.array_equal(z_gap, np.sqrt(np.sum(np.abs(res.Z - Zref) ** 2, axis=(1, 2)) * grid.dx))
    assert v_gap == pytest.approx(np.max(np.abs(res.V - Vref), axis=1), rel=0, abs=1e-14)


def test_reference_phase_adds_half_a_stack_to_the_iterate():
    # at the picard-d2 size, nothing of the split-step run is stored: its
    # state, carried spectrum and window temporaries are slices of the
    # (n_t, M, *grid) iterate the caller holds
    cfg = parse_config(_PICARD_D2, "picard")
    eq, _ = init_equilibrium(cfg.make_grid(), cfg.make_distribution(), cfg.make_potential(),
                             cfg["theta"])
    bump = BumpSpec(1e-3, 0.8, (2.0, 4.0), (1.0, -1.0), mode=7)
    n_t = cfg["picard.steps"] + 1
    Z = np.zeros((n_t, eq.n_modes) + eq.grid.shape, dtype=complex)
    V = np.zeros((n_t,) + eq.grid.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        z_gap, _ = reference_trajectory(eq, bump, _on_lattice(Z, V, cfg["T"]),
                                        substeps=cfg["picard.substeps"])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.all(z_gap > 0)
    assert peak <= 0.5 * Z.nbytes, peak / Z.nbytes


def test_reference_trajectory_aborts_on_nonfinite(setup):
    grid, w, ens, spec = setup
    bad = BumpSpec(np.nan, 0.8, (np.pi,), (1.0,), mode=4)
    Z = np.zeros((11, ens.n_modes) + grid.shape, dtype=complex)
    with pytest.raises(FloatingPointError, match="non-finite"):
        reference_trajectory(ens, bad, _on_lattice(Z, np.zeros((11,) + grid.shape), 0.1), substeps=2)


def test_bump_off_the_modes_is_refused(setup):
    grid, w, ens, spec = setup
    with pytest.raises(ValueError, match="mode index"):
        PicardOperator(ens, BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), mode=-1), T=0.5, n_steps=5)


def test_divergence_flagged(setup):
    grid, w, ens, spec = setup
    # amplitude far outside the smallness regime blows the quadratic term up
    op = PicardOperator(ens, BumpSpec(30.0, 0.8, (np.pi,), (1.0,), mode=4), T=1.0, n_steps=60)
    res = picard_solve(op, max_iters=12)
    assert res.diverged
    assert not res.converged


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16)])
def test_pair_norms_are_time_norms_of_stacked_ingredients(d, N):
    grid = TorusGrid(d, 2 * np.pi, N)
    w = delta_potential(1.0)
    eq, _ = init_equilibrium(grid, fermi(1.0, 0.0), w, 1e-8)
    op = PicardOperator(eq, None, T=0.3, n_steps=3)
    rng = np.random.default_rng(d)
    shape = (op.n_t, op.M) + grid.shape
    Z = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    zero = np.zeros(grid.shape)
    slices = []
    for i in range(op.n_t):
        hat = fftn(Z[i], axes=op.space_axes)
        one = stack_norms(LittlewoodPaley(grid), Z[i], hat)
        ing = op._ingredients(Z[i], hat, zero)
        for k in ("l2", "l_dplus2", "w_sp", "besov_q"):
            assert ing[k] == pytest.approx(one[k], rel=1e-14, abs=0), k
        slices.append(ing)
    rows = {k: np.array([ing[k] for ing in slices]) for k in slices[0]}

    def time_norm(vals, power):
        return np.trapezoid(vals ** power, dx=op.dt) ** (1.0 / power)

    got = op.pair_norms(rows)
    assert got["z_sup_l2"] == np.max(rows["l2"])
    assert got["z_l_dplus2"] == time_norm(rows["l_dplus2"], d + 2)
    assert got["z_lp_wsp"] == time_norm(rows["w_sp"], critical_exponents(d)["p"])
    assert got["z_l4_besov"] == time_norm(rows["besov_q"], 4)
    assert got["v_l_half"] == got["v_l2_besov"] == 0.0


@pytest.mark.parametrize("d, N", [(1, 64), (2, 16), (3, 8)])
def test_pair_norms_of_constant_potential_match_norms_module(d, N):
    # V constant in time: its window norms are T^{1/p} times the one-field norms
    grid = TorusGrid(d, 2 * np.pi, N)
    eq, _ = init_equilibrium(grid, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    T = 0.3
    op = PicardOperator(eq, None, T=T, n_steps=3)
    fld = SpectralField(grid, values=np.random.default_rng(d).standard_normal(grid.shape))
    dz = np.zeros((op.M,) + grid.shape, dtype=complex)
    one = op._ingredients(dz, dz.copy(), fld.values.real)
    got = op.pair_norms({k: np.full(op.n_t, v) for k, v in one.items()})
    vp = (d + 2) / 2.0
    assert got["v_l_half"] == pytest.approx(T ** (1 / vp) * lebesgue_norm(fld, vp), rel=1e-13)
    assert got["v_l2_besov"] == pytest.approx(T ** 0.5 * besov_norm(fld, 2, -0.5, 0.0), rel=1e-13)
    V = np.broadcast_to(fld.values.real, (op.n_t,) + grid.shape)
    assert got == pytest.approx(oracle.pair_norms(op, _zero_pair(op)[0], V), rel=1e-13)
