"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).

Criterion 4's tau-decay of the multiplier has three regimes.  Writing the
sine in m_f as two exponentials, each half-line transform of h(2|xi|t)
starts as h(0)/(i(tau -+ |xi|^2)), so wherever |tau -+ |xi|^2| >> |xi|

    m_f(tau, xi) ~ 2 |xi|^2 h(0) / (tau^2 - |xi|^4).

- At fixed xi, |m_f| decays like tau^-2; test_response's
  test_mf_decay_slope_is_quadratic checks that slope.
- Along the ray tau = c|xi|^2 with c > 1, |m_f| decays like 1/tau with
  tau|m_f| -> 2c h(0)/(c^2 - 1); test_c04_decay_slope_as_stated checks the
  slope -1 +- 0.1 on c = 4 and the limit (8/15) h(0) to 1%.
- At the resonance tau = |xi|^2, |m_f| decays like tau^-1/2; there the
  weight (1+|tau|)/(1+|xi|) of decay_bound_check is tight, and
  test_response's test_decay_bound_check checks that the weighted sup is
  finite and stable under grid refinement.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import dawsn

import hartorus as ht
from hartorus.ensemble import _record
from hartorus.field import fftn
from hartorus.lpaley import dyadic_norm
from hartorus.runner import _bernstein_ratio, _parseval_defect
from l1_oracle import apply_L1_frequency_domain, apply_L1_time_domain
from stack_norms import keeping_fields


def report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# -- criterion 1: equilibrium invariance ------------------------------------

def test_c01_equilibrium_invariance():
    start = time.perf_counter()
    grid = ht.TorusGrid(1, 2 * np.pi, 64)
    ens, _ = ht.init_equilibrium(grid, ht.fermi(1.0, 0.0), ht.delta_potential(1.0), 1e-8)
    stream, u = keeping_fields(ens, ht.observations(ens, None, 1.0, 1e-3, obs_stride=10))
    traj = _record(ens, stream)
    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / m0))
    dens = float(np.max(traj.density_extrema[:, 1] - traj.density_extrema[:, 0]))
    # u holds the fields of the last observation
    amp = float(np.max(np.abs(np.abs(u) - ens.weights[:, None])))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-10 and dens <= 1e-8 and amp <= 1e-12 and elapsed < 60
    assert report("C1 equilibrium invariance", ok,
                  f"mass drift {drift:.2e}, density dev {dens:.2e}, amp dev {amp:.2e}, {elapsed:.1f}s")
    assert drift <= 1e-10
    assert dens <= 1e-8
    assert amp <= 1e-12
    assert elapsed < 60


# -- criterion 2: two-wave instability ---------------------------------------

def test_c02_two_wave_instability():
    start = time.perf_counter()
    params = ht.TwoWaveParams(xi=[1.0], m=1.0, w=ht.delta_potential(1.0))
    rs = np.linspace(0.05, 3.0, 512)
    band = ht.unstable_band(params, rs)
    cell = (rs[-1] - rs[0]) / (len(rs) - 1)
    endpoints_ok = (band.band is not None
                    and abs(band.band[0] - math.sqrt(2.0)) <= cell
                    and abs(band.band[1] - 2.0) <= cell)

    grid = ht.TorusGrid(1, 16 * np.pi, 256)
    kstar = ht.most_unstable_ray_frequency(params)
    k_lattice = grid.nearest_lattice_xi(kstar)
    growth_at_kstar = float(np.max(ht.closed_form_spectrum(params, k_lattice).real))

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 5))
        p = ht.TwoWaveParams(xi=rng.uniform(-2, 2, d), m=rng.uniform(0, 4),
                             w=ht.delta_potential(rng.uniform(-1.5, 1.5)))
        k = rng.uniform(-4, 4, d)
        worst = max(worst, ht.multiset_distance(ht.closed_form_spectrum(p, k),
                                                ht.eigensolver_spectrum(p, k)))

    fit = ht.simulate_linearized(params, grid, kstar, T=24.0, n_samples=400, seed=1)
    rate_ok = fit.predicted_rate > 0 and abs(fit.rate - fit.predicted_rate) <= 0.05 * fit.predicted_rate
    elapsed = time.perf_counter() - start
    ok = endpoints_ok and growth_at_kstar > 0 and worst <= 1e-10 and rate_ok and elapsed < 120
    assert report("C2 two-wave instability", ok,
                  f"band {band.band}, growth(k*) {growth_at_kstar:.3f}, fuzz {worst:.2e}, "
                  f"rate {fit.rate:.4f} vs {fit.predicted_rate:.4f}, {elapsed:.1f}s")
    assert endpoints_ok
    assert growth_at_kstar > 0
    assert worst <= 1e-10
    assert rate_ok
    assert elapsed < 120


# -- criterion 3: imaginary-spectrum cases -----------------------------------

def test_c03_imaginary_spectrum():
    rng = np.random.default_rng(5)
    worst_m0 = 0.0
    ks = np.linspace(1e-3, 8.0, 1000)
    xi = rng.uniform(-2, 2, size=2)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    p_m0 = ht.TwoWaveParams(xi=xi, m=0.0, w=ht.delta_potential(1.0))
    for k in ks:
        lam = ht.closed_form_spectrum(p_m0, k * direction)
        worst_m0 = max(worst_m0, float(np.max(np.abs(lam.real))))

    worst_xi0 = 0.0
    for w in (ht.delta_potential(1.0), ht.gaussian_potential(2.0, 0.7)):
        p_xi0 = ht.TwoWaveParams(xi=[0.0, 0.0], m=1.5, w=w)
        for k in ks:
            lam = ht.closed_form_spectrum(p_xi0, k * direction)
            worst_xi0 = max(worst_xi0, float(np.max(np.abs(lam.real))))

    grid = ht.TorusGrid(1, 16 * np.pi, 256)
    fit_m0 = ht.simulate_linearized(ht.TwoWaveParams(xi=[1.0], m=0.0, w=ht.delta_potential(1.0)),
                                    grid, [1.5], T=24.0, seed=1)
    fit_xi0 = ht.simulate_linearized(ht.TwoWaveParams(xi=[0.0], m=1.0, w=ht.delta_potential(1.0)),
                                     grid, [1.0], T=24.0, seed=1)
    ok = (worst_m0 <= 1e-10 and worst_xi0 <= 1e-10
          and abs(fit_m0.rate) <= 1e-8 and abs(fit_xi0.rate) <= 1e-8)
    assert report("C3 imaginary spectrum", ok,
                  f"max|Re| m=0 {worst_m0:.1e}, xi=0 {worst_xi0:.1e}, "
                  f"rates {fit_m0.rate:.1e}/{fit_xi0.rate:.1e}")
    assert worst_m0 <= 1e-10
    assert worst_xi0 <= 1e-10
    assert abs(fit_m0.rate) <= 1e-8
    assert abs(fit_xi0.rate) <= 1e-8


# -- criterion 4: the multiplier ----------------------------------------------

@pytest.fixture(scope="module")
def gauss_cov3():
    return ht.CovarianceProfile(ht.gaussian_f2(), 3)


def test_c04_multiplier_oracle_and_symmetry(gauss_cov3):
    start = time.perf_counter()
    val = ht.compute_mf_batch(gauss_cov3, [0.0], [1.0])[0][0, 0]
    oracle = -2.0 * math.pi ** 1.5 * float(dawsn(0.5))
    dawson_ok = abs(val - oracle) <= 1e-6

    grid = ht.TorusGrid(3, 2 * np.pi, 16)
    taus = ht.default_tau_grid(32.0, 1e-2, 12)
    xis = np.concatenate([[0.0], np.linspace(grid.xi_min, grid.nyquist, 12)])
    table = ht.MultiplierTable.build(gauss_cov3, taus, xis)
    zero_exact = float(np.max(np.abs(table.values[:, 0]))) == 0.0
    sym = table.conjugate_symmetry_defect()
    sym_ok = sym <= 2.0 * max(table.max_error(), 1e-12)
    elapsed = time.perf_counter() - start
    ok = dawson_ok and zero_exact and sym_ok and elapsed < 120
    assert report("C4 multiplier (oracle, zero column, symmetry)", ok,
                  f"dawson diff {abs(val - oracle):.2e}, sym {sym:.2e}, {elapsed:.1f}s")
    assert dawson_ok
    assert zero_exact
    assert sym_ok
    assert elapsed < 120


def test_c04_decay_slope_as_stated(gauss_cov3):
    # stated tolerance: log-log slope in tau equals -1 +- 0.1, measured on
    # the ray tau = 4|xi|^2 where m_f has its 1/tau rate (module docstring)
    xis = np.array([2.0, 4.0, 8.0, 16.0])
    taus = 4.0 * xis ** 2
    mags = np.array([abs(ht.compute_mf_batch(gauss_cov3, [t], [x])[0][0, 0])
                     for t, x in zip(taus, xis)])
    slope = float(np.polyfit(np.log(taus), np.log(mags), 1)[0])
    # closed form of tau |m_f| on the ray tau = c|xi|^2: 2c h(0)/(c^2-1), c = 4
    ratio = float(taus[-1] * mags[-1] / (8.0 / 15.0 * gauss_cov3.h0))
    slope_ok = abs(slope - (-1.0)) <= 0.1
    limit_ok = abs(ratio - 1.0) <= 0.01
    assert report("C4 decay slope on tau = 4|xi|^2 (-1 +- 0.1)", slope_ok and limit_ok,
                  f"measured slope {slope:.3f}, tau|m_f| / (8/15 h(0)) at |xi|=16 {ratio:.4f}")
    assert slope_ok, f"measured log-log slope {slope:.3f}"
    assert limit_ok, f"tau|m_f| / (8/15 h(0)) = {ratio:.4f}"


# -- criterion 5: the two operator representations ----------------------------

def test_c05_response_operator_representations():
    grid = ht.TorusGrid(1, 2 * np.pi, 16)
    cov = ht.CovarianceProfile(ht.gaussian_f2(), 1)
    w = ht.delta_potential(1.0)
    n_t, T = 1024, 8.0
    ts = np.linspace(0, T, n_t)
    rng = np.random.default_rng(3)
    V = np.zeros((n_t, 16))
    for k in (-3, -2, -1, 0, 1, 2, 3):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        V += np.outer(np.sin(np.pi * ts / T) ** 2 * np.cos(0.7 * k * ts + 0.3),
                      (c * np.exp(1j * k * grid.x_axis)).real)
    V /= np.max(np.abs(V))
    out_t = apply_L1_time_domain(V.astype(complex), ts, cov, w, grid)
    out_f = apply_L1_frequency_domain(V.astype(complex), ts, cov, w, grid)
    diff = float(np.max(np.abs(out_t - out_f)))
    ok = diff <= 1e-4
    assert report("C5 response operator representations", ok, f"sup diff {diff:.2e}")
    assert diff <= 1e-4


# -- criterion 6: stability margin ---------------------------------------------

def test_c06_stability_margin():
    cov = ht.CovarianceProfile(ht.fermi(1.0, 0.0), 4)
    grid = ht.TorusGrid(4, 2 * np.pi, 8)
    table = ht.MultiplierTable.build(cov, ht.default_tau_grid(32.0, 1e-2, 10),
                                     np.linspace(grid.xi_min, grid.nyquist, 10))
    margin0 = ht.stability_margin(table, ht.zero_potential()).margin
    exact_one = margin0 == 1.0

    a_max = 1.0
    coarse = [ht.stability_margin(table, ht.delta_potential(a)).margin
              for a in (0.0, 0.25 * a_max, 0.5 * a_max, a_max)]
    diffs = []
    for n in (5, 9, 17, 33):
        a_grid = np.linspace(0.0, a_max, n)
        ms = [ht.stability_margin(table, ht.delta_potential(a)).margin for a in a_grid]
        diffs.append(float(np.max(np.abs(np.diff(ms)))))
    shrinking = all(diffs[i + 1] <= 0.75 * diffs[i] + 1e-12 for i in range(len(diffs) - 1))

    sup = table.sup_abs()
    below = ht.stability_margin(table, ht.delta_potential(0.9 / sup)).margin
    ok = exact_one and shrinking and below > 0 and all(np.isfinite(coarse))
    assert report("C6 stability margin", ok,
                  f"margin(0)={margin0}, diffs {['%.3f' % d for d in diffs]}, "
                  f"margin(0.9/sup)={below:.3f}")
    assert exact_one
    assert shrinking
    assert below > 0


# -- criterion 7: fixed-point contraction ---------------------------------------

def test_c07_picard_contraction():
    grid = ht.TorusGrid(1, 2 * np.pi, 64)
    w = ht.delta_potential(1.0)
    ens, _ = ht.init_equilibrium(grid, ht.fermi(1.0, 0.0), w, 1e-8)
    spec = ht.BumpSpec(1e-3, 0.8, (np.pi,), (1.0,), mode=4)
    op = ht.PicardOperator(ens, spec, T=1.0, n_steps=200)
    z0_norm = float(np.sqrt(np.sum(np.abs(spec.field_values(grid)) ** 2) * grid.dx))
    res = ht.picard_solve(op, max_iters=8)
    factor = max(res.contraction[1:5])

    z_gap, _ = ht.reference_trajectory(ens, spec, res, substeps=5)
    sup = float(np.max(z_gap))
    ok = factor < 0.5 and sup <= 1e-4 and res.converged and not res.diverged
    assert report("C7 fixed-point contraction", ok,
                  f"||Z0||={z0_norm:.1e}, factors 2-5 max {factor:.3f}, "
                  f"sup diff vs split-step {sup:.2e}")
    assert factor < 0.5
    assert sup <= 1e-4


# -- criterion 8: conservation and order -----------------------------------------

def test_c08_conservation_and_order():
    grid = ht.TorusGrid(1, 2 * np.pi, 64)
    ens, _ = ht.init_equilibrium(grid, ht.fermi(1.0, 0.0), ht.delta_potential(1.0), 1e-8)
    bump = ht.BumpSpec(0.2, 0.8, (np.pi,), (1.0,), mode=4)

    traj = ht.evolve(ens, bump, 1.0, 1e-3, obs_stride=50)  # 10^3 steps
    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / m0))

    def energy_drift(dt):
        tr = ht.evolve(ens, bump, 0.5, dt, obs_stride=5)
        return float(np.max(np.abs(tr.energies - tr.energies[0])))

    ratio = energy_drift(4e-3) / energy_drift(2e-3)
    ok = drift <= 1e-10 and 3.2 <= ratio <= 4.8
    assert report("C8 conservation and order", ok,
                  f"mass drift {drift:.2e}, energy ratio {ratio:.3f}")
    assert drift <= 1e-10
    assert 3.2 <= ratio <= 4.8


# -- criterion 9: dispersive-decay proxy -------------------------------------------

def test_c09_scattering_proxy():
    grid = ht.TorusGrid(2, 16 * np.pi, 64)
    # weak uniform background: with a strong one the linearized response
    # keeps pumping L2-sized increments and the free-unwound Cauchy proxy
    # provably stalls, so the dispersive property is probed where visible
    f = ht.custom_radial(lambda r: 6.4e-5 * np.exp(-(np.asarray(r) / 1e-2) ** 2),
                         support_hint=0.1)
    spec = ht.BumpSpec(1e-2, 2.0, (grid.L / 2, grid.L / 2), (0.5, 0.0), mode=0)

    ens, _ = ht.init_equilibrium(grid, f, ht.delta_potential(1.0), 1e-12)
    rpt = ht.scattering_probe(ens, ht.observations(ens, spec, 12.0, 5e-3, 200),
                              ball_center=(grid.L / 2, grid.L / 2))

    ens0, _ = ht.init_equilibrium(grid, f, ht.zero_potential(), 1e-12)
    rpt0 = ht.scattering_probe(ens0, ht.observations(ens0, spec, 12.0, 5e-3, 200),
                               ball_center=(grid.L / 2, grid.L / 2))
    control = float(np.max(rpt0.cauchy))

    ok = (rpt.cauchy_decreasing and rpt.mass_decreasing and not rpt.window_warning
          and control <= 1e-10)
    assert report("C9 dispersive-decay proxy", ok,
                  f"cauchy dec {rpt.cauchy_decreasing}, mass dec {rpt.mass_decreasing}, "
                  f"control {control:.1e}, window {rpt.times[-1]:.0f} < "
                  f"recurrence {rpt.recurrence_time:.0f}")
    assert rpt.cauchy_decreasing
    assert rpt.mass_decreasing
    assert not rpt.window_warning
    assert control <= 1e-10


# -- criterion 10: toolbox suite ------------------------------------------------------

def test_c10_toolbox():
    # the norms experiment's array path: one field at a time, blocks from the
    # cached LittlewoodPaley symbols, the dyadic sum of the deviation norms
    grid = ht.TorusGrid(1, 16 * np.pi, 128)
    lp = ht.LittlewoodPaley(grid)
    rng = np.random.default_rng(11)

    def draw(g):
        re = rng.standard_normal(g.shape)
        return re + 1j * rng.standard_normal(g.shape)

    parseval = max(_parseval_defect(grid, draw(grid)) for _ in range(10))

    part = lp.partition_values()
    r = grid.xi_norm
    partition = float(np.max(np.abs(part[r > 0] - 1.0)))

    g2 = ht.TorusGrid(1, 64.0, 512)
    lp2 = ht.LittlewoodPaley(g2)
    ratios = [_bernstein_ratio(lp2, draw(g2), j) for j in lp2.j_resolvable]
    spread = max(ratios) / min(ratios)

    violations = 0
    for _ in range(1000):
        u = draw(grid)
        s1 = rng.uniform(-1.5, 1.5)
        s2 = s1 + rng.uniform(0, 1.5)
        t1 = rng.uniform(-1.5, 1.5)
        t2 = t1 - rng.uniform(0, 1.5)
        blocks = lp.block_norms(fftn(u), float(rng.choice([1.0, 2.0, 4.0])))
        if dyadic_norm(blocks, s2, t2) > dyadic_norm(blocks, s1, t1) * (1 + 1e-12):
            violations += 1

    ok = parseval <= 1e-12 and partition <= 1e-12 and spread < 10 and violations == 0
    assert report("C10 toolbox", ok,
                  f"parseval {parseval:.1e}, partition {partition:.1e}, "
                  f"bernstein spread {spread:.2f}, besov violations {violations}")
    assert parseval <= 1e-12
    assert partition <= 1e-12
    assert spread < 10
    assert violations == 0
