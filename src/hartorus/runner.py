"""Experiment dispatch, result persistence, and envelopes.

Payload files (NDJSON time series, CSV tables, SVG plots) are byte
deterministic for a fixed config and seed; wall-clock and the SVG
timestamp comment live outside the deterministic surface.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .ensemble import (BumpSpec, _dyadic_blocks, _dyadic_norm, _lebesgue, _mode_chunks, _record,
                       _step_count, cell_masses, deviation_chunks, evolve, init_equilibrium,
                       observations, scattering_probe)
from .equilibrium import CovarianceProfile, equilibrium_mass, hypothesis_check
from .field import fftn, ifftn, ordered_map
from .lpaley import LittlewoodPaley
from .picard import PicardOperator, picard_solve, reference_trajectory
from .response import (MultiplierTable, decay_bound_check, decay_slope, default_tau_grid,
                       default_xi_grid, epsilon_g, stability_margin)
from .svgplot import emit_plot
from .twowave import (TwoWaveParams, fuzz_max_distance, most_unstable_ray_frequency,
                      simulate_linearized, unstable_band)


def _g17(x) -> str:
    return format(float(x), ".17g")


def write_ndjson(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, allow_nan=True, default=lambda v: v.tolist()) + "\n")


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_g17(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class ResultEnvelope:
    kind: str
    config_echo: str
    version: str
    seed: int
    wall_clock_s: float
    payloads: list           # [{"path":..., "sha256":...}]
    verdicts: dict           # name -> bool

    @property
    def all_passed(self) -> bool:
        return all(self.verdicts.values())

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "version": self.version,
            "seed": self.seed,
            "wall_clock_s": self.wall_clock_s,
            "verdicts": self.verdicts,
            "payloads": self.payloads,
            "config_echo": self.config_echo,
        }, indent=2)


def _tau_grid(cfg: RunConfig):
    return default_tau_grid(cfg["tau.max"], cfg["tau.min"], cfg["tau.count"])


def _equilibrium(cfg: RunConfig):
    """(ens, InitReport) of the configured equilibrium."""
    return init_equilibrium(cfg.make_grid(), cfg.make_distribution(), cfg.make_potential(),
                            cfg["theta"])


def _perturbed_equilibrium(cfg: RunConfig):
    """(eq, bump): the configured equilibrium and the bump of its start."""
    return _equilibrium(cfg)[0], BumpSpec(
        amplitude=cfg["pert.amplitude"], width=cfg["pert.width"], center=cfg["pert.center"],
        carrier=cfg["pert.carrier"], mode=cfg["pert.mode"])


# ---------------------------------------------------------------------------
# individual experiments; each returns (records for ndjson, files, verdicts)


def _trajectory(traj, out):
    """Write traj's records to trajectory.ndjson; returns (path, mass drift),
    the drift the largest relative change of a mode mass (0 with no modes)."""
    records = []
    for i, t in enumerate(traj.times):
        rec = {"t": float(t), "energy": float(traj.energies[i]),
               "density_min": float(traj.density_extrema[i, 0]),
               "density_max": float(traj.density_extrema[i, 1]),
               "mode_mass": [float(x) for x in traj.mode_masses[i]]}
        if traj.norms:
            rec["norms"] = {k: float(v[i]) for k, v in sorted(traj.norms.items())}
        records.append(rec)
    path = out / "trajectory.ndjson"
    write_ndjson(path, records)
    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / np.maximum(m0, 1e-300))) if m0.size else 0.0
    return path, drift


def _exp_equilibrium_check(cfg, out, seed):
    ens, report = _equilibrium(cfg)
    grid, a = ens.grid, ens.weights
    last = len(range(0, _step_count(cfg["T"], cfg["dt"]), cfg["obs.stride"]))
    dev = [0.0, 0.0]  # the amplitude deviation and the gauge residual at the last time

    def unwound(t, chunks):
        # unwinding the exact phases must reproduce the t=0 state: the last
        # observation's fields, read a chunk of modes at a time as they go by
        for modes, hat, u in chunks:
            dev[0] = max(dev[0], float(np.max(np.abs(np.abs(u) - a[(modes,) + (None,) * grid.d]))))
            dev[1] = max(dev[1], float(np.max(np.abs(u - ens.equilibrium_at(t, modes)))))
            yield modes, hat, u

    stream = observations(ens, None, cfg["T"], cfg["dt"], cfg["obs.stride"])
    traj = _record(ens, ((t, unwound(t, c) if i == last else c) for i, (t, c) in enumerate(stream)))
    path, drift = _trajectory(traj, out)
    dens_dev = float(np.max(traj.density_extrema[:, 1] - traj.density_extrema[:, 0]))
    amp_dev, gauge_residual = dev

    summary = {"n_modes": ens.n_modes, "m_lattice": ens.m,
               "m_quadrature": equilibrium_mass(cfg.make_distribution(), ens.w, grid.d),
               "truncated_mass": report.truncated_mass,
               "truncated_fraction": report.truncated_fraction,
               "mass_drift": drift, "density_deviation": dens_dev,
               "amplitude_deviation": amp_dev, "gauge_residual": gauge_residual}
    spath = out / "summary.ndjson"
    write_ndjson(spath, [summary])
    verdicts = {
        "mass_drift_below_1e-10": drift <= 1e-10,
        "density_deviation_below_1e-8": dens_dev <= 1e-8,
        "amplitude_deviation_below_1e-12": amp_dev <= 1e-12,
    }
    return [path, spath], verdicts


def _exp_simulate(cfg, out, seed):
    eq, bump = _perturbed_equilibrium(cfg)
    traj = evolve(eq, bump, cfg["T"], cfg["dt"], obs_stride=cfg["obs.stride"])
    path, drift = _trajectory(traj, out)
    cpath = out / "density_final.csv"
    write_csv(cpath, ["flat_index", "density"],
              [(i, float(v)) for i, v in enumerate(traj.density.ravel())])
    verdicts = {"fields_finite": True, "mass_drift_below_1e-10": drift <= 1e-10}
    return [path, cpath], verdicts


def _exp_linear_response(cfg, out, seed):
    grid = cfg.make_grid()
    cov = CovarianceProfile(cfg.make_distribution(), grid.d)
    taus = _tau_grid(cfg)
    xis = np.concatenate([[0.0], default_xi_grid(grid, cfg["xi.count"])])
    table = MultiplierTable.build(cov, taus, xis)
    rows = []
    for i, tau in enumerate(table.taus):
        for j, xi in enumerate(table.xis):
            rows.append((float(tau), float(xi), float(table.values[i, j].real),
                         float(table.values[i, j].imag), float(table.errors[i, j])))
    cpath = out / "multiplier_table.csv"
    write_csv(cpath, ["tau", "xi_abs", "re_mf", "im_mf", "err_estimate"], rows)

    decay = decay_bound_check(table)
    # window tau = 4|xi|^2 ... 64|xi|^2, above the resonance tau = |xi|^2
    xi_slope = float(table.xis[-1]) / 2.0
    slope, staus, smags = decay_slope(cov, xi_abs=xi_slope, tau_base=4.0 * xi_slope ** 2)
    zero_col = float(np.max(np.abs(table.values[:, 0])))
    sym_defect = table.conjugate_symmetry_defect()
    tol = max(2.0 * table.max_error(), 1e-12)
    report = {"decay_sup": decay.sup_value, "decay_arg_tau": decay.arg_tau,
              "decay_arg_xi": decay.arg_xi, "tau_slope": slope,
              "conjugate_symmetry_defect": sym_defect, "zero_xi_max": zero_col,
              "max_quadrature_error": table.max_error()}
    rpath = out / "response_report.ndjson"
    write_ndjson(rpath, [report])
    fpath = out / "decay.svg"
    svg = emit_plot([("decay", staus, smags)],
                    {"title": "multiplier decay", "xlabel": "tau", "ylabel": "|m_f|",
                     "logy": True, "checksum": _config_checksum(cfg)})
    fpath.write_text(svg, encoding="utf-8")
    verdicts = {
        "zero_frequency_column_exact": zero_col == 0.0,
        "conjugate_symmetry_within_2x_error": sym_defect <= tol,
        "decay_sup_finite": decay.finite,
    }
    return [cpath, rpath, fpath], verdicts


def _exp_stability_check(cfg, out, seed):
    grid, w = cfg.make_grid(), cfg.make_potential()
    cov = CovarianceProfile(cfg.make_distribution(), grid.d)
    taus, xis = _tau_grid(cfg), default_xi_grid(grid, cfg["xi.count"])

    def task(_, part):
        # the m_f work reads the line table, the h table task only _panels and
        # _table: no cached property is built by both; a refused table is
        # returned, and hypothesis_check marks its bullets indeterminate
        if part == "m_f":
            return stability_margin(MultiplierTable.build(cov, taus, xis), w), epsilon_g(cov)
        try:
            return cov.spline
        except ValueError as exc:
            return exc

    (margin, eps), _ = ordered_map(task, ("m_f", "h table"))
    bullets = hypothesis_check(cov, w, epsilon_g=eps.value)
    rec = {"margin": margin.margin, "argmin_tau": margin.arg_tau, "argmin_xi": margin.arg_xi,
           "sup_w_mf": margin.sup_wmf, "two_sphere_area": margin.two_sphere_area,
           "epsilon_g": eps.value, "epsilon_g_converged": eps.converged,
           "epsilon_g_shells": eps.shell_minima,
           "scattering_regime_d_ge_4": cov.d >= 4,
           "hypothesis_bullets": [
               {"name": b.name, "passed": b.passed, "value": b.value,
                "threshold": b.threshold, "note": b.note} for b in bullets]}
    path = out / "stability.ndjson"
    write_ndjson(path, [rec])
    verdicts = {"margin_positive": margin.positive}
    return [path], verdicts


def _exp_instability(cfg, out, seed):
    xi = np.asarray(cfg["twowave.xi"], dtype=float)
    params = TwoWaveParams(xi=xi, m=cfg["twowave.m"], w=cfg.make_potential())
    rs = np.linspace(cfg["scan.rmin"], cfg["scan.rmax"], cfg["scan.count"])
    band = unstable_band(params, rs)
    ims = np.sort(band.spectra.imag, axis=1, kind="stable")  # 0.0 and -0.0 keep their order
    rows = [(k, g, *im) for k, g, im in zip((band.r_grid * params.xi_abs).tolist(),
                                            band.growth.tolist(), ims.tolist())]
    cpath = out / "dispersion.csv"
    write_csv(cpath, ["k_abs", "re_lambda_max", "im_lambda_1", "im_lambda_2",
                      "im_lambda_3", "im_lambda_4"], rows)

    worst = fuzz_max_distance(params.w, len(xi), cfg["fuzz.count"], seed)
    verdicts = {"spectra_agree_1e-10": worst <= 1e-10}
    sim_rec = {"fuzz_max_distance": worst, "band": band.band,
               "predicted_band": band.predicted_band,
               "max_growth": band.max_growth, "arg_r": band.arg_r}
    kstar = most_unstable_ray_frequency(params)
    if band.band is not None and kstar is not None:
        grid = cfg.make_grid()
        fit = simulate_linearized(params, grid, kstar, T=cfg["T"], seed=seed)
        sim_rec.update({"sim_rate": fit.rate, "sim_predicted": fit.predicted_rate,
                        "sim_residual": fit.residual, "sim_k": [float(v) for v in fit.k_used],
                        "sim_discrepancy": fit.discrepancy})
        verdicts["growth_rate_within_5pc"] = (
            fit.predicted_rate > 0 and abs(fit.rate - fit.predicted_rate) <= 0.05 * fit.predicted_rate)
        verdicts["no_sim_discrepancy"] = not fit.discrepancy
    rpath = out / "instability.ndjson"
    write_ndjson(rpath, [sim_rec])
    svg = emit_plot([("max Re lambda", [r[0] for r in rows], [r[1] for r in rows])],
                    {"title": "two-wave dispersion", "xlabel": "|k|",
                     "ylabel": "max Re lambda", "markers": False,
                     "band": tuple(v * params.xi_abs for v in band.band) if band.band else None,
                     "checksum": _config_checksum(cfg)})
    spath = out / "dispersion.svg"
    spath.write_text(svg, encoding="utf-8")
    return [cpath, rpath, spath], verdicts


class PreflightError(RuntimeError):
    """A config its experiment cannot run, found before anything is computed."""


class MemoryPreflightError(PreflightError):
    """A run whose estimated peak memory exceeds what the host has available."""


def mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes; None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


# traced peak of a run, measured with tracemalloc.  A stream experiment holds
# whole (M, *grid) complex stacks (the stream's buffer; the probe adds its
# previous unwound deviation), up to _CHUNK_TEMPS mode chunks of temporaries,
# _GRID_TEMPS complex grids and _BASE_BYTES of small objects.  The chunks in
# flight: the step's |u|^2 rows (half a chunk per pool thread) with two
# CPUs; in an observation the fields and the deviation of one chunk, the
# norms' half-chunk transforms and rows (1.5 chunks for two threads) and one
# chunk's |x|^2 rows, the pool's buffers made per chunk by ordered_map.
# Measured beyond the stacks and grids: 1.6-2.9 chunks with one CPU and
# 1.6-3.6 with two over the three experiments at d=3, N=16 (M=341, 11
# chunks), d=4, N=8 (M=137, 5 chunks), d=2, N=32 (M=61) and d=4, N=8 (M=9, one
# chunk each).  equilibrium-check 1.29, simulate 1.37 (1.30 on one CPU) and
# scattering-probe 2.31 stacks at d=3, N=16, none growing with the
# observation count; at M = 1..61 the chunk, grid and fixed terms are most of
# the peak.
# picard holds two (n_t, M, *grid) time stacks (the iterate, the carried
# integral), a symbol and a potential grid per time, and slice temporaries with
# the norm tasks on the pool: 2 n_t + 7.98-8.75 slices at d=3, N=16,
# M=341, picard.steps = 2..16 (7.98 inline).  _PROCESS_BYTES is the RSS of the
# interpreter with numpy, scipy and hartorus loaded (85 MiB measured)
_PEAK_STACKS = {"equilibrium-check": 1, "simulate": 1, "scattering-probe": 2, "picard": 9}
_CHUNK_TEMPS, _GRID_TEMPS, _BASE_BYTES, _PROCESS_BYTES = 6, 16, 1 << 16, 90 << 20
# the experiments sized by their counts, traced the same way over whole runs.
# instability: 537 B per scan.count ray point (the spectra, the growth and the
# CSV rows; 1e4..4e5 points), the fuzz cases' 2d + 1 uniforms drawn as one
# array (24.3 B per fuzz.count case at d = 1; 1e4..4e5 cases) and 120 B per
# grid point for the growth fit's four fields and their spectra (d = 2, N =
# 64..512).  stability-check and linear-response: 169 and 282 B per entry of
# the (2 tau.count + 1) x xi.count multiplier table, one more column for
# linear-response's xi = 0 (its H temporaries, the margin's and decay's
# fields, linear-response's CSV rows; tau.count and xi.count 1e3..3e4 at
# d = 3).  norms: per grid point, 75-91 B of complex draws, spectra and
# their moduli and 28-32 B more per resolvable dyadic block (its cached real
# symbol, the symbols' stack and its complex block), 155-523 B in all over
# d = 1..4, 6.5e4..2.1e6 points and 2..14 blocks.  The rest (the h table, the
# hypothesis bullets, the fuzz blocks, small grids) was 0.55-2.5 MB.
_SCAN_BYTES, _FUZZ_VALUE_BYTES, _FIT_POINT_BYTES = 540, 8, 128
_ENTRY_BYTES = {"stability-check": 170, "linear-response": 285}
_NORMS_POINT_BYTES, _NORMS_BLOCK_POINT_BYTES, _COUNTED_BASE_BYTES = 96, 32, 4 << 20


def _mode_count(cfg: RunConfig) -> int:
    """The number of modes init_equilibrium keeps, from the lattice cell masses
    alone; PreflightError when the threshold theta keeps none of a nonzero
    distribution, or when there is no mode pert.mode for the perturbation."""
    cell_mass, keep = cell_masses(cfg.make_grid(), cfg.make_distribution(), cfg["theta"])
    M = int(np.count_nonzero(keep))
    if M == 0 and np.sum(cell_mass) > 0.0:
        raise PreflightError(f"theta={cfg['theta']:g} keeps no lattice mode of a nonzero distribution")
    if M == 0 and cfg.kind != "equilibrium-check":
        raise PreflightError(f"f.kind={cfg['f.kind']} has no lattice mode; {cfg.kind} perturbs one")
    if cfg.kind != "equilibrium-check" and cfg["pert.mode"] >= M:
        raise PreflightError(f"pert.mode={cfg['pert.mode']} is not one of the M={M} modes 0..{M - 1}")
    return M


def _grid_estimate(cfg: RunConfig) -> tuple:
    """(bytes, reason) of the grids alone of a stack experiment, the process
    included: a floor of its peak, checked before the mode count allocates a
    grid."""
    points = cfg["grid.N"] ** cfg["grid.d"]
    return _PROCESS_BYTES + 16 * points * _GRID_TEMPS, f"grid.N={cfg['grid.N']}: {points} grid points"


def _peak_estimate(cfg: RunConfig) -> tuple:
    """(bytes, reason) of the estimated peak RSS of a stack experiment, the
    process included; the mode count comes from the lattice cell masses,
    before anything of stack size is allocated."""
    grid = cfg.make_grid()
    M = _mode_count(cfg)
    points = grid.N ** grid.d
    stacks, grids = _PEAK_STACKS[cfg.kind], _GRID_TEMPS
    chunk = _mode_chunks(M, grid)[0].stop if M else 0
    if cfg.kind == "picard":
        n_t = cfg["picard.steps"] + 1
        stacks, chunk, grids = stacks + 2 * n_t, 0, grids + 1.5 * n_t
    need = 16 * points * (stacks * M + _CHUNK_TEMPS * chunk + grids) + _BASE_BYTES
    return _PROCESS_BYTES + math.ceil(need), (
        f"{stacks:g} stacks of M={M} modes on N^d={points} points, complex, and temporaries")


def _count_estimate(cfg: RunConfig) -> tuple:
    """(bytes, reason) of the estimated peak RSS of instability, stability-check,
    linear-response or norms from its counts, the process included; the
    reason names the keys of the largest term."""
    if cfg.kind == "norms":
        points = cfg["grid.N"] ** cfg["grid.d"]
        blocks = len(LittlewoodPaley(cfg.make_grid()).j_resolvable)
        terms = [((_NORMS_POINT_BYTES + _NORMS_BLOCK_POINT_BYTES * blocks) * points,
                  f"grid.N={cfg['grid.N']}: {points} grid points, {blocks} dyadic blocks")]
    elif cfg.kind == "instability":
        points = cfg["grid.N"] ** cfg["grid.d"]
        terms = [(_SCAN_BYTES * cfg["scan.count"], f"scan.count={cfg['scan.count']} ray points"),
                 (_FUZZ_VALUE_BYTES * (2 * len(cfg["twowave.xi"]) + 1) * cfg["fuzz.count"],
                  f"fuzz.count={cfg['fuzz.count']} fuzz cases"),
                 (_FIT_POINT_BYTES * points, f"grid.N={cfg['grid.N']}: {points} grid points")]
    else:
        n_tau, n_xi = 2 * cfg["tau.count"] + 1, cfg["xi.count"] + (cfg.kind == "linear-response")
        terms = [(_ENTRY_BYTES[cfg.kind] * n_tau * n_xi,
                  f"tau.count={cfg['tau.count']} and xi.count={cfg['xi.count']}: "
                  f"{n_tau * n_xi} table entries")]
    return _PROCESS_BYTES + _COUNTED_BASE_BYTES + sum(b for b, _ in terms), max(terms)[1]


def _preflight(cfg: RunConfig) -> None:
    """PreflightError for a config its experiment cannot run: a norms or picard
    grid that resolves no dyadic block, a stream run whose T is not a whole
    number of steps of dt, a stack experiment without a mode to run on, or
    (MemoryPreflightError) a run whose estimated peak, or that of its grids
    alone, exceeds MemAvailable."""
    if cfg.kind in ("norms", "picard") and not LittlewoodPaley(cfg.make_grid()).j_resolvable:
        raise PreflightError(f"grid.N={cfg['grid.N']} with grid.L={cfg['grid.L']:g} resolves no "
                             f"dyadic block; the {cfg.kind} experiment needs one")
    if cfg.kind in ("equilibrium-check", "simulate", "scattering-probe"):
        try:
            _step_count(cfg["T"], cfg["dt"])
        except ValueError as exc:
            raise PreflightError(str(exc)) from None
    limit = mem_available()
    for estimate in (_grid_estimate, _peak_estimate) if cfg.kind in _PEAK_STACKS else (_count_estimate,):
        need, reason = estimate(cfg)
        if limit is not None and need > limit:
            raise MemoryPreflightError(f"{cfg.kind} needs about {need / 2**20:.0f} MiB ({reason}) but "
                                       f"{limit / 2**20:.0f} MiB is available")


def _exp_picard(cfg, out, seed):
    eq, bump = _perturbed_equilibrium(cfg)
    op = PicardOperator(eq, bump, cfg["T"], cfg["picard.steps"])
    result = picard_solve(op, max_iters=cfg["picard.iters"])

    z_gap, _ = reference_trajectory(eq, bump, result, substeps=cfg["picard.substeps"])
    sup_diff = float(np.max(z_gap))
    records = [{"iteration": i, **{k: float(v) for k, v in sorted(dn.items())}}
               for i, dn in enumerate(result.diff_norms)]
    records.append({"contraction_factors": [float(x) for x in result.contraction],
                    "converged": result.converged, "diverged": result.diverged,
                    "sup_difference_vs_split_step": sup_diff})
    path = out / "picard.ndjson"
    write_ndjson(path, records)
    verdicts = {"iteration_converged": result.converged and not result.diverged,
                "matches_split_step_1e-4": sup_diff <= 1e-4}
    return [path], verdicts


def _parseval_defect(grid, u) -> float:
    """|L^2 norm of the field u - its norm from the spectrum by Parseval|, relative."""
    physical = _lebesgue(np.abs(u), 2.0, grid.dx, tuple(range(grid.d)))
    frequency = np.sqrt(np.sum(np.abs(fftn(u)) ** 2) * grid.parseval_weight)
    return float(abs(physical - frequency) / max(physical, 1e-300))


def _block_norms(lp, u, p) -> list:
    """(j, ||u_j||_p) for every resolvable dyadic block u_j of the field u on
    the grid of lp."""
    grid = lp.grid
    axes = tuple(range(grid.d))
    blocks = _dyadic_blocks(lp, fftn(u))
    return [(j, _lebesgue(np.abs(b), p, grid.dx, axes)) for j, b in zip(lp.symbols, blocks)]


def _bernstein_ratio(lp, u, j) -> float:
    """||u_j||_inf / (2^{jd/2} ||u_j||_2) of the dyadic block u_j of the field
    u on the grid of lp."""
    grid = lp.grid
    axes = tuple(range(grid.d))
    block = np.abs(ifftn(lp.symbols[j] * fftn(u), axes=axes, overwrite_x=True))
    l2 = _lebesgue(block, 2.0, grid.dx, axes)
    return float(np.max(block) / (2.0 ** (j * grid.d * 0.5) * l2))


def _exp_norms(cfg, out, seed):
    grid = cfg.make_grid()
    lp = LittlewoodPaley(grid)
    rng = np.random.default_rng(seed)

    def draw():
        re = rng.standard_normal(grid.shape)
        return re + 1j * rng.standard_normal(grid.shape)

    parseval = max(_parseval_defect(grid, draw()) for _ in range(8))
    part = lp.partition_values(lp.j_resolvable)
    r = grid.xi_norm
    lo, hi = 2.0 ** lp.j_resolvable.start, 2.0 ** (lp.j_resolvable.stop - 1)
    inside = (r >= lo) & (r <= hi)
    part_defect = float(np.max(np.abs(part[inside] - 1.0))) if np.any(inside) else 0.0

    ratios = [_bernstein_ratio(lp, draw(), j) for j in lp.j_resolvable]
    bern_spread = max(ratios) / min(ratios)

    violations = 0
    n_fields = cfg["norms.fields"]
    for _ in range(n_fields):
        u = draw()
        s1 = rng.uniform(-1.5, 1.5)
        s2 = s1 + rng.uniform(0, 1.5)
        t1 = rng.uniform(-1.5, 1.5)
        t2 = t1 - rng.uniform(0, 1.5)
        blocks = _block_norms(lp, u, float(rng.choice([1.0, 2.0, 4.0])))
        if _dyadic_norm(blocks, s2, t2) > _dyadic_norm(blocks, s1, t1) * (1 + 1e-12):
            violations += 1

    rec = {"parseval_defect": parseval, "partition_defect": part_defect,
           "bernstein_spread": bern_spread, "besov_violations": violations,
           "n_fields": n_fields}
    path = out / "norms.ndjson"
    write_ndjson(path, [rec])
    verdicts = {
        "parseval_1e-12": parseval <= 1e-12,
        "partition_1e-12": part_defect <= 1e-12,
        "bernstein_spread_below_10": bern_spread < 10.0,
        "besov_monotone": violations == 0,
    }
    return [path], verdicts


def _exp_scattering_probe(cfg, out, seed):
    eq, bump = _perturbed_equilibrium(cfg)
    stream = observations(eq, bump, cfg["T"], cfg["dt"], cfg["obs.stride"])
    report = scattering_probe(eq, ((t, deviation_chunks(eq, t, c)) for t, c in stream),
                              ball_center=cfg["pert.center"], ball_radius=cfg["probe.radius"])
    records = [{"t": float(t), "local_mass": float(mass)}
               for t, mass in zip(report.times, report.local_mass)]
    for i, c in enumerate(report.cauchy):
        records[i + 1]["cauchy_diff"] = float(c)
    records.append({"cauchy_decreasing": report.cauchy_decreasing,
                    "mass_decreasing": report.mass_decreasing,
                    "recurrence_time": report.recurrence_time,
                    "window_warning": report.window_warning})
    path = out / "probe.ndjson"
    write_ndjson(path, records)
    svg = emit_plot([("local mass", report.times, report.local_mass)],
                    {"title": "local mass decay", "xlabel": "t", "ylabel": "L2 mass in ball",
                     "logy": True, "checksum": _config_checksum(cfg)})
    spath = out / "probe.svg"
    spath.write_text(svg, encoding="utf-8")
    verdicts = {"cauchy_decreasing": report.cauchy_decreasing,
                "local_mass_decreasing": report.mass_decreasing,
                "window_within_recurrence": not report.window_warning}
    if eq.w.kind == "zero":
        verdicts = {"free_flow_unwound_constant": float(np.max(report.cauchy)) <= 1e-10
                    if len(report.cauchy) else True}
    return [path, spath], verdicts


_DISPATCH = {
    "equilibrium-check": _exp_equilibrium_check,
    "simulate": _exp_simulate,
    "linear-response": _exp_linear_response,
    "stability-check": _exp_stability_check,
    "instability": _exp_instability,
    "picard": _exp_picard,
    "norms": _exp_norms,
    "scattering-probe": _exp_scattering_probe,
}


def _config_checksum(cfg: RunConfig) -> str:
    return hashlib.sha256(cfg.to_text().encode("utf-8")).hexdigest()


def run_experiment(cfg: RunConfig, out_dir, seed: int | None = None) -> ResultEnvelope:
    """Dispatch one experiment; deterministic payloads for fixed config+seed."""
    _preflight(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"] if seed is None else int(seed)
    start = time.perf_counter()
    files, verdicts = _DISPATCH[cfg.kind](cfg, out, seed)
    wall = time.perf_counter() - start
    payloads = [{"path": str(Path(p).name), "sha256": sha256_file(p)} for p in files]
    env = ResultEnvelope(kind=cfg.kind, config_echo=cfg.to_text(), version=__version__,
                         seed=seed, wall_clock_s=wall, payloads=payloads, verdicts=verdicts)
    (out / "envelope.json").write_text(env.to_json(), encoding="utf-8")
    return env
