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
from .ensemble import (BumpSpec, add_perturbation, evolve, init_equilibrium,
                       scattering_probe)
from .equilibrium import CovarianceProfile, equilibrium_mass, hypothesis_check
from .field import SpectralField
from .lpaley import LittlewoodPaley
from .norms import bernstein_ratio, besov_norm
from .picard import PicardOperator, picard_solve, reference_trajectory
from .response import (MultiplierTable, decay_bound_check, decay_slope, default_tau_grid,
                       epsilon_g, stability_margin)
from .svgplot import emit_plot
from .twowave import (TwoWaveParams, closed_form_spectrum, eigensolver_spectrum,
                      most_unstable_ray_frequency, multiset_distance, simulate_linearized,
                      unstable_band)


def _g17(x) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_ndjson(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(_jsonable(rec), allow_nan=True) + "\n")


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


def _xi_grid(cfg: RunConfig, grid):
    return np.linspace(grid.xi_min, grid.nyquist, cfg["xi.count"])


# ---------------------------------------------------------------------------
# individual experiments; each returns (records for ndjson, files, verdicts)


def _exp_equilibrium_check(cfg, out, seed):
    grid = cfg.make_grid()
    f, w = cfg.make_distribution(), cfg.make_potential()
    ens, report = init_equilibrium(grid, f, w, cfg["theta"], cfg.get("m.override"))
    a = ens.weights
    traj = evolve(ens, cfg["T"], cfg["dt"], obs_stride=cfg["obs.stride"])

    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / np.maximum(m0, 1e-300))) if ens.n_modes else 0.0
    dens_dev = float(np.max(traj.density_extrema[:, 1] - traj.density_extrema[:, 0]))
    amp_dev = float(np.max(np.abs(np.abs(traj.final.fields)
                                  - a[(slice(None),) + (None,) * grid.d]))) if ens.n_modes else 0.0
    # unwinding the exact phases must reproduce the t=0 state
    Z = traj.final.fields - ens.equilibrium_fields(traj.final.t)
    gauge_residual = float(np.max(np.abs(Z))) if ens.n_modes else 0.0

    records = [{"t": t, "energy": e, "density_min": lo, "density_max": hi,
                "mode_mass": [float(x) for x in mm]}
               for t, e, (lo, hi), mm in zip(traj.times, traj.energies,
                                             traj.density_extrema, traj.mode_masses)]
    path = out / "trajectory.ndjson"
    write_ndjson(path, records)
    summary = {"n_modes": ens.n_modes, "m_lattice": ens.m,
               "m_quadrature": equilibrium_mass(f, w, grid.d),
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
    grid = cfg.make_grid()
    f, w = cfg.make_distribution(), cfg.make_potential()
    ens, _ = init_equilibrium(grid, f, w, cfg["theta"], cfg.get("m.override"))
    spec = BumpSpec(amplitude=cfg["pert.amplitude"], width=cfg["pert.width"],
                    center=cfg["pert.center"], carrier=cfg["pert.carrier"],
                    mode=min(cfg["pert.mode"], max(ens.n_modes - 1, 0)))
    perturbed, state = add_perturbation(ens, spec)
    traj = evolve(perturbed, cfg["T"], cfg["dt"], obs_stride=cfg["obs.stride"],
                  reference=state, record_norms=True)
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
    rho = traj.final.density_values()
    cpath = out / "density_final.csv"
    write_csv(cpath, ["flat_index", "density"],
              [(i, float(v)) for i, v in enumerate(rho.ravel())])
    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / np.maximum(m0, 1e-300)))
    verdicts = {"fields_finite": True, "mass_drift_below_1e-10": drift <= 1e-10}
    return [path, cpath], verdicts


def _exp_linear_response(cfg, out, seed):
    grid = cfg.make_grid()
    f = cfg.make_distribution()
    d = cfg["grid.d"]
    cov = CovarianceProfile(f, d)
    taus = _tau_grid(cfg)
    xis = np.concatenate([[0.0], _xi_grid(cfg, grid)])
    table = MultiplierTable.build(cov, d, taus, xis)
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
    slope, staus, smags = decay_slope(cov, d, xi_abs=xi_slope, tau_base=4.0 * xi_slope ** 2)
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
    grid = cfg.make_grid()
    f, w = cfg.make_distribution(), cfg.make_potential()
    d = cfg["grid.d"]
    cov = CovarianceProfile(f, d)
    table = MultiplierTable.build(cov, d, _tau_grid(cfg), _xi_grid(cfg, grid))
    margin = stability_margin(table, w)
    eps = epsilon_g(cov, d)
    hyp = hypothesis_check(cov, w, d, epsilon_g=eps.value)
    rec = {"margin": margin.margin, "argmin_tau": margin.arg_tau, "argmin_xi": margin.arg_xi,
           "sup_w_mf": margin.sup_wmf, "two_sphere_area": margin.two_sphere_area,
           "epsilon_g": eps.value, "epsilon_g_converged": eps.converged,
           "epsilon_g_shells": eps.shell_minima,
           "scattering_regime_d_ge_4": d >= 4,
           "hypothesis_bullets": [
               {"name": b.name, "passed": b.passed, "value": b.value,
                "threshold": b.threshold, "note": b.note} for b in hyp.bullets]}
    path = out / "stability.ndjson"
    write_ndjson(path, [rec])
    verdicts = {"margin_positive": margin.positive}
    return [path], verdicts


def _exp_instability(cfg, out, seed):
    xi = np.asarray(cfg["twowave.xi"], dtype=float)
    params = TwoWaveParams(xi=xi, m=cfg["twowave.m"], w=cfg.make_potential())
    rs = np.linspace(cfg["scan.rmin"], cfg["scan.rmax"], cfg["scan.count"])
    band = unstable_band(params, rs)
    rows = []
    for i, r in enumerate(band.r_grid):
        lam = closed_form_spectrum(params, r * params.xi)
        ims = sorted(float(v) for v in lam.imag)
        rows.append((float(r * params.xi_abs), float(band.growth[i]), *ims))
    cpath = out / "dispersion.csv"
    write_csv(cpath, ["k_abs", "re_lambda_max", "im_lambda_1", "im_lambda_2",
                      "im_lambda_3", "im_lambda_4"], rows)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cfg["fuzz.count"]):
        pxi = rng.uniform(-2, 2, size=len(xi))
        pk = rng.uniform(-4, 4, size=len(xi))
        pm = rng.uniform(0, 4)
        pw = cfg.make_potential()
        p = TwoWaveParams(xi=pxi, m=pm, w=pw)
        worst = max(worst, multiset_distance(closed_form_spectrum(p, pk),
                                             eigensolver_spectrum(p, pk)))

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


def _exp_picard(cfg, out, seed):
    grid = cfg.make_grid()
    f, w = cfg.make_distribution(), cfg.make_potential()
    ens, _ = init_equilibrium(grid, f, w, cfg["theta"], cfg.get("m.override"))
    spec = BumpSpec(amplitude=cfg["pert.amplitude"], width=cfg["pert.width"],
                    center=cfg["pert.center"], carrier=cfg["pert.carrier"],
                    mode=min(cfg["pert.mode"], max(ens.n_modes - 1, 0)))
    perturbed, state = add_perturbation(ens, spec)
    z0 = state.deviations(perturbed)
    op = PicardOperator(grid, state, w, z0, cfg["T"], cfg["picard.steps"])
    result = picard_solve(op, max_iters=cfg["picard.iters"])

    ts, Zref, Vref = reference_trajectory(ens, state, spec, cfg["T"], cfg["picard.steps"],
                                          substeps=cfg["picard.substeps"])
    sup_diff = float(np.max(np.sqrt(np.sum(np.abs(result.Z - Zref) ** 2,
                                           axis=tuple(range(1, 2 + grid.d))) * grid.dx)))
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


def _exp_norms(cfg, out, seed):
    grid = cfg.make_grid()
    lp = LittlewoodPaley(grid)
    rng = np.random.default_rng(seed)

    parseval = 0.0
    for _ in range(8):
        fld = SpectralField.random(grid, rng)
        parseval = max(parseval, abs(fld.l2_physical() - fld.l2_frequency())
                       / max(fld.l2_physical(), 1e-300))
    part = lp.partition_values(lp.j_resolvable)
    r = grid.xi_norm
    lo, hi = 2.0 ** lp.j_resolvable.start, 2.0 ** (lp.j_resolvable.stop - 1)
    inside = (r >= lo) & (r <= hi)
    part_defect = float(np.max(np.abs(part[inside] - 1.0))) if np.any(inside) else 0.0

    ratios = []
    for j in lp.j_resolvable:
        fld = SpectralField.random(grid, rng)
        val = bernstein_ratio(fld, j, math.inf, 2, lp)
        if math.isfinite(val):
            ratios.append(val)
    bern_spread = max(ratios) / min(ratios) if ratios else 1.0

    violations = 0
    n_fields = cfg["norms.fields"]
    for _ in range(n_fields):
        fld = SpectralField.random(grid, rng)
        s1 = rng.uniform(-1.5, 1.5)
        s2 = s1 + rng.uniform(0, 1.5)
        t1 = rng.uniform(-1.5, 1.5)
        t2 = t1 - rng.uniform(0, 1.5)
        p = rng.choice([1.0, 2.0, 4.0])
        if besov_norm(fld, p, s2, t2, lp) > besov_norm(fld, p, s1, t1, lp) * (1 + 1e-12):
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
    grid = cfg.make_grid()
    f, w = cfg.make_distribution(), cfg.make_potential()
    ens, _ = init_equilibrium(grid, f, w, cfg["theta"], cfg.get("m.override"))
    spec = BumpSpec(amplitude=cfg["pert.amplitude"], width=cfg["pert.width"],
                    center=cfg["pert.center"], carrier=cfg["pert.carrier"],
                    mode=min(cfg["pert.mode"], max(ens.n_modes - 1, 0)))
    perturbed, state = add_perturbation(ens, spec)
    traj = evolve(perturbed, cfg["T"], cfg["dt"], obs_stride=cfg["obs.stride"],
                  reference=state, snapshot_stride=cfg["snap.stride"])
    report = scattering_probe(traj, grid, state.m, ball_center=cfg["pert.center"],
                              ball_radius=cfg.get("probe.radius"))
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
    if w.kind == "zero":
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
