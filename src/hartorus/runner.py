"""Experiment dispatch, result persistence, and envelopes.

Payload files (NDJSON time series, CSV tables, SVG plots) are written by
run_experiment alone, once the experiment has returned them.  They are byte
deterministic for a fixed config and seed; wall-clock and the SVG
timestamp comment live outside the deterministic surface.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .ensemble import (BumpSpec, _mode_chunks, _record, _step_count, cell_masses, evolve,
                       init_equilibrium, observations, scattering_probe)
from .equilibrium import CovarianceProfile, equilibrium_mass, hypothesis_check
from .field import fftn, ifftn, ordered_map
from .lpaley import LittlewoodPaley, dyadic_norm, lebesgue
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
    cpu_s: float             # the process's CPU time over the run, all threads
    cpus: int                # the CPUs the process may run on
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
            "cpu_s": self.cpu_s,
            "cpus": self.cpus,
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
# individual experiments; each takes (cfg, seed) and returns (payloads,
# verdicts), payloads an ordered {file name: content}: NDJSON records, CSV
# (header, rows) or a plot's (series, style)


def _trajectory(traj):
    """(records of trajectory.ndjson, mass drift) of traj, the drift the
    largest relative change of a mode mass (0 with no modes)."""
    records = []
    for i, t in enumerate(traj.times):
        rec = {"t": float(t), "energy": float(traj.energies[i]),
               "density_min": float(traj.density_extrema[i, 0]),
               "density_max": float(traj.density_extrema[i, 1]),
               "mode_mass": [float(x) for x in traj.mode_masses[i]]}
        if traj.norms:
            rec["norms"] = {k: float(v[i]) for k, v in sorted(traj.norms.items())}
        records.append(rec)
    m0 = traj.mode_masses[0]
    drift = float(np.max(np.abs(traj.mode_masses - m0) / np.maximum(m0, 1e-300))) if m0.size else 0.0
    return records, drift


def _exp_equilibrium_check(cfg, seed):
    ens, report = _equilibrium(cfg)
    grid, a = ens.grid, ens.weights
    last = len(range(0, _step_count(cfg["T"], cfg["dt"]), cfg["obs.stride"]))
    found = {}  # modes.start -> the amplitude deviation and the gauge residual at the last time

    def checked(t, chunk, out):
        # unwinding the exact phases must reproduce the t=0 state: the last
        # observation's fields, checked by the part that reads them
        u = chunk.fields(out)
        modes = chunk.modes
        r = np.abs(u)
        r -= a[(modes,) + (None,) * grid.d]
        amp = float(np.max(np.abs(r, out=r)))
        y = ens.equilibrium_at(t, modes)
        found[modes.start] = amp, float(np.max(np.abs(np.subtract(u, y, out=y), out=r)))
        return u

    def unwound(t, chunks):
        return (replace(chunk, fields=partial(checked, t, chunk)) for chunk in chunks)

    stream = observations(ens, None, cfg["T"], cfg["dt"], cfg["obs.stride"])
    traj = _record(ens, ((t, unwound(t, c) if i == last else c) for i, (t, c) in enumerate(stream)))
    records, drift = _trajectory(traj)
    dens_dev = float(np.max(traj.density_extrema[:, 1] - traj.density_extrema[:, 0]))
    amp_dev = gauge_residual = 0.0
    for start in sorted(found):  # in mode order, as the chunks came
        amp_dev, gauge_residual = max(amp_dev, found[start][0]), max(gauge_residual, found[start][1])

    summary = {"n_modes": ens.n_modes, "m_lattice": ens.m,
               "m_quadrature": equilibrium_mass(cfg.make_distribution(), ens.w, grid.d),
               "truncated_mass": report.truncated_mass,
               "truncated_fraction": report.truncated_fraction,
               "mass_drift": drift, "density_deviation": dens_dev,
               "amplitude_deviation": amp_dev, "gauge_residual": gauge_residual}
    verdicts = {
        "mass_drift_below_1e-10": drift <= 1e-10,
        "density_deviation_below_1e-8": dens_dev <= 1e-8,
        "amplitude_deviation_below_1e-12": amp_dev <= 1e-12,
    }
    return {"trajectory.ndjson": records, "summary.ndjson": [summary]}, verdicts


def _exp_simulate(cfg, seed):
    eq, bump = _perturbed_equilibrium(cfg)
    traj = evolve(eq, bump, cfg["T"], cfg["dt"], obs_stride=cfg["obs.stride"])
    records, drift = _trajectory(traj)
    rows = ((i, float(v)) for i, v in enumerate(traj.density.ravel()))  # written as they are made
    verdicts = {"fields_finite": True, "mass_drift_below_1e-10": drift <= 1e-10}
    return {"trajectory.ndjson": records,
            "density_final.csv": (["flat_index", "density"], rows)}, verdicts


def _profile(cfg) -> CovarianceProfile:
    """The covariance profile of the configured distribution; FloatingPointError
    for a non-finite h(0), before any m_f table is built."""
    cov = CovarianceProfile(cfg.make_distribution(), cfg["grid.d"])
    if not np.isfinite(cov.h0):
        raise FloatingPointError(f"h(0) = {cov.h0} is not finite: the mass of |f|^2 overflows")
    return cov


def _exp_linear_response(cfg, seed):
    grid = cfg.make_grid()
    cov = _profile(cfg)
    taus = _tau_grid(cfg)
    xis = np.concatenate([[0.0], default_xi_grid(grid, cfg["xi.count"])])
    table = MultiplierTable.build(cov, taus, xis)
    rows = [(float(tau), float(xi), float(v.real), float(v.imag), float(e))
            for tau, values, errors in zip(table.taus, table.values, table.errors)
            for xi, v, e in zip(table.xis, values, errors)]

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
    verdicts = {
        "zero_frequency_column_exact": zero_col == 0.0,
        "conjugate_symmetry_within_2x_error": sym_defect <= tol,
        "decay_sup_finite": decay.finite,
    }
    return {"multiplier_table.csv": (["tau", "xi_abs", "re_mf", "im_mf", "err_estimate"], rows),
            "response_report.ndjson": [report],
            "decay.svg": ([("decay", staus, smags)], {"title": "multiplier decay", "xlabel": "tau",
                                                      "ylabel": "|m_f|", "logy": True})}, verdicts


def _exp_stability_check(cfg, seed):
    grid, w = cfg.make_grid(), cfg.make_potential()
    cov = _profile(cfg)
    taus, xis = _tau_grid(cfg), default_xi_grid(grid, cfg["xi.count"])

    def task(_, part):
        # the m_f work reads the 32-point line table, the h table task only
        # _panels and _table: no cached property is built by both; a refused
        # table is returned, and hypothesis_check marks its bullets indeterminate
        if part == "m_f":
            table = MultiplierTable.build(cov, taus, xis, errors=False)
            return stability_margin(table, w), epsilon_g(cov)
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
    return {"stability.ndjson": [rec]}, {"margin_positive": margin.positive}


def _two_wave(cfg) -> TwoWaveParams:
    return TwoWaveParams(xi=np.asarray(cfg["twowave.xi"], dtype=float), m=cfg["twowave.m"],
                         w=cfg.make_potential())


def _exp_instability(cfg, seed):
    params = _two_wave(cfg)
    rs = np.linspace(cfg["scan.rmin"], cfg["scan.rmax"], cfg["scan.count"])
    band = unstable_band(params, rs)
    ims = np.sort(band.spectra.imag, axis=1, kind="stable")  # 0.0 and -0.0 keep their order
    rows = [(k, g, *im) for k, g, im in zip((band.r_grid * params.xi_abs).tolist(),
                                            band.growth.tolist(), ims.tolist())]
    worst = fuzz_max_distance(params.w, params.d, cfg["fuzz.count"], seed)
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
    style = {"title": "two-wave dispersion", "xlabel": "|k|", "ylabel": "max Re lambda", "markers": False,
             "band": tuple(v * params.xi_abs for v in band.band) if band.band else None}
    return {"dispersion.csv": (["k_abs", "re_lambda_max", "im_lambda_1", "im_lambda_2",
                                "im_lambda_3", "im_lambda_4"], rows),
            "instability.ndjson": [sim_rec],
            "dispersion.svg": ([("max Re lambda", [r[0] for r in rows], [r[1] for r in rows])],
                               style)}, verdicts


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
# the norm tasks on the pool: 7.98-8.75 slices traced, but the allocator keeps
# whole freed slices that tracemalloc does not see, so its term is VmHWM in a
# fresh process less _PROCESS_BYTES and the time stacks: 8.8-11.8 slices with
# two CPUs and 7.8-9.8 with one at d=3, N=16, M=341, picard.steps = 2..20.
# _PROCESS_BYTES is the RSS of the interpreter with numpy, scipy and hartorus
# loaded (85 MiB measured)
_PEAK_STACKS = {"equilibrium-check": 1, "simulate": 1, "scattering-probe": 2, "picard": 12}
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
# the largest two-wave symbol entry E whose closed-form products, 5 E^4 at most, are finite
_SYMBOL_LIMIT = (np.finfo(float).max / 5.0) ** 0.25
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


def _peak_terms(cfg: RunConfig):
    """The (bytes, reason) terms of a run's estimated peak RSS beyond the
    process, in the order they can be sized: a stack experiment's grids
    before its mode count, which allocates a grid.  PreflightError first for
    a config its experiment cannot run: a norms or picard grid that resolves
    no dyadic block, a stream run whose T is not a whole number of steps of
    dt, a bump whose width squares to 0, an instability run whose closed-form
    spectrum overflows or whose grid snaps the most unstable ray frequency to
    a lattice frequency whose square is 0, an L2 grid whose Nyquist frequency
    overflows, or (after the grids) a stack experiment without a mode to
    run on."""
    kind, points = cfg.kind, cfg["grid.N"] ** cfg["grid.d"]
    on_grid = f"grid.N={cfg['grid.N']}: {points} grid points"
    if kind in ("norms", "picard"):
        blocks = len(LittlewoodPaley(cfg.make_grid()).j_resolvable)
        if not blocks:
            raise PreflightError(f"grid.N={cfg['grid.N']} with grid.L={cfg['grid.L']:g} resolves no "
                                 f"dyadic block; the {kind} experiment needs one")
    if kind in ("equilibrium-check", "simulate", "scattering-probe"):
        try:
            _step_count(cfg["T"], cfg["dt"])
        except ValueError as exc:
            raise PreflightError(str(exc)) from None
    if kind in ("simulate", "scattering-probe", "picard") and cfg["pert.width"] ** 2 == 0.0:
        raise PreflightError(f"pert.width={cfg['pert.width']:g} has a square that underflows to 0: "
                             f"the bump's envelope divides by it")
    if kind == "norms":
        yield (_COUNTED_BASE_BYTES + (_NORMS_POINT_BYTES + _NORMS_BLOCK_POINT_BYTES * blocks) * points,
               f"{on_grid}, {blocks} dyadic blocks")
    elif kind == "instability":
        # the closed-form spectrum multiplies four entries of the symbol, each
        # at most 2 |xi| |k| or |k|^2 + m |w-hat(0)|, to 5 E^4 in all, E the
        # largest entry on the ray scan or over the fuzz cases (|xi| <= 2 sqrt(d),
        # |k| <= 4 sqrt(d), m <= 4): past the largest float its roots are inf
        params = _two_wave(cfg)
        a, k_abs = abs(params.w.what0), cfg["scan.rmax"] * params.xi_abs
        scan = max(2.0 * params.xi_abs * k_abs, k_abs * k_abs + params.m * a)
        for E, keys in ((scan, "scan.rmax, twowave.xi, twowave.m and w.amplitude"),
                        (16.0 * params.d + 4.0 * a if cfg["fuzz.count"] else 0.0, "w.amplitude")):
            if not E <= _SYMBOL_LIMIT:
                raise PreflightError(f"{keys} put a two-wave symbol entry at {E:.3g}, past "
                                     f"{_SYMBOL_LIMIT:.3g}: the closed-form spectrum overflows")
        # the growth fit's symbol reads the lattice frequency k through |k|^2:
        # where that is 0, k = 0 or a spacing whose square underflows, its
        # eigenvectors are singular and there is no growth to fit
        kstar = most_unstable_ray_frequency(params)
        k0 = None if kstar is None else cfg.make_grid().nearest_lattice_xi(kstar)
        if k0 is not None and np.vecdot(k0, k0) == 0.0:
            raise PreflightError(f"grid.N={cfg['grid.N']} with grid.L={cfg['grid.L']:g} snaps the most "
                                 f"unstable ray frequency |k|={math.hypot(*kstar):g} to |k|="
                                 f"{math.hypot(*k0):g}, whose square is 0: no growth to fit")
        yield _COUNTED_BASE_BYTES + _FIT_POINT_BYTES * points, on_grid
        yield (_FUZZ_VALUE_BYTES * (2 * len(cfg["twowave.xi"]) + 1) * cfg["fuzz.count"],
               f"fuzz.count={cfg['fuzz.count']} fuzz cases")
        yield _SCAN_BYTES * cfg["scan.count"], f"scan.count={cfg['scan.count']} ray points"
    elif kind in _ENTRY_BYTES:
        if not math.isfinite(cfg.make_grid().nyquist):
            raise PreflightError(f"grid.N={cfg['grid.N']} with grid.L={cfg['grid.L']:g} puts the "
                                 f"Nyquist frequency, the end of the xi grid, past the largest float")
        n_tau, n_xi = 2 * cfg["tau.count"] + 1, cfg["xi.count"] + (kind == "linear-response")
        yield (_COUNTED_BASE_BYTES + _ENTRY_BYTES[kind] * n_tau * n_xi,
               f"tau.count={cfg['tau.count']} and xi.count={cfg['xi.count']}: {n_tau * n_xi} table entries")
    else:
        yield 16 * points * _GRID_TEMPS, on_grid
        M, n_t = _mode_count(cfg), cfg["picard.steps"] + 1 if kind == "picard" else 0
        stacks = _PEAK_STACKS[kind] + 2 * n_t
        chunk = _mode_chunks(M, cfg.make_grid())[0].stop if M and not n_t else 0
        # picard's n_t times take a complex symbol grid and a real potential grid each
        yield (16 * points * (stacks * M + _CHUNK_TEMPS * chunk) + 24 * points * n_t + _BASE_BYTES,
               f"{stacks:g} stacks of M={M} modes on N^d={points} points, complex, and temporaries")


def _peak_estimate(cfg: RunConfig) -> int:
    """The estimated peak RSS of a run in bytes, the process included."""
    return _PROCESS_BYTES + sum(term for term, _ in _peak_terms(cfg))


def _preflight(cfg: RunConfig) -> None:
    """PreflightError for a config its experiment cannot run (see _peak_terms),
    or MemoryPreflightError at the first running total of the process and the
    peak's terms that exceeds MemAvailable, naming the term that crossed it."""
    limit, need = mem_available(), _PROCESS_BYTES
    for term, reason in _peak_terms(cfg):
        need += term
        if limit is not None and need > limit:
            raise MemoryPreflightError(f"{cfg.kind} needs about {need / 2**20:.0f} MiB ({reason}) but "
                                       f"{limit / 2**20:.0f} MiB is available")


def _exp_picard(cfg, seed):
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
    verdicts = {"iteration_converged": result.converged and not result.diverged,
                "matches_split_step_1e-4": sup_diff <= 1e-4}
    return {"picard.ndjson": records}, verdicts


def _parseval_defect(grid, u) -> float:
    """|L^2 norm of the field u - its norm from the spectrum by Parseval|, relative."""
    physical = lebesgue(np.abs(u), 2.0, grid.dx, tuple(range(grid.d)))
    frequency = np.sqrt(np.sum(np.abs(fftn(u)) ** 2) * grid.parseval_weight)
    return float(abs(physical - frequency) / max(physical, 1e-300))


def _bernstein_ratio(lp, u, j) -> float:
    """||u_j||_inf / (2^{jd/2} ||u_j||_2) of the dyadic block u_j of the field
    u on the grid of lp."""
    grid = lp.grid
    axes = tuple(range(grid.d))
    block = np.abs(ifftn(lp.symbols[j] * fftn(u), axes=axes, overwrite_x=True))
    l2 = lebesgue(block, 2.0, grid.dx, axes)
    return float(np.max(block) / (2.0 ** (j * grid.d * 0.5) * l2))


def _exp_norms(cfg, seed):
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
        blocks = lp.block_norms(fftn(u), float(rng.choice([1.0, 2.0, 4.0])))
        if dyadic_norm(blocks, s2, t2) > dyadic_norm(blocks, s1, t1) * (1 + 1e-12):
            violations += 1

    rec = {"parseval_defect": parseval, "partition_defect": part_defect,
           "bernstein_spread": bern_spread, "besov_violations": violations,
           "n_fields": n_fields}
    verdicts = {
        "parseval_1e-12": parseval <= 1e-12,
        "partition_1e-12": part_defect <= 1e-12,
        "bernstein_spread_below_10": bern_spread < 10.0,
        "besov_monotone": violations == 0,
    }
    return {"norms.ndjson": [rec]}, verdicts


def _exp_scattering_probe(cfg, seed):
    eq, bump = _perturbed_equilibrium(cfg)
    stream = observations(eq, bump, cfg["T"], cfg["dt"], cfg["obs.stride"])
    report = scattering_probe(eq, stream, ball_center=cfg["pert.center"], ball_radius=cfg["probe.radius"])
    records = [{"t": float(t), "local_mass": float(mass)}
               for t, mass in zip(report.times, report.local_mass)]
    for i, c in enumerate(report.cauchy):
        records[i + 1]["cauchy_diff"] = float(c)
    records.append({"cauchy_decreasing": report.cauchy_decreasing,
                    "mass_decreasing": report.mass_decreasing,
                    "recurrence_time": report.recurrence_time,
                    "window_warning": report.window_warning})
    verdicts = {"cauchy_decreasing": report.cauchy_decreasing,
                "local_mass_decreasing": report.mass_decreasing,
                "window_within_recurrence": not report.window_warning}
    if eq.w.kind == "zero":
        verdicts = {"free_flow_unwound_constant": float(np.max(report.cauchy)) <= 1e-10
                    if len(report.cauchy) else True}
    plot = ([("local mass", report.times, report.local_mass)],
            {"title": "local mass decay", "xlabel": "t", "ylabel": "L2 mass in ball", "logy": True})
    return {"probe.ndjson": records, "probe.svg": plot}, verdicts


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


def run_experiment(cfg: RunConfig, out_dir, seed: int | None = None) -> ResultEnvelope:
    """Dispatch one experiment; deterministic payloads for fixed config+seed,
    each written by its file suffix once the experiment has returned, so a run
    that raises writes none.  SVGs carry the config's sha256."""
    _preflight(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["seed"] if seed is None else int(seed)
    echo = cfg.to_text()
    checksum = hashlib.sha256(echo.encode("utf-8")).hexdigest()
    start, cpu_start = time.perf_counter(), time.process_time()
    contents, verdicts = _DISPATCH[cfg.kind](cfg, seed)
    for name, content in contents.items():
        path = out / name
        if path.suffix == ".ndjson":
            write_ndjson(path, content)
        elif path.suffix == ".csv":
            write_csv(path, *content)
        else:
            series, style = content
            path.write_text(emit_plot(series, {**style, "checksum": checksum}), encoding="utf-8")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    payloads = [{"path": name, "sha256": sha256_file(out / name)} for name in contents]
    env = ResultEnvelope(kind=cfg.kind, config_echo=echo, version=__version__, seed=seed,
                         wall_clock_s=wall, cpu_s=cpu, cpus=len(os.sched_getaffinity(0)),
                         payloads=payloads, verdicts=verdicts)
    (out / "envelope.json").write_text(env.to_json(), encoding="utf-8")
    return env
