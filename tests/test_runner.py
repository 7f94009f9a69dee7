"""End-to-end runs of every experiment kind on small configurations."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hartorus import (cli, ensemble, equilibrium, field, init_equilibrium, parse_config,
                      run_experiment, runner, twowave)

# a child interpreter with the suite's error::RuntimeWarning filter, which
# does not reach it otherwise
_PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]

CONFIGS = {
    "equilibrium-check": """
grid.d = 1
f.kind = fermi
w.kind = delta
T = 0.05
""",
    "simulate": """
grid.d = 1
f.kind = fermi
w.kind = delta
pert.amplitude = 0.05
pert.width = 0.8
pert.carrier = 1.0
pert.mode = 4
T = 0.05
""",
    "linear-response": """
grid.d = 1
grid.N = 16
f.kind = gaussian
tau.count = 6
xi.count = 6
""",
    "stability-check": """
grid.d = 2
grid.N = 8
f.kind = fermi
w.kind = delta
w.amplitude = 0.1
tau.count = 6
xi.count = 6
""",
    "instability": """
twowave.m = 1.0
twowave.xi = 1.0
grid.d = 1
grid.L = 50.26548245743669
grid.N = 128
T = 24.0
fuzz.count = 300
scan.count = 256
""",
    "picard": """
grid.d = 1
f.kind = fermi
w.kind = delta
pert.amplitude = 1e-3
pert.width = 0.8
pert.carrier = 1.0
pert.mode = 4
T = 0.5
picard.steps = 60
picard.substeps = 3
""",
    "norms": """
grid.d = 1
grid.L = 50.26548245743669
grid.N = 128
norms.fields = 60
""",
    "scattering-probe": """
grid.d = 2
grid.L = 50.26548245743669
grid.N = 32
f.kind = gaussian
f.amplitude = 6.4e-5
f.scale = 1e-2
w.kind = delta
theta = 1e-12
pert.amplitude = 1e-2
pert.width = 2.0
pert.carrier = 0.5,0.0
dt = 1e-2
T = 8.0
obs.stride = 200
""",
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_experiment_passes(kind, tmp_path):
    cfg = parse_config(CONFIGS[kind], kind)
    threads = set(threading.enumerate())
    env = run_experiment(cfg, tmp_path)
    started = set(threading.enumerate()) - threads
    if kind in ("equilibrium-check", "picard", "scattering-probe", "simulate"):
        # a stack experiment may start the package's one pool, and no other thread
        assert len(started) <= 2 and all(t.name.startswith("hartorus") for t in started)
    else:
        assert not started  # the other experiments start no thread
    assert env.all_passed, env.verdicts
    assert env.exit_code == 0
    meta = json.loads((tmp_path / "envelope.json").read_text())
    assert meta["kind"] == kind
    for payload in meta["payloads"]:
        assert (tmp_path / payload["path"]).exists()
        assert len(payload["sha256"]) == 64


_DIGESTS = Path(__file__).with_name("payload_digests.json")

# zero-temperature fermi at d = 3: f2 jumps at the Fermi edge, so its radial
# panels are bisected toward the jump (41 panels, where a smooth profile keeps
# the 8 uniform ones); recorded under their own keys beside CONFIGS
JUMP_CONFIGS = {
    "linear-response/zero-temp": ("linear-response", """
grid.d = 3
grid.N = 8
f.kind = zero-temp-fermi
f.mu = 4.0
tau.count = 6
xi.count = 6
"""),
    "stability-check/zero-temp": ("stability-check", """
grid.d = 3
grid.N = 8
f.kind = zero-temp-fermi
f.mu = 4.0
w.kind = delta
w.amplitude = 0.1
tau.count = 6
xi.count = 6
"""),
}


def _payload_digest(path):
    # sha256 of the payload bytes; an SVG's timestamp comment is left out
    data = path.read_bytes()
    if path.suffix == ".svg":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"<!-- timestamp:"))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_envelope_reports_the_run_cpu_time_and_the_cpus(n_cpus, cpus, tmp_path):
    # cpu_s is the process's CPU time over the run alone, so it stays within
    # the wall time on the CPUs it may use; cpus is how many those are
    cpus(n_cpus)
    text = "grid.d = 3\ngrid.N = 16\nf.kind = fermi\nw.kind = delta\npert.amplitude = 1e-3\nT = 0.02\ndt = 0.01\n"
    env = run_experiment(parse_config(text, "simulate"), tmp_path)
    meta = json.loads((tmp_path / "envelope.json").read_text())
    assert meta["cpus"] == env.cpus == n_cpus
    assert meta["cpu_s"] == env.cpu_s
    assert 0.0 < env.cpu_s <= n_cpus * env.wall_clock_s + 0.05
    assert list(meta)[:6] == ["kind", "version", "seed", "wall_clock_s", "cpu_s", "cpus"]


def test_payload_bytes_match_the_recorded_digests(tmp_path):
    want = json.loads(_DIGESTS.read_text())
    got = {}
    runs = {**{kind: (kind, text) for kind, text in CONFIGS.items()}, **JUMP_CONFIGS}
    for key, (kind, text) in sorted(runs.items()):
        env = run_experiment(parse_config(text, kind), tmp_path / key)
        for payload in env.payloads:
            got[f"{key}/{payload['path']}"] = _payload_digest(tmp_path / key / payload["path"])
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, (f"payloads {changed} differ from tests/{_DIGESTS.name}; a change of "
                         f"payload bytes must be re-recorded there and explained in CHANGES.md")


def test_a_run_whose_experiment_raises_writes_no_payload(tmp_path, monkeypatch):
    # linear-response wrote multiplier_table.csv before its decay fit ran
    def decay_slope(*args, **kwargs):
        raise FloatingPointError("decay fit")

    monkeypatch.setattr(runner, "decay_slope", decay_slope)
    with pytest.raises(FloatingPointError, match="decay fit"):
        run_experiment(parse_config(CONFIGS["linear-response"], "linear-response"), tmp_path)
    assert list(tmp_path.iterdir()) == []


_PAYLOAD_WRITERS = {"write_ndjson", "write_csv", "emit_plot", "write_text"}


def _payload_writes(tree):
    """(line, name) of each call of a name or attribute in _PAYLOAD_WRITERS in tree."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None))) for node in calls]
    return [(line, name) for line, name in names if name in _PAYLOAD_WRITERS]


def test_only_run_experiment_writes_payloads():
    # the experiments return their payloads; run_experiment writes each file
    # and the envelope, and no other code of the package writes a payload
    package = Path(runner.__file__).parent
    tree = ast.parse((package / "runner.py").read_text(encoding="utf-8"))
    run = next(node for node in tree.body if getattr(node, "name", None) == "run_experiment")
    inside = _payload_writes(run)
    assert {name for _, name in inside} == _PAYLOAD_WRITERS  # the scan sees run_experiment's writes
    writes = {path.name: _payload_writes(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(package.rglob("*.py"))}
    assert len(writes) >= 12
    writes["runner.py"] = [call for call in writes["runner.py"] if call not in inside]
    assert {name: calls for name, calls in writes.items() if calls} == {}


@pytest.mark.parametrize("key", sorted(JUMP_CONFIGS))
def test_only_the_reported_estimates_make_16_point_passes(key, tmp_path, monkeypatch, table_builds):
    # stability-check reads no error estimate: it makes no 16-point radial
    # or line pass and still builds its one h table; linear-response builds
    # the 16-point line table once and runs its principal values over the
    # 2 x n_tau x n_xi shifts of the multiplier table it reports, no more
    kind, text = JUMP_CONFIGS[key]
    cfg = parse_config(text, kind)
    passes, lo_tables = [], []
    radial, line = equilibrium._radial_transform, equilibrium._line_nodes
    pv = equilibrium._principal_value

    def radial_transform(f, d, xs, panels, rule):
        passes.append(("radial", len(rule[0])))
        return radial(f, d, xs, panels, rule)

    def line_nodes(f, d, a, b, rule):
        passes.append(("line", len(rule[0])))
        table = line(f, d, a, b, rule)
        if rule is equilibrium._GAUSS_LO:
            lo_tables.append(table)
        return table

    def principal_value(x, rho, table, end):
        passes.append(("pv", 16 if any(table is t for t in lo_tables) else 32, len(x)))
        return pv(x, rho, table, end)

    monkeypatch.setattr(equilibrium, "_radial_transform", radial_transform)
    monkeypatch.setattr(equilibrium, "_line_nodes", line_nodes)
    monkeypatch.setattr(equilibrium, "_principal_value", principal_value)
    run_experiment(cfg, tmp_path)
    lo = [p for p in passes if p[1] == 16]
    if kind == "stability-check":
        assert lo == []
        assert len(table_builds) == 1 and ("radial", 32) in passes
    else:
        entries = (2 * cfg["tau.count"] + 1) * (cfg["xi.count"] + 1)
        assert lo == [("line", 16), ("pv", 16, 2 * entries)]
        assert table_builds == [] and not any(p[0] == "radial" for p in passes)
        report = json.loads((tmp_path / "response_report.ndjson").read_text())
        assert report["max_quadrature_error"] > 0.0


def test_instability_m0_empty_band(tmp_path):
    cfg = parse_config("twowave.m = 0.0\ntwowave.xi = 1.0\nfuzz.count = 100\nscan.count = 128\n",
                       "instability")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed
    rec = json.loads((tmp_path / "instability.ndjson").read_text().splitlines()[0])
    assert rec["band"] is None


def test_instability_scans_the_ray_once(tmp_path, monkeypatch):
    # the ray scan, the fuzz and the growth fit each make one closed-form call
    # over their stack of frequencies, and the fuzz one eigensolver call over
    # its stack of 4x4 symbols; the dispersion rows come from the scan's spectra
    spectra, eigvals = [], []
    spectrum, solve = twowave.closed_form_spectrum, np.linalg.eigvals

    def counting_spectrum(params, k):
        spectra.append(np.shape(k))
        return spectrum(params, k)

    def counting_eigvals(a):
        eigvals.append(np.shape(a))
        return solve(a)

    monkeypatch.setattr(twowave, "closed_form_spectrum", counting_spectrum)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    cfg = parse_config(CONFIGS["instability"], "instability")
    env = run_experiment(cfg, tmp_path)
    assert "growth_rate_within_5pc" in env.verdicts  # the band is unstable, so the fit ran
    d = len(cfg["twowave.xi"])
    assert spectra == [(cfg["scan.count"], d), (cfg["fuzz.count"], d), (d,)]
    assert eigvals == [(cfg["fuzz.count"], 4, 4)]


def test_stability_zero_potential_margin_one(tmp_path):
    cfg = parse_config("grid.d = 2\ngrid.N = 8\nf.kind = gaussian\nw.kind = zero\n"
                       "tau.count = 4\nxi.count = 4\n", "stability-check")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed
    rec = json.loads((tmp_path / "stability.ndjson").read_text().splitlines()[0])
    assert rec["margin"] == 1.0


def test_linear_response_tau_slope_fixed_xi_rate(tmp_path):
    # the window tau = 4|xi|^2 ... 64|xi|^2 lies above the resonance, where
    # |m_f| ~ 2|xi|^2 h(0) / tau^2
    cfg = parse_config("grid.d = 3\nf.kind = fermi\n", "linear-response")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed
    rec = json.loads((tmp_path / "response_report.ndjson").read_text().splitlines()[0])
    assert -2.2 <= rec["tau_slope"] <= -1.8


def test_linear_response_on_the_zero_distribution_reports_no_slope(tmp_path):
    # |m_f| is zero on the whole window: no slope, and no log of zero (the
    # suite turns its RuntimeWarning into an error)
    cfg = parse_config("grid.d = 1\ngrid.N = 16\nf.kind = zero\ntau.count = 6\nxi.count = 6\n",
                       "linear-response")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed, env.verdicts
    rec = json.loads((tmp_path / "response_report.ndjson").read_text().splitlines()[0])
    assert rec["tau_slope"] is None


def test_equilibrium_check_without_modes_writes_positive_zeros(tmp_path):
    # no mode: no chunk, a zero density and energies that sum to +0.0 through
    # the general path, with a negative potential too
    cfg = parse_config("grid.d = 1\nf.kind = zero\nw.kind = delta\nw.amplitude = -1\nT = 0.05\n",
                       "equilibrium-check")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed, env.verdicts
    lines = (tmp_path / "trajectory.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 6
    energies = [rec["energy"] for rec in records]
    summary = json.loads((tmp_path / "summary.ndjson").read_text())
    for v in energies + [summary["m_lattice"]]:
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
    assert summary["n_modes"] == 0


def test_equilibrium_check_reads_each_observation_once(tmp_path, monkeypatch):
    # the amplitude and gauge checks take the last observation's fields from
    # the read that the trajectory's sums make, not from a second read
    reads = []
    inverse = ensemble._inverse

    def counting(hat, axes, out):
        reads.append(len(hat))
        return inverse(hat, axes, out)

    monkeypatch.setattr(ensemble, "_inverse", counting)
    env = run_experiment(parse_config(CONFIGS["equilibrium-check"], "equilibrium-check"), tmp_path)
    assert env.all_passed, env.verdicts
    summary = json.loads((tmp_path / "summary.ndjson").read_text())
    records = (tmp_path / "trajectory.ndjson").read_text().splitlines()
    # every observation after the start, which reads Y(0), reads each mode once
    assert sum(reads) == summary["n_modes"] * (len(records) - 1)


def test_stability_check_builds_one_profile(tmp_path, monkeypatch, table_builds, cpus):
    # the h table task builds it on the pool; hypothesis_check reads it
    cpus(2)
    calls = []
    init = equilibrium.CovarianceProfile.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(equilibrium.CovarianceProfile, "__init__", counting_init)
    env = run_experiment(parse_config(CONFIGS["stability-check"], "stability-check"), tmp_path)
    assert env.all_passed
    assert len(calls) == 1
    assert len(table_builds) == 1


def test_linear_response_builds_no_h_table(tmp_path, table_builds):
    # m_f comes from the line marginal alone, with H(-w) = conj H(w) exactly
    env = run_experiment(parse_config(CONFIGS["linear-response"], "linear-response"), tmp_path)
    assert env.all_passed
    assert table_builds == []
    report = json.loads((tmp_path / "response_report.ndjson").read_text().splitlines()[0])
    assert report["conjugate_symmetry_defect"] == 0.0


def _module_level_imports(tree):
    """Import nodes of a module outside every function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.integrate"])
def test_no_module_level_import_of(module):
    # the two-wave matching searches the permutations itself, so
    # scipy.optimize stays a test oracle's import; scipy.integrate serves only
    # eval_h, which no run calls, and is imported there
    src = Path(runner.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == module or name.startswith(module + ".")]
    assert not found


_IMPORT_PROBE = """
import sys
from hartorus import parse_config, run_experiment
from hartorus.equilibrium import eval_h, fermi
run_experiment(parse_config(sys.argv[1], "simulate"), sys.argv[2])
loaded = "scipy.integrate" in sys.modules
eval_h(fermi(1.0, 0.0), 3, 0.5)
print(loaded, "scipy.integrate" in sys.modules)
"""


def test_simulate_run_leaves_scipy_integrate_unloaded(tmp_path):
    # a fresh interpreter: the package and a simulate run do not load
    # scipy.integrate; the eval_h oracle loads it on its first call
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([*_PYTHON, "-c", _IMPORT_PROBE, CONFIGS["simulate"], str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_bench_tracer_finds_every_patched_name(tmp_path):
    # bench/tracer.py rebinds hartorus names from outside the package; a
    # renamed target would drop its spans from a traced bench run silently
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        tracer.begin_op(0)
        for kind in ("equilibrium-check", "simulate", "scattering-probe", "picard",
                     "stability-check"):
            run_experiment(parse_config(CONFIGS[kind], kind), tmp_path / kind)
        tracer.end_op()
    finally:
        tracer.uninstall()
    summary = tracer.op_summary(0)
    for name in ("ensemble.init", "ensemble.evolve", "ensemble.energy", "ensemble.norms",
                 "ensemble.step", "picard.init", "picard.apply", "picard.duhamel",
                 "picard.pair_norms", "picard.reference", "equilibrium.hypothesis",
                 "response.table", "response.epsilon_g"):
        assert summary[f"{name}.calls"] > 0, name
        assert summary[f"{name}.total_s"] > 0, name
    assert summary["ensemble.modes"] > 0
    assert summary["picard.iterations"] > 0
    assert summary["equilibrium.profiles"] > 0
    # stack FFTs reach the tracer only through the scipy.fft module attribute
    assert summary["field.fft.calls"] > 0
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


def test_payloads_independent_of_fft_workers(tmp_path, monkeypatch):
    # the FFT pair runs on one worker; payload bytes must not depend on how
    # many split its transforms
    def shas(sub):
        out = {}
        for kind in ("simulate", "picard"):
            env = run_experiment(parse_config(CONFIGS[kind], kind), tmp_path / sub / kind)
            out[kind] = [(p["path"], p["sha256"]) for p in env.payloads]
        return out

    default = shas("default")
    monkeypatch.setattr(field, "_WORKERS", 2)
    assert shas("two") == default


def _picard_need(cfg):
    # two (n_t, M, *grid) complex time stacks plus twelve (M, *grid) slices,
    # a complex symbol grid and a real potential grid per time, sixteen
    # complex grids, 64 KiB and the process's own size
    grid = cfg.make_grid()
    M = init_equilibrium(grid, cfg.make_distribution(), cfg.make_potential(), cfg["theta"])[0].n_modes
    n_t, points = cfg["picard.steps"] + 1, grid.N ** grid.d
    need = 16 * points * ((2 * n_t + 12) * M + 16) + 24 * points * n_t + 65536 + runner._PROCESS_BYTES
    assert runner._peak_estimate(cfg) == need
    return need


def test_picard_preflight_exits_two_with_estimate_and_limit(tmp_path, monkeypatch, capsys):
    # the limit is patched; nothing of the estimated size is allocated
    cfg_path = tmp_path / "picard.cfg"
    cfg_path.write_text(CONFIGS["picard"])
    need = _picard_need(parse_config(CONFIGS["picard"], "picard"))
    monkeypatch.setattr(runner, "mem_available", lambda: need - 1)

    def unreachable(*args, **kwargs):
        raise AssertionError("the map was built past the preflight")

    monkeypatch.setattr(runner, "PicardOperator", unreachable)
    assert cli.main(["picard", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"about {need / 2**20:.0f} MiB" in err
    assert f"{(need - 1) / 2**20:.0f} MiB is available" in err
    with pytest.raises(runner.MemoryPreflightError):
        run_experiment(parse_config(CONFIGS["picard"], "picard"), tmp_path / "direct")


@pytest.mark.parametrize("steps", [2, 4, 8, 16])
def test_picard_traced_peak_within_the_preflight_estimate(steps, tmp_path):
    # d=3, N=16, M=341 (21.3 MiB slices): the solve peaks at two time stacks
    # plus 7.98-8.75 slices with the norm tasks on the pool (7.98 inline) at
    # every steps, so a count of 3 n_t slices would read 9 against 14.05
    # inline at steps = 2
    text = "\n".join(["grid.d = 3", "grid.N = 16", "f.kind = fermi", "w.kind = delta",
                      "pert.amplitude = 1e-3", "T = 0.05", f"picard.steps = {steps}",
                      "picard.iters = 2", "picard.substeps = 1", ""])
    cfg = parse_config(text, "picard")
    _, peak = _traced_run(cfg, tmp_path)
    need = runner._peak_estimate(cfg) - runner._PROCESS_BYTES
    assert peak <= need, (peak / (341 * 16 ** 3 * 16), need / (341 * 16 ** 3 * 16))


@pytest.mark.parametrize("limit", ["need", None])
def test_picard_preflight_passes_within_the_limit(limit, tmp_path, monkeypatch):
    cfg = parse_config(CONFIGS["picard"], "picard")
    need = _picard_need(cfg)
    monkeypatch.setattr(runner, "mem_available", lambda: need if limit else None)
    assert run_experiment(cfg, tmp_path).all_passed


def test_mem_available_reads_the_host():
    avail = runner.mem_available()
    assert avail is None or avail > 0


def _preflight_need(kind):
    # the estimate of runner._preflight from the test config: its measured
    # stack count times the (M, *grid) stack, plus six mode chunks, sixteen
    # complex grids, 64 KiB and the process's own size
    cfg = parse_config(CONFIGS[kind], kind)
    grid = cfg.make_grid()
    M = init_equilibrium(grid, cfg.make_distribution(), cfg.make_potential(), cfg["theta"])[0].n_modes
    points = grid.N ** grid.d
    chunk = min(M, max(1, ensemble._CHUNK_BYTES // (16 * points)))
    need = 16 * points * (runner._PEAK_STACKS[kind] * M + 6 * chunk + 16) + 65536 + runner._PROCESS_BYTES
    assert runner._peak_estimate(cfg) == need
    return need


@pytest.mark.parametrize("kind", ["equilibrium-check", "simulate", "scattering-probe"])
def test_preflight_exits_two_before_a_stack_experiment_runs(kind, tmp_path, monkeypatch, capsys):
    # the limit is patched and the experiment replaced: nothing is allocated
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIGS[kind])
    need = _preflight_need(kind)
    monkeypatch.setattr(runner, "mem_available", lambda: need - 1)

    def unreachable(*args, **kwargs):
        raise AssertionError("the experiment ran past the preflight")

    monkeypatch.setitem(runner._DISPATCH, kind, unreachable)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} needs about {need / 2**20:.0f} MiB")
    assert f"{(need - 1) / 2**20:.0f} MiB is available" in err
    monkeypatch.setattr(runner, "mem_available", lambda: need)
    runner._preflight(parse_config(CONFIGS[kind], kind))  # exactly at the limit it fits


# the counted experiments at the counts that asked numpy for 7.45, 1.49 and
# 18.6 GiB before their preflight, a fuzz count that asked for 37 GiB, and
# the norms grid whose first draw asked for 2 GiB
_OVERSIZED = {
    "norms": ("norms", "grid.d = 3\ngrid.N = 512\n", "grid.N=512"),
    "scan": ("instability", "twowave.m = 1.0\ntwowave.xi = 1.0\nscan.count = 1000000000\n",
             "scan.count=1000000000"),
    "fuzz": ("instability", "grid.d = 2\ntwowave.m = 1.0\ntwowave.xi = 1.0, 0.0\n"
                            "fuzz.count = 1000000000\n", "fuzz.count=1000000000"),
    "tau": ("stability-check", "grid.d = 3\nf.kind = fermi\nw.kind = delta\ntau.count = 100000000\n",
            "tau.count=100000000"),
    "xi": ("linear-response", "grid.d = 3\nf.kind = fermi\nxi.count = 100000000\n",
           "xi.count=100000000"),
}


@pytest.mark.parametrize("case", sorted(_OVERSIZED))
def test_counted_experiment_preflight_exits_two_naming_the_key(case, tmp_path, monkeypatch, capsys):
    # the limit is patched to a little under 3 GiB and the experiment
    # replaced: a missing refusal fails here, and nothing large is allocated
    kind, text, key = _OVERSIZED[case]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    monkeypatch.setattr(runner, "mem_available", lambda: 3 << 30)

    def unreachable(*args, **kwargs):
        raise AssertionError("the experiment ran past the preflight")

    monkeypatch.setitem(runner._DISPATCH, kind, unreachable)
    with pytest.raises(runner.MemoryPreflightError, match=key):
        runner._preflight(parse_config(text, kind))
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} needs about ") and err.count("\n") == 1, err
    assert key in err and "3072 MiB is available" in err


@pytest.mark.parametrize("kind", ["equilibrium-check", "simulate", "scattering-probe", "picard"])
def test_stack_experiment_on_a_huge_grid_exits_two_before_the_mode_count(kind, tmp_path, monkeypatch,
                                                                         capsys):
    # 2^40 grid points: the grids alone exceed the limit, so the preflight
    # refuses before the mode count allocates a grid
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.d = 1\ngrid.N = 1099511627776\nf.kind = fermi\nw.kind = delta\n"
                        "pert.amplitude = 1e-3\n")
    monkeypatch.setattr(runner, "mem_available", lambda: 3 << 30)

    def unreachable(*args, **kwargs):
        raise AssertionError("the mode count ran past the preflight")

    monkeypatch.setattr(runner, "cell_masses", unreachable)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} needs about ") and err.count("\n") == 1, err
    assert "grid.N=1099511627776" in err and "3072 MiB is available" in err


def _bench_configs():
    # the configs of the bench workloads that run the counted experiments
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("response-d3", "twowave-d2"):
        workload = module.WORKLOADS[name](seed=0)
        workload.parse()
        yield from workload.cfgs


def test_default_and_bench_counted_configs_pass_the_preflight(monkeypatch):
    # each estimate is within 8 MiB of the process's own size
    monkeypatch.setattr(runner, "mem_available", lambda: runner._PROCESS_BYTES + (8 << 20))
    cfgs = [parse_config(CONFIGS[kind], kind) for kind in ("instability", "stability-check",
                                                            "linear-response")]
    cfgs += [parse_config("grid.d = 3\nf.kind = fermi\nw.kind = delta\n", kind)
             for kind in ("stability-check", "linear-response")]
    cfgs += [parse_config("twowave.m = 1.0\ntwowave.xi = 1.0\n", "instability")]
    cfgs += list(_bench_configs())
    assert {cfg.kind for cfg in cfgs} == {"instability", "stability-check", "linear-response"}
    for cfg in cfgs:
        runner._preflight(cfg)


@pytest.mark.parametrize("kind, text", [
    ("instability", "twowave.m = 1.0\ntwowave.xi = 1.0\nscan.count = 10000\nfuzz.count = 10000\n"),
    ("instability", "grid.d = 2\ngrid.N = 256\ngrid.L = 50.26548245743669\ntwowave.m = 1.0\n"
                    "twowave.xi = 1.0, 0.0\nT = 24.0\n"),
    ("stability-check", "grid.d = 3\nf.kind = fermi\nw.kind = delta\ntau.count = 400\nxi.count = 40\n"),
    ("linear-response", "grid.d = 3\nf.kind = fermi\ntau.count = 400\nxi.count = 20\n"),
    ("norms", "grid.d = 2\ngrid.N = 256\nnorms.fields = 3\n"),
], ids=["counts", "grid", "table", "pairs", "norms"])
def test_counted_traced_peak_within_the_preflight_estimate(kind, text, tmp_path):
    # the constants are measurements: the counted terms are most of each
    # estimate here, and the traced run stays under it less the process
    cfg = parse_config(text, kind)
    need = runner._peak_estimate(cfg) - runner._PROCESS_BYTES
    assert need > 2 * runner._COUNTED_BASE_BYTES
    _, peak = _traced_run(cfg, tmp_path)
    assert peak <= need, (peak, need)


def _traced_run(cfg, out):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        env = run_experiment(cfg, out)
        return env, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["equilibrium-check", "simulate", "scattering-probe"])
def test_traced_peak_within_the_preflight_stacks(kind, tmp_path):
    # the constants are measurements: a run at d=2, N=32, M=61 (one mode
    # chunk) stays under the estimate less the process's own size
    text = "\n".join(["grid.d = 2", "grid.N = 32", "f.kind = fermi", "w.kind = delta",
                      "pert.amplitude = 1e-3", "pert.mode = 7", "T = 0.02", "dt = 1e-3",
                      "obs.stride = 5", ""])
    cfg = parse_config(text, kind)
    stack = 61 * 32 ** 2 * 16
    _, peak = _traced_run(cfg, tmp_path)
    assert peak <= runner._peak_estimate(cfg) - runner._PROCESS_BYTES, peak / stack


_D4_PROBE = "\n".join(["grid.d = 4", "grid.N = 8", "f.kind = zero-temp-fermi", "f.mu = 1.5",
                       "w.kind = delta", "pert.amplitude = 1e-3", "T = 1.0", "dt = 0.01",
                       "obs.stride = 10", ""])


@pytest.mark.parametrize("kind", ["equilibrium-check", "simulate", "scattering-probe", "d4-probe"])
def test_tier1_stream_configs_peak_within_the_preflight_estimate(kind, tmp_path):
    # at M = 9 the mode chunk is about the whole stack, and the grids and
    # small objects weigh as much as the stacks: the estimate still bounds
    cfg = (parse_config(_D4_PROBE, "scattering-probe") if kind == "d4-probe"
           else parse_config(CONFIGS[kind], kind))
    _, peak = _traced_run(cfg, tmp_path)
    need = runner._peak_estimate(cfg) - runner._PROCESS_BYTES
    assert peak <= need, (peak, need)


# VmHWM is the peak RSS of the process image; ru_maxrss is not used, since
# Linux carries it over from the parent (here the test process) across exec
_RSS_PROBE = """
import json, sys
from hartorus import parse_config, run_experiment, runner
cfg = parse_config(sys.argv[1], sys.argv[2])
env = run_experiment(cfg, sys.argv[3])
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))
print(json.dumps([hwm, runner._peak_estimate(cfg), env.all_passed]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("kind", ["equilibrium-check", "simulate", "scattering-probe", "picard"])
def test_rss_stays_under_the_preflight_estimate(kind, tmp_path):
    # the whole process, interpreter and libraries included, in a fresh
    # interpreter at d=3, N=16, M=341 (21.3 MiB stacks).  The stream kinds
    # peak at about 111, 112 and 132 MiB against 124, 124 and 146 MiB.
    # picard at 17 times peaked at 1023-1066 MiB, whole freed slices kept by
    # the allocator, against 1073 MiB (1009 MiB with the traced 9 slices)
    run = (["T = 0.05", "picard.steps = 16", "picard.iters = 2", "picard.substeps = 1"]
           if kind == "picard" else ["T = 0.02", "dt = 0.01"])
    text = "\n".join(["grid.d = 3", "grid.N = 16", "f.kind = fermi", "w.kind = delta",
                      "pert.amplitude = 1e-3", *run, ""])
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([*_PYTHON, "-c", _RSS_PROBE, text, kind, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rss, need, passed = json.loads(proc.stdout)
    assert passed or kind == "picard"  # two Picard passes do not converge
    assert rss <= need, (rss / 2 ** 20, need / 2 ** 20)


def test_zero_temperature_stability_check_past_the_node_budget_ends_promptly(tmp_path):
    # at f.mu = 1e4 the h table would take 203,718 nodes, and the run was
    # still going after 60 s; it is refused, and the three bullets read off
    # it are indeterminate (about 1.2 s in all)
    text = "grid.d = 3\ngrid.N = 8\nf.kind = zero-temp-fermi\nf.mu = 1e4\nw.kind = delta\n"
    start = time.perf_counter()
    run_experiment(parse_config(text, "stability-check"), tmp_path)
    assert time.perf_counter() - start < 20.0
    rec = json.loads((tmp_path / "stability.ndjson").read_text())
    bullets = {b["name"]: b for b in rec["hypothesis_bullets"]}
    for name in ("h_derivative_decay", "h_low_frequency_integrable", "potential_focusing_part"):
        assert bullets[name]["passed"] is None, name


def test_nonfinite_start_is_refused_before_any_observation(tmp_path):
    # |u|^2 overflows at t=0: FloatingPointError before step 0's observation,
    # with no RuntimeWarning (the suite turns one into an error)
    cfg = parse_config(CONFIGS["simulate"].replace("pert.amplitude = 0.05", "pert.amplitude = 1e200"),
                       "simulate")
    with pytest.raises(FloatingPointError, match="non-finite field values at the start"):
        run_experiment(cfg, tmp_path)
    assert not (tmp_path / "trajectory.ndjson").exists()


def test_scattering_probe_d4_streams(tmp_path):
    # the paper's scattering regime at a few modes: zero-temperature Fermi
    # (mu = 1.5) on the d=4, N=8 torus keeps M=9 modes.  At this size the
    # probe reads cauchy_decreasing = local_mass_decreasing = false (the
    # Cauchy differences flatten near 9e-4), inside the recurrence time
    cfg = parse_config(_D4_PROBE, "scattering-probe")
    stack = 9 * 8 ** 4 * 16
    env, peak = _traced_run(cfg, tmp_path)
    assert set(env.verdicts) == {"cauchy_decreasing", "local_mass_decreasing",
                                 "window_within_recurrence"}
    records = [json.loads(line) for line in (tmp_path / "probe.ndjson").read_text().splitlines()]
    assert len(records) == 12
    values = [v for rec in records[:-1] for v in rec.values()]
    assert all(math.isfinite(v) for v in values)
    # the stream's buffer, the previous and current unwound deviations, and
    # at M=9 one mode chunk whose temporaries are whole stacks (measured
    # 5.98; 7.26 with eq's stored plane waves, 18.1 with eleven stored
    # snapshots)
    assert peak <= 6.25 * stack, peak / stack


def test_cli_picard_exits_promptly_with_the_norm_worker(tmp_path):
    # the idle worker thread does not hold the interpreter open at exit
    cfg_path = tmp_path / "picard.cfg"
    cfg_path.write_text(CONFIGS["picard"])
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([*_PYTHON, "-m", "hartorus.cli", "picard", "--config",
                           str(cfg_path), "--out", str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_reports_a_nonfinite_run_with_exit_one(tmp_path):
    # |u|^2 overflows at step 0: refused before any observation, so stderr
    # holds the reason and no overflow warning
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(CONFIGS["simulate"].replace("pert.amplitude = 0.05", "pert.amplitude = 1e200"))
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([*_PYTHON, "-m", "hartorus.cli", "simulate", "--config",
                           str(cfg_path), "--out", str(tmp_path / "out")],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "error: non-finite field values" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_reports_a_float_overflow_with_exit_one(tmp_path, capsys):
    # grid.L = 1e-300 puts the lattice frequencies near 1e300, and
    # linear-response squares one of them as a Python float in its decay window
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("grid.d = 1\ngrid.N = 8\ngrid.L = 1e-300\nf.kind = fermi\n"
                        "tau.count = 3\nxi.count = 3\n")
    assert cli.main(["linear-response", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OverflowError(") and err.count("\n") == 1, err
