"""End-to-end runs of every experiment kind on small configurations."""

import importlib.util
import json
from pathlib import Path

import pytest

from hartorus import equilibrium, field, parse_config, run_experiment

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
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed, env.verdicts
    assert env.exit_code == 0
    meta = json.loads((tmp_path / "envelope.json").read_text())
    assert meta["kind"] == kind
    for payload in meta["payloads"]:
        assert (tmp_path / payload["path"]).exists()
        assert len(payload["sha256"]) == 64


def test_instability_m0_empty_band(tmp_path):
    cfg = parse_config("twowave.m = 0.0\ntwowave.xi = 1.0\nfuzz.count = 100\nscan.count = 128\n",
                       "instability")
    env = run_experiment(cfg, tmp_path)
    assert env.all_passed
    rec = json.loads((tmp_path / "instability.ndjson").read_text().splitlines()[0])
    assert rec["band"] is None


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


def test_stability_check_builds_one_profile(tmp_path, monkeypatch):
    calls = []
    init = equilibrium.CovarianceProfile.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(equilibrium.CovarianceProfile, "__init__", counting_init)
    env = run_experiment(parse_config(CONFIGS["stability-check"], "stability-check"), tmp_path)
    assert env.all_passed
    assert len(calls) == 1


def test_linear_response_builds_no_h_table(tmp_path, monkeypatch):
    # m_f comes from the line marginal alone, with H(-w) = conj H(w) exactly
    calls = []
    build = equilibrium.CovarianceProfile._build_table

    def counting_build(self):
        calls.append(self)
        build(self)

    monkeypatch.setattr(equilibrium.CovarianceProfile, "_build_table", counting_build)
    env = run_experiment(parse_config(CONFIGS["linear-response"], "linear-response"), tmp_path)
    assert env.all_passed
    assert calls == []
    report = json.loads((tmp_path / "response_report.ndjson").read_text().splitlines()[0])
    assert report["conjugate_symmetry_defect"] == 0.0


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
        for kind in ("simulate", "picard"):
            run_experiment(parse_config(CONFIGS[kind], kind), tmp_path / kind)
        tracer.end_op()
    finally:
        tracer.uninstall()
    summary = tracer.op_summary(0)
    for name in ("ensemble.norms", "ensemble.step", "picard.apply", "picard.duhamel",
                 "picard.pair_norms", "picard.reference"):
        assert summary[f"{name}.calls"] > 0, name
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
