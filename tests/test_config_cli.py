import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hartorus import ConfigError, cli, config, emit_plot, parse_config, run_experiment

MINIMAL_EQ = """
grid.d = 1
f.kind = fermi
w.kind = delta
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_EQ, "equilibrium-check")
    assert cfg["grid.N"] == 64
    assert cfg["dt"] == 1e-3
    assert cfg["theta"] == 1e-8
    assert cfg["grid.L"] == pytest.approx(2 * math.pi)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL_EQ, "frobnicate")


def test_out_of_range_dimension():
    with pytest.raises(ConfigError) as exc:
        parse_config("grid.d = 5\nf.kind = fermi\nw.kind = delta\n", "equilibrium-check")
    assert any("grid.d must be in 1..4" in v for v in exc.value.violations)


def test_duplicate_key_cites_both_lines():
    text = "grid.d = 1\nf.kind = fermi\nw.kind = delta\ngrid.d = 2\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "equilibrium-check")
    assert any("lines 1 and 4" in v for v in exc.value.violations)


def test_unknown_key_named():
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL_EQ + "blorp = 3\n", "equilibrium-check")
    assert any("'blorp'" in v for v in exc.value.violations)


def test_missing_required_names_experiment():
    with pytest.raises(ConfigError) as exc:
        parse_config("grid.d = 1\n", "equilibrium-check")
    msgs = " ".join(exc.value.violations)
    assert "equilibrium-check" in msgs and "f.kind" in msgs


def test_all_violations_reported():
    text = "grid.d = 7\ngrid.N = 10\nnope = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "equilibrium-check")
    assert len(exc.value.violations) >= 4  # two ranges, unknown key, missing keys


def test_bose_needs_negative_mu():
    text = "grid.d = 1\nf.kind = bose\nf.mu = 0.5\nw.kind = delta\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "equilibrium-check")
    assert any("bose" in v for v in exc.value.violations)


_TWO_WAVE = "twowave.m = 1.0\ntwowave.xi = 1.0\n"
_RESPONSE = "grid.d = 1\nf.kind = fermi\nw.kind = delta\n"


@pytest.mark.parametrize("kind, text, message", [
    pytest.param("instability", _TWO_WAVE + "scan.rmin = 3.0\nscan.rmax = 0.05\n",
                 "scan.rmin = 3 must be below scan.rmax = 0.05", id="scan-inverted"),
    pytest.param("instability", _TWO_WAVE + "scan.rmin = 1.5\nscan.rmax = 1.5\n",
                 "scan.rmin = 1.5 must be below scan.rmax = 1.5", id="scan-equal"),
    pytest.param("stability-check", _RESPONSE + "tau.min = 40\ntau.max = 1\n",
                 "tau.min = 40 must be below tau.max = 1", id="tau-inverted"),
    pytest.param("stability-check", _RESPONSE + "tau.min = 2\ntau.max = 2\n",
                 "tau.min = 2 must be below tau.max = 2", id="tau-equal"),
])
def test_empty_range_exits_two(kind, text, message, tmp_path, capsys):
    # an inverted scan wrote a reversed band and an inverted tau range ran on
    # a tau grid that is not monotone; an empty range is refused as well
    with pytest.raises(ConfigError) as exc:
        parse_config(text, kind)
    assert exc.value.violations == [message]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


_PROBE = "grid.d = 1\ngrid.N = 32\nf.kind = fermi\nw.kind = delta\npert.amplitude = 0.01\nT = 0.1\n"


@pytest.mark.parametrize("line, message", [
    ("probe.radius = -1", "probe.radius must be positive"),
    ("probe.radius = 0", "probe.radius must be positive"),
    ("m.override = 1.0", "unknown key 'm.override'"),
    ("snap.stride = 2", "unknown key 'snap.stride'"),
])
def test_probe_radius_positive_and_no_gauge_override(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(_PROBE + line + "\n", "scattering-probe")
    assert any(message in v for v in exc.value.violations), exc.value.violations


def test_readme_key_blocks_name_every_config_key():
    # the README's "Key blocks" paragraph, with key.{a,b} expanded, names
    # exactly the schema's keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Key blocks:"):].split("\n\n", 1)[0]
    named = set()
    for span in re.findall(r"`([^`]*)`", paragraph):
        for token in re.split(r",\s*(?![^{]*\})", span):
            braces = re.fullmatch(r"\s*([\w.]+)\.\{([^}]*)\}\s*", token)
            named |= ({f"{braces[1]}.{k}" for k in braces[2].split(",")} if braces
                      else {token.strip()})
    assert named == set(config._SCHEMA)


def test_config_echo_round_trips():
    cfg = parse_config(MINIMAL_EQ + "dt = 2e-3\nT = 0.5\n", "equilibrium-check")
    again = parse_config(cfg.to_text(), cfg.kind)
    assert again.values == cfg.values


def test_run_experiment_deterministic(tmp_path):
    cfg = parse_config(MINIMAL_EQ + "T = 0.05\nobs.stride = 10\n", "equilibrium-check")
    env1 = run_experiment(cfg, tmp_path / "a")
    env2 = run_experiment(cfg, tmp_path / "b")
    assert env1.all_passed
    for p1, p2 in zip(env1.payloads, env2.payloads):
        assert p1["sha256"] == p2["sha256"]
    # checksums in the envelope match the files
    for p in env1.payloads:
        data = (tmp_path / "a" / p["path"]).read_bytes()
        import hashlib
        assert hashlib.sha256(data).hexdigest() == p["sha256"]


def test_envelope_exit_code_and_echo(tmp_path):
    cfg = parse_config(MINIMAL_EQ + "T = 0.05\n", "equilibrium-check")
    env = run_experiment(cfg, tmp_path)
    assert env.exit_code == 0
    again = parse_config(env.config_echo, env.kind)
    assert again.values == cfg.values
    meta = json.loads((tmp_path / "envelope.json").read_text())
    assert meta["verdicts"] and all(meta["verdicts"].values())


VECTOR_BASE = {"grid.d": "2", "f.kind": "fermi", "w.kind": "delta", "pert.amplitude": "1e-3",
               "pert.center": "1.0,2.0", "pert.carrier": "1.0,0.0", "twowave.m": "1.0",
               "twowave.xi": "1.0,0.0"}


@pytest.mark.parametrize("key, kind", [("pert.center", "simulate"), ("pert.carrier", "picard"),
                                       ("twowave.xi", "instability")])
def test_vector_key_needs_d_components(key, kind):
    for bad in ("", "1.0", "1.0,2.0,3.0"):
        text = "".join(f"{k} = {bad if k == key else v}\n" for k, v in VECTOR_BASE.items())
        with pytest.raises(ConfigError) as exc:
            parse_config(text, kind)
        assert any(key in v for v in exc.value.violations), bad


def _run_cli(args):
    # the suite's error::RuntimeWarning filter does not reach a child interpreter
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hartorus.cli",
                           *args], capture_output=True, text=True)


def test_cli_pass_and_exit_zero(tmp_path):
    cfg_path = tmp_path / "eq.cfg"
    cfg_path.write_text(MINIMAL_EQ + "T = 0.05\n")
    proc = _run_cli(["equilibrium-check", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_cli_verdict_failure_exit_one(tmp_path):
    # window past the recurrence time fails the probe verdicts
    cfg_path = tmp_path / "probe.cfg"
    cfg_path.write_text("""
grid.d = 1
grid.N = 32
f.kind = gaussian
f.amplitude = 1e-4
f.scale = 1e-2
w.kind = delta
pert.amplitude = 1e-3
pert.width = 0.5
pert.carrier = 1.0
dt = 1e-2
T = 4.0
obs.stride = 100
theta = 1e-12
""")
    proc = _run_cli(["scattering-probe", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_cli_config_error_exit_two(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("grid.d = 9\n")
    proc = _run_cli(["equilibrium-check", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_empty_center_exit_two(tmp_path):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("grid.d = 2\nf.kind = fermi\nw.kind = delta\npert.amplitude = 1e-3\n"
                        "pert.center =\n")
    proc = _run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2
    assert "pert.center" in proc.stderr


def test_cli_missing_file_exit_two(tmp_path):
    proc = _run_cli(["norms", "--config", str(tmp_path / "nope.cfg")])
    assert proc.returncode == 2


_STREAM_RUNS = ["equilibrium-check", "simulate", "scattering-probe"]
# T not a whole number of steps of dt = 0.01: 1.05 steps, half a step, and a
# T that rounds to no step at all
_PARTIAL_STEPS = ["0.0105", "0.005", "1e-12"]


def _stream_config(tmp_path, kind, T):
    cfg_path = tmp_path / f"{kind}.cfg"
    cfg_path.write_text(MINIMAL_EQ + f"pert.amplitude = 1e-3\npert.mode = 4\ndt = 0.01\nT = {T}\n")
    return cfg_path


@pytest.mark.parametrize("kind", _STREAM_RUNS)
@pytest.mark.parametrize("T", _PARTIAL_STEPS)
def test_partial_step_is_refused_by_the_preflight(kind, T, tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = _stream_config(tmp_path, kind, T)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: T={float(T)} is not an integer number of steps of dt=0.01\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, T", list(zip(_STREAM_RUNS, _PARTIAL_STEPS)))
def test_cli_partial_step_exits_two_without_a_traceback(kind, T, tmp_path):
    proc = _run_cli([kind, "--config", str(_stream_config(tmp_path, kind, T)),
                     "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"T={float(T)}" in proc.stderr and "dt=0.01" in proc.stderr


# T / dt past the largest float: the step count cannot be counted, and
# int(round(inf)) raised OverflowError, a traceback with exit 1
_UNCOUNTABLE = {"T = inf": "key 'T' must be finite",
                "T = 1e300\ndt = 1e-300": "T=1e+300 in steps of dt=1e-300 is more steps"}


@pytest.mark.parametrize("lines", list(_UNCOUNTABLE), ids=["inf", "1e300-over-1e-300"])
def test_cli_uncountable_steps_exit_two_with_a_reason(lines, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(MINIMAL_EQ + f"pert.amplitude = 1e-3\n{lines}\n")
    proc = _run_cli(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and _UNCOUNTABLE[lines] in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()


def test_step_count_past_the_largest_float_is_a_value_error():
    from hartorus.ensemble import _step_count
    for T, dt in ((math.inf, 0.01), (1e300, 1e-300), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="more steps than can be counted"):
            _step_count(T, dt)


_FLOAT_KEYS = [key for key, (conv, _, _) in config._SCHEMA.items()
               if conv in (float, config._parse_floats)]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_nonfinite_float_values_name_their_key(key, value):
    # a plain value, and one component of a list; nan passed every '< 0'
    # check, and inf reached the run with a reason that named no key
    vals = [value] if config._SCHEMA[key][0] is float else [value, f"1.0,{value}"]
    for val in vals:
        with pytest.raises(ConfigError) as exc:
            parse_config(f"{key} = {val}\n", "simulate")
        assert f"line 1: key {key!r} must be finite, got {val!r}" in exc.value.violations


@pytest.mark.parametrize("lines, key", [("f.kind = bose\nf.mu = nan", "f.mu"),
                                        ("w.amplitude = nan", "w.amplitude"),
                                        ("grid.L = inf", "grid.L")])
def test_cli_nonfinite_value_exits_two_naming_the_key(lines, key, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.d = 1\nw.kind = delta\npert.amplitude = 1e-3\n"
                        + ("" if "f.kind" in lines else "f.kind = fermi\n") + lines + "\n")
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"key {key!r} must be finite" in err, err


def test_svg_single_point():
    doc = emit_plot([("pt", [1.0], [2.0])], {"title": "one", "checksum": "abc"})
    assert doc.startswith("<?xml")
    assert "<circle" in doc and "abc" in doc and "</svg>" in doc


def test_svg_empty_series_placeholder():
    doc = emit_plot([], {"title": "nothing"})
    assert "warning: empty series" in doc


def test_svg_log_scale():
    xs = [1, 2, 3, 4]
    ys = [1e-1, 1e-3, 1e-5, 1e-7]
    doc = emit_plot([("decay", xs, ys)], {"logy": True})
    assert "polyline" in doc


def test_svg_band_shading():
    doc = emit_plot([("curve", np.linspace(0, 3, 50), np.linspace(0, 1, 50))],
                    {"band": (1.0, 2.0)})
    assert "#fce0e0" in doc


def test_svg_deterministic_up_to_timestamp():
    series = [("s", [0.0, 1.0, 2.0], [1.0, 4.0, 9.0])]
    a = emit_plot(series, {"checksum": "c", "timestamp": "fixed"})
    b = emit_plot(series, {"checksum": "c", "timestamp": "fixed"})
    assert a == b
    c = emit_plot(series, {"checksum": "c"})  # wall-clock stamp
    strip = lambda doc: "\n".join(l for l in doc.splitlines() if "timestamp" not in l)
    assert strip(a) == strip(c)


_STACK_KINDS = ("equilibrium-check", "simulate", "scattering-probe", "picard")
_NO_MODE = "grid.d = 1\nf.kind = zero\nw.kind = delta\npert.amplitude = 1e-3\n"
_NO_KEPT_MODE = "grid.d = 1\nf.kind = fermi\nw.kind = delta\npert.amplitude = 1e-3\ntheta = 1e3\n"
_NO_SUCH_MODE = "grid.d = 1\nf.kind = fermi\nw.kind = delta\npert.amplitude = 1e-3\npert.mode = 99\n"


@pytest.mark.parametrize("kind, text, key", [
    pytest.param("norms", "grid.d = 1\ngrid.N = 4\n", "grid.N", id="norms-grid.N"),
    *[pytest.param("picard", f"grid.d = {d}\ngrid.N = {N}\nf.kind = fermi\nw.kind = delta\n"
                   "pert.amplitude = 1e-3\npicard.steps = 4\n", "grid.N", id=f"picard-d{d}-N{N}")
      for d, N in ((1, 4), (3, 2), (3, 4))],
    *[pytest.param(kind, _NO_MODE, "f.kind", id=f"{kind}-f.kind")
      for kind in _STACK_KINDS[1:]],
    *[pytest.param(kind, _NO_KEPT_MODE, "theta", id=f"{kind}-theta") for kind in _STACK_KINDS],
    *[pytest.param(kind, _NO_SUCH_MODE, "pert.mode", id=f"{kind}-pert.mode")
      for kind in _STACK_KINDS[1:]],
    # the xi grid ran to an infinite Nyquist frequency, a linspace warning
    *[pytest.param(kind, "grid.d = 1\ngrid.N = 1099511627776\ngrid.L = 1e-300\nf.kind = fermi\n"
                   "w.kind = delta\n", "grid.N", id=f"{kind}-nyquist")
      for kind in ("linear-response", "stability-check")],
])
def test_unrunnable_config_exits_two_with_a_reason(kind, text, key, tmp_path, capsys):
    # a grid with no dyadic block, a distribution with no mode to perturb, a
    # threshold that keeps no mode, a perturbed mode past the mode count, an
    # L2 grid whose frequencies overflow: one error line naming the key, no
    # traceback
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}=") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid, snapped", [
    ("grid.N = 2", "grid.N=2 with grid.L=6.28319 snaps the most unstable ray frequency |k|=1.73205 "
                   "to |k|=0"),
    ("grid.L = 1e300", "grid.N=64 with grid.L=1e+300 snaps the most unstable ray frequency "
                       "|k|=1.73205 to |k|=1.94779e-298"),
], ids=["N=2", "L=1e300"])
def test_instability_grid_without_the_unstable_frequency_exits_two(grid, snapped, tmp_path, capsys):
    # grid.N = 2 keeps the lattice frequencies 0 and -1, so the most unstable
    # ray frequency sqrt(3) snaps to k = 0; at grid.L = 1e300 it snaps to the
    # largest lattice frequency, 31 * 2 pi / L, whose square underflows.  The
    # growth fit overflowed there with a RuntimeWarning and exited 1 (sim_rate
    # NaN and sim_k [0.0] at N = 2, seed 2)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"grid.d = 1\ntwowave.m = 1.0\ntwowave.xi = 1.0\nT = 0.02\n{grid}\n")
    out = tmp_path / "out"
    assert cli.main(["instability", "--config", str(cfg_path), "--out", str(out), "--seed", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {snapped}, whose square is 0: no growth to fit\n"
    assert not out.exists()


# f.T = 1e300: the support radius is 6.4e150 and the mass of |f|^2 on the
# radial panels overflows to h(0) = inf (T, two steps, for equilibrium-check)
_OVERFLOWING_MASS = "grid.d = 3\ngrid.N = 8\nf.kind = fermi\nf.T = 1e300\nw.kind = delta\n" \
                    "tau.count = 3\nxi.count = 3\nT = 0.002\n"


@pytest.mark.parametrize("kind", ["linear-response", "stability-check", "equilibrium-check"])
def test_cli_overflowing_profile_mass_exits_with_a_reason(kind, tmp_path):
    # the L2 runs wrote NaN rows, margins and epsilon_g behind 9 and 11
    # RuntimeWarnings; they exit 1 with one error line and no payload.
    # equilibrium-check reports m_quadrature = Infinity, with no warning
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_OVERFLOWING_MASS)
    out = tmp_path / "out"
    proc = _run_cli([kind, "--config", str(cfg_path), "--out", str(out)])
    if kind == "equilibrium-check":
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        summary = json.loads((out / "summary.ndjson").read_text())
        assert summary["m_quadrature"] == math.inf
        return
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: h(0) = inf is not finite: the mass of |f|^2 overflows\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["linear-response", "stability-check"])
def test_cli_extreme_grid_length_prints_no_warning(kind, tmp_path):
    # at grid.L = 1e300 the frequencies reach 1e-300 and the H arguments
    # 1e300: r * r in f2 and the principal-value denominators overflow
    # toward terms whose value is 0, which printed two RuntimeWarnings
    # (a traceback for stability-check under the child's error filter)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("grid.d = 1\ngrid.N = 8\ngrid.L = 1e300\nf.kind = fermi\nw.kind = delta\n"
                        "tau.count = 3\nxi.count = 3\n")
    proc = _run_cli([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


_BUMP_RUN = MINIMAL_EQ + "pert.amplitude = 1e-3\ndt = 0.01\nT = 0.02\n"
_PICARD_RUN = MINIMAL_EQ + "grid.N = 16\npert.amplitude = 1e-3\nT = 0.05\npicard.steps = 4\n"
_TWO_WAVE_RUN = "grid.d = 1\ngrid.N = 16\ntwowave.m = 1.0\ntwowave.xi = 1.0\nfuzz.count = 20\n" \
                "scan.count = 16\nT = 1.0\n"
_L2_RUN = "grid.d = 2\ngrid.N = 8\nw.kind = delta\ntau.count = 3\nxi.count = 3\n"

# float keys at the ends of their range, each of which printed RuntimeWarnings
# (a traceback under the child's error filter): a bump width whose square
# underflows gave a NaN start, reported as a mass sum that overflows; (width
# k)^2 and (r / scale)^2 overflow toward exp's limit 0; the Picard iterates of
# a huge potential overflow to the inf norms that the divergence test reads;
# the two-wave closed form squares a huge symbol entry twice (|xi|^2 itself
# overflows at twowave.xi = 1e300), and its growth fit's exp overflows.
# (kind, config, exit code, text of the one error line)
_EXTREME_FLOATS = {
    "bump-width-underflows": ("simulate", _BUMP_RUN + "pert.width = 1e-300\n", 2, "pert.width=1e-300"),
    "bump-width-underflows-picard": ("picard", _PICARD_RUN + "pert.width = 1e-170\n", 2,
                                     "pert.width=1e-170"),
    "bump-quotient-overflows": ("scattering-probe", _BUMP_RUN + "pert.width = 1e-160\n", 0, None),
    "potential-width": ("simulate", _BUMP_RUN.replace("w.kind = delta", "w.kind = gaussian")
                        + "w.width = 1e300\n", 0, None),
    "distribution-scale": ("equilibrium-check", MINIMAL_EQ.replace("fermi", "gaussian")
                           + "f.scale = 1e-300\nT = 0.002\n", 0, None),
    "distribution-scale-l2": ("stability-check", _L2_RUN + "f.kind = gaussian\nf.scale = 1e-300\n", 0, None),
    "picard-amplitude": ("picard", _PICARD_RUN + "w.amplitude = 1e300\n", 1, None),
    "picard-negative-amplitude": ("picard", _PICARD_RUN + "w.amplitude = -1e300\n", 1, None),
    "two-wave-amplitude": ("instability", _TWO_WAVE_RUN + "w.amplitude = 1e300\n", 2, "w.amplitude"),
    "two-wave-scan": ("instability", _TWO_WAVE_RUN + "scan.rmax = 1e300\n", 2, "scan.rmax"),
    "two-wave-carrier": ("instability", _TWO_WAVE_RUN.replace("twowave.xi = 1.0", "twowave.xi = 1e300"), 2,
                         "twowave.xi"),
    "two-wave-fit": ("instability", _TWO_WAVE_RUN + "w.amplitude = -1e6\n", 1, None),
}


@pytest.mark.parametrize("case", list(_EXTREME_FLOATS))
def test_cli_extreme_float_keys_print_no_warning(case, tmp_path):
    kind, text, code, error = _EXTREME_FLOATS[case]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    proc = _run_cli([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == code, proc.stderr
    if error is None:
        assert proc.stderr == "", proc.stderr
    else:
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
        assert error in proc.stderr
        assert not (tmp_path / "out").exists()
