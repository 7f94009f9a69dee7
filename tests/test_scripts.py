"""The example scripts of the README run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # the suite's error::RuntimeWarning filter does not reach a child interpreter
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "scripts" / script), *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script, args", [
    ("equilibrium_demo.py", ["--N", "16", "--T", "0.1"]),
    ("response_scan.py", ["--d", "3"]),
    pytest.param("response_scan.py", [], id="response_scan-default-d4"),
    pytest.param("response_scan.py", ["--d", "2"], id="response_scan-d2"),
    ("two_wave_dispersion.py", ["--out", "two_wave"]),
], ids=lambda v: v[:-3] if isinstance(v, str) else "")
def test_script_exits_zero(script, args, tmp_path):
    proc = _run(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_payload_drift_prints_the_largest_relative_change_of_each_field(tmp_path):
    # changes are relative to the field's largest |a| over the file's records;
    # unchanged non-numbers are not listed, changed ones are
    for side, (margin, mf, note) in {"a": (2.0, "1.0", "x"), "b": (2.0000000002, "1.5", "y")}.items():
        run = tmp_path / side / "run"
        run.mkdir(parents=True)
        (run / "stability.ndjson").write_text(json.dumps(
            {"margin": margin, "ok": True, "bullets": [{"value": 1.0, "note": note}]}) + "\n")
        (run / "table.csv").write_text(f"tau,re_mf\n0,{mf}\n1,-4.0\n")
    (tmp_path / "b" / "run" / "extra.csv").write_text("tau\n0\n")
    proc = _run("payload_drift.py", ["a", "b"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "run/extra.csv\t(only in b)",
        "run/stability.ndjson\tmargin\t1e-10",
        "run/stability.ndjson\tbullets[0].value\t0",
        "run/stability.ndjson\tbullets[0].note\tchanged",
        "run/table.csv\ttau\t0",
        "run/table.csv\tre_mf\t0.125"]
