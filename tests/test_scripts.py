"""The example scripts of the README run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("equilibrium_demo.py", ["--N", "16", "--T", "0.1"]),
    ("response_scan.py", ["--d", "3"]),
    ("two_wave_dispersion.py", ["--out", "two_wave"]),
], ids=lambda v: v[:-3] if isinstance(v, str) else "")
def test_script_exits_zero(script, args, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    # the suite's error::RuntimeWarning filter does not reach a child interpreter
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
