import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from field_oracle import SpectralField
from hartorus import TorusGrid
from hartorus.field import fftn, ifftn


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(5, 2 * np.pi, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, -1.0, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, 2 * np.pi, 48)  # not a power of two
    g = TorusGrid(2, 4.0, 16)
    assert g.nyquist > 0
    assert g.xi_min == pytest.approx(2 * np.pi / 4.0)
    assert g.dxi == pytest.approx((2 * np.pi / 4.0) ** 2)


def test_frequency_lattice_layout():
    g = TorusGrid(1, 2 * np.pi, 8)
    assert np.allclose(np.sort(g.xi_axis), np.arange(-4, 4))


def test_constant_field_transform():
    g = TorusGrid(1, 2 * np.pi, 8)
    f = SpectralField.constant(g, 3.0 - 1.0j)
    hat = f.coefficients
    assert hat[0] == pytest.approx((3.0 - 1.0j) * g.volume)
    assert np.max(np.abs(hat[1:])) < 1e-13


def test_plane_wave_single_coefficient():
    g = TorusGrid(1, 2 * np.pi, 16)
    f = SpectralField.plane_wave(g, [3.0])
    hat = f.coefficients
    k = np.argmin(np.abs(g.xi_axis - 3.0))
    mask = np.ones(16, dtype=bool)
    mask[k] = False
    assert abs(hat[k] - g.volume) < 1e-12
    assert np.max(np.abs(hat[mask])) < 1e-12


def test_roundtrip_and_parseval_random():
    # the package's FFT pair round trip; Parseval through the grid's weight
    # against the oracle field's frequency-side norm
    g = TorusGrid(2, 5.0, 32)
    f = SpectralField.random(g, np.random.default_rng(0))
    assert np.max(np.abs(ifftn(fftn(f.values)) - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))
    assert abs(f.l2_physical() - f.l2_frequency()) <= 1e-12 * f.l2_physical()
    power = np.sum(np.abs(fftn(f.values)) ** 2)
    assert np.sqrt(power * g.parseval_weight) == pytest.approx(f.l2_frequency(), rel=1e-13)


def test_multiplier_identity_and_rejection():
    g = TorusGrid(1, 2 * np.pi, 32)
    f = SpectralField.random(g, np.random.default_rng(1))
    out = f.apply_multiplier(np.ones(g.shape))
    assert np.max(np.abs(out.values - f.values)) < 1e-13
    bad = np.ones(g.shape)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        f.apply_multiplier(bad)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(-3, 3), st.floats(-3, 3))
def test_multiplier_linearity(seed, alpha, beta):
    g = TorusGrid(1, 2 * np.pi, 32)
    rng = np.random.default_rng(seed)
    f = SpectralField.random(g, rng)
    h = SpectralField.random(g, rng)
    sym = np.exp(-1j * 0.3 * g.xi_squared)
    lhs = (alpha * f + beta * h).apply_multiplier(sym)
    rhs = alpha * f.apply_multiplier(sym) + beta * h.apply_multiplier(sym)
    scale = max(1.0, np.max(np.abs(lhs.values)))
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * scale


def test_translation_equivariance():
    # integer lattice shifts commute with multipliers to a few ulp (the FFT
    # round-off path differs, so bitwise equality is not attainable)
    g = TorusGrid(1, 2 * np.pi, 64)
    f = SpectralField.random(g, np.random.default_rng(2))
    sym = np.exp(-1j * 0.37 * g.xi_squared)
    a = f.apply_multiplier(sym).shift(5)
    b = f.shift(5).apply_multiplier(sym)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13 * max(1.0, np.max(np.abs(f.values)))


def test_values_immutable():
    g = TorusGrid(1, 2 * np.pi, 8)
    f = SpectralField.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 0.0


def test_import_skips_scipy_signal():
    # scipy.signal costs about 0.65 s and 20 MiB at import (2-CPU host); the package
    # convolves along time through its own FFT pair instead
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hartorus; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
