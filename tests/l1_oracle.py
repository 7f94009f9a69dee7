"""The linear response operator L1 in both representations, kept as a test oracle.

The stability condition is read off the multiplier m_f and the h table; no
experiment applies the operator itself.  Its two forms check those two
against each other: the time-domain form convolves in time with a kernel
built from the h table, the frequency-domain form multiplies by w-hat * m_f,
whose m_f comes from rho1.  Both zero-pad the time axis through scipy.fft
and take the space transforms from the package's FFT pair.
"""

import math

import numpy as np
import scipy.fft

from hartorus.field import fftn, ifftn
from hartorus.response import compute_mf_batch


def _radial_lookup(grid):
    r = grid.xi_norm.ravel()
    uniq, inv = np.unique(r, return_inverse=True)
    return uniq, inv


def _padded_fft(x, n):
    """Forward FFT along the time axis, zero-padded to n."""
    return scipy.fft.fftn(x, s=(n,), axes=(0,), workers=1)


def apply_L1_time_domain(V_stack, ts, cov, w, grid):
    """Causal in-time convolution per spatial frequency, trapezoid weights.

    V_stack is (n_t, *grid.shape) physical values on the uniform lattice ts;
    ValueError when cov is not a profile in the grid's dimension.
    """
    if cov.d != grid.d:
        raise ValueError(f"profile is for dimension {cov.d}, the grid for {grid.d}")
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    if V_stack.shape[0] != n_t:
        raise ValueError("time axis mismatch")
    dt = ts[1] - ts[0] if n_t > 1 else 0.0

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = fftn(V_stack, axes=space_axes).reshape(n_t, -1)

    uniq, inv = _radial_lookup(grid)
    lag = ts - ts[0]
    kern_r = -2.0 * np.sin(np.outer(lag, uniq ** 2)) * cov(2.0 * np.outer(lag, uniq))
    kern = kern_r[:, inv] * w.what(uniq)[inv][None, :]

    # trapezoid = full convolution (zero-padded past 2 n_t - 1, so the
    # transform does not wrap) minus half of the s=0 and s=t endpoint
    # terms; the kernel vanishes at zero lag so only s=0 remains.
    n_fft = scipy.fft.next_fast_len(2 * n_t - 1)
    conv = _padded_fft(kern, n_fft)
    conv *= _padded_fft(Vhat, n_fft)
    conv = ifftn(conv, axes=(0,), overwrite_x=True)[:n_t]
    out_hat = dt * (conv - 0.5 * kern * Vhat[0][None, :])
    return ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes, overwrite_x=True)


def apply_L1_frequency_domain(V_stack, ts, cov, w, grid):
    """Same operator through multiplication by w-hat * m_f on the time transform
    zero-padded to a power of 2 >= 2 n_t; m_f comes from rho1, not from the h
    table of the time-domain form, which makes this an independent representation.
    ValueError as there."""
    if cov.d != grid.d:
        raise ValueError(f"profile is for dimension {cov.d}, the grid for {grid.d}")
    V_stack = np.asarray(V_stack, dtype=complex)
    ts = np.asarray(ts, dtype=float)
    n_t = len(ts)
    dt = ts[1] - ts[0]
    n_pad = 1 << (2 * n_t - 1).bit_length()

    space_axes = tuple(range(1, grid.d + 1))
    Vhat = fftn(V_stack, axes=space_axes).reshape(n_t, -1)

    taus = 2.0 * math.pi * np.fft.fftfreq(n_pad, d=dt)
    uniq, inv = _radial_lookup(grid)
    mf_cols, _ = compute_mf_batch(cov, taus, uniq)
    symbol = mf_cols[:, inv] * w.what(uniq)[inv][None, :]

    out_pad = _padded_fft(Vhat, n_pad)
    out_pad *= symbol
    out_hat = ifftn(out_pad, axes=(0,), overwrite_x=True)[:n_t]
    return ifftn(out_hat.reshape((n_t,) + grid.shape), axes=space_axes, overwrite_x=True)
