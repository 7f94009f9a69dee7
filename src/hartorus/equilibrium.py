"""Momentum distributions, interaction potentials, and the covariance profile.

The covariance profile h is the transform of the squared distribution
WITHOUT the (2*pi)^-d prefactor:

    h(x) = integral over R^d of |f(xi)|^2 e^{i xi.x} d xi,

reduced to a radial integral with the exact angular kernel for each
dimension (cosine for d=1, J0 for d=2, spherical sinc for d=3, J1-type
for d=4).  One convention is fixed package-wide; the equilibrium residual
and the response cross-checks validate it operationally.

CovarianceProfile tabulates h with one fixed-node Gauss-Legendre radial
transform per block of table nodes (panels of a few kernel periods, in the
spirit of Ogata's Bessel-kernel quadrature).  Every d takes the same path:
the nodes are a grid of exact sums, the kernel's radial weight goes into the
Gauss weights, and one kernel sum per chunk of radial nodes follows, by
angle addition at d = 1 and 3 and by the Bessel function at d = 2 and 4.
eval_h is the adaptive single-point quadrature kept as its oracle.  No run
calls eval_h, so it imports scipy.integrate on its first call; it stays in
this module because the benchmark's response oracle and its tracer read it
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma, j0, j1


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1}."""
    return 2 * math.pi ** (d / 2) / gamma(d / 2)


# ---------------------------------------------------------------------------
# distribution functions


@dataclass(frozen=True)
class DistributionFunction:
    """Radial momentum distribution; f2(r) evaluates |f|^2 at radius r."""

    kind: str
    T: float = 1.0
    mu: float = 0.0
    profile: Optional[Callable] = None
    support_hint: Optional[float] = None

    def __post_init__(self):
        if self.kind == "bose":
            if self.mu >= 0:
                raise ValueError("bose distribution requires mu < 0 (no pole)")
            if self.T <= 0:
                raise ValueError("bose distribution requires T > 0")
        elif self.kind == "fermi":
            if self.T <= 0:
                raise ValueError("fermi distribution requires T > 0")
        elif self.kind == "zero_temp_fermi":
            if self.mu <= 0:
                raise ValueError("zero-temperature fermi requires mu > 0")
        elif self.kind == "custom":
            if self.profile is None:
                raise ValueError("custom distribution needs a radial profile")
        elif self.kind != "zero":
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    def f2(self, r):
        """|f(r)|^2, vectorized and overflow-safe."""
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "custom":
            return np.maximum(np.asarray(self.profile(r), dtype=float), 0.0)
        with np.errstate(over="ignore"):  # r * r or z past the largest float is inf: f2's limit
            if self.kind == "zero_temp_fermi":  # the indicator of r^2 <= mu
                return np.where(r * r <= self.mu, 1.0, 0.0)
            z = (r * r - self.mu) / self.T
        if self.kind == "fermi":
            zc = np.clip(z, -700.0, 700.0)
            e = np.exp(-np.abs(zc))
            return np.where(z >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
        # bose: mu < 0 keeps z >= |mu|/T > 0
        zc = np.clip(z, 1e-300, 700.0)
        return 1.0 / np.expm1(zc)

    def support_radius(self, tol: float = 1e-18) -> float:
        """Radius beyond which f2 < tol (used to truncate quadrature); a custom
        profile without a hint that is not finite on the scan has none
        (ValueError)."""
        if self.kind == "zero":
            return 1.0
        if self.kind == "zero_temp_fermi":
            return math.sqrt(self.mu)
        if self.kind == "custom":
            if self.support_hint is not None:
                return self.support_hint
            # one step past the last sample of a fine geometric scan above tol
            r = np.geomspace(1e-6, 1e4, 10001)
            f2 = self.f2(r)
            if not np.all(np.isfinite(f2)):
                raise ValueError("the custom profile is not finite on [1e-6, 1e4]: no support radius")
            above = np.flatnonzero(f2 > tol)
            return float(r[min(above[-1] + 1, len(r) - 1)]) if len(above) else 1.0
        return math.sqrt(max(self.mu, 0.0) + self.T * math.log(1.0 / tol))

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


def bose(T: float, mu: float) -> DistributionFunction:
    return DistributionFunction("bose", T=T, mu=mu)


def fermi(T: float, mu: float) -> DistributionFunction:
    return DistributionFunction("fermi", T=T, mu=mu)


def zero_temp_fermi(mu: float) -> DistributionFunction:
    return DistributionFunction("zero_temp_fermi", mu=mu)


def custom_radial(profile, support_hint=None) -> DistributionFunction:
    return DistributionFunction("custom", profile=profile, support_hint=support_hint)


def zero_distribution() -> DistributionFunction:
    return DistributionFunction("zero")


def gaussian_f2(amplitude: float = 1.0, scale: float = 1.0) -> DistributionFunction:
    """|f|^2 = amplitude * exp(-(r/scale)^2)."""
    def profile(r):
        with np.errstate(over="ignore"):  # (r/scale)^2 past the largest float: exp's limit 0
            return amplitude * np.exp(-((np.asarray(r) / scale) ** 2))

    return DistributionFunction("custom", profile=profile, support_hint=scale * 7.0)


# ---------------------------------------------------------------------------
# interaction potentials


@dataclass(frozen=True)
class InteractionPotential:
    """Pair potential specified through its real even transform w-hat."""

    kind: str
    amplitude: float = 1.0
    width: float = 1.0

    def what(self, k_abs):
        """w-hat at radius |k| (every kind is radial)."""
        k = np.asarray(k_abs, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(k)
        if self.kind == "delta":
            return np.full_like(k, self.amplitude)
        if self.kind == "gaussian":
            with np.errstate(over="ignore"):  # (width k)^2 past the largest float: exp's limit 0
                return self.amplitude * np.exp(-0.5 * (self.width * k) ** 2)
        raise ValueError(f"unknown potential kind {self.kind!r}")

    @property
    def what0(self) -> float:
        return float(self.what(0.0))


def delta_potential(amplitude: float = 1.0) -> InteractionPotential:
    return InteractionPotential("delta", amplitude=amplitude)


def gaussian_potential(amplitude: float, width: float) -> InteractionPotential:
    return InteractionPotential("gaussian", amplitude=amplitude, width=width)


def zero_potential() -> InteractionPotential:
    return InteractionPotential("zero")


# ---------------------------------------------------------------------------
# covariance profile h


_EVAL_H_TOL = 1e-10         # absolute and relative tolerance of eval_h's quad calls


def eval_h(f: DistributionFunction, d: int, x: float):
    """Radial transform of |f|^2 at radius |x|; returns (value, error estimate).

    Adaptive single-point quadrature: QUADPACK's weighted rules take the
    cosine/sine factors, the Bessel kernels go through adaptive panels with a
    subdivision budget that grows with the number of oscillations.  It serves
    as the oracle for CovarianceProfile's table and its h(0).
    """
    from scipy import integrate

    if not 1 <= d <= 4:
        raise ValueError(f"dimension {d} outside 1..4")
    x = abs(float(x))
    if f.is_zero:
        return 0.0, 0.0
    rend = f.support_radius() * (1.0 + 0.5 / _MARGINAL_PANELS)  # a jump at the end is interior
    f2 = f.f2
    acc = {"epsabs": _EVAL_H_TOL, "epsrel": _EVAL_H_TOL}
    if x == 0.0:
        val, err = integrate.quad(lambda r: f2(r) * r ** (d - 1), 0.0, rend, limit=200, **acc)
        s = sphere_area(d)
        return s * val, s * err

    if d == 1:
        val, err = integrate.quad(f2, 0.0, rend, weight="cos", wvar=x, limit=200, **acc)
        return 2.0 * val, 2.0 * err
    if d == 2:
        lim = max(200, int(60 * (1 + x * rend / math.pi)))
        val, err = integrate.quad(lambda r: f2(r) * r * j0(r * x), 0.0, rend, limit=lim, **acc)
        return 2 * math.pi * val, 2 * math.pi * err
    if d == 3:
        val, err = integrate.quad(lambda r: f2(r) * r, 0.0, rend, weight="sin", wvar=x, limit=200, **acc)
        return 4 * math.pi / x * val, 4 * math.pi / x * err
    lim = max(200, int(60 * (1 + x * rend / math.pi)))
    val, err = integrate.quad(lambda r: f2(r) * r * r * j1(r * x), 0.0, rend, limit=lim, **acc)
    c = (2 * math.pi) ** 2 / x
    return c * val, c * err


def _gauss_lobatto(n: int):
    """n-point Gauss-Lobatto rule on [-1, 1]: the ends and the roots of P'_{n-1}."""
    p = np.polynomial.legendre.Legendre.basis(n - 1)
    x = np.r_[-1.0, np.sort(p.deriv().roots()), 1.0]
    return x, 2.0 / (n * (n - 1) * p(x) ** 2)


_GAUSS_HI = np.polynomial.legendre.leggauss(32)
_GAUSS_LO = np.polynomial.legendre.leggauss(16)
_LOBATTO = _gauss_lobatto(16)
_PERIODS_PER_PANEL = 5.0
_PHASE = 16                 # columns of a block's node grid, rows of a d = 1, 3 phase table
_TABLE_BLOCK = _PHASE ** 2  # table nodes per radial transform
_RADIAL_CHUNK = 4096        # radial nodes per kernel matrix (bounds temporaries)
# (c_d, p) of the radial weight c_d r^p of h's kernel at each d
_RADIAL_WEIGHT = {1: (2.0, 0), 2: (2 * math.pi, 1), 3: (4 * math.pi, 1), 4: ((2 * math.pi) ** 2, 2)}
_MAX_BISECTIONS = 60
_PANEL_MASS_TOL = 1e-12     # relative to the mass on the uniform panels
_TABLE_TOL = 1e-13          # |h| below this times h(0) counts as zero
_X_MAX_CAP = 400.0          # the h table ends here at the latest
# over a stretch of 4 in x, or to the cap at zero temperature: a support
# radius past ~3e3 is refused, and a zero-temperature mu past ~1035
_TABLE_MAX_NODES = 1 << 16
_MARGINAL_PANELS = 8        # uniform radial panels of h(0) and rho1 before bisection
# entries per temporary of the rho1 and H passes (128 KiB): stability-check
# runs them beside the h table build, whose temporaries are live at the same time
_CHUNK_ELEMENTS = 1 << 14


def _gauss_nodes(a, b, rule):
    """Flattened nodes and weights of one Gauss rule on each panel [a_i, b_i]."""
    nodes, weights = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()


def _panel_masses(f: DistributionFunction, d: int, a, b, rule):
    """int f2 r^{d-1} dr on each panel [a_i, b_i] by one Gauss rule."""
    r, w = _gauss_nodes(a, b, rule)
    return (f.f2(r) * r ** (d - 1) * w).reshape(len(a), -1).sum(axis=1)


def _radial_panels(f: DistributionFunction, d: int, rend: float, n: int):
    """n uniform panels on [0, rend], bisected until the 32-point rule agrees
    on each panel's mass |S^{d-1}| int f2 r^{d-1} dr with the 16-point rule,
    with the sum of 16-point rules on its first third and its last two
    thirds, and with the 16-point Lobatto rule, to within _PANEL_MASS_TOL
    times the mass on the uniform panels.

    Smooth profiles keep the uniform panels; a jump inside the interval is
    bisected down to a sliver whose mass is below the tolerance, so the
    panels grade geometrically toward it.  The symmetric rules alone agree
    on a jump in the gap around the panel midpoint, and the Gauss rules on
    a jump between a panel end and its outermost node.
    """
    edges = np.linspace(0.0, rend, n + 1)
    a, b = edges[:-1], edges[1:]
    area = sphere_area(d)
    tol = _PANEL_MASS_TOL * area * abs(float(np.sum(_panel_masses(f, d, a, b, _GAUSS_HI))))

    done_a, done_b = [], []
    for _ in range(_MAX_BISECTIONS):
        third = a + (b - a) / 3.0
        m32 = _panel_masses(f, d, a, b, _GAUSS_HI)
        split = area * np.maximum.reduce([
            np.abs(m32 - _panel_masses(f, d, a, b, _GAUSS_LO)),
            np.abs(m32 - _panel_masses(f, d, a, third, _GAUSS_LO)
                   - _panel_masses(f, d, third, b, _GAUSS_LO)),
            np.abs(m32 - _panel_masses(f, d, a, b, _LOBATTO))]) > tol
        done_a.append(a[~split])
        done_b.append(b[~split])
        a, b = a[split], b[split]
        if not len(a):
            break
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
    done_a.append(a)
    done_b.append(b)
    a, b = np.concatenate(done_a), np.concatenate(done_b)
    order = np.argsort(a)
    return a[order], b[order]


def _block_nodes(m0: float, dx: float):
    """The _TABLE_BLOCK table nodes after node m0 of the table (node 0 is x =
    0), spaced dx, through the first one at or past _X_MAX_CAP.

    They are a (rows, _PHASE) grid, row-major ascending, of the sums A_i +
    B_j, where A_i = (m0 + _PHASE i + 1) dx and B_j = j dx are each rounded
    to a multiple of the float spacing u at the block's end: every sum is
    exact, so a node is the very point at which the factorised kernel of d =
    1 and 3 evaluates h, and it stays within about u of its multiple of dx.
    """
    j = np.arange(_PHASE)
    u = math.ldexp(1.0, math.frexp((m0 + _TABLE_BLOCK + 1) * dx)[1] - 52)
    a = np.round((m0 + _PHASE * j + 1) * dx / u) * u
    b = np.round(j * dx / u) * u
    return a[:np.searchsorted(a + b[-1], _X_MAX_CAP) + 1, None] + b


def _radial_transform(f: DistributionFunction, d: int, xs, rend: float, panels: dict, rule):
    """h at the nodes xs > 0, a grid in the form of _block_nodes, by one
    fixed-node radial transform with one Gauss rule; flattened.

    Its panels on [0, rend] hold at most _PERIODS_PER_PANEL kernel periods at
    the last node before bisection; panels caches them by that uniform count.
    The kernel of h(x) = int_0^inf K_d(x, r) f2(r) dr is c_d r^p k(xr), over
    x at d >= 3: 2 cos, 2 pi r J0, 4 pi r sin and 4 pi^2 r^2 J1 at d = 1..4.
    The weight c_d r^p goes into the Gauss weights, one kernel sum per chunk
    of radial nodes takes k, and the division by x comes last.  At d = 1 and
    3, k(xr) at x = A_i + B_j is, by angle addition, a sum of products of the
    phase tables cos and sin of A_i r and of B_j r: two (_PHASE x R)(R x
    _PHASE) products in place of _TABLE_BLOCK x R sines.  At d = 2 and 4 the
    Bessel function is taken on the whole (nodes, R) grid.
    """
    n = max(1, math.ceil(rend * xs.flat[-1] / (2.0 * math.pi * _PERIODS_PER_PANEL)))
    if n not in panels:
        panels[n] = _radial_panels(f, d, rend, n)
    r, w = _gauss_nodes(*panels[n], rule)
    c, p = _RADIAL_WEIGHT[d]
    g = f.f2(r) * w * (c * r ** p)
    a, b = xs[:, 0], xs[0] - xs[0, 0]
    acc = np.zeros(xs.size)
    for s in range(0, len(r), _RADIAL_CHUNK):
        rc, gc = r[s:s + _RADIAL_CHUNK], g[s:s + _RADIAL_CHUNK]
        if d in (2, 4):
            k = np.outer(xs, rc)
            acc += (j0 if d == 2 else j1)(k, out=k) @ gc
            continue
        ar, br = np.outer(a, rc), np.outer(b, rc)
        sin_a, cos_a, sin_b, cos_b = np.sin(ar) * gc, np.cos(ar) * gc, np.sin(br), np.cos(br)
        if d == 1:  # cos(a + b) = cos a cos b - sin a sin b
            acc += (cos_a @ cos_b.T - sin_a @ sin_b.T).ravel()
        else:       # sin(a + b) = sin a cos b + cos a sin b
            acc += (sin_a @ cos_b.T + cos_a @ sin_b.T).ravel()
    if d >= 3:
        acc /= xs.ravel()
    return acc


def _line_marginal(f: DistributionFunction, d: int, a, b, v):
    """rho1 at v >= 0, zero from b[-1] on (f2 at d = 1); f2 is read only inside
    b[-1], so a v whose square overflows is 0.

    At d = 3, rho1(v) = 2 pi int_v^inf f2(r) r dr: the 32-point masses of the
    radial panels (a, b) past the one that holds v, summed from the end, plus
    one 32-point rule on [v, b_k] of v's panel k.  At d = 2 and 4 it is the
    q-integral over the images q = sqrt(r^2 - v^2) of the panels beyond v.
    """
    out = np.zeros(len(v))
    inside = np.flatnonzero(v < b[-1])
    if d == 1:
        out[inside] = f.f2(v[inside])
        return out
    if d == 3:
        # int f2 r dr on each panel (its d = 2 mass), summed from the end
        tails = np.r_[np.cumsum(_panel_masses(f, 2, a, b, _GAUSS_HI)[::-1])[::-1][1:], 0.0]
        k = np.searchsorted(b, v[inside], side="right")
        step = max(1, _CHUNK_ELEMENTS // len(_GAUSS_HI[0]))
        for s in range(0, len(inside), step):
            rows, ks = inside[s:s + step], k[s:s + step]
            r, w = _gauss_nodes(v[rows], b[ks], _GAUSS_HI)
            out[rows] = (f.f2(r) * r * w).reshape(len(rows), -1).sum(axis=1) + tails[ks]
        return 2 * math.pi * out
    step = max(1, _CHUNK_ELEMENTS // (len(a) * len(_GAUSS_HI[0])))
    for s in range(0, len(inside), step):
        rows = inside[s:s + step]
        vs = v[rows, None]
        lo = np.sqrt(np.maximum(a, vs) ** 2 - vs * vs)
        hi = np.sqrt(np.maximum(b * b - vs * vs, 0.0))
        q, wq = (t.reshape(len(vs), -1) for t in _gauss_nodes(lo.ravel(), hi.ravel(), _GAUSS_HI))
        out[rows] = (f.f2(np.sqrt(vs * vs + q * q)) * q ** (d - 2) * wq).sum(axis=1)
    return sphere_area(d - 1) * out


def _line_nodes(f: DistributionFunction, d: int, a, b, rule):
    """(nodes, weights, rho1) of one Gauss rule on the radial panels (a, b)."""
    v, w = _gauss_nodes(a, b, rule)
    return v, w, _line_marginal(f, d, a, b, v)


def _principal_value(x, rho, table, end: float):
    """PV integral rho1(v)/(x - v) dv over the real line at x = |w| >= 0, where
    rho = rho1(x), from a line table (nodes, weights, rho1) of panels ending
    at end: 2x sum_j W_j (rho1(v_j) - rho) / (x^2 - v_j^2) + rho ln((end + x)
    / (end - x))."""
    v, wv, rv = table
    pv = np.empty(len(x))
    step = max(1, _CHUNK_ELEMENTS // len(v))
    for s in range(0, len(x), step):
        xs, rs = x[s:s + step, None], rho[s:s + step, None]
        with np.errstate(over="ignore"):  # a denominator past the largest float: its term is 0
            den = (xs - v) * (xs + v)
        pv[s:s + step] = 2.0 * xs[:, 0] * (wv * (rv - rs) / den).sum(axis=1)
    return pv + rho * np.log((end + x) / np.where(x < end, end - x, 1.0))


class CovarianceProfile:
    """Cached radial evaluator for h (a spline table for bulk lookups) and for
    its half-line transform H (a table of the line marginal rho1).

    h0 (error h0_err) is the mass on the radial panels at whose nodes rho1 is
    tabulated; they run half a uniform panel past support_radius(), so the
    bisection grades them toward a jump of f2 there as toward an interior one.
    The h table, built once on its first read by the 32-point rule alone,
    holds h at nodes spaced dx from 0 until |h| has stayed below _TABLE_TOL *
    |h(0)| over a stretch of 4 in x (at most to _X_MAX_CAP); beyond its last
    node x_max h is zero.  Each block of nodes is a grid of exact sums A_i +
    B_j; at d = 1 and 3 angle addition takes its cosine or sine kernel from
    two phase tables, and at d = 3 rho1(v) is 2 pi times the tail of int f2
    r dr past v, a sum of panel masses and one partial panel.  A profile
    with h(0) = 0 splines zeros on [0, 1], so every profile has the same
    kind of table.  The error estimates are computed when read:
    table_error() is the largest per-node |GL32 - GL16| (the 16-point pass
    over the table's blocks and panels, kept for it) plus the largest gap
    between the spline and the fixed-node transform at the node midpoints,
    the interpolation error, taken on its first call; the 16-point line
    table behind the H estimate is built on the first half_line_transform
    that asks for errors.
    """

    def __init__(self, f: DistributionFunction, d: int):
        self.f = f
        self.d = d
        rend = f.support_radius() * (1.0 + 0.5 / _MARGINAL_PANELS)
        with np.errstate(over="ignore", invalid="ignore"):  # a mass that overflows is h0 = inf or nan
            self._panels = _radial_panels(f, d, rend, _MARGINAL_PANELS)
            m32, m16 = (_panel_masses(f, d, *self._panels, rule) for rule in (_GAUSS_HI, _GAUSS_LO))
            self.h0 = sphere_area(d) * float(np.sum(m32))
            self.h0_err = sphere_area(d) * float(np.sum(np.abs(m32 - m16)))

    @cached_property
    def _table(self):
        """(spline, blocks, panels, dx) of the h table: the spline through
        the 32-point values, each block's (index of the last node before it,
        nodes, values, nodes kept), the radial panels by uniform count and
        the node spacing, for table_error to rebuild the 16-point pass of
        each block to the bit."""
        if self.h0 == 0.0:
            return CubicSpline([0.0, 1.0], [0.0, 0.0], bc_type=((1, 0.0), "natural")), [], {}, None
        if not math.isfinite(self.h0):
            raise ValueError(f"h(0) = {self.h0} is not finite: no h table")
        rsup = self.f.support_radius(1e-10)
        rend = self.f.support_radius()
        dx = min(0.05, math.pi / (16.0 * max(rsup, 1e-6)))
        floor = _TABLE_TOL * abs(self.h0)
        quiet_stop = int(4.0 / dx) + 4
        # h of a jump never goes quiet: a zero-temperature table runs to the cap
        if (_X_MAX_CAP / dx if self.f.kind == "zero_temp_fermi" else quiet_stop) > _TABLE_MAX_NODES:
            raise ValueError(f"support radius {rsup:g} needs over {_TABLE_MAX_NODES} h table nodes")
        xs, hs, blocks, panels = [np.zeros(1)], [np.array([self.h0])], [], {}
        x, m, quiet = 0.0, 0, 0
        while x < _X_MAX_CAP and quiet < quiet_stop:
            grid = _block_nodes(m, dx)
            vb = _radial_transform(self.f, self.d, grid, rend, panels, _GAUSS_HI)
            xb = grid.ravel()
            # the quiet run at each node: the nodes since the last loud one,
            # carried over from the blocks before while none has been loud
            at = np.arange(len(vb))
            loud = np.maximum.accumulate(np.where(np.abs(vb) < floor, -1, at))
            run = np.where(loud < 0, quiet + at + 1, at - loud)
            # the scan stops after the first node at the cap or ending a quiet stretch
            stop = np.flatnonzero((xb >= _X_MAX_CAP) | (run >= quiet_stop))
            n = int(stop[0]) + 1 if len(stop) else len(vb)
            blocks.append((m, grid, vb, n))
            x, m, quiet = xb[n - 1], m + n, int(run[n - 1])
            xs.append(xb[:n])
            hs.append(vb[:n])
        # h is even, so h'(0) = 0 clamps the start of the spline
        spline = CubicSpline(np.concatenate(xs), np.concatenate(hs), bc_type=((1, 0.0), "natural"))
        return spline, blocks, panels, dx

    @property
    def spline(self):
        return self._table[0]

    @property
    def x_max(self) -> float:
        return float(self.spline.x[-1])

    @cached_property
    def _table_error(self) -> float:
        sp, blocks, panels, dx = self._table
        f, d, rend = self.f, self.d, self.f.support_radius()
        errs, gap = [[self.h0_err]], 0.0
        for m0, xb, vb, n in blocks:
            errs.append(np.abs(vb - _radial_transform(f, d, xb, rend, panels, _GAUSS_LO))[:n])
            # the points halfway to each node from the one before, in the nodes' form
            mids = _block_nodes(m0 - 0.5, dx)
            hb = _radial_transform(f, d, mids, rend, panels, _GAUSS_HI)[:n]
            gap = max(gap, float(np.max(np.abs(sp(mids.ravel()[:n]) - hb))))
        return (float(np.max(np.concatenate(errs))) if blocks else 0.0) + gap

    def table_error(self) -> float:
        return self._table_error

    def _lookup(self, sp, x):
        """sp, the table's spline or a derivative of it, at |x|; zero past x_max."""
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x <= self.x_max, sp(np.minimum(x, self.x_max)), 0.0)

    def __call__(self, x):
        """Vectorized h(|x|) from the cached table."""
        return self._lookup(self.spline, x)

    def derivative(self, n: int = 1):
        dsp = self.spline.derivative(n)
        return lambda x: self._lookup(dsp, x)

    @cached_property
    def _line_table(self):
        """(nodes, weights, rho1) of the 32-point rule on the radial panels."""
        return _line_nodes(self.f, self.d, *self._panels, _GAUSS_HI)

    @cached_property
    def _line_table_lo(self):
        """The same by the 16-point rule; only the H error estimate reads it."""
        return _line_nodes(self.f, self.d, *self._panels, _GAUSS_LO)

    def half_line_transform(self, w, errors: bool = True):
        """H(w) = integral_0^inf e^{-iws} h(s) ds at an array of w; returns (H,
        error), the error None when errors is false.

        H = pi rho1(w) - i PV integral rho1(v)/(w - v) dv at |w|, Im H taking
        the sign of w, so H(-w) = conj H(w) exactly.  rho1 is even and zero
        from the panel end R on: the PV is 2|w| sum_j W_j (rho1(v_j) -
        rho1(|w|)) / (w^2 - v_j^2) + rho1(|w|) ln((R + |w|)/(R - |w|)) over the
        tabulated v_j > 0.  The error estimate is computed only when asked
        for: the 16-point PV beside the 32-point one, with rho1(|w|) shared,
        and its |GL32 - GL16|.  It leaves out the bisection tolerance of the
        sliver panels: near the Fermi edge of zero-temperature fermi at mu =
        4, d = 3, the gap to the exact H was 1.8e-10 against an estimate of
        about 1e-13.
        """
        w = np.asarray(w, dtype=float)
        x = np.abs(w).ravel()
        end = self._panels[1][-1]
        rho = _line_marginal(self.f, self.d, *self._panels, x)
        pv = _principal_value(x, rho, self._line_table, end)
        H = (math.pi * rho - 1j * (np.sign(w.ravel()) * pv)).reshape(w.shape)
        if not errors:
            return H, None
        return H, np.abs(pv - _principal_value(x, rho, self._line_table_lo, end)).reshape(w.shape)


def equilibrium_mass(f: DistributionFunction, w: InteractionPotential, d: int) -> float:
    """w-hat(0) times the total squared-distribution mass h(0)."""
    return w.what0 * CovarianceProfile(f, d).h0


# ---------------------------------------------------------------------------
# hypothesis checker


@dataclass
class Bullet:
    name: str
    passed: Optional[bool]   # None marks indeterminate
    value: float
    threshold: Optional[float] = None
    note: str = ""


def hypothesis_check(cov: CovarianceProfile, w: InteractionPotential,
                     epsilon_g: float) -> list:
    """Numerically evaluate the admissibility bullets for the distribution of
    the profile cov and w, in the profile's dimension, as a list of Bullet in
    a fixed order; the profile's table is reused.
    epsilon_g is the low-frequency threshold of response.epsilon_g, which the
    defocusing bullet compares with w-hat(0).

    The integral bullets are sums over the profile's radial panels, which
    grade toward every jump of f2: the 32-point Gauss rule for the weighted
    mass, and for int |f f'| = int |(f2)'| / 2 the total variation of f2
    over the sorted panel ends and nodes, so jumps count.  Derivative bounds
    on the covariance profile use radial spline derivatives as the computed
    surrogate.  A non-finite value marks a bullet indeterminate, and so does
    an h table that cannot be built the three bullets read off it.
    """
    f, d = cov.f, cov.d
    s_ceil = math.ceil(d / 2 - 1)
    rend = f.support_radius()
    area = sphere_area(d)
    two_area = 2.0 * area
    ks = np.linspace(0.0, 64.0, 4097)
    wneg = float(np.max(np.maximum(-w.what(ks), 0.0)))
    w0p = max(w.what0, 0.0)

    if f.is_zero:
        bullets = [Bullet(name, True, 0.0, note="zero distribution")
                   for name in ("weighted_l2", "f_gradf_integrable", "monotone_decreasing",
                                "h_derivative_decay", "h_low_frequency_integrable")]
        bullets.append(Bullet("potential_focusing_part", True, 0.0, threshold=math.inf,
                              note="zero distribution: no constraint"))
    else:
        a, b = cov._panels
        r, wr = _gauss_nodes(a, b, _GAUSS_HI)
        # <r>^ceil(s) f in L^2
        val = area * float(np.sum((1 + r * r) ** s_ceil * f.f2(r) * r ** (d - 1) * wr))
        bullets = [Bullet("weighted_l2", True if math.isfinite(val) else None, val)]

        # integral of |xi|^{1-d} |f grad f|  ->  area * int |(f2)'| dr / 2
        val = area * 0.5 * float(np.sum(np.abs(np.diff(f.f2(np.sort(np.r_[a, b, r]))))))
        bullets.append(Bullet("f_gradf_integrable", True if math.isfinite(val) else None, val,
                              note="total variation of f2 over the radial panels, halved"))

        # strict radial decrease of f2
        rs = np.geomspace(1e-3 * max(rend, 1e-3), rend, 400)
        f2s = f.f2(rs)
        diffs = np.diff(f2s)
        live = f2s[:-1] > 1e-250
        strict = bool(np.all(diffs[live] < 0)) if np.any(live) else False
        worst = float(np.max(diffs[live])) if np.any(live) else 0.0
        bullets.append(Bullet("monotone_decreasing", strict, worst,
                              note="max consecutive increment on a log grid"))

        # the three bullets read off the h table
        try:
            x_max = cov.x_max  # builds the table, refused for non-finite values
        except ValueError:
            decay = Bullet("h_derivative_decay", None, math.nan, note="table build failed")
            low = Bullet("h_low_frequency_integrable", None, math.nan)
            focus = Bullet("potential_focusing_part", None, wneg)
        else:
            # <x>^2 d^alpha h bounded for |alpha| <= 2*ceil(s): radial surrogate
            xs = np.linspace(0.0, x_max, 1500)
            worst_sup = 0.0
            for n in range(0, 2 * s_ceil + 1):
                dn = cov(xs) if n == 0 else cov.derivative(n)(xs)
                worst_sup = max(worst_sup, float(np.max((1 + xs ** 2) * np.abs(dn))))
            decay = Bullet("h_derivative_decay", bool(math.isfinite(worst_sup)), worst_sup,
                           note=f"sup <x>^2 |h^(n)|, n <= {2 * s_ceil}, radial spline surrogate")

            # |xi|^{1-d} (h + grad h) in L^1  ->  area * int (|h| + |h'|) dr
            xs = np.linspace(0.0, x_max, 4000)
            hv = np.abs(cov(xs))
            val = area * float(np.trapezoid(hv + np.abs(cov.derivative(1)(xs)), xs))
            low = Bullet("h_low_frequency_integrable", bool(math.isfinite(val)), val)

            # ||(w-hat)_-||_inf * int |h| / |x|^{d-2} dx < 2 |S^{d-1}|
            ih = area * float(np.trapezoid(hv * xs, xs))
            thr = math.inf if ih == 0 else two_area / ih
            focus = Bullet("potential_focusing_part", bool(wneg < thr), wneg, threshold=thr)
        bullets += [decay, low, focus]

    thr = math.inf if epsilon_g <= 0 else two_area / epsilon_g
    bullets.append(Bullet("potential_defocusing_part", bool(epsilon_g * w0p < two_area),
                          w0p, threshold=thr))
    return bullets
