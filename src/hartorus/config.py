"""Flat key=value experiment configuration with exhaustive validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equilibrium import (DistributionFunction, InteractionPotential, bose, delta_potential,
                          fermi, gaussian_f2, gaussian_potential, zero_distribution,
                          zero_potential, zero_temp_fermi)
from .grid import TorusGrid, _is_power_of_two

EXPERIMENT_KINDS = (
    "equilibrium-check", "simulate", "linear-response", "stability-check",
    "instability", "picard", "norms", "scattering-probe",
)

_F_KINDS = ("bose", "fermi", "zero-temp-fermi", "gaussian", "zero")
_W_KINDS = ("delta", "gaussian", "zero")


def _parse_floats(s: str):
    return tuple(float(tok) for tok in s.split(",") if tok.strip() != "")


# key -> (converter, validator or None, default)
_SCHEMA = {
    "grid.d": (int, lambda v: 1 <= v <= 4 or "grid.d must be in 1..4", 1),
    "grid.L": (float, lambda v: v > 0 or "grid.L must be positive", 2 * math.pi),
    "grid.N": (int, lambda v: _is_power_of_two(v) or "grid.N must be a power of two", 64),
    "f.kind": (str, lambda v: v in _F_KINDS or f"f.kind must be one of {_F_KINDS}", "fermi"),
    "f.T": (float, lambda v: v > 0 or "f.T must be positive", 1.0),
    "f.mu": (float, None, 0.0),
    "f.amplitude": (float, lambda v: v >= 0 or "f.amplitude must be nonnegative", 1.0),
    "f.scale": (float, lambda v: v > 0 or "f.scale must be positive", 1.0),
    "w.kind": (str, lambda v: v in _W_KINDS or f"w.kind must be one of {_W_KINDS}", "delta"),
    "w.amplitude": (float, None, 1.0),
    "w.width": (float, lambda v: v > 0 or "w.width must be positive", 1.0),
    "dt": (float, lambda v: v > 0 or "dt must be positive", 1e-3),
    "T": (float, lambda v: v > 0 or "T must be positive", 1.0),
    "theta": (float, lambda v: v >= 0 or "theta must be nonnegative", 1e-8),
    "seed": (int, lambda v: v >= 0 or "seed must be nonnegative", 0),
    "obs.stride": (int, lambda v: v >= 1 or "obs.stride must be >= 1", 10),
    "pert.amplitude": (float, None, 1e-3),
    "pert.width": (float, lambda v: v > 0 or "pert.width must be positive", 1.0),
    "pert.center": (_parse_floats, None, None),
    "pert.carrier": (_parse_floats, None, None),
    "pert.mode": (int, lambda v: v >= 0 or "pert.mode must be >= 0", 0),
    "tau.max": (float, lambda v: v > 0 or "tau.max must be positive", 32.0),
    "tau.min": (float, lambda v: v > 0 or "tau.min must be positive", 1e-2),
    "tau.count": (int, lambda v: v >= 2 or "tau.count must be >= 2", 12),
    "xi.count": (int, lambda v: v >= 2 or "xi.count must be >= 2", 12),
    "scan.rmin": (float, lambda v: v >= 0 or "scan.rmin must be nonnegative", 0.05),
    "scan.rmax": (float, lambda v: v > 0 or "scan.rmax must be positive", 3.0),
    "scan.count": (int, lambda v: v >= 2 or "scan.count must be >= 2", 512),
    "twowave.m": (float, lambda v: v >= 0 or "twowave.m must be nonnegative", 1.0),
    "twowave.xi": (_parse_floats, None, (1.0,)),
    "fuzz.count": (int, lambda v: v >= 0 or "fuzz.count must be >= 0", 2000),
    "picard.steps": (int, lambda v: v >= 2 or "picard.steps must be >= 2", 200),
    "picard.iters": (int, lambda v: v >= 2 or "picard.iters must be >= 2", 8),
    "picard.substeps": (int, lambda v: v >= 1 or "picard.substeps must be >= 1", 5),
    "probe.radius": (float, lambda v: v > 0 or "probe.radius must be positive", None),
    "norms.fields": (int, lambda v: v >= 1 or "norms.fields must be >= 1", 200),
}

_REQUIRED = {
    "equilibrium-check": ("grid.d", "f.kind", "w.kind"),
    "simulate": ("grid.d", "f.kind", "w.kind", "pert.amplitude"),
    "linear-response": ("grid.d", "f.kind"),
    "stability-check": ("grid.d", "f.kind", "w.kind"),
    "instability": ("twowave.m", "twowave.xi"),
    "picard": ("grid.d", "f.kind", "w.kind", "pert.amplitude"),
    "norms": ("grid.d",),
    "scattering-probe": ("grid.d", "f.kind", "w.kind", "pert.amplitude"),
}


class ConfigError(Exception):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class RunConfig:
    kind: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    # -- factories ---------------------------------------------------------

    def make_grid(self) -> TorusGrid:
        return TorusGrid(d=self["grid.d"], L=self["grid.L"], N=self["grid.N"])

    def make_distribution(self) -> DistributionFunction:
        kind = self["f.kind"]
        if kind == "bose":
            return bose(self["f.T"], self["f.mu"])
        if kind == "fermi":
            return fermi(self["f.T"], self["f.mu"])
        if kind == "zero-temp-fermi":
            return zero_temp_fermi(self["f.mu"])
        if kind == "gaussian":
            return gaussian_f2(self["f.amplitude"], self["f.scale"])
        return zero_distribution()

    def make_potential(self) -> InteractionPotential:
        kind = self["w.kind"]
        if kind == "delta":
            return delta_potential(self["w.amplitude"])
        if kind == "gaussian":
            return gaussian_potential(self["w.amplitude"], self["w.width"])
        return zero_potential()

    def to_text(self) -> str:
        """Canonical echo; reparsing yields an equal config."""
        lines = [f"# kind = {self.kind}"]
        for key in sorted(self.values):
            v = self.values[key]
            if v is None:
                continue
            if isinstance(v, tuple):
                v = ",".join(repr(float(x)) for x in v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"


def parse_config(text: str, kind: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing all violations."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError([f"unknown experiment kind {kind!r}; choose from {EXPERIMENT_KINDS}"])
    violations = []
    seen = {}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected key = value, got {stripped!r}")
            continue
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key in seen:
            violations.append(f"duplicate key {key!r} on lines {seen[key]} and {lineno}")
            continue
        seen[key] = lineno
        if key not in _SCHEMA:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        conv, check, _ = _SCHEMA[key]
        try:
            value = conv(val)
        except (TypeError, ValueError):
            violations.append(f"line {lineno}: key {key!r} has malformed value {val!r}")
            continue
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))
                   if isinstance(v, float)):
            violations.append(f"line {lineno}: key {key!r} must be finite, got {val!r}")
            continue
        if check is not None:
            verdict = check(value)
            if verdict is not True:
                violations.append(f"line {lineno}: {verdict}")
                continue
        raw[key] = value

    for req in _REQUIRED[kind]:
        if req not in raw:
            violations.append(f"experiment {kind!r} requires key {req!r}")

    if violations:
        raise ConfigError(violations)

    values = {key: spec[2] for key, spec in _SCHEMA.items()}
    values.update(raw)

    # cross-field checks with everything resolved
    post = []
    if values["f.kind"] == "bose" and values["f.mu"] >= 0:
        post.append("f.kind = bose requires f.mu < 0")
    if values["f.kind"] == "zero-temp-fermi" and values["f.mu"] <= 0:
        post.append("f.kind = zero-temp-fermi requires f.mu > 0")
    for lo, hi in (("scan.rmin", "scan.rmax"), ("tau.min", "tau.max")):
        if values[lo] >= values[hi]:
            post.append(f"{lo} = {values[lo]:g} must be below {hi} = {values[hi]:g}")
    d = values["grid.d"]
    for vec_key in ("pert.center", "pert.carrier") + (("twowave.xi",) if kind == "instability" else ()):
        v = values[vec_key]
        if v is not None and len(v) != d:
            post.append(f"{vec_key} needs {d} comma-separated components, got {len(v)}")
    if post:
        raise ConfigError(post)

    if values["pert.center"] is None:
        values["pert.center"] = (values["grid.L"] / 2.0,) * d
    if values["pert.carrier"] is None:
        values["pert.carrier"] = (0.0,) * d

    return RunConfig(kind=kind, values=values)
