"""The four benchmark workloads: inputs drawn from a seed, work units, oracles.

An op is one timed unit: every experiment of the workload run once through
the public ``parse_config`` + ``run_experiment`` API.  The seed draws only the
inputs named in each class docstring and is passed on to ``run_experiment``;
every op of a run repeats the same inputs, so payloads must repeat byte for
byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from hartorus import config as hconfig

# ROADMAP measurement: the Picard solve peaks at about 13 live
# (n_t, M, *grid) stacks.
PICARD_PEAK_STACKS = 13
_BYTES_PER_ENTRY = 16  # complex128


def mode_count(cfg) -> int:
    """Modes init_equilibrium keeps: lattice cells with f2 * dxi >= theta."""
    grid = cfg.make_grid()
    cell_mass = cfg.make_distribution().f2(grid.xi_norm) * grid.dxi
    return int(np.count_nonzero(cell_mass >= cfg["theta"]))


def _config_text(values: dict) -> str:
    def fmt(v):
        if isinstance(v, (tuple, list)):
            return ",".join(repr(float(x)) for x in v)
        return repr(v) if isinstance(v, float) else str(v)
    return "".join(f"{key} = {fmt(val)}\n" for key, val in values.items())


def _read_ndjson(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class Workload:
    """Base: subclasses set name/tolerance and build the config texts."""

    name = ""
    tolerance = 0.0
    # the oracle reads no payload, is seed-independent and too costly per op
    oracle_once = False

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        rng = np.random.default_rng(seed)
        self.specs = self.generate(rng)   # [(experiment kind, config text)]
        self.cfgs = None

    def parse(self):
        """Config parsing is part of set-up; looked up at call time so a
        traced set-up sees it."""
        self.cfgs = [hconfig.parse_config(text, kind) for kind, text in self.specs]

    def generate(self, rng) -> list:
        raise NotImplementedError

    def work(self, out_dirs) -> float:
        """Work units of one successful op."""
        raise NotImplementedError

    def oracle(self, out_dirs) -> float:
        """Error against the code's own independent oracle (untimed); out_dirs
        is None for an oracle_once workload."""
        raise NotImplementedError

    def preflight(self, mem_available: int):
        """Reason to refuse the next op, or None."""
        return None


class EvolveD3(Workload):
    """simulate at d=3, N=16; the seed draws the bump center, carrier, mode."""

    name = "evolve-d3"
    tolerance = 1e-10  # the simulate experiment's own drift bound

    def generate(self, rng):
        n, T, stride = (4, 0.02, 1) if self.smoke else (16, 0.05, 5)
        values = {"grid.d": 3, "grid.N": n, "f.kind": "fermi", "f.T": 1.0, "f.mu": 0.0,
                  "w.kind": "delta", "dt": 0.01, "T": T, "obs.stride": stride,
                  "pert.amplitude": 1e-3}
        self.modes = mode_count(hconfig.parse_config(_config_text(values), "simulate"))
        values["pert.center"] = tuple(rng.uniform(0.0, 2 * math.pi, 3))
        values["pert.carrier"] = tuple(float(k) for k in rng.integers(-2, 3, 3))
        values["pert.mode"] = int(rng.integers(0, self.modes))
        self.steps = round(T / 0.01)
        self.points = n ** 3
        return [("simulate", _config_text(values))]

    def work(self, out_dirs):
        return float(self.modes * self.points * self.steps)

    def oracle(self, out_dirs):
        energies = np.array([r["energy"] for r in _read_ndjson(out_dirs[0] / "trajectory.ndjson")])
        return float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))


class ResponseD3(Workload):
    """stability-check at d=3 on a smooth and a discontinuous distribution;
    the seed draws nothing (it is passed to run_experiment)."""

    name = "response-d3"
    tolerance = 1e-6  # no experiment bound exists; relative to h(0)
    oracle_once = True

    def generate(self, rng):
        grid = {"grid.d": 3, "grid.N": 4 if self.smoke else 16}
        if self.smoke:
            grid.update({"tau.count": 2, "xi.count": 2})
        dists = [{"f.kind": "fermi", "f.T": 1.0, "f.mu": 0.0},
                 {"f.kind": "zero-temp-fermi", "f.mu": 4.0}]
        return [("stability-check",
                 _config_text({**grid, **f, "w.kind": "delta", "w.amplitude": 0.1}))
                for f in dists]

    def work(self, out_dirs):
        return float(sum((2 * cfg["tau.count"] + 1) * cfg["xi.count"] for cfg in self.cfgs))

    def oracle(self, out_dirs):
        """max |CovarianceProfile(f,3)(x) - eval_h(f,3,x)| / h(0) off the table nodes."""
        from hartorus.equilibrium import CovarianceProfile, eval_h
        xs = np.linspace(0.0, 12.0, 33)[1:] - 0.0137
        worst = 0.0
        for cfg in self.cfgs:
            f = cfg.make_distribution()
            cov = CovarianceProfile(f, cfg["grid.d"])
            exact = np.array([eval_h(f, cfg["grid.d"], x)[0] for x in xs])
            worst = max(worst, float(np.max(np.abs(cov(xs) - exact)) / abs(cov.h0)))
        return worst


class PicardD2(Workload):
    """picard at d=2, N=32; the seed draws the bump center, carrier, mode."""

    name = "picard-d2"
    tolerance = 1e-4  # the experiment's matches_split_step bound

    def generate(self, rng):
        if self.smoke:
            values = {"grid.d": 1, "grid.N": 16, "T": 0.1, "picard.steps": 4,
                      "picard.iters": 3, "picard.substeps": 2}
        else:
            values = {"grid.d": 2, "grid.N": 32, "T": 0.25, "picard.steps": 15,
                      "picard.iters": 8, "picard.substeps": 5}
        d = values["grid.d"]
        values.update({"f.kind": "fermi", "f.T": 1.0, "f.mu": 0.0, "w.kind": "delta",
                       "pert.amplitude": 1e-3})
        self.modes = mode_count(hconfig.parse_config(_config_text(values), "picard"))
        values["pert.center"] = tuple(rng.uniform(0.0, 2 * math.pi, d))
        values["pert.carrier"] = tuple(float(k) for k in rng.integers(-2, 3, d))
        values["pert.mode"] = int(rng.integers(0, self.modes))
        self.n_t = values["picard.steps"] + 1
        self.points = values["grid.N"] ** d
        return [("picard", _config_text(values))]

    @property
    def stack_bytes(self) -> int:
        return self.n_t * self.modes * self.points * _BYTES_PER_ENTRY

    def preflight(self, mem_available):
        need = PICARD_PEAK_STACKS * self.stack_bytes
        if need > mem_available // 2:
            return (f"memory preflight: {PICARD_PEAK_STACKS} x {self.stack_bytes / 2**20:.1f} MiB "
                    f"stacks = {need / 2**20:.0f} MiB exceeds half of the "
                    f"{mem_available / 2**20:.0f} MiB available")
        return None

    def _records(self, out_dirs):
        return _read_ndjson(out_dirs[0] / "picard.ndjson")

    def work(self, out_dirs):
        iterations = sum(1 for r in self._records(out_dirs) if "iteration" in r)
        return float(iterations * self.n_t * self.modes * self.points)

    def oracle(self, out_dirs):
        return float(self._records(out_dirs)[-1]["sup_difference_vs_split_step"])


class TwoWaveD2(Workload):
    """instability with m=1 and carrier (1,0) at d=2; the seed is the fuzz RNG
    (passed to run_experiment), nothing else is drawn."""

    name = "twowave-d2"
    tolerance = 0.05  # the experiment's growth_rate_within_5pc bound

    def generate(self, rng):
        values = {"grid.d": 2, "grid.L": 16 * math.pi, "grid.N": 32 if self.smoke else 64,
                  "twowave.m": 1.0, "twowave.xi": (1.0, 0.0), "w.kind": "delta", "T": 24.0}
        if self.smoke:
            values.update({"scan.count": 16, "fuzz.count": 20})
        return [("instability", _config_text(values))]

    def work(self, out_dirs):
        cfg = self.cfgs[0]
        return float(cfg["scan.count"] + 2 * cfg["fuzz.count"] + cfg["grid.N"] ** cfg["grid.d"])

    def oracle(self, out_dirs):
        rec = _read_ndjson(out_dirs[0] / "instability.ndjson")[0]
        return abs(rec["sim_rate"] - rec["sim_predicted"]) / rec["sim_predicted"]


WORKLOADS = {cls.name: cls for cls in (EvolveD3, ResponseD3, PicardD2, TwoWaveD2)}
