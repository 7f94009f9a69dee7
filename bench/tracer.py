"""Spans and counts around the calls into each hartorus module.

The tracer patches public names from outside the package: every hartorus
namespace that binds the same function object (``runner.evolve``,
``picard.evolve``, ``ensemble.eta_j``, ``picard.eta_j``, ...) is rebound, and
methods are patched on their class.  Library calls (FFTs, ``quad``, ``eig``)
are patched on the library module and counted only when the direct caller is
a hartorus module.  ``install`` and ``uninstall`` bracket one traced op, so
untraced ops run the unmodified code.

A span is ``[name, start, end, parent index, op id]``; spans stay in memory
until the run writes them out.  Self time is a span's duration minus the time
its direct children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy.fft
import scipy.integrate

from hartorus import (config, ensemble, equilibrium, lpaley, picard, response, runner,
                      svgplot, twowave)

FFT = "field.fft"
_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.op_counts = {}          # op id -> Counter
        self._patches = []
        self._profiles = set()       # distinct (f, d) pairs of the current op

    # -- spans and counts ---------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), None, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = _now()
        self.stack.pop()

    def innermost(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_op(self, op_id):
        self.op = op_id
        self.counts = Counter()
        self._profiles = set()

    def end_op(self):
        self.counts["equilibrium.distinct_profiles"] = len(self._profiles)
        self.op_counts[self.op] = self.counts
        self.op = None

    # -- wrappers -----------------------------------------------------------

    def spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def counted(self, name, fn, when=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when():
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            # count FFTs called from hartorus once, not nested library calls
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if tracer.innermost() == FFT or not caller.startswith("hartorus"):
                return fn(x, *args, **kwargs)
            tracer.counts["field.fft.elements"] += int(np.size(x))
            idx = tracer.open(FFT)
            try:
                return fn(x, *args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _library_count(self, name, caller, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == caller:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, fn, replacement, extra=()):
        """Replace every binding of fn in hartorus namespaces (and extra modules)."""
        owners = [m for name, m in sys.modules.items()
                  if name == "hartorus" or name.startswith("hartorus.")]
        for owner in [*owners, *extra]:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._set(owner, attr, replacement)

    def _method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        s, c = self.spanned, self.counted

        # field: stack FFTs from numpy and scipy
        for lib in (np.fft, scipy.fft):
            for attr in ("fftn", "ifftn"):
                fn = getattr(lib, attr)
                self._rebind(fn, self._fft(fn), extra=(lib,))

        # ensemble
        def modes(args, ens_report):
            self.counts["ensemble.modes"] = max(self.counts["ensemble.modes"],
                                                ens_report[0].n_modes)
        self._rebind(ensemble.init_equilibrium,
                     s("ensemble.init", ensemble.init_equilibrium, after=modes))
        self._rebind(ensemble.step, s("ensemble.step", ensemble.step))
        self._rebind(ensemble.conserved_energy, s("ensemble.energy", ensemble.conserved_energy))
        self._rebind(ensemble.deviation_norms, s("ensemble.norms", ensemble.deviation_norms))
        self._rebind(ensemble.evolve, s("ensemble.evolve", ensemble.evolve))

        # lpaley
        self._rebind(lpaley.eta_j, c("lpaley.blocks", lpaley.eta_j))

        # equilibrium
        def profile_init(fn):
            @functools.wraps(fn)
            def wrapper(obj, f, d, *args, **kwargs):
                self.counts["equilibrium.profiles"] += 1
                self._profiles.add((repr(f), d))
                return fn(obj, f, d, *args, **kwargs)
            return wrapper
        self._method(equilibrium.CovarianceProfile, "__init__", profile_init)
        self._rebind(equilibrium.eval_h, s("equilibrium.eval_h", equilibrium.eval_h))
        self._rebind(equilibrium.hypothesis_check,
                     s("equilibrium.hypothesis", equilibrium.hypothesis_check))
        self._method(equilibrium.DistributionFunction, "f2",
                     lambda fn: c("equilibrium.f2.calls", fn))
        self._set(scipy.integrate, "quad", self._library_count(
            "equilibrium.quad.calls", "hartorus.equilibrium", scipy.integrate.quad))

        # response
        def entries(args, table):
            self.counts["response.entries"] += table.values.size
        self._method(response.MultiplierTable, "build",
                     lambda fn: s("response.table", fn, after=entries))
        self._rebind(response.compute_mf_batch, s("response.mf_batch", response.compute_mf_batch))
        self._method(equilibrium.CovarianceProfile, "__call__",
                     lambda fn: c("response.h_lookups", fn,
                                  when=lambda: self.innermost() == "response.mf_batch"))
        self._rebind(response.epsilon_g, s("response.epsilon_g", response.epsilon_g))

        # picard
        def stack(args, _):
            op = args[0]
            self.counts["picard.stack_bytes"] = max(
                self.counts["picard.stack_bytes"], op.n_t * op.M * op.grid.N ** op.grid.d * 16)
        self._method(picard.PicardOperator, "__init__",
                     lambda fn: s("picard.init", fn, after=stack))
        for attr in ("apply", "duhamel", "pair_norms"):
            self._method(picard.PicardOperator, attr,
                         lambda fn, attr=attr: s(f"picard.{attr}", fn))

        def iterations(args, result):
            self.counts["picard.iterations"] += result.n_iterations
        self._rebind(picard.picard_solve, s("picard.solve", picard.picard_solve, after=iterations))
        self._rebind(picard.reference_trajectory,
                     s("picard.reference", picard.reference_trajectory))

        # twowave
        self._rebind(twowave.unstable_band, s("twowave.band", twowave.unstable_band))
        self._rebind(twowave.simulate_linearized,
                     s("twowave.simulate", twowave.simulate_linearized))
        for fn in (twowave.closed_form_spectrum, twowave.eigensolver_spectrum):
            self._rebind(fn, c("twowave.spectra.calls", fn))
        self._set(np.linalg, "eig", self._library_count(
            "twowave.eig.calls", "hartorus.twowave", np.linalg.eig))

        # runner / svgplot / config
        def payload_bytes(args, _):
            self.counts["runner.payload.bytes"] += Path(args[0]).stat().st_size
        for fn in (runner.write_ndjson, runner.write_csv):
            self._rebind(fn, s("runner.payload", fn))
        self._rebind(runner.sha256_file, s("runner.payload", runner.sha256_file,
                                           after=payload_bytes))
        self._rebind(svgplot.emit_plot, s("svgplot.emit", svgplot.emit_plot))
        self._rebind(config.parse_config, s("config.parse", config.parse_config))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def op_summary(self, op_id) -> dict:
        """Per-op totals: {name.calls, name.total_s, name.self_s} plus counts."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        in_step = 0
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op != op_id:
                continue
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[idx]
            if not self._nested_in(idx, name):
                out[f"{name}.total_s"] += dur
            if name == FFT and self._nested_in(idx, "ensemble.step"):
                in_step += 1
        out["fft_in_step"] = in_step
        out.update(self.op_counts.get(op_id, {}))
        return out

    def _nested_in(self, idx, name) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# Per-layer metrics: (name, unit, better) -> computed from per-op summaries.
LAYER_METRICS = [
    ("field.fft.calls", "count", "lower"),
    ("field.fft.self_s", "s", "lower"),
    ("field.fft.elements", "count", "lower"),
    ("field.fft.bytes", "B", "lower"),
    ("ensemble.modes", "count", "lower"),
    ("ensemble.init.total_s", "s", "lower"),
    ("ensemble.step.calls", "count", "lower"),
    ("ensemble.step.total_s", "s", "lower"),
    ("ensemble.step.self_s", "s", "lower"),
    ("ensemble.step.fft_per_step", "count", "lower"),
    ("ensemble.energy.calls", "count", "lower"),
    ("ensemble.energy.total_s", "s", "lower"),
    ("ensemble.norms.calls", "count", "lower"),
    ("ensemble.norms.total_s", "s", "lower"),
    ("ensemble.evolve.total_s", "s", "lower"),
    ("lpaley.blocks", "count", "lower"),
    ("equilibrium.profiles", "count", "lower"),
    ("equilibrium.eval_h.calls", "count", "lower"),
    ("equilibrium.eval_h.total_s", "s", "lower"),
    ("equilibrium.quad.calls", "count", "lower"),
    ("equilibrium.f2.calls", "count", "lower"),
    ("equilibrium.hypothesis.total_s", "s", "lower"),
    ("equilibrium.profile_reuse", "ratio", "higher"),
    ("response.table.total_s", "s", "lower"),
    ("response.mf_batch.calls", "count", "lower"),
    ("response.mf_batch.self_s", "s", "lower"),
    ("response.h_lookups", "count", "lower"),
    ("response.entries", "count", "lower"),
    ("response.epsilon_g.total_s", "s", "lower"),
    ("picard.init.total_s", "s", "lower"),
    ("picard.apply.calls", "count", "lower"),
    ("picard.apply.self_s", "s", "lower"),
    ("picard.duhamel.total_s", "s", "lower"),
    ("picard.pair_norms.total_s", "s", "lower"),
    ("picard.iterations", "count", "lower"),
    ("picard.reference.total_s", "s", "lower"),
    ("picard.stack_mb", "MiB", "lower"),
    ("picard.rss_per_stack", "ratio", "lower"),
    ("twowave.band.total_s", "s", "lower"),
    ("twowave.spectra.calls", "count", "lower"),
    ("twowave.simulate.total_s", "s", "lower"),
    ("twowave.eig.calls", "count", "lower"),
    ("twowave.eig_useful_ratio", "ratio", "higher"),
    ("runner.payload.total_s", "s", "lower"),
    ("runner.payload.bytes", "B", "lower"),
    ("svgplot.emit.total_s", "s", "lower"),
    ("config.parse.total_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def layer_values(summaries: list, setup: dict, peak_rss_mb: float, overhead: float) -> dict:
    """Median over traced ops of each per-op layer figure."""
    def med(key):
        return float(statistics.median(s.get(key, 0.0) for s in summaries)) if summaries else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {name: med(name) for name, _, _ in LAYER_METRICS}
    values["field.fft.bytes"] = 2 * 16 * values["field.fft.elements"]  # one c128 read + write
    values["ensemble.step.fft_per_step"] = ratio(med("fft_in_step"), values["ensemble.step.calls"])
    values["equilibrium.profile_reuse"] = ratio(med("equilibrium.distinct_profiles"),
                                                values["equilibrium.profiles"])
    values["picard.stack_mb"] = med("picard.stack_bytes") / 2**20
    values["picard.rss_per_stack"] = ratio(peak_rss_mb, values["picard.stack_mb"])
    values["twowave.eig_useful_ratio"] = ratio(med("twowave.simulate.calls"),
                                               values["twowave.eig.calls"])
    values["config.parse.total_s"] = setup.get("config.parse.total_s", 0.0)
    values["trace.overhead"] = overhead
    return values
