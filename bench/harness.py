"""Closed-loop measurement of one workload: one client, one op at a time.

Untraced runs (``trace=0``) report the end-to-end metrics; every op runs in a
fresh child process, so cold and warm ops are sampled across the whole run.
Traced runs (``trace=1``) run in this process, alternate untraced and traced
ops after the cold first op and report the per-layer metrics, including the
tracing overhead.  Every op is checked; a failed op is never retried or
dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from hartorus import runner

from hostspeed import scaled
from tracer import LAYER_METRICS, Tracer, layer_values
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
OUT = BENCH / "out"
# untraced runs: children are started one after another until the timed ops
# fill --seconds and at least CHILDREN_MIN ran; each sets up, runs one cold op
# and then warm ops until CHILD_SHARE of --seconds has passed in it (two ops
# at least).  Set-up-only children top the set-up samples up to SETUP_MIN.
SETUP_MIN, CHILDREN_MIN, CHILD_SHARE = 5, 3, 1 / 6
# every child is waited for within this many seconds of the run's start
DEADLINE_S = 160.0

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("first_run_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

# the SVG timestamp comment is outside the byte-deterministic surface
_SVG_TIMESTAMP = re.compile(rb"^<!-- timestamp: [^\n]* -->\n", re.M)


# ---------------------------------------------------------------------------
# machine facts


def mem_available() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def provenance(thread_caps: dict) -> dict:
    src = ROOT / "src" / "hartorus"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py")))
    caches = _caches()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "thread_caps": thread_caps,
        "src_hartorus_lines": lines,
    }


# ---------------------------------------------------------------------------
# one op and its correctness gate


def run_op(wl, out_dirs) -> list:
    return [runner.run_experiment(cfg, d, seed=wl.seed) for cfg, d in zip(wl.cfgs, out_dirs)]


def check_op(envs, out_dirs):
    """Payload digests of an op and the reasons it fails the gate."""
    reasons, digests = [], {}
    for env, d in zip(envs, out_dirs):
        if not env.all_passed:
            bad = sorted(name for name, ok in env.verdicts.items() if not ok)
            reasons.append(f"{env.kind}: verdicts failed: {', '.join(bad)}")
        for p in env.payloads:
            data = (d / p["path"]).read_bytes()
            if hashlib.sha256(data).hexdigest() != p["sha256"]:
                reasons.append(f"{d.name}/{p['path']}: bytes differ from the envelope sha256")
            if p["path"].endswith(".svg"):
                data = _SVG_TIMESTAMP.sub(b"", data)
            digests[f"{d.name}/{p['path']}"] = hashlib.sha256(data).hexdigest()
    return digests, reasons


def _fail(op, reason):
    op["ok"] = False
    op["work"] = 0.0
    op["reason"] = "; ".join(filter(None, [op["reason"], reason]))


def compare_to_first(op, reference):
    """Byte determinism: an op's payloads must match the run's first repetition."""
    if reference is None or op["digests"] is None or op["digests"] == reference:
        return
    changed = sorted(k for k in op["digests"].keys() | reference.keys()
                     if op["digests"].get(k) != reference.get(k))
    _fail(op, f"payloads differ from the first repetition: {', '.join(changed)}")


def execute(wl, out_dirs, index, tracer=None, speed=None) -> dict:
    """Preflight, run and check one op (timed: the experiments only); with a
    host-speed sampler, sample the host speed while the op runs."""
    op = {"index": index, "traced": tracer is not None, "cold": False, "ok": False,
          "reason": None, "seconds": None, "probe_s": None, "work": 0.0,
          "oracle_err": None, "digests": None}
    op["reason"] = wl.preflight(mem_available())
    if op["reason"]:
        return op
    if tracer:
        tracer.begin_op(index)
        tracer.install()
    envs = None
    if speed:
        speed.start()
    start = time.perf_counter()
    try:
        envs = run_op(wl, out_dirs)
    except Exception:
        op["reason"] = traceback.format_exc(limit=4)
    finally:
        op["seconds"] = time.perf_counter() - start
        if speed:
            op["probe_s"] = speed.stop()
        if tracer:
            tracer.uninstall()
            tracer.end_op()
    if envs is None:
        return op
    try:
        op["digests"], reasons = check_op(envs, out_dirs)
        if not wl.oracle_once:
            op["oracle_err"] = wl.oracle(out_dirs)
            if not op["oracle_err"] <= wl.tolerance:
                reasons.append(f"oracle_err {op['oracle_err']:.3g} above {wl.tolerance:g}")
        if not reasons:
            op["work"] = wl.work(out_dirs)
    except Exception:
        reasons = [traceback.format_exc(limit=4)]
    op["ok"] = not reasons
    op["reason"] = "; ".join(reasons) or None
    return op


def _work_dirs(wl):
    root = OUT / f"work-{wl.name}-{os.getpid()}"
    return root, [root / str(i) for i in range(len(wl.cfgs))]


def measure(wl, seconds: float, tracer=None, speed=None) -> list:
    """Closed loop until `seconds` have passed (two ops at least); op 0 is
    cold.  With a tracer, odd ops are traced and even ops are not; with a
    host-speed sampler, every op is sampled."""
    work_root, out_dirs = _work_dirs(wl)
    ops, reference = [], None
    try:
        window = time.perf_counter()
        while True:
            traced = tracer is not None and len(ops) % 2 == 1
            op = execute(wl, out_dirs, len(ops), tracer if traced else None, speed)
            ops.append(op)
            if op["seconds"] is None:
                break  # refused: every op of the run has the same inputs
            compare_to_first(op, reference)
            reference = reference or op["digests"]
            warm = any(not o["traced"] for o in ops[1:])
            enough = warm and (tracer is None or any(o["traced"] for o in ops))
            if time.perf_counter() - window >= seconds and enough:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    ops[0]["cold"] = True
    return ops


def _oracle_once(wl, ops):
    """Seed-independent oracle (it reads no payload), computed once after the
    timed window and charged to every op of the run."""
    if not any(o["ok"] for o in ops):
        return
    try:
        err = wl.oracle(None)
        reason = None if err <= wl.tolerance else f"oracle_err {err:.3g} above {wl.tolerance:g}"
    except Exception:
        err, reason = None, traceback.format_exc(limit=4)
    for o in ops:
        if o["ok"]:
            o["oracle_err"] = err
            if reason:
                _fail(o, reason)


# ---------------------------------------------------------------------------
# untraced runs: every op in a fresh child process


def fresh_process(args, speed) -> int:
    """Child side: set up with the host-speed sampler running (it was started
    before the imports) and say 'ready'; with --fresh ops, run a cold op and
    then warm ops until --seconds have passed (two ops at least), each one
    sampled.  Prints {"setup_probe_s", "ops", "peak_rss_mb"}."""
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    wl.parse()
    setup_probe_s = speed.stop()
    print("ready", flush=True)
    ops = measure(wl, args.seconds, speed=speed) if args.fresh == "ops" else []
    print(json.dumps({"setup_probe_s": setup_probe_s, "ops": ops,
                      "peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


def _child(base, mode, seconds, deadline):
    """Start one child and wait for it, killing it at the deadline; returns
    (set-up seconds or None, its record or None, exit code, stderr)."""
    start = time.perf_counter()
    # unbuffered, so that readline takes no more than the 'ready' line and
    # communicate gets the rest
    proc = subprocess.Popen(base + ["--fresh", mode, "--seconds", repr(seconds)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0)
    killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline().strip() == b"ready"
        setup_s = time.perf_counter() - start if ready else None
        out, err = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    out, err = out.decode(errors="replace"), err.decode(errors="replace")
    if proc.returncode == -signal.SIGKILL:
        err += f"\nkilled at the run's {DEADLINE_S:g} s deadline"
    try:
        record = json.loads(out)
    except ValueError:
        record = None
        err += f"\nstdout after 'ready': {out[-500:]!r}"
    return setup_s, record, proc.returncode, err


def measure_fresh(args, started: float) -> tuple:
    """Children started one after another: each sets up, runs a cold op and
    warm ops; they run until the timed ops fill --seconds and CHILDREN_MIN
    ran, then set-up-only children until SETUP_MIN set-ups are in.  A set-up
    sample is spawn to 'ready', with the host speed sampled over it.  Returns
    (set-ups, ops, peak RSS per child)."""
    base = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    deadline = started + DEADLINE_S
    setups, ops, rss, reference = [], [], [], None

    def child(mode):
        setup_s, record, code, err = _child(base, mode, CHILD_SHARE * args.seconds, deadline)
        if setup_s is not None and record is not None:
            setups.append({"seconds": setup_s, "probe_s": record["setup_probe_s"]})
        return record, code, err

    while len(rss) < CHILDREN_MIN or sum(o["seconds"] for o in ops) < args.seconds:
        record, code, err = child("ops")
        if record is None:
            ops.append({"index": f"{len(rss)}-0", "traced": False, "cold": True, "ok": False,
                        "seconds": None, "probe_s": None, "work": 0.0, "oracle_err": None,
                        "digests": None, "reason": f"child exited {code}: {err.strip()[-2000:]}"})
            break
        for op in record["ops"]:
            op["index"] = f"{len(rss)}-{op['index']}"
            if op["seconds"] is not None:
                compare_to_first(op, reference)
                reference = reference or op["digests"]
        ops += record["ops"]
        rss.append(record["peak_rss_mb"])
        if any(o["seconds"] is None for o in record["ops"]):
            break  # refused: every child meets the same inputs
    while len(setups) < SETUP_MIN and all(o["seconds"] is not None for o in ops):
        record, code, err = child("setup")
        if record is None:
            raise RuntimeError(f"set-up child exited {code}: {err.strip()}")
    return setups, ops, rss


# ---------------------------------------------------------------------------
# reporting


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return {"p": p, "value": float(np.percentile(samples, p))}
    return None


def time_of_scaled(sample) -> float:
    return scaled(sample["seconds"], sample["probe_s"])


def end_to_end(ops, setups, rss) -> tuple:
    """Medians at nominal host speed: of the set-ups, the cold ops, the warm
    ops (the successful ones, if any) and work / time of every op (a failed
    op did no work); and the median of the children's peak RSS.  The same
    figures from raw wall times go into the extras."""
    ran = [o for o in ops if o["seconds"] is not None]
    cold = [o for o in ran if o["cold"]]
    warm = [o for o in ran if not o["cold"]]
    warm = [o for o in warm if o["ok"]] or warm

    def figures(time_of):
        return {
            "setup_s": _median([time_of(x) for x in setups]),
            "first_run_s": _median([time_of(o) for o in cold]),
            "run_s": _median([time_of(o) for o in warm]),
            "work_per_s": _median([o["work"] / time_of(o) for o in ran]),
            "peak_rss_mb": _median(rss),
        }
    warm_s = [time_of_scaled(o) for o in warm]
    extra = {"run_s_samples": len(warm), "run_s_percentile": _percentile(warm_s),
             "first_run_samples": len(cold), "setup_samples": len(setups), "setups": setups,
             "children_peak_rss_mb": rss, "raw_wall": figures(lambda x: x["seconds"])}
    return figures(time_of_scaled), extra


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(ops, tracer, setup_summary) -> tuple:
    traced = [o for o in ops if o["traced"] and o["ok"]]
    untraced = [o["seconds"] for o in ops[1:] if not o["traced"] and o["ok"]]
    traced_s = _median([o["seconds"] for o in traced])
    overhead = traced_s / _median(untraced) - 1.0 if traced and untraced else 0.0
    summaries = [tracer.op_summary(o["index"]) for o in traced]
    values = layer_values(summaries, setup_summary, peak_rss_mb(), overhead)

    def counts(summary):
        return {k: v for k, v in summary.items() if not k.endswith("_s")}
    extra = {"traced_ops": len(traced),
             "counts_repeat_across_ops": all(counts(x) == counts(summaries[0]) for x in summaries),
             "layer_ops": {str(o["index"]): dict(x) for o, x in zip(traced, summaries)}}
    return values, extra


def run(args, thread_caps: dict) -> int:
    started = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.begin_op("setup")
        tracer.install()
    try:
        wl.parse()
    finally:
        if tracer:
            tracer.uninstall()
            tracer.end_op()

    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        every = measure(wl, args.seconds, tracer)
    else:
        setups, every, rss = measure_fresh(args, started)
    if wl.oracle_once:
        _oracle_once(wl, every)
    failed = sum(not o["ok"] for o in every)

    if args.trace:
        values, extra = per_layer(every, tracer, tracer.op_summary("setup"))
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values, extra = end_to_end(every, setups, rss)
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    errs = [o["oracle_err"] for o in every if o["oracle_err"] is not None]
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    result_path = OUT / f"{stem}.json"
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "provenance": provenance(thread_caps),
        "attempted": len(every), "failed": failed, "failed_ratio": failed / len(every),
        "oracle_err": max(errs) if errs else None, "oracle_tolerance": wl.tolerance,
        "metrics": metrics, **extra,
        "ops": [{k: v for k, v in o.items() if k != "digests"} for o in every],
    }
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.write_spans(OUT / f"{stem}-spans.ndjson")

    _print_summary(wl, args, every, result, result_path)
    print(json.dumps({"correct": failed == 0, "attempted": len(every), "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def _print_summary(wl, args, ops, result, result_path):
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(ops)} ops")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':34s} {result['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    err = result["oracle_err"]
    print(f"  {'oracle_err':34s} {'n/a' if err is None else f'{err:.6g}'} ratio "
          f"(tolerance {wl.tolerance:g})")
    if not args.trace:
        pct = result["run_s_percentile"]
        print(f"  run_s samples {result['run_s_samples']}; "
              + (f"p{pct['p']:g} {pct['value']:.6g} s" if pct else
                 "no percentile has 10 samples beyond it")
              + f"; first_run_s samples {result['first_run_samples']}"
              + f"; setup_s samples {result['setup_samples']}")
    print(f"  results {result_path.relative_to(ROOT)}")
    for o in ops:
        if not o["ok"]:
            print(f"op {o['index']} failed: {o['reason']}", file=sys.stderr)
