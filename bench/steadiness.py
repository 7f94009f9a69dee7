"""Steadiness check: run the benchmark on several seeds and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median of
its per-run values, next to the metric's bound in BENCHMARK.json.

    python3 bench/steadiness.py [--workload NAME ...] [--seeds 101-110] [--out FILE]

Runs ``bench/run.py --trace 0`` once per (workload, seed), one at a time,
with BENCHMARK.json's run_seconds.  With --out, writes the figures (and the
provenance of the last run) as JSON, the format of bench/BENCH_baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="101-110", type=seed_range)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, total = {}, 0.0
    for name in names:
        runs, walls = [], []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(result)
            print(f"{name} seed {seed}: {walls[-1]:.1f} s wall, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        total += sum(walls)
        metrics = {}
        for metric in runs[0]["metrics"]:
            metrics[metric] = {**spread([r["metrics"][metric]["value"] for r in runs]),
                               "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"  {metric:12s} median {metrics[metric]['median']:.4g} "
                  f"spread {metrics[metric]['spread']:.3f} (bound {bounds[metric]})")
        summary[name] = {"attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "run_wall_s": statistics.median(walls), "metrics": metrics}
    print(f"total wall {total:.0f} s")

    if args.out:
        last = json.loads((BENCH / "out" / f"{names[-1]}-seed{args.seeds[-1]}-trace0.json")
                          .read_text())
        args.out.write_text(json.dumps({
            "run_seconds": spec["run_seconds"], "seeds": args.seeds,
            "note": "per workload: median, quartiles and (Q3 - Q1) / median of each "
                    "metric over one run per seed; run_wall_s is the median wall time of a run",
            "provenance": last["provenance"], "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
