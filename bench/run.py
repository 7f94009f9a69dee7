"""hartorus benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Runs from the root of a source checkout and imports hartorus from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  Result files (with provenance)
and traced spans go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    n = str(len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        os.environ[var] = n
    return {var: n for var in _THREAD_VARS}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="hartorus benchmark")
    parser.add_argument("--workload", required=True, choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, finishing in seconds")
    parser.add_argument("--fresh", choices=("setup", "ops"),
                        help="child of an untraced run: set up, print 'ready', "
                             "then (with ops) run a cold op and warm ops")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args, workload_names) -> int:
    """Every workload in turn, each in a fresh process."""
    worst = 0
    for name in workload_names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    speed = HostSpeed()
    if "--fresh" in (sys.argv[1:] if argv is None else argv):
        speed.start()  # a child's set-up is sampled from here to 'ready'
    if not (ROOT / "src" / "hartorus" / "__init__.py").is_file():
        print(f"error: no hartorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import hartorus
    if Path(hartorus.__file__).resolve().parent != ROOT / "src" / "hartorus":
        print(f"error: imported hartorus from {hartorus.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    import harness
    if args.fresh:
        return harness.fresh_process(args, speed)
    return harness.run(args, caps)


if __name__ == "__main__":
    sys.exit(main())
