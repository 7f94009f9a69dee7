"""Self-tests of the benchmark on its smoke sizes.

Run from the repository root:  python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import hostspeed  # noqa: E402
from hartorus import runner  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, table", [(0, harness.END_TO_END), (1, LAYER_METRICS)])
def test_every_metric_prints_by_name_with_unit(trace, table):
    proc, lines = _run("--workload", "twowave-d2", "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {name for name, _, _ in table}
    for name, unit, _ in table:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    for extra in ("failed_ratio", "oracle_err"):
        assert any(line.split()[:1] == [extra] for line in lines)


def test_all_workloads_pass_at_smoke_sizes():
    proc, lines = _run("--workload", "all", "--seed", "5", "--seconds", "0.1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    assert all(r["correct"] for r in results)


def _smoke(name, seed=3):
    wl = WORKLOADS[name](seed, smoke=True)
    wl.parse()
    return wl


def _sabotage_second_call(monkeypatch, damage):
    calls = []
    original = runner.run_experiment

    def wrapped(cfg, out_dir, seed=None):
        env = original(cfg, out_dir, seed=seed)
        calls.append(env)
        if len(calls) == 2:
            damage(env, Path(out_dir))
        return env
    monkeypatch.setattr(runner, "run_experiment", wrapped)


def _two_ops(wl):
    return harness.measure(wl, 0.0)


def test_flipped_verdict_is_a_failed_op(monkeypatch):
    def flip(env, out):
        name = next(iter(env.verdicts))
        env.verdicts[name] = not env.verdicts[name]
    _sabotage_second_call(monkeypatch, flip)
    ops = _two_ops(_smoke("twowave-d2"))
    assert len(ops) == 2
    assert ops[0]["ok"]
    assert not ops[1]["ok"] and "verdicts failed" in ops[1]["reason"]


def test_corrupted_payload_is_a_failed_op(monkeypatch):
    def corrupt(env, out):
        path = out / env.payloads[0]["path"]
        path.write_bytes(path.read_bytes() + b" ")
    _sabotage_second_call(monkeypatch, corrupt)
    ops = _two_ops(_smoke("evolve-d3"))
    assert ops[0]["ok"]
    assert not ops[1]["ok"]
    assert "differ from the first repetition" in ops[1]["reason"]


def test_memory_preflight_refuses_and_counts_the_op(monkeypatch):
    monkeypatch.setattr(harness, "mem_available", lambda: 1024)
    ops = _two_ops(_smoke("picard-d2"))
    assert len(ops) == 1
    assert not ops[0]["ok"] and ops[0]["seconds"] is None
    assert ops[0]["reason"].startswith("memory preflight")


def test_end_to_end_takes_a_cold_op_from_every_child():
    def op(index, cold, ok, seconds, work):
        return {"index": index, "cold": cold, "ok": ok, "seconds": seconds,
                "probe_s": hostspeed.NOMINAL_S, "work": work}
    ops = [op("0-0", True, True, 3.0, 6.0), op("0-1", False, True, 2.0, 6.0),
           op("1-0", True, True, 5.0, 6.0), op("1-1", False, False, 9.0, 0.0)]
    setups = [{"seconds": s, "probe_s": None} for s in (1.0, 2.0, 3.0)]
    values, extra = harness.end_to_end(ops, setups, [100.0, 110.0])
    assert values["first_run_s"] == 4.0
    assert values["run_s"] == 2.0  # the failed warm op is left out
    assert values["work_per_s"] == 1.6  # median of 2, 3, 1.2 and 0
    assert values["setup_s"] == 2.0 and values["peak_rss_mb"] == 105.0
    assert (extra["first_run_samples"], extra["run_s_samples"]) == (2, 1)
    assert extra["raw_wall"] == values


def test_times_are_scaled_to_nominal_host_speed():
    assert hostspeed.scaled(2.0, 2 * hostspeed.NOMINAL_S) == 1.0
    assert hostspeed.scaled(2.0, None) == 2.0


def test_host_speed_sampler_samples_while_it_runs():
    speed = hostspeed.HostSpeed()
    speed.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        sum(range(1000))
    mean = speed.stop()
    assert len(speed.samples) >= 10 and mean > 0


def test_seed_draws_the_same_inputs():
    for name, cls in WORKLOADS.items():
        assert cls(7).specs == cls(7).specs, name
    assert WORKLOADS["evolve-d3"](7).specs != WORKLOADS["evolve-d3"](8).specs


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
