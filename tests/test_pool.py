"""The package's one worker pool: ordered_map's contract, and stream runs that
keep their bits on one CPU and on two."""

import ast
import json
import os
import select
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hartorus import (BumpSpec, PicardOperator, TorusGrid, delta_potential, evolve, fermi,
                      init_equilibrium, observations, parse_config, picard_solve, run_experiment,
                      runner, scattering_probe)
from hartorus import ensemble as ens_mod
from hartorus import field
from hartorus.field import ordered_map

# (d, N, theta): 341 modes in 11 chunks, and 137 modes in 5 chunks
_CASES = {"d3-N16": (3, 16, 1e-8, 11), "d4-N8": (4, 8, 3e-3, 5)}


def _case(d, N, theta):
    g = TorusGrid(d, 2 * np.pi, N)
    eq, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), theta)
    spec = BumpSpec(1e-2, 0.8, (np.pi,) * d, (1.0,) + (0.0,) * (d - 1), mode=eq.n_modes // 2)
    return eq, spec


def _runs(eq, spec, d, N, theta, out):
    """evolve's trajectory, the probe's report and the payload digests of
    equilibrium-check and of simulate with spec's bump, at windows of 2 and
    1 steps."""
    traj = evolve(eq, spec, 0.03, 0.01, obs_stride=2)
    probe = scattering_probe(eq, observations(eq, spec, 0.03, 0.01, 2))
    text = f"grid.d = {d}\ngrid.N = {N}\ntheta = {theta}\nf.kind = fermi\nw.kind = delta\n" \
           "T = 0.03\ndt = 0.01\nobs.stride = 2\n"
    env = run_experiment(parse_config(text, "equilibrium-check"), out / "equilibrium-check")
    assert env.all_passed
    bump = (f"pert.amplitude = {spec.amplitude}\npert.width = {spec.width}\npert.mode = {spec.mode}\n"
            f"pert.center = {','.join(map(str, spec.center))}\n"
            f"pert.carrier = {','.join(map(str, spec.carrier))}\n")
    sim = run_experiment(parse_config(text + bump, "simulate"), out / "simulate")
    assert sim.all_passed
    return traj, probe, [p["sha256"] for env in (env, sim) for p in env.payloads]


@pytest.mark.parametrize("case", list(_CASES))
def test_stream_runs_keep_their_bits_on_one_cpu_and_on_two(case, cpus, tmp_path):
    d, N, theta, n_chunks = _CASES[case]
    eq, spec = _case(d, N, theta)
    assert len(ens_mod._mode_chunks(eq.n_modes, eq.grid)) == n_chunks
    cpus(2)
    two = _runs(eq, spec, d, N, theta, tmp_path / "two")
    assert field._POOL is not None
    cpus(1)
    threads = set(threading.enumerate())
    one = _runs(eq, spec, d, N, theta, tmp_path / "one")
    assert field._POOL is None  # one CPU starts no thread
    assert set(threading.enumerate()) == threads
    (traj2, probe2, shas2), (traj1, probe1, shas1) = two, one
    for name in ("times", "mode_masses", "energies", "density_extrema", "density"):
        assert np.array_equal(getattr(traj2, name), getattr(traj1, name)), name
    assert traj2.norms.keys() == traj1.norms.keys()
    for k in traj1.norms:
        assert np.array_equal(traj2.norms[k], traj1.norms[k]), k
    assert np.array_equal(probe2.cauchy, probe1.cauchy)
    assert np.array_equal(probe2.local_mass, probe1.local_mass)
    assert shas2 == shas1


def test_observation_transforms_run_on_the_pool(cpus, monkeypatch):
    # on two CPUs the inverse transform of every chunk read and of every
    # weighted part of evolve's observations is a task of the pool, as are
    # the step's; on one CPU every one runs on the calling thread, and no
    # thread starts
    eq, spec = _case(3, 16, 1e-8)
    calls = []

    def recording(x, *args, **kwargs):
        calls.append((threading.current_thread(), np.shape(x)))
        return field.ifftn(x, *args, **kwargs)

    monkeypatch.setattr(ens_mod, "ifftn", recording)
    for n in (2, 1):
        cpus(n)
        threads = set(threading.enumerate())
        calls.clear()
        evolve(eq, spec, 0.01, 0.01)
        stacks = [(thread, shape[0]) for thread, shape in calls if len(shape) == 4]
        on_main = [size for thread, size in stacks if thread is threading.main_thread()]
        if n == 2:
            assert on_main == [] and field._POOL is not None
        else:
            assert len(on_main) == len(stacks) and field._POOL is None
            assert set(threading.enumerate()) == threads
        assert {32, 21, 16, 1} <= {size for _, size in stacks}  # reads and steps, halves, the bump alone


_STABILITY = {
    "fermi-d1": "grid.d = 1\nf.kind = fermi\nw.kind = delta\nw.amplitude = 0.1\n",
    "fermi-d2": "grid.d = 2\nf.kind = fermi\nw.kind = delta\nw.amplitude = 0.1\n",
    "fermi-d3": "grid.d = 3\nf.kind = fermi\nw.kind = delta\nw.amplitude = 0.1\n",
    "zero-temp-d3": "grid.d = 3\nf.kind = zero-temp-fermi\nf.mu = 4.0\nw.kind = delta\n",
    "zero-temp-d4": "grid.d = 4\ngrid.N = 8\nf.kind = zero-temp-fermi\nf.mu = 1.5\n"
                    "w.kind = delta\nw.amplitude = -1.0\n",
}


def _stability_payload(text, out):
    run_experiment(parse_config(text, "stability-check"), out)
    return (out / "stability.ndjson").read_bytes()


@pytest.mark.parametrize("case", list(_STABILITY))
def test_stability_check_keeps_its_bytes_on_one_cpu_and_on_two(case, cpus, tmp_path):
    # the h table is built beside the m_f table on two CPUs, after it on one
    cpus(2)
    two = _stability_payload(_STABILITY[case], tmp_path / "two")
    assert field._POOL is not None
    cpus(1)
    threads = set(threading.enumerate())
    one = _stability_payload(_STABILITY[case], tmp_path / "one")
    assert field._POOL is None and set(threading.enumerate()) == threads
    assert two == one


def test_a_refused_h_table_stays_in_the_map_on_two_cpus(cpus, monkeypatch, tmp_path):
    # fermi at f.T = 1e6 has a support radius past the h table's node budget:
    # the table task returns the refusal instead of raising it out of the
    # map, and the bullets read off the table are indeterminate on one CPU
    # and on two alike
    text = _STABILITY["fermi-d3"] + "f.T = 1e6\n"
    results = []

    def recording(fn, items, scratch=None):
        for result in ordered_map(fn, items, scratch):
            results.append(result)
            yield result

    monkeypatch.setattr(runner, "ordered_map", recording)
    payloads = []
    for n in (2, 1):
        cpus(n)
        payloads.append(_stability_payload(text, tmp_path / str(n)))
        assert (field._POOL is not None) == (n == 2)
        assert isinstance(results[-1], ValueError) and "h table nodes" in str(results[-1])
    assert payloads[0] == payloads[1]
    bullets = {b["name"]: b for b in json.loads(payloads[0])["hypothesis_bullets"]}
    for name in ("h_derivative_decay", "h_low_frequency_integrable", "potential_focusing_part"):
        assert bullets[name]["passed"] is None, name
    assert bullets["h_derivative_decay"]["note"] == "table build failed"


def _failing_pass(monkeypatch, fail_at):
    """Make call fail_at of the step's chunk pass raise, and the call after
    it, in flight beside it, finish late; returns (error, calls, finished)."""
    err = ValueError(f"chunk pass {fail_at}")
    chunk_pass = ens_mod._chunk_pass
    calls, finished = [], []

    def failing(*args):
        calls.append(threading.current_thread())
        n = len(calls)
        if n == fail_at:
            raise err
        out = chunk_pass(*args)
        if n == fail_at + 1:
            time.sleep(0.1)
            finished.append(n)
        return out

    monkeypatch.setattr(ens_mod, "_chunk_pass", failing)
    return err, calls, finished


def test_a_chunk_task_error_comes_out_of_step(cpus, monkeypatch):
    eq, spec = _case(3, 16, 1e-8)
    cpus(2)
    hat = np.zeros((eq.n_modes,) + eq.grid.shape, dtype=complex)
    hat[eq.carrier_cells()] = eq.equilibrium_spectrum(0.0)
    err, calls, finished = _failing_pass(monkeypatch, fail_at=16)  # chunk 5 of the second pass
    with pytest.raises(ValueError) as exc:
        ens_mod.step(eq, 0.01, 2, hat)
    assert exc.value is err
    assert finished == [17]  # the task in flight beside it finished before step returned
    assert threading.main_thread() not in calls


def test_a_chunk_task_error_comes_out_of_the_stream(cpus, monkeypatch):
    eq, spec = _case(3, 16, 1e-8)
    want = evolve(eq, spec, 0.02, 0.01, 1)
    cpus(2)
    chunk_pass = ens_mod._chunk_pass
    err, calls, finished = _failing_pass(monkeypatch, fail_at=24)  # in the second window
    stream = observations(eq, spec, 0.02, 0.01, 1)
    assert [t for t, _ in zip([0.0, 0.01], stream)] == [0.0, 0.01]
    with pytest.raises(ValueError) as exc:
        next(stream)
    assert exc.value is err and finished == [25]
    monkeypatch.setattr(ens_mod, "_chunk_pass", chunk_pass)
    again = evolve(eq, spec, 0.02, 0.01, 1)  # on the same pool, with the same bits
    assert field._POOL is not None
    assert np.array_equal(again.energies, want.energies)
    assert np.array_equal(again.density, want.density)


def test_picard_norm_tasks_submit_nothing_from_a_pool_thread(cpus, monkeypatch):
    # each slice's norms are one task; their weighted transforms run inline on
    # that task's thread, so the pool never waits on itself
    g = TorusGrid(3, 2 * np.pi, 8)
    eq, _ = init_equilibrium(g, fermi(1.0, 0.0), delta_potential(1.0), 1e-8)
    op = PicardOperator(eq, BumpSpec(1e-3, 0.8, (np.pi,) * 3, (1.0, 0.0, 0.0), mode=4),
                        T=0.5, n_steps=8)
    want = picard_solve(op, max_iters=3)
    cpus(2)
    pool = field._pool()
    submits, norm_threads, transform_threads = [], set(), set()
    submit = pool.submit

    def recording(fn, *args, **kwargs):
        submits.append(threading.current_thread())
        return submit(fn, *args, **kwargs)

    def on_thread(owner, name, seen):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.add(threading.current_thread())
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    monkeypatch.setattr(pool, "submit", recording)
    on_thread(PicardOperator, "_ingredients", norm_threads)
    on_thread(ens_mod._NormSums, "_weighted", transform_threads)
    got = picard_solve(op, max_iters=3)
    assert submits and set(submits) == {threading.main_thread()}
    assert transform_threads and transform_threads <= norm_threads
    assert threading.main_thread() not in norm_threads
    assert np.array_equal(got.Z, want.Z) and got.diff_norms == want.diff_norms


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_has_no_pool(cpus):
    # a forked child has the parent's executor but not its threads: it
    # forgets the pool, and its first map starts a pool of its own
    eq, spec = _case(3, 16, 1e-8)
    cpus(2)
    want = evolve(eq, spec, 0.02, 0.01, 1)
    assert field._POOL is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and skips pytest's teardown
        ok = False
        try:
            ok = field._POOL is None
            got = evolve(eq, spec, 0.02, 0.01, 1)
            ok = (ok and field._POOL is not None and np.array_equal(got.energies, want.energies)
                  and np.array_equal(got.density, want.density))
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], 60)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert ready, "the child's run waited on the parent's pool"
    assert os.read(read, 1) == b"1"
    os.close(read)


def test_ordered_map_keeps_item_order_with_one_task_per_thread(cpus):
    # item i + 2 gets item i's buffers, and starts only once item i's result is taken
    cpus(2)
    events, started, lock = [], {}, threading.Lock()
    running = [0, 0]  # now, most

    def task(buffers, item):
        with lock:
            started[item] = (len(events), buffers)
            events.append(("start", item))
            running[0] += 1
            running[1] = max(running)
        time.sleep(0.002 * (item % 3))
        with lock:
            running[0] -= 1
        return item * item

    got = []
    for item, result in enumerate(ordered_map(task, range(9), list)):
        got.append(result)
        events.append(("taken", item))
    assert got == [i * i for i in range(9)]
    assert running[1] <= 2
    assert started[0][1] is not started[1][1]
    for item in range(2, 9):
        at, buffers = started[item]
        assert buffers is started[item - 2][1]
        assert at > events.index(("taken", item - 2))


def test_ordered_map_makes_one_set_of_buffers_per_thread_on_the_calling_thread(cpus):
    made = []

    def scratch():
        made.append(threading.current_thread())
        return len(made)

    def buffers(b, item):
        return b

    cpus(2)
    assert list(ordered_map(buffers, range(5), scratch)) == [1, 2, 1, 2, 1]
    assert made == [threading.main_thread()] * 2
    assert list(ordered_map(buffers, [], scratch)) == [] and len(made) == 2  # none for no items
    assert list(ordered_map(buffers, ["one"], scratch)) == [3]
    assert list(ordered_map(buffers, range(5))) == [None] * 5  # no scratch: None
    cpus(1)
    assert list(ordered_map(buffers, range(5), scratch)) == [4] * 5
    assert made == [threading.main_thread()] * 4


def test_ordered_map_runs_inline_on_a_pool_thread_and_for_one_item(cpus):
    cpus(2)

    def where(buffers, item):
        return threading.current_thread(), buffers

    assert list(ordered_map(where, ["one"])) == [(threading.main_thread(), None)]
    assert field._POOL is None  # one item starts no pool
    pool = field._pool()

    def nested():
        made = []
        inner = list(ordered_map(where, range(4), lambda: made.append(threading.current_thread())))
        return inner, made, field._pool()

    inner, made, inner_pool = pool.submit(nested).result()
    assert inner_pool is None and len(made) == 1  # one set, made on the pool thread
    assert {thread for thread, _ in inner} == set(made)
    assert made[0] is not threading.main_thread()


def test_ordered_map_error_and_early_close_wait_for_the_tasks_in_flight(cpus):
    cpus(2)
    finished = []

    def task(buffers, item):
        if item == 3:
            raise KeyError(item)
        time.sleep(0.05 if item == 4 else 0.0)
        finished.append(item)
        return item

    with pytest.raises(KeyError):
        list(ordered_map(task, range(8)))
    assert 4 in finished and max(finished) == 4
    finished.clear()
    results = ordered_map(task, [10, 4, 11])
    assert next(results) == 10
    results.close()
    assert finished == [10, 4]


def test_ordered_map_pulls_a_generator_one_task_ahead(cpus):
    # item i is pulled on the calling thread only once item i - 2's result is
    # taken, so while the generator computes an item at most one task runs
    cpus(2)
    lock, running, taken, pulls = threading.Lock(), [0], [], []

    def task(buffers, item):
        with lock:
            running[0] += 1
        time.sleep(0.002 * (item % 3))
        with lock:
            running[0] -= 1
        return item * item, buffers

    def items():
        for i in range(9):
            seen = [running[0]]
            time.sleep(0.003)  # computing the item while the task in flight runs
            seen.append(running[0])
            pulls.append((i, len(taken), max(seen), threading.current_thread()))
            yield i

    got = []
    for result, buffers in ordered_map(task, items(), list):
        got.append((result, buffers))
        taken.append(result)
    assert [result for result, _ in got] == [i * i for i in range(9)]
    assert [buffers for _, buffers in got] == [got[0][1], got[1][1]] * 4 + [got[0][1]]
    assert got[0][1] is not got[1][1]
    for i, n_taken, most, thread in pulls:
        assert n_taken >= i - 1 and most <= 1 and thread is threading.main_thread(), (i, n_taken, most)


def test_ordered_map_over_a_generator_waits_for_the_tasks_in_flight(cpus):
    # a failing task, a failing generator and an early close all leave no task
    # running once the map has let go
    cpus(2)
    finished, pulled = [], []

    def task(buffers, item):
        if item == 3:
            raise KeyError(item)
        time.sleep(0.05 if item in (1, 4) else 0.0)
        finished.append(item)
        return item

    def items(values, fail_at=None):
        for value in values:
            if value == fail_at:
                raise IndexError(value)
            pulled.append(value)
            yield value

    with pytest.raises(KeyError):
        list(ordered_map(task, items(range(8))))
    assert 4 in finished and max(finished) == 4 and max(pulled) == 4
    finished.clear()
    with pytest.raises(IndexError):
        list(ordered_map(task, items([0, 1, 2], fail_at=2)))
    assert finished == [0, 1]
    finished.clear()
    pulled.clear()
    results = ordered_map(task, items([10, 4, 11]))
    assert next(results) == 10
    results.close()
    assert finished == [10, 4] and pulled == [10, 4]


# names that start threads or processes: a second pool beside field's
_POOL_NAMES = {"ThreadPoolExecutor", "threading", "concurrent", "multiprocessing", "fork"}


def _pool_names(path):
    """'line: name' for each import, name or attribute of path's code that is
    one of _POOL_NAMES or a dotted name with one of them as a part."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if _POOL_NAMES & set(name.split("."))]
    return found


def _pool_calls(path):
    """'line: name()' for each call of a name or attribute pool or _pool in
    path's code."""
    calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    names = [(node.lineno, getattr(node.func, "id", getattr(node.func, "attr", None))) for node in calls]
    return [f"{line}: {name}()" for line, name in names if name in ("pool", "_pool")]


def test_only_field_starts_threads_or_processes():
    # every pool user hands its tasks to field's one pool through ordered_map;
    # no module starts a second pool, thread or process beside it, and none
    # but field calls pool() or _pool()
    package = Path(field.__file__).parent
    assert _pool_names(package / "field.py")  # the scan sees the pool's own names
    assert _pool_calls(package / "field.py")  # and its calls
    paths = sorted(package.rglob("*.py"))
    others = {path.name: (_pool_names(path), _pool_calls(path)) for path in paths if path.name != "field.py"}
    assert len(others) >= 12
    assert {name: found for name, found in others.items() if any(found)} == {}
