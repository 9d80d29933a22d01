"""The ordered fork map shared by benchmark and explain: order, worker count and every fallback."""

import ctypes
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import deepcoda
from deepcoda._forkmap import _LOOKAHEAD, ordered_fork_map

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
needs_mallopt = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="needs os.fork and glibc's mallopt",
)


def task_and_pid(index):
    return index, os.getpid()


def in_process(n_tasks):
    return [(i, os.getpid()) for i in range(n_tasks)]


class TaskError(Exception):
    pass


class TwoArgError(Exception):
    """Cannot be unpickled: unpickling calls ``TwoArgError(message)``."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("n_tasks", [0, 1, 3])
def test_yields_every_result_in_order(set_cpus, n_tasks, cpus):
    set_cpus(cpus)
    assert list(ordered_fork_map(lambda i: i * i, n_tasks)) == [i * i for i in range(n_tasks)]


@needs_fork
@pytest.mark.parametrize(
    "cpus,n_tasks,workers", [(8, 2, 2), (1, 3, 0), (8, 1, 0)], ids=["tasks", "cpus", "one_task"]
)
def test_workers_clamped_to_tasks_and_cpus(set_cpus, forked_workers, cpus, n_tasks, workers):
    set_cpus(cpus)
    assert [i for i, _ in ordered_fork_map(task_and_pid, n_tasks)] == list(range(n_tasks))
    assert len(forked_workers) == workers


@pytest.mark.parametrize("cause", ["no_fork", "other_thread"])
def test_runs_in_process_without_a_safe_fork(monkeypatch, set_cpus, forked_workers, cause):
    set_cpus(2)
    if cause == "no_fork":
        monkeypatch.delattr(os, "fork")
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if cause == "other_thread":
        waiter.start()
    try:
        results = list(ordered_fork_map(task_and_pid, 3))
    finally:
        release.set()
        if cause == "other_thread":
            waiter.join()
    assert results == in_process(3)
    assert forked_workers == []


@needs_fork
def test_dead_worker_tasks_run_in_process(set_cpus):
    parent = os.getpid()

    def dies_at_one(index):
        if index == 1 and os.getpid() != parent:
            os._exit(1)
        return task_and_pid(index)

    set_cpus(2)
    results = list(ordered_fork_map(dies_at_one, 4))
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert results[1:] == in_process(4)[1:]


@needs_fork
@pytest.mark.parametrize("fails_at", [1, 2], ids=["first_worker", "second_worker"])
def test_failed_fork_runs_in_process(set_cpus, fail_fork, fails_at):
    tried = fail_fork(fails_at)
    set_cpus(2)
    assert list(ordered_fork_map(task_and_pid, 3)) == in_process(3)
    assert len(tried) == fails_at
    # A worker started before the failed fork is stopped and reaped, not left waiting.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "first,cls",
    [(lambda: TaskError("first"), TaskError), (lambda: TwoArgError("first", "x"), TwoArgError)],
    ids=["plain", "unpicklable"],
)
def test_lowest_failing_task_is_raised(set_cpus, cpus, first, cls):
    def task(index):
        if index == 1:
            raise first()
        if index == 3:
            raise KeyError("3")
        return index

    set_cpus(cpus)
    results = []
    with pytest.raises(cls, match="^first"):
        for value in ordered_fork_map(task, 4):
            results.append(value)
    assert results == [0]


@needs_fork
def test_none_result_is_yielded_and_later_tasks_stay_in_workers(set_cpus):
    parent = os.getpid()
    set_cpus(2)
    results = list(ordered_fork_map(lambda i: None if i == 0 else os.getpid(), 4))
    assert results[0] is None
    assert all(isinstance(pid, int) and pid != parent for pid in results[1:])


@needs_fork
def test_results_larger_than_a_pipe_buffer_arrive_whole_and_in_order(set_cpus):
    parent = os.getpid()

    def task(index):
        time.sleep(0.05)  # so that both workers take tasks
        return os.getpid(), bytes([index]) * (3 << 20)

    set_cpus(2)
    results = list(ordered_fork_map(task, 4))
    assert [value for _, value in results] == [bytes([i]) * (3 << 20) for i in range(4)]
    pids = {pid for pid, _ in results}
    assert len(pids) == 2 and parent not in pids


@needs_fork
def test_workers_take_new_tasks_as_they_return_results(set_cpus, forked_workers):
    def task(index):
        time.sleep(0.01)  # so that both workers take tasks
        return task_and_pid(index)

    # More tasks than the workers hold at once, so tasks are sent as others return.
    assert 20 > 2 * _LOOKAHEAD
    set_cpus(2)
    results = list(ordered_fork_map(task, 20))
    assert [i for i, _ in results] == list(range(20))
    assert {pid for _, pid in results} == set(forked_workers) and len(forked_workers) == 2


@needs_fork
def test_workers_run_a_bounded_way_ahead_of_the_caller(set_cpus, tmp_path):
    log = os.open(tmp_path / "started", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def task(index):
        os.write(log, b"%d\n" % index)
        if index:
            time.sleep(0.05)  # task 0 comes back first, alone
        return index

    set_cpus(2)
    results = ordered_fork_map(task, 20)
    try:
        assert next(results) == 0
        time.sleep(1.0)  # time for the workers to run every task they hold
        started = sorted(map(int, (tmp_path / "started").read_text().split()))
    finally:
        results.close()
        os.close(log)
    # The task yielded, and what the two workers held then: none is sent while the caller works.
    assert started == list(range(1 + 2 * _LOOKAHEAD))


@needs_fork
@pytest.mark.parametrize("end", ["early_close", "task_raises", "worker_dies"])
def test_every_worker_is_reaped(set_cpus, end):
    parent = os.getpid()

    def task(index):
        if index == 3 and os.getpid() != parent:
            if end == "task_raises":
                raise TaskError(index)
            if end == "worker_dies":
                os._exit(1)
        return index

    set_cpus(2)
    results = ordered_fork_map(task, 10)
    if end == "early_close":
        assert next(results) == 0
        results.close()
    else:
        assert list(results) == list(range(10))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_early_close_stops_running_tasks(set_cpus):
    set_cpus(2)
    results = ordered_fork_map(lambda i: time.sleep(60) if i else i, 4)
    start = time.monotonic()
    assert next(results) == 0
    results.close()
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def subprocess_env():
    src = str(Path(deepcoda.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def running(pid):
    """Whether process ``pid`` exists and has not exited."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # An orphan that exited stays a zombie until its new parent reaps it, and
    # an init process that does not reap orphans never does.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return not Path("/proc/self").exists()
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
def test_killed_parent_leaves_no_worker_running():
    code = """
import os, time
os.sched_getaffinity = lambda pid: {0, 1}
from deepcoda._forkmap import ordered_fork_map

def task(index):
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(0.2)
    return index

for _ in ordered_fork_map(task, 100):
    pass
"""
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=subprocess_env())
    try:
        workers = set()
        while len(workers) < 2:
            workers.add(int(proc.stdout.readline()))
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert proc.pid not in workers
    time.sleep(1.0)
    assert [pid for pid in workers if running(pid)] == []


@needs_mallopt
def test_workers_keep_the_memory_their_tasks_free():
    # A fresh interpreter, whose malloc thresholds no earlier test has moved.
    # Each task allocates and frees a 10 MiB working set twice and reports the
    # minor page faults of the second round: a worker that gave the first
    # round's pages back to the system takes about 2,560 (10 MiB of 4 KiB pages).
    code = """
import os, resource
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from deepcoda._forkmap import ordered_fork_map

def task(index):
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(1 << 15) for _ in range(40)]  # 40 arrays of 256 KiB
        del arrays
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return os.getpid(), faults

results = list(ordered_fork_map(task, 4))
assert os.getpid() not in {pid for pid, _ in results}, results
print(*(faults for _, faults in results))
"""
    result = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert max(map(int, result.stdout.split())) < 256, result.stdout


@needs_fork
def test_cli_runs_leave_out_multiprocessing(tmp_path):
    # explain and benchmark run their fork maps in this process, on two
    # workers each, without loading a process pool.
    code = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
forked = []
fork = os.fork

def recording_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid

os.fork = recording_fork
import deepcoda.explain
from deepcoda.cli import run

deepcoda.explain._ROW_BLOCK = 50  # four blocks of the 200-row file
work = sys.argv[1]
open(f"{work}/train.cfg", "w").write("epochs = 5\\n")
data = f"{work}/data/relative.csv"
assert run(["simulate", "toy", "--n", "200", "--out", f"{work}/data"]) == 0
assert run(["train", data, "--config", f"{work}/train.cfg", "--out", f"{work}/model.txt"]) == 0
assert run(["explain", f"{work}/model.txt", data, "--out", f"{work}/report"]) == 0
assert run(["benchmark", data, "--splits", "2", "--epochs", "5", "--out", f"{work}/b.csv"]) == 0
assert len(forked) == 4, forked
assert "multiprocessing" not in sys.modules and "concurrent.futures" not in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=subprocess_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
