"""The ordered fork map shared by benchmark and explain: order, worker count and every fallback."""

import errno
import multiprocessing
import os
import threading

import pytest

from deepcoda._forkmap import ordered_fork_map

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
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
    "cpus,n_tasks,workers", [(8, 2, [2]), (1, 3, []), (8, 1, [])], ids=["tasks", "cpus", "one_task"]
)
def test_workers_clamped_to_tasks_and_cpus(set_cpus, started_pools, cpus, n_tasks, workers):
    set_cpus(cpus)
    assert [i for i, _ in ordered_fork_map(task_and_pid, n_tasks)] == list(range(n_tasks))
    assert started_pools == workers


@pytest.mark.parametrize("cause", ["no_fork", "other_thread"])
def test_runs_in_process_without_a_safe_fork(monkeypatch, set_cpus, started_pools, cause):
    set_cpus(2)
    if cause == "no_fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
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
    assert started_pools == []


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
def test_failed_fork_runs_in_process(monkeypatch, set_cpus, fails_at):
    starts = []
    start = multiprocessing.get_context("fork").Process.start

    def start_until_pid_limit(process):
        starts.append(process)
        if len(starts) >= fails_at:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        start(process)

    monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", start_until_pid_limit)
    set_cpus(2)
    try:
        assert list(ordered_fork_map(task_and_pid, 3)) == in_process(3)
        assert len(starts) == fails_at
        # A worker started before the failed fork is stopped, not left waiting.
        assert multiprocessing.active_children() == []
    finally:
        for child in multiprocessing.active_children():  # a leftover would hang exit
            child.terminate()


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
