"""Fixtures shared by the test modules."""

import errno
import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs the program sees, and so how many fork-map workers it starts."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture
def forked_workers(monkeypatch):
    """The pid of every process this test forks, in order: the fork map's workers."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


@pytest.fixture
def fail_fork(monkeypatch):
    """``fail_fork(n)`` makes the n-th and every later ``os.fork`` raise EAGAIN, as at a process limit.

    It returns the list of forks tried, which grows by one per call.
    """

    def fail_fork(n):
        tried = []
        fork = os.fork

        def fork_until_pid_limit():
            tried.append(None)
            if len(tried) >= n:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_until_pid_limit)
        return tried

    return fail_fork
