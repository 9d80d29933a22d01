"""Fixtures shared by the test modules."""

import concurrent.futures
import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs the program sees, and so how many fork-map workers it starts."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture
def started_pools(monkeypatch):
    """The worker count of every process pool started, in order."""
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
