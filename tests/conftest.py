"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """Set how many CPUs the program sees, and so how many fork-map workers it starts."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus
