import os

import pytest


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(k)`` makes this process's affinity mask read ``k`` CPUs."""
    def fake(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                            raising=False)
    return fake
