import os
import pathlib

import pytest

from uavswarm import radio
from uavswarm.engine import run
from uavswarm.model import load_scenario

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="session")
def fig3_config():
    return load_scenario(SCENARIOS / "fig3_three_users.yaml")


@pytest.fixture(scope="session")
def fig3_result(fig3_config):
    """One qos-mode run of the three-user scenario, shared across tests."""
    return run(fig3_config)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count radio's split sees.  Each count gets a pool of
    its own, shut down after it, so its worker count does not leak."""
    monkeypatch.setattr(radio, "_pool", None)

    def drop_pool():
        if radio._pool is not None:
            radio._pool.shutdown()
            radio._pool = None

    def set_cpus(n):
        drop_pool()
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)

    yield set_cpus
    drop_pool()
