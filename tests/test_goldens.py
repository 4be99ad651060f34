"""Whole-run goldens: fig3 in each controller mode against recorded digests.

The digests in ``goldens/fig3.json`` were recorded before the controller
terms were batched over the fleet; a change that re-orders sums passes
within golden.REL_TOL, one that moves a discrete outcome does not.
"""

import copy
import json

import pytest

from golden import FIG3_GOLDEN, compare, digest, fig3_configs
from uavswarm.engine import run


@pytest.fixture(scope="module")
def goldens():
    with open(FIG3_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_fig3_matches_golden(goldens, name):
    assert compare(goldens[name], digest(run(fig3_configs()[name]))) == []


def test_comparer_catches_a_dropped_switch_event(goldens):
    got = copy.deepcopy(goldens["qos"])
    assert got["exact"]["switches"]
    got["exact"]["switches"].pop()
    got["float"]["switch_sinr"].pop()
    assert compare(goldens["qos"], got) == [
        "switches: not equal", "switch_sinr has 0 values, expected 2"]


def test_comparer_catches_a_shifted_rate(goldens):
    got = copy.deepcopy(goldens["qos"])
    got["float"]["rates"][150][0] *= 1.0 + 1e-6
    assert compare(goldens["qos"], got) == [
        "rates off by 1e-06 relative (tolerance 1e-09)"]
