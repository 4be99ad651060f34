"""Whole-run goldens: fig3 in each controller mode and fig5 cut to 16 s
against recorded digests, and the exported files against recorded bytes.

The digests in ``goldens/fig3.json`` were recorded before the controller
terms were batched over the fleet, those in ``goldens/fig5.json`` before
the reporting rule was given one site; a change that re-orders sums passes
within golden.REL_TOL, one that moves a discrete outcome does not.  The
export digests in ``goldens/exports.json`` admit no difference at all.
"""

import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

from golden import (EXPORTS_GOLDEN, FIG3_GOLDEN, FIG5_GOLDEN, changes,
                    compare, digest, export_digests, fig3_configs, fig5_config)
from uavswarm.engine import run


@pytest.fixture(scope="module")
def goldens():
    with open(FIG3_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_fig3_matches_golden(goldens, name):
    assert compare(goldens[name], digest(run(fig3_configs()[name]))) == []


def test_fig5_matches_golden():
    with open(FIG5_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)["qos"]
    got = digest(run(fig5_config()))
    assert got["exact"]["failures"] == [[150, [1, 3, 4, 7, 8]]]
    assert compare(golden, got) == []


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """(recorded, written) sha256 per exported file."""
    with open(EXPORTS_GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded, export_digests(tmp_path_factory.mktemp("exports"))


def test_exported_file_set_matches_golden(exports):
    recorded, written = exports
    assert sorted(written) == sorted(recorded) == [
        "fig3/metrics.csv", "fig3/summary.json", "fig3/trace.csv",
        "fig3/user_trace.csv", "sweep.csv"]


@pytest.mark.parametrize("name", ["fig3/metrics.csv", "fig3/summary.json",
                                  "fig3/trace.csv", "fig3/user_trace.csv",
                                  "sweep.csv"])
def test_exported_bytes_match_golden(exports, name):
    recorded, written = exports
    assert written[name] == recorded[name]


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


def test_changes_name_exact_parts_and_largest_float_deviation(goldens):
    new = copy.deepcopy(goldens)
    new["qos"]["exact"]["switches"].pop()
    new["qos"]["float"]["switch_sinr"].pop()
    new["flocking"]["float"]["rates"][150][0] *= 1.0 + 1e-6
    new["flocking"]["float"]["rates"][151][0] *= 1.0 + 1e-7
    assert changes("fig3", goldens, new) == [
        "flocking: rates off by 1e-06 relative (tolerance 0)",
        "qos: switches: not equal",
        "qos: switch_sinr has 0 values, expected 2",
        "largest relative float deviation 1e-06"]
    assert changes("fig3", goldens, goldens) == [
        "largest relative float deviation 0"]


def test_changes_name_each_export_whose_bytes_differ():
    old = {"a.csv": "0" * 64, "b.csv": "1" * 64}
    assert changes("exports", old, {**old, "b.csv": "2" * 64}) == [
        "b.csv: bytes differ"]


def test_recording_without_a_name_prints_usage_and_fails():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    script = pathlib.Path(__file__).with_name("golden.py")
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stderr.startswith("usage:")
