"""Golden digests of whole runs, and the comparer that holds a run to one.

A digest splits a run into exact parts and float parts.  The exact parts
are its discrete outcomes: per-tick served and fulfilled counts by class and
active channels, switch events (tick, cell, old and new channel, retained
users), failure waves (tick, killed cells) and which cells end alive.  The
float parts are the per-tick rate metrics, the SINRs of each switch event
and the final cell positions and velocities.  The comparer requires the
exact parts to be equal and the floats to agree within REL_TOL relative, so
that a refactor which re-orders a sum still passes while a dropped event or
a shifted rate does not.  Digests are kept for fig3 in each controller
mode and for fig5 cut to 16 s, ten ticks past its failure wave.

The export goldens are stricter: the sha256 of every file the exporters
write for a traced fig3 run and a short two-count sweep, so a change to the
exporters must leave their bytes alone.

Re-record golden files from the code in ``src`` by naming each one, from
``fig3``, ``fig5`` and ``exports``:

    PYTHONPATH=src python tests/golden.py fig5

Only the named files are rewritten; with no name the script prints its
usage and exits non-zero.  Before it overwrites a file it prints how the new
record differs from the committed one: for a digest, compare()'s lines at a
relative tolerance of 0 and the largest relative float deviation; for the
exports, each file whose bytes change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import tempfile
from dataclasses import replace

import numpy as np

from uavswarm.engine import run
from uavswarm.harness import export_run, export_sweep_csv, run_sweep
from uavswarm.model import FLOCKING_MODE, load_scenario

REPO = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
FIG3_GOLDEN = GOLDENS / "fig3.json"
FIG5_GOLDEN = GOLDENS / "fig5.json"
EXPORTS_GOLDEN = GOLDENS / "exports.json"

# fig5 as the benchmark runs it: ten ticks past the 30% wave at t = 15 s
FIG5_DURATION = 16.0
# the sweep whose sweep.csv the export goldens hold
SWEEP_COUNTS = (6, 11)
SWEEP_DURATION = 3.0

# Shifting one cell's start by 1e-9 m moves no discrete outcome and the
# floats by far less than this (see the perturbation probe in ROADMAP.md).
REL_TOL = 1e-9

_RATE_FIELDS = ("premium_mean_rate", "regular_mean_rate", "all_mean_rate",
                "p0_objective")


def fig3_configs() -> dict:
    """The fig3 scenario in each controller mode, keyed by golden name."""
    config = load_scenario(SCENARIOS / "fig3_three_users.yaml")
    return {"qos": config,
            "flocking": replace(config, controller_mode=FLOCKING_MODE)}


def fig5_config():
    """The fig5 scenario cut to FIG5_DURATION."""
    return replace(load_scenario(SCENARIOS / "fig5_parade.yaml"),
                   duration=FIG5_DURATION)


def export_digests(out) -> dict:
    """Write the exported files of a traced fig3 run (qos mode) and of a
    short sweep under ``out``; the sha256 of each, keyed by its path
    relative to ``out``."""
    out = pathlib.Path(out)
    export_run(run(fig3_configs()["qos"], trace=True), out / "fig3")
    base = replace(load_scenario(SCENARIOS / "sweep_base.yaml"),
                   duration=SWEEP_DURATION)
    export_sweep_csv(run_sweep(base, SWEEP_COUNTS), out / "sweep.csv")
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def digest(result) -> dict:
    dt = result.config.gains.dt
    world = result.world
    n_prem = int(np.count_nonzero(world.premium))
    n_reg = len(world.premium) - n_prem

    def tick(t: float) -> int:
        return int(round(t / dt))

    def count(pct: float, n: int) -> int:
        return round(pct * n / 100.0)

    return {
        "exact": {
            "ticks": len(result.metrics),
            "served": [[count(m.premium_served_pct, n_prem),
                        count(m.regular_served_pct, n_reg)]
                       for m in result.metrics],
            "fulfilled": [[count(m.premium_fulfilled_pct, n_prem),
                           count(m.regular_fulfilled_pct, n_reg)]
                          for m in result.metrics],
            "active_channels": [m.active_channels for m in result.metrics],
            "switches": [[tick(e.time), e.uav_id, e.old_channel,
                          e.new_channel, list(e.user_ids)]
                         for e in result.switch_events],
            "failures": [[tick(t), list(ids)] for t, ids in result.failures],
            "alive_at_end": np.flatnonzero(world.alive).tolist(),
        },
        "float": {
            "rates": [[getattr(m, k) for k in _RATE_FIELDS]
                      for m in result.metrics],
            "switch_sinr": [[*e.sinr_before, *e.sinr_after]
                            for e in result.switch_events],
            "final_positions": world.uav_pos[:, :2].tolist(),
            "final_velocities": world.uav_vel[:, :2].tolist(),
        },
    }


def largest_deviation(ref: dict, got: dict) -> float:
    """The largest relative deviation over the float parts of two digests
    that hold the same number of values (compare() names the others)."""
    worst = 0.0
    for key in set(ref["float"]) & set(got["float"]):
        a = _flatten(ref["float"][key])
        b = _flatten(got["float"][key])
        if len(a) == len(b):
            worst = max(worst, _worst(a, b))
    return worst


def compare(ref: dict, got: dict, rel_tol: float = REL_TOL) -> list[str]:
    """Differences between two digests: exact parts must be equal, floats
    within ``rel_tol`` of each other.  An empty list means they agree."""
    problems = []
    for key in sorted(set(ref["exact"]) | set(got["exact"])):
        if ref["exact"].get(key) != got["exact"].get(key):
            problems.append(f"{key}: not equal")
    for key in sorted(set(ref["float"]) | set(got["float"])):
        a = _flatten(ref["float"].get(key))
        b = _flatten(got["float"].get(key))
        if len(a) != len(b):
            problems.append(f"{key} has {len(b)} values, expected {len(a)}")
            continue
        worst = _worst(a, b)
        if not worst <= rel_tol:
            problems.append(f"{key} off by {worst:.3g} relative "
                            f"(tolerance {rel_tol:g})")
    return problems


def _flatten(value) -> list[float]:
    if value is None:
        return []
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def _worst(a: list[float], b: list[float]) -> float:
    return max((_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


GOLDEN_FILES = {"fig3": FIG3_GOLDEN, "fig5": FIG5_GOLDEN,
                "exports": EXPORTS_GOLDEN}


def recorded(name: str) -> dict:
    """The golden file ``name`` as the code in ``src`` records it now."""
    if name == "fig3":
        return {mode: digest(run(config))
                for mode, config in fig3_configs().items()}
    if name == "fig5":
        return {"qos": digest(run(fig5_config()))}
    with tempfile.TemporaryDirectory() as out:
        return export_digests(out)


def changes(name: str, old: dict, new: dict) -> list[str]:
    """How the re-recorded golden file ``name`` differs from ``old``."""
    keys = sorted(old.keys() | new.keys())
    if name == "exports":
        return [f"{key}: bytes differ" for key in keys
                if old.get(key) != new.get(key)]
    lines = []
    worst = 0.0
    for key in keys:
        if key not in old or key not in new:
            lines.append(f"{key}: {'added' if key in new else 'removed'}")
            continue
        lines += [f"{key}: {problem}"
                  for problem in compare(old[key], new[key], rel_tol=0.0)]
        worst = max(worst, largest_deviation(old[key], new[key]))
    lines.append(f"largest relative float deviation {worst:.3g}")
    return lines


def record(names) -> None:
    """Re-record the named golden files, printing each one's changes first."""
    GOLDENS.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN_FILES[name]
        new = recorded(name)
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                lines = changes(name, json.load(fh), new)
        else:
            lines = ["new file"]
        for line in lines or ["unchanged"]:
            print(f"{path.name}: {line}")
        dump = ({"indent": 2, "sort_keys": True} if name == "exports"
                else {"separators": (",", ":")})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(new, fh, **dump)
            fh.write("\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-record the named golden files from the code in src.")
    parser.add_argument("names", nargs="+", choices=list(GOLDEN_FILES))
    record(parser.parse_args().names)
