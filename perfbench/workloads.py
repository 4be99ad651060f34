"""Benchmark workloads: inputs built from a seed, one timed operation each,
and the digest and output checks that decide whether an operation is correct.

Importing this module imports the simulator from the checkout's ``src``
directory, never from an installed copy, so that the benchmark always
measures the code next to it.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import uavswarm  # noqa: E402
from uavswarm import engine, harness, model  # noqa: E402

if Path(uavswarm.__file__).resolve().parent != SRC / "uavswarm":
    raise ImportError(f"uavswarm imported from {uavswarm.__file__}, "
                      f"not from {SRC}")

WORKLOADS = ("fig5", "sweep", "field_flock")

# fig5: the paper's headline scenario, cut to 16 s so that each run still
# reaches ten ticks past the 30% failure wave at t = 15 s.
FIG5_DURATION = 16.0
# sweep: both ends of the 6..21 acceptance sweep plus two sizes between; a
# 3 s horizon keeps one operation near 4 s so a run holds several.
SWEEP_COUNTS = (6, 11, 16, 21)
SWEEP_DURATION = 3.0
# field_flock: 5x the fig5 user count at its density (600 users per 5 km^2)
# over 11 x 2.2 km, 100 cells, flocking baseline so h_term and switching are
# bypassed.  5 s is one full rate window (tau), so the last tick pays the
# steady rate-window cost.
FLOCK_USERS = 3000
FLOCK_PREMIUM = 0.2
FLOCK_AREA = (0.0, 0.0, 11000.0, 2200.0)
FLOCK_PREMIUM_AREA = (0.0, 0.0, 2200.0, 2200.0)
FLOCK_CELLS = 100
FLOCK_DURATION = 5.0


def build_config(name: str, seed: int) -> model.ScenarioConfig:
    """The validated scenario a workload runs, made from ``seed`` alone."""
    if name == "fig5":
        config = model.load_scenario(SCENARIOS / "fig5_parade.yaml")
        config = replace(config, duration=FIG5_DURATION)
    elif name == "sweep":
        config = model.load_scenario(SCENARIOS / "sweep_base.yaml")
        config = replace(config, seed=seed, duration=SWEEP_DURATION)
    elif name == "field_flock":
        return harness.generate_scenario(
            FLOCK_USERS, FLOCK_PREMIUM, FLOCK_AREA, FLOCK_PREMIUM_AREA,
            FLOCK_CELLS, duration=FLOCK_DURATION, seed=seed,
            controller_mode=model.FLOCKING_MODE)
    else:
        raise ValueError(f"unknown workload {name!r}")
    config.validate()
    return config


def run_op(name: str, config: model.ScenarioConfig, seed: int, out_dir: Path):
    """One operation, as ``uavswarm run --out`` or ``uavswarm sweep`` does it.

    The public names are looked up on their modules at call time so that a
    traced run sees its wrappers.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "sweep":
        sweep = harness.run_sweep(config, SWEEP_COUNTS)
        harness.export_sweep_csv(sweep, out_dir / "sweep.csv")
        return sweep
    run_seed = seed if name == "fig5" else None
    result = engine.run(config, run_seed=run_seed)
    harness.export_run(result, out_dir)
    return result


# --- digests --------------------------------------------------------------
#
# A digest splits an operation's outcome into exact parts (integers, ids,
# events) and float parts, which the reference check compares with a
# relative tolerance so that re-ordered sums still pass.

_RATE_FIELDS = ("premium_mean_rate", "regular_mean_rate", "all_mean_rate",
                "p0_objective")


def digest(name: str, result) -> dict:
    if name == "sweep":
        return {
            "exact": {"counts": list(result.counts),
                      "seeds": [result.seeds[n] for n in result.counts]},
            "float": {"steady": {str(n): result.steady[n]
                                 for n in result.counts}},
        }
    dt = result.config.gains.dt
    users = result.world.users
    n_prem = sum(1 for u in users if u.klass == model.PREMIUM)
    n_reg = len(users) - n_prem

    def tick(t: float) -> int:
        return int(round(t / dt))

    served = [[round(m.premium_served_pct * n_prem / 100.0),
               round(m.regular_served_pct * n_reg / 100.0)]
              for m in result.metrics]
    steady = uavswarm.steady_state(result.metrics)
    return {
        "exact": {
            "ticks": len(result.metrics),
            "served": served,
            "active_channels": [m.active_channels for m in result.metrics],
            "switches": [[tick(e.time), e.uav_id, e.old_channel, e.new_channel]
                         for e in result.switch_events],
            "failures": [[tick(t), list(ids)] for t, ids in result.failures],
            "alive_at_end": [u.id for u in result.world.uavs if u.alive],
        },
        "float": {
            "rates": [[getattr(m, k) for k in _RATE_FIELDS]
                      for m in result.metrics],
            "steady": steady,
        },
    }


def compare(ref: dict, got: dict, rel_tol: float) -> list[str]:
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
        worst = max((_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
        if not worst <= rel_tol:
            problems.append(f"{key} off by {worst:.3g} relative "
                            f"(tolerance {rel_tol:g})")
    return problems


def _flatten(value) -> list[float]:
    if value is None:
        return []
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _flatten(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _flatten(item)]
    return [float(value)]


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# --- output checks --------------------------------------------------------


def check_outputs(name: str, config, result, out_dir: Path) -> list[str]:
    """Invariants every correct operation meets, whatever its seed."""
    problems = []
    if name == "sweep":
        if list(result.counts) != list(SWEEP_COUNTS):
            problems.append(f"sweep counts {result.counts}")
        for n in result.counts:
            if result.seeds[n] != config.seed + n:
                problems.append(f"sweep seed for {n} cells is {result.seeds[n]}")
            if not all(math.isfinite(v) for v in result.steady[n].values()):
                problems.append(f"non-finite steady state for {n} cells")
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if [r[0] for r in rows[1:]] != [str(n) for n in SWEEP_COUNTS]:
            problems.append("sweep.csv rows do not match the counts")
        return problems

    ticks = int(round(config.duration / config.gains.dt)) + 1
    if len(result.metrics) != ticks:
        problems.append(f"{len(result.metrics)} metric rows, expected {ticks}")
    n_channels = config.radio.num_channels
    for m in result.metrics:
        if not 1 <= m.active_channels <= n_channels:
            problems.append(f"{m.active_channels} active channels at {m.time}")
            break
        if not all(math.isfinite(getattr(m, k)) and getattr(m, k) >= 0.0
                   for k in _RATE_FIELDS):
            problems.append(f"bad rate at {m.time}")
            break
    if name == "fig5":
        wave = config.failure_events[0]
        expected = model.round_half_up(wave.fraction * config.uav_count)
        if [len(ids) for _, ids in result.failures] != [expected]:
            problems.append(f"failure wave killed {result.failures}")
        elif not result.failures[0][0] >= wave.at_time:
            problems.append("failure wave fired early")
    else:
        if result.switch_events or result.failures:
            problems.append("flocking run switched channels or lost cells")
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != ticks:
        problems.append(f"metrics.csv has {rows} rows, expected {ticks}")
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    if (summary["ticks"] != ticks
            or summary["channel_switches"] != len(result.switch_events)):
        problems.append("summary.json disagrees with the run")
    return problems
