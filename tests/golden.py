"""Golden digests of whole runs, and the comparer that holds a run to one.

A digest splits a run into exact parts and float parts.  The exact parts
are its discrete outcomes: per-tick served and fulfilled counts by class and
active channels, switch events (tick, cell, old and new channel, retained
users), failure waves (tick, killed cells) and which cells end alive.  The
float parts are the per-tick rate metrics, the SINRs of each switch event
and the final cell positions and velocities.  The comparer requires the
exact parts to be equal and the floats to agree within REL_TOL relative, so
that a refactor which re-orders a sum still passes while a dropped event or
a shifted rate does not.

Record the fig3 goldens from the code in ``src`` with

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

from uavswarm.engine import run
from uavswarm.model import FLOCKING_MODE, PREMIUM, load_scenario

REPO = pathlib.Path(__file__).resolve().parent.parent
FIG3 = REPO / "scenarios" / "fig3_three_users.yaml"
FIG3_GOLDEN = pathlib.Path(__file__).resolve().parent / "goldens" / "fig3.json"

# Shifting one cell's start by 1e-9 m moves no discrete outcome and the
# floats by far less than this (see the perturbation probe in ROADMAP.md).
REL_TOL = 1e-9

_RATE_FIELDS = ("premium_mean_rate", "regular_mean_rate", "all_mean_rate",
                "p0_objective")


def fig3_configs() -> dict:
    """The fig3 scenario in each controller mode, keyed by golden name."""
    config = load_scenario(FIG3)
    return {"qos": config,
            "flocking": replace(config, controller_mode=FLOCKING_MODE)}


def digest(result) -> dict:
    dt = result.config.gains.dt
    users = result.world.users
    n_prem = sum(1 for u in users if u.klass == PREMIUM)
    n_reg = len(users) - n_prem

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
            "alive_at_end": [u.id for u in result.world.uavs if u.alive],
        },
        "float": {
            "rates": [[getattr(m, k) for k in _RATE_FIELDS]
                      for m in result.metrics],
            "switch_sinr": [[*e.sinr_before, *e.sinr_after]
                            for e in result.switch_events],
            "final_positions": [u.position[:2].tolist()
                                for u in result.world.uavs],
            "final_velocities": [u.velocity[:2].tolist()
                                 for u in result.world.uavs],
        },
    }


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
        worst = max((_rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
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


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def record() -> None:
    goldens = {name: digest(run(config))
               for name, config in fig3_configs().items()}
    FIG3_GOLDEN.parent.mkdir(exist_ok=True)
    with open(FIG3_GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    record()
