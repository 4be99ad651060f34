"""Scenario generation, sweep experiments, and deterministic exporters.

One reporting rule writes every output: a rate or the P0 objective, carried
in bits/s, is reported in Mbit/s under its name plus "_mbps"; any other
quantity keeps its name and value.  The columns of metrics.csv are
TickMetrics' fields, those of sweep.csv the same but time, and those of the
traces engine.TRACE_COLUMNS and USER_TRACE_COLUMNS.  A CSV prints a float
with three decimals and an int or a bool, which is never a rate, as an
integer; summary.json rounds to three decimals.  No output holds a
timestamp, so two runs of the same scenario and seed produce byte-identical
files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from .engine import TRACE_COLUMNS, USER_TRACE_COLUMNS, RunResult, run
from .metrics import TickMetrics, steady_state
from .model import (
    PREMIUM,
    QOS_MODE,
    REGULAR,
    AtLeastOne,
    Fraction,
    ScenarioConfig,
    ScenarioError,
    UserSpec,
    check_seed,
    read_value,
    round_half_up,
)


_REGION = tuple[float, float, float, float]


def generate_scenario(n_users: int, premium_fraction: float,
                      area: tuple[float, float, float, float],
                      premium_area: tuple[float, float, float, float],
                      uav_count: int, *, duration: float = 30.0,
                      seed: int = 0,
                      controller_mode: str = QOS_MODE) -> ScenarioConfig:
    """Build a two-zone scenario: premium users in a left slice of the area,
    regular users in the remainder, UAVs placed uniformly over the whole
    area, and the default height, radio and gains.

    The premium count is the round-half-up share of n_users.  User draws go
    through the same seeded resolver as any region-based scenario, so the
    generated config is reproducible from its seed alone.  Each argument
    is read as its schema type before any arithmetic, so a bad one fails
    with a ScenarioError that starts with its name.
    """
    n_users = read_value(AtLeastOne, n_users, "n_users")
    premium_fraction = read_value(Fraction, premium_fraction,
                                  "premium_fraction")
    ax0, ay0, ax1, ay1 = area = read_value(_REGION, area, "area")
    px0, py0, px1, py1 = read_value(_REGION, premium_area, "premium_area")
    if not (px0 == ax0 and py0 == ay0 and py1 == ay1 and ax0 < px1 < ax1):
        raise ScenarioError(
            "premium_area must be a left slice of area sharing its y extent")
    n_prem = round_half_up(premium_fraction * n_users)
    if not 0 < n_prem < n_users:
        raise ScenarioError("premium_fraction must leave both classes non-empty")
    users = [
        UserSpec(klass=PREMIUM, region=(px0, py0, px1, py1), count=n_prem),
        UserSpec(klass=REGULAR, region=(px1, ay0, ax1, ay1),
                 count=n_users - n_prem),
    ]
    config = ScenarioConfig(
        users=users,
        uav_count=uav_count,
        uav_region=area,
        duration=duration,
        seed=seed,
        controller_mode=controller_mode,
    )
    config.validate()
    return config


@dataclass
class SweepResult:
    counts: list[int]
    seeds: dict[int, int]               # uav_count -> run seed used
    steady: dict[int, dict[str, float]]  # uav_count -> steady-state metrics


def run_sweep(base: ScenarioConfig, counts) -> SweepResult:
    """Run the same scenario at several fleet sizes, ``counts``, strictly
    ascending and each at least 1.

    The user field stays identical across the whole sweep (it is drawn from
    base.seed).  Per-count starts come either from the first n entries of an
    explicit uav_initial_positions list (which must then cover the largest
    count), or from a uav_region draw seeded with base.seed + count.
    Every count runs with run seed base.seed + count; a sum past the seed
    range fails, naming seed, before any run starts.
    """
    base.validate()
    counts = read_value(list[int], list(counts), "counts")
    if not counts:
        raise ScenarioError("run_sweep requires at least one uav count")
    if any(n < 1 for n in counts):
        raise ScenarioError("uav counts must be >= 1")
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ScenarioError("uav counts must be strictly ascending")
    check_seed(base.seed + counts[-1], f"seed + the largest count {counts[-1]}")
    if base.uav_initial_positions is not None:
        if len(base.uav_initial_positions) < counts[-1]:
            raise ScenarioError(
                "uav_initial_positions must cover the largest sweep count")
    elif base.uav_region is None:
        raise ScenarioError(
            "run_sweep requires uav_initial_positions or uav_region")
    seeds = {n: base.seed + n for n in counts}
    steady: dict[int, dict[str, float]] = {}
    for n in counts:
        if base.uav_initial_positions is not None:
            cfg = replace(base, uav_count=n,
                          uav_initial_positions=base.uav_initial_positions[:n])
        else:
            cfg = replace(base, uav_count=n)
        steady[n] = steady_state(run(cfg, run_seed=seeds[n]).metrics)
    return SweepResult(counts=counts, seeds=seeds, steady=steady)


# --- exporters ------------------------------------------------------------

_METRICS = tuple(f.name for f in fields(TickMetrics))


def _reported(name: str) -> tuple[str, float]:
    """The reporting rule of the module docstring for one quantity: its
    reported name and the divisor of its floats, an exact 1.0 but for rates."""
    if name.endswith("rate") or name == "p0_objective":
        return name + "_mbps", 1e6
    return name, 1.0


def _write_csv(path, names, rows) -> None:
    """A header of reported names, then each row's values reported: a float
    with three decimals, an int or a bool as an integer."""
    header, units = zip(*map(_reported, names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v / unit:.3f}" if isinstance(v, float) else
                             str(int(v)) for v, unit in zip(row, units)])


def export_sweep_csv(sweep: SweepResult, path) -> None:
    names = tuple(name for name in _METRICS if name != "time")
    _write_csv(path, ("uav_count", "seed") + names,
               ([n, sweep.seeds[n], *(sweep.steady[n][k] for k in names)]
                for n in sweep.counts))


def summary_dict(result: RunResult) -> dict:
    steady = {}
    for key, value in steady_state(result.metrics).items():
        name, unit = _reported(key)
        steady[name] = round(value / unit, 3)
    return {
        "mode": result.config.controller_mode,
        "seed": result.seed,
        "uav_count": len(result.world.alive),
        "uavs_alive_at_end": int(result.world.alive.sum()),
        "n_users": len(result.world.serving),
        "duration": result.config.duration,
        "ticks": len(result.metrics),
        "channel_switches": len(result.switch_events),
        "failure_events": [
            {"time": round(t, 3), "uav_ids": ids} for t, ids in result.failures],
        "min_distance_violations": len(result.min_distance_violations),
        "steady_state": steady,
    }


def export_run(result: RunResult, out_dir) -> list[Path]:
    """Write metrics.csv and summary.json, plus trace.csv and user_trace.csv
    when the result carries those traces (run(trace=True))."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", _METRICS,
               map(attrgetter(*_METRICS), result.metrics))
    summary = json.dumps(summary_dict(result), indent=2, sort_keys=True)
    (out / "summary.json").write_text(summary + "\n", encoding="utf-8")
    written = [out / "metrics.csv", out / "summary.json"]
    for name, columns, rows in (
            ("trace.csv", TRACE_COLUMNS, result.trace),
            ("user_trace.csv", USER_TRACE_COLUMNS, result.user_trace)):
        if rows:
            _write_csv(out / name, columns, rows)
            written.append(out / name)
    return written
