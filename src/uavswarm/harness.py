"""Scenario generation, sweep experiments, and deterministic exporters.

All file outputs use fixed decimal formatting and contain no timestamps,
so two runs of the same scenario and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import RunResult, run
from .metrics import steady_state
from .model import (
    PREMIUM,
    QOS_MODE,
    REGULAR,
    ControlGains,
    RadioParams,
    ScenarioConfig,
    ScenarioError,
    UserSpec,
    read_value,
    round_half_up,
)


def generate_scenario(n_users: int, premium_fraction: float,
                      area: tuple[float, float, float, float],
                      premium_area: tuple[float, float, float, float],
                      uav_count: int, *,
                      uav_region: tuple[float, float, float, float] | None = None,
                      H: float = 100.0, duration: float = 30.0, seed: int = 0,
                      controller_mode: str = QOS_MODE,
                      radio: RadioParams | None = None,
                      gains: ControlGains | None = None) -> ScenarioConfig:
    """Build a two-zone scenario: premium users in a left slice of the area,
    regular users in the remainder, UAVs placed uniformly in uav_region
    (defaults to the whole area).

    The premium count is the round-half-up share of n_users.  User draws go
    through the same seeded resolver as any region-based scenario, so the
    generated config is reproducible from its seed alone.
    """
    ax0, ay0, ax1, ay1 = area
    px0, py0, px1, py1 = premium_area
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
        uav_region=tuple(uav_region) if uav_region is not None else tuple(area),
        H=H,
        duration=duration,
        seed=seed,
        controller_mode=controller_mode,
        radio=radio if radio is not None else RadioParams(),
        gains=gains if gains is not None else ControlGains(),
    )
    config.validate()
    return config


@dataclass
class SweepResult:
    counts: list[int]
    seeds: dict[int, int]               # uav_count -> run seed used
    steady: dict[int, dict[str, float]]  # uav_count -> steady-state metrics


def run_sweep(base: ScenarioConfig, counts) -> SweepResult:
    """Run the same scenario at several fleet sizes.

    The user field stays identical across the whole sweep (it is drawn from
    base.seed).  Per-count starts come either from the first n entries of an
    explicit uav_initial_positions list (which must then cover the largest
    count), or from a uav_region draw seeded with base.seed + count.
    """
    base.validate()
    counts = read_value(list[int], list(counts), "counts")
    if not counts:
        raise ScenarioError("run_sweep requires at least one uav count")
    if any(n < 1 for n in counts):
        raise ScenarioError("uav counts must be >= 1")
    if counts != sorted(counts):
        raise ScenarioError("uav counts must be ascending")
    if base.uav_initial_positions is not None:
        if len(base.uav_initial_positions) < counts[-1]:
            raise ScenarioError(
                "uav_initial_positions must cover the largest sweep count")
    elif base.uav_region is None:
        raise ScenarioError(
            "run_sweep requires uav_initial_positions or uav_region")
    seeds: dict[int, int] = {}
    steady: dict[int, dict[str, float]] = {}
    for n in counts:
        if base.uav_initial_positions is not None:
            cfg = replace(base, uav_count=n,
                          uav_initial_positions=base.uav_initial_positions[:n])
        else:
            cfg = replace(base, uav_count=n)
        seed = base.seed + n
        result = run(cfg, run_seed=seed)
        seeds[n] = seed
        steady[n] = steady_state(result.metrics)
    return SweepResult(counts=counts, seeds=seeds, steady=steady)


# --- exporters ------------------------------------------------------------

_METRICS_HEADER = [
    "time", "premium_served_pct", "premium_mean_rate_mbps",
    "premium_fulfilled_pct", "regular_served_pct", "regular_mean_rate_mbps",
    "regular_fulfilled_pct", "all_served_pct", "all_mean_rate_mbps",
    "all_fulfilled_pct", "p0_objective_mbps", "active_channels",
]


def export_metrics_csv(result: RunResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRICS_HEADER)
        for m in result.metrics:
            writer.writerow([
                f"{m.time:.3f}",
                f"{m.premium_served_pct:.3f}",
                f"{m.premium_mean_rate / 1e6:.3f}",
                f"{m.premium_fulfilled_pct:.3f}",
                f"{m.regular_served_pct:.3f}",
                f"{m.regular_mean_rate / 1e6:.3f}",
                f"{m.regular_fulfilled_pct:.3f}",
                f"{m.all_served_pct:.3f}",
                f"{m.all_mean_rate / 1e6:.3f}",
                f"{m.all_fulfilled_pct:.3f}",
                f"{m.p0_objective / 1e6:.3f}",
                str(m.active_channels),
            ])


def export_trace_csv(result: RunResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "uav_id", "x", "y", "z", "vx", "vy",
                         "channel", "alive", "load"])
        for (t, uid, x, y, z, vx, vy, ch, alive, load) in result.trace:
            writer.writerow([f"{t:.3f}", str(uid), f"{x:.3f}", f"{y:.3f}",
                             f"{z:.3f}", f"{vx:.3f}", f"{vy:.3f}", str(ch),
                             str(int(alive)), str(load)])


def export_user_trace_csv(result: RunResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "user_id", "serving_uav", "rate_mbps",
                         "mean_rate_mbps"])
        for (t, uid, serving, rate, mean) in result.user_trace:
            writer.writerow([f"{t:.3f}", str(uid), str(serving),
                             f"{rate / 1e6:.3f}", f"{mean / 1e6:.3f}"])


def export_sweep_csv(sweep: SweepResult, path) -> None:
    fields = ["premium_served_pct", "premium_mean_rate", "premium_fulfilled_pct",
              "regular_served_pct", "regular_mean_rate", "regular_fulfilled_pct",
              "all_served_pct", "all_mean_rate", "all_fulfilled_pct",
              "p0_objective", "active_channels"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["uav_count", "seed"] + [
            f.replace("_rate", "_rate_mbps").replace("p0_objective",
                                                     "p0_objective_mbps")
            for f in fields])
        for n in sweep.counts:
            row = [str(n), str(sweep.seeds[n])]
            for f in fields:
                value = sweep.steady[n][f]
                if "rate" in f or f == "p0_objective":
                    row.append(f"{value / 1e6:.3f}")
                else:
                    row.append(f"{value:.3f}")
            writer.writerow(row)


def summary_dict(result: RunResult) -> dict:
    steady = steady_state(result.metrics)
    scaled = {}
    for key, value in steady.items():
        if "rate" in key or key == "p0_objective":
            scaled[key + "_mbps"] = round(value / 1e6, 3)
        else:
            scaled[key] = round(value, 3)
    return {
        "mode": result.config.controller_mode,
        "seed": result.seed,
        "uav_count": len(result.world.uavs),
        "uavs_alive_at_end": sum(1 for u in result.world.uavs if u.alive),
        "n_users": len(result.world.users),
        "duration": result.config.duration,
        "ticks": len(result.metrics),
        "channel_switches": len(result.switch_events),
        "failure_events": [
            {"time": round(t, 3), "uav_ids": ids} for t, ids in result.failures],
        "min_distance_violations": len(result.min_distance_violations),
        "steady_state": scaled,
    }


def export_summary_json(result: RunResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_run(result: RunResult, out_dir) -> list[Path]:
    """Write metrics.csv and summary.json, plus trace.csv and user_trace.csv
    when the result carries those traces (run(trace=True))."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    export_metrics_csv(result, out / "metrics.csv")
    written.append(out / "metrics.csv")
    export_summary_json(result, out / "summary.json")
    written.append(out / "summary.json")
    if result.trace:
        export_trace_csv(result, out / "trace.csv")
        written.append(out / "trace.csv")
    if result.user_trace:
        export_user_trace_csv(result, out / "user_trace.csv")
        written.append(out / "user_trace.csv")
    return written
