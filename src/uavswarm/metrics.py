"""Per-tick service metrics and steady-state aggregation.

Sums use plain Python arithmetic over the user list so that a by-hand
recomputation from the same states reproduces every field bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .model import PREMIUM, REGULAR, UserState


@dataclass
class TickMetrics:
    time: float
    premium_served_pct: float
    premium_mean_rate: float        # bits/s over all premium users, unserved = 0
    premium_fulfilled_pct: float    # served and achieving at least the target
    regular_served_pct: float
    regular_mean_rate: float
    regular_fulfilled_pct: float
    all_served_pct: float
    all_mean_rate: float
    all_fulfilled_pct: float
    p0_objective: float             # sum |achieved - target|, bits/s
    active_channels: int            # distinct channels among alive UAVs


def _group_stats(group: list[UserState]) -> tuple[float, float, float]:
    if not group:
        return (0.0, 0.0, 0.0)
    served = sum(1 for u in group if u.serving_uav is not None)
    fulfilled = sum(1 for u in group
                    if u.serving_uav is not None
                    and u.achieved_rate >= u.target_rate)
    total_rate = sum(u.achieved_rate for u in group)
    n = len(group)
    return (100.0 * served / n, total_rate / n, 100.0 * fulfilled / n)


def compute_metrics(time: float, users: list[UserState],
                    active_channels: int) -> TickMetrics:
    premium = [u for u in users if u.klass == PREMIUM]
    regular = [u for u in users if u.klass == REGULAR]
    p0 = sum(abs(u.achieved_rate - u.target_rate) for u in users)
    # per class (served %, mean rate, fulfilled %), in the fields' order
    return TickMetrics(time, *_group_stats(premium), *_group_stats(regular),
                       *_group_stats(users), p0, active_channels)


def steady_state(metrics: list[TickMetrics]) -> dict[str, float]:
    """Field-wise mean over the final tenth of a run (at least one tick)."""
    if not metrics:
        raise ValueError("steady_state requires at least one metrics row")
    n_tail = max(1, -(-len(metrics) // 10))
    tail = metrics[-n_tail:]
    out = {}
    for f in fields(TickMetrics):
        out[f.name] = sum(getattr(m, f.name) for m in tail) / len(tail)
    return out
