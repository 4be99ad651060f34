"""Per-tick service metrics and steady-state aggregation.

The metrics read the world's user arrays.  Counts are count_nonzero; sums
are seq_sum, left to right in user order, never ndarray.sum(), whose
pairwise order changes the bits, nor Python's sum(), which is compensated
from CPython 3.12 on.  So a by-hand recomputation one user at a time,
acc += x, reproduces every field bit for bit on any interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


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


def seq_sum(values) -> float:
    """The float sum of ``values`` taken left to right, one addition at a
    time, as a Python float: acc = 0.0, then acc += x for each x.  The
    trailing + 0.0 turns an all -0.0 sum into 0.0, as that loop does, and
    no values give 0.0."""
    if not len(values):
        return 0.0
    return float(np.add.accumulate(np.asarray(values, dtype=float))[-1]) + 0.0


def _group_stats(served: np.ndarray, fulfilled: np.ndarray,
                 rate: np.ndarray) -> tuple[float, float, float]:
    n = len(rate)
    if not n:
        return (0.0, 0.0, 0.0)
    return (100.0 * int(np.count_nonzero(served)) / n, seq_sum(rate) / n,
            100.0 * int(np.count_nonzero(fulfilled)) / n)


def compute_metrics(time: float, premium: np.ndarray, serving: np.ndarray,
                    rate: np.ndarray, target: np.ndarray,
                    active_channels: int) -> TickMetrics:
    """One tick's metrics from the users' class mask, serving ids (-1 while
    unserved), achieved rates and targets."""
    served = serving >= 0
    fulfilled = served & (rate >= target)
    # per class (served %, mean rate, fulfilled %), in the fields' order
    stats = [x for group in (premium, ~premium, slice(None))
             for x in _group_stats(served[group], fulfilled[group],
                                   rate[group])]
    p0 = seq_sum(np.abs(rate - target))
    return TickMetrics(time, *stats, p0, active_channels)


def steady_state(metrics: list[TickMetrics]) -> dict[str, float]:
    """Field-wise mean over the final tenth of a run (at least one tick)."""
    if not metrics:
        raise ValueError("steady_state requires at least one metrics row")
    n_tail = max(1, -(-len(metrics) // 10))
    tail = metrics[-n_tail:]
    out = {}
    for f in fields(TickMetrics):
        out[f.name] = seq_sum([getattr(m, f.name) for m in tail]) / len(tail)
    return out
