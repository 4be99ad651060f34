"""Service metrics: exact group arithmetic and steady-state tails."""

import math
from dataclasses import fields

import numpy as np
import pytest

from kernel_oracle import left_sum, oracle_metrics
from uavswarm.metrics import TickMetrics, compute_metrics, seq_sum, steady_state
from uavswarm.model import PREMIUM, REGULAR, TARGET_RATE
from worlds import world_of


def _user(uid, klass, target, served=None, rate=0.0):
    return (klass, (uid * 10.0, 0.0), target, served, rate)


def _metrics(time, users, active_channels):
    """compute_metrics over a world of ``users`` made by _user, with each
    user's target, serving id and rate written into the world's arrays."""
    world = world_of([], [(klass, *xy) for klass, xy, *_ in users])
    for m, (_, _, target, served, rate) in enumerate(users):
        world.target[m] = target
        world.serving[m] = -1 if served is None else served
        world.rate[m] = rate
    return compute_metrics(time, world.premium, world.serving, world.rate,
                           world.target, active_channels)


class TestComputeMetrics:
    def test_half_served_regular_pair(self):
        # one of two regular users served at double its target:
        # 50% served, 50% fulfilled, mean rate 100 Mbps
        users = [
            _user(0, "regular", 100e6, served=3, rate=200e6),
            _user(1, "regular", 100e6),
        ]
        m = _metrics(1.0, users, active_channels=1)
        assert m.regular_served_pct == 50.0
        assert m.regular_fulfilled_pct == 50.0
        assert m.regular_mean_rate == 100e6
        assert m.premium_served_pct == 0.0
        assert m.all_served_pct == 50.0
        assert m.p0_objective == 100e6 + 100e6

    def test_all_on_target(self):
        users = [
            _user(0, "premium", 300e6, served=0, rate=300e6),
            _user(1, "regular", 100e6, served=1, rate=100e6),
        ]
        m = _metrics(2.0, users, active_channels=2)
        assert m.premium_fulfilled_pct == 100.0
        assert m.regular_fulfilled_pct == 100.0
        assert m.all_fulfilled_pct == 100.0
        assert m.p0_objective == 0.0
        assert m.active_channels == 2

    def test_served_but_below_target_not_fulfilled(self):
        users = [_user(0, "premium", 300e6, served=0, rate=299e6)]
        m = _metrics(0.0, users, active_channels=1)
        assert m.premium_served_pct == 100.0
        assert m.premium_fulfilled_pct == 0.0

    def test_unserved_rate_never_counts_as_fulfilled(self):
        # a stale achieved_rate on an unserved user must not fulfil
        u = _user(0, "premium", 300e6, served=None, rate=400e6)
        m = _metrics(0.0, [u], active_channels=0)
        assert m.premium_fulfilled_pct == 0.0

    def test_empty_groups_are_zero(self):
        m = _metrics(0.0, [], active_channels=0)
        for field in ("premium_served_pct", "regular_mean_rate",
                      "all_fulfilled_pct", "p0_objective"):
            assert getattr(m, field) == 0.0

    def test_matches_independent_recomputation(self):
        users = [
            _user(0, "premium", 300e6, served=0, rate=310e6),
            _user(1, "premium", 300e6, served=0, rate=120e6),
            _user(2, "premium", 300e6),
            _user(3, "regular", 100e6, served=1, rate=100e6),
            _user(4, "regular", 100e6, served=1, rate=60e6),
        ]
        m = _metrics(7.0, users, active_channels=2)
        assert m.premium_served_pct == pytest.approx(100.0 * 2 / 3)
        assert m.premium_fulfilled_pct == pytest.approx(100.0 / 3)
        assert m.premium_mean_rate == pytest.approx((310e6 + 120e6) / 3)
        assert m.regular_served_pct == 100.0
        assert m.regular_fulfilled_pct == 50.0
        assert m.all_served_pct == 80.0
        assert m.p0_objective == pytest.approx(
            10e6 + 180e6 + 300e6 + 0.0 + 40e6)


@pytest.mark.parametrize("seed", range(60))
def test_array_metrics_match_per_user_oracle_bits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    # empty classes, everyone unserved, and rates exactly at target
    premium = rng.random(n) < rng.choice([0.0, 0.3, 1.0])
    serving = rng.integers(-1, 5, n) if seed % 4 else np.full(n, -1)
    target = np.where(premium, TARGET_RATE[PREMIUM], TARGET_RATE[REGULAR])
    rate = target * rng.choice([0.0, 1.0, 0.5, 1.5], n) * \
        rng.choice([1.0, 1.0, rng.uniform(0.1, 3.0)], n)
    rate[serving < 0] = rng.choice([0.0, 0.0, 1e6])
    got = compute_metrics(seed * 0.1, premium, serving, rate, target, 3)
    want = oracle_metrics(seed * 0.1, premium, serving, rate, target, 3)
    assert got == want
    # repr shows types and the sign of a zero
    assert repr(got) == repr(want)


def _row(t, value):
    return TickMetrics(
        time=t, premium_served_pct=value, premium_mean_rate=value,
        premium_fulfilled_pct=value, regular_served_pct=value,
        regular_mean_rate=value, regular_fulfilled_pct=value,
        all_served_pct=value, all_mean_rate=value, all_fulfilled_pct=value,
        p0_objective=value, active_channels=1)


class TestSteadyState:
    def test_tail_is_final_tenth(self):
        # 30 rows -> tail of 3; values 1..30 -> mean of 28, 29, 30
        rows = [_row(float(t), float(t + 1)) for t in range(30)]
        ss = steady_state(rows)
        assert ss["premium_served_pct"] == pytest.approx(29.0)
        assert ss["time"] == pytest.approx(28.0)

    def test_tail_rounds_up(self):
        # 11 rows -> ceil(11/10) = 2 tail rows
        rows = [_row(float(t), float(t)) for t in range(11)]
        assert steady_state(rows)["p0_objective"] == pytest.approx(9.5)

    def test_single_row(self):
        assert steady_state([_row(0.0, 42.0)])["all_mean_rate"] == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            steady_state([])


def test_fulfilled_never_exceeds_served(fig3_result):
    for m in fig3_result.metrics:
        assert m.premium_fulfilled_pct <= m.premium_served_pct
        assert m.regular_fulfilled_pct <= m.regular_served_pct
        assert m.all_fulfilled_pct <= m.all_served_pct


def _spread(rng, n):
    """Floats whose sum depends on the order and the method of summing:
    magnitudes 1e-3 .. 1e16 of both signs, exact zeros of both signs."""
    values = rng.choice([1e16, 1e8, 1.0, 1e-3, 0.0], n) * \
        rng.uniform(0.5, 3.0, n) * rng.choice([1.0, -1.0], n)
    values[rng.random(n) < 0.1] = -0.0
    return values


@pytest.mark.parametrize("seed", range(40))
def test_seq_sum_is_the_left_to_right_loop(seed):
    rng = np.random.default_rng(seed)
    values = _spread(rng, int(rng.integers(0, 700)))
    if seed % 10 == 0:
        values[:] = -0.0
    assert repr(seq_sum(values)) == repr(left_sum(values.tolist()))


def test_seq_sum_of_nothing_is_the_float_zero():
    for empty in ([], np.zeros(0)):
        assert repr(seq_sum(empty)) == repr(left_sum(empty)) == "0.0"


def test_seq_sum_is_neither_pairwise_nor_compensated():
    rng = np.random.default_rng(1)
    cases = [_spread(rng, 600) for _ in range(50)]
    assert any(seq_sum(v) != float(v.sum()) for v in cases)
    assert any(seq_sum(v) != math.fsum(v) for v in cases)


@pytest.mark.parametrize("seed", range(20))
def test_steady_state_matches_left_sum_oracle_bits(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 300))
    names = [f.name for f in fields(TickMetrics)]
    columns = {name: np.abs(_spread(rng, n_rows)).tolist() for name in names}
    columns["active_channels"] = rng.integers(1, 9, n_rows).tolist()
    rows = [TickMetrics(**{name: columns[name][k] for name in names})
            for k in range(n_rows)]
    n_tail = max(1, -(-n_rows // 10))
    want = {name: left_sum(columns[name][-n_tail:]) / n_tail
            for name in names}
    assert repr(steady_state(rows)) == repr(want)
