"""Behavioral tests for the air-to-ground radio chain."""

import math

import numpy as np
import pytest

from radio_oracle import oracle_link
from uavswarm.engine import make_world, tick_geometry, update_rates
from uavswarm.model import (
    ControlGains,
    RadioParams,
    ScenarioConfig,
    UserSpec,
)
from uavswarm.radio import (
    Geometry,
    data_rate,
    dbm_to_mw,
    geometry,
    link_budget,
    los_probability,
    received_power_field,
)
from worlds import world_of

AS_WRITTEN = RadioParams()
STANDARD = RadioParams(plos_form="standard")


class TestLosProbability:
    def test_as_written_form_stays_high_at_all_angles(self):
        for deg in (0.0, 15.0, 45.0, 90.0):
            p = float(los_probability(math.radians(deg), AS_WRITTEN))
            assert p > 0.96

    def test_standard_form_falls_off_at_grazing_angles(self):
        low = float(los_probability(math.radians(1.0), STANDARD))
        high = float(los_probability(math.radians(80.0), STANDARD))
        assert low < 0.05
        assert high > 0.999

    def test_monotone_in_elevation(self):
        # the as_written curve saturates to 1.0 in floats at high angles,
        # so strictness is only checked on the low range
        angles = np.radians(np.linspace(0.5, 89.5, 90))
        low = np.radians(np.linspace(0.5, 40.0, 40))
        for params in (AS_WRITTEN, STANDARD):
            p = los_probability(angles, params)
            assert np.all(np.diff(p) >= 0)
            assert np.all((p > 0) & (p <= 1))
            assert np.all(np.diff(los_probability(low, params)) > 0)

    def test_degrees_keep_np_degrees_bits(self):
        # the LoS curve takes degrees as x * (180 / pi), numpy's own
        # definition of np.degrees
        rng = np.random.default_rng(0)
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([rng.uniform(-4.0, 4.0, 10_000),
                            [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300,
                             tiny, -tiny, 1e-310, -2.5e-320]])
        assert np.multiply(x, 180.0 / math.pi).tobytes() == \
            np.degrees(x).tobytes()
        for params in (AS_WRITTEN, STANDARD):
            th, xi = params.theta_env, params.xi_env
            deg = np.degrees(x)
            p = (deg - th) * -xi if params is STANDARD else deg * -xi - th
            with np.errstate(over="ignore"):
                want = np.reciprocal(np.exp(p) * th + 1.0)
                got = los_probability(x, params)
            assert got.tobytes() == want.tobytes()

    def test_unknown_form_rejected(self):
        bad = RadioParams()
        bad.plos_form = "fancy"
        with pytest.raises(ValueError):
            los_probability(0.5, bad)


class TestPathLoss:
    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            link_budget((0, 0, 0), (0, 0, 0), AS_WRITTEN)
        with pytest.raises(ValueError):
            received_power_field(
                Geometry(np.array([[-3.0]]), np.array([[math.pi / 2]])),
                AS_WRITTEN)
        with pytest.raises(ValueError):
            received_power_field(geometry((0, 0, 0), (0, 0, 0)), AS_WRITTEN)

    def test_distance_doubling_adds_exponent_decades(self):
        # straight overhead keeps the LoS mix fixed, isolating the
        # free-space term
        for delta in (2.0, 1.43):
            params = RadioParams(delta=delta)
            near = link_budget((0, 0, 100), (0, 0, 0),
                               params).path_loss_db
            far = link_budget((0, 0, 200), (0, 0, 0),
                              params).path_loss_db
            assert far - near == pytest.approx(10.0 * delta * math.log10(2.0),
                                               rel=1e-12)

    def test_nlos_mix_raises_loss(self):
        # same slant range, lower elevation -> more NLoS -> more loss
        steep = link_budget((0, 0, 200), (0, 0, 0),
                            STANDARD).path_loss_db
        shallow = link_budget((0, 0, 50), (193.6, 0, 0),
                              STANDARD).path_loss_db
        assert shallow > steep


class TestPower:
    def test_dbm_to_mw_anchors(self):
        assert float(dbm_to_mw(0.0)) == 1.0
        assert float(dbm_to_mw(30.0)) == pytest.approx(1000.0, rel=1e-12)
        assert float(dbm_to_mw(-80.0)) == pytest.approx(1e-8, rel=1e-12)

    @pytest.mark.parametrize("delta", [1.43, 2.0, 3.5])
    @pytest.mark.parametrize("form", ["as_written", "standard"])
    def test_field_matches_scalar_route(self, form, delta):
        # the closed-form field against the oracle's dB route, link by link,
        # over heights from 60 m to 300 m and users out to 1.5 km
        rng = np.random.default_rng(11)
        uavs = rng.uniform([-800, -800, 60], [800, 800, 300], size=(12, 3))
        users = np.column_stack([rng.uniform(-1500, 1500, size=(40, 2)),
                                 np.zeros(40)])
        params = RadioParams(plos_form=form, delta=delta)
        field = received_power_field(geometry(uavs, users), params)
        assert field.shape == (12, 40)
        for i in range(12):
            for m in range(40):
                want = oracle_link(uavs[i].tolist(), users[m].tolist(),
                                   form=form, delta=delta)["rx_mw"]
                assert field[i, m] == pytest.approx(want, rel=1e-12)


def test_geometry_puts_a_right_triangle_at_exactly_r():
    # cell 0 at 180 m over the origin and user 0 at 240 m east of it sit
    # at a slant range of exactly r = 300 m, so association and the
    # invariant check, which both read this distance, agree at the edge
    cfg = ScenarioConfig(
        users=[UserSpec(klass="premium", position=(240.0, 0.0)),
               UserSpec(klass="regular", position=(-500.0, 700.0))],
        uav_count=2, uav_initial_positions=[(0.0, 0.0), (400.0, -300.0)],
        H=180.0)
    dist = tick_geometry(make_world(cfg), cfg.gains.r)[0].dist
    assert dist[0, 0] == cfg.gains.r


def _radio_world():
    """UAV 0 serves one premium user; UAV 1 is an idle co-channel cell."""
    world = world_of([(0, 0), (400, 0), (-400, 0)], [("premium", 10, 0)],
                     channels=[1, 1, 2], H=100.0)
    world.serving[0] = 0
    return world


def _rate(world):
    """The engine's achieved rate for user 0, through update_rates."""
    gains = ControlGains()
    update_rates(world, AS_WRITTEN, gains, tick_geometry(world, gains.r)[0])
    return world.rate[0]


class TestSinr:
    def test_co_channel_interference_lowers_sinr(self):
        world = _radio_world()
        with_interferer = _rate(world)
        world.channel[1] = 3
        without = _rate(world)
        assert with_interferer < without

    def test_interference_free_equals_snr(self):
        world = _radio_world()
        world.channel[1] = 3
        lb = link_budget(world.uav_pos[0], world.user_pos[0], AS_WRITTEN)
        assert _rate(world) == pytest.approx(lb.rate_bps, rel=1e-12)

    def test_dead_interferer_ignored(self):
        world = _radio_world()
        clean = _rate(world)
        world.alive[1] = False
        assert _rate(world) > clean

    def test_idle_co_channel_uav_still_interferes(self):
        world = _radio_world()
        assert world.serving.tolist() == [0]
        world.channel[2] = 1  # second idle interferer
        more = _rate(world)
        world.channel[2] = 2
        fewer = _rate(world)
        assert more < fewer


class TestRate:
    def test_anchors(self):
        assert float(data_rate(0.0, 15e6)) == 0.0
        assert float(data_rate(1.0, 15e6)) == pytest.approx(15e6, rel=1e-12)
        assert float(data_rate(3.0, 15e6)) == pytest.approx(30e6, rel=1e-12)

    def test_broadcasts(self):
        out = data_rate(np.array([0.0, 1.0]), 10e6)
        assert np.allclose(out, [0.0, 10e6])


class TestLinkBudget:
    def test_internal_consistency(self):
        lb = link_budget((120, -40, 90), (30, 15, 0), STANDARD)
        assert lb.received_mw == pytest.approx(
            float(dbm_to_mw(STANDARD.p_t - lb.path_loss_db)), rel=1e-12)
        assert lb.snr_db == pytest.approx(
            STANDARD.p_t - lb.path_loss_db - STANDARD.noise, rel=1e-9)
        assert lb.rate_bps == pytest.approx(
            float(data_rate(10 ** (lb.snr_db / 10), STANDARD.bandwidth)),
            rel=1e-9)
        assert 0.0 < lb.p_los < 1.0
