"""Cross-check the radio chain against an independent math-only oracle."""

import math
import random

import pytest

from radio_oracle import (
    OVERHEAD_PL_DB,
    OVERHEAD_RATE_BPS,
    OVERHEAD_SNR_DB,
    geometries,
    oracle_link,
    oracle_sinr,
)
from uavswarm.engine import (
    associate_users,
    channel_switching,
    tick_geometry,
    update_rates,
)
from uavswarm.model import ControlGains, RadioParams
from uavswarm.radio import link_budget
from worlds import world_of

REL = 1e-9


@pytest.mark.parametrize("form", ["as_written", "standard"])
def test_link_chain_matches_oracle(form):
    params = RadioParams(plos_form=form)
    for uav, user in geometries():
        want = oracle_link(uav, user, form=form)
        got = link_budget(uav, user, params)
        assert got.p_los == pytest.approx(want["p_los"], rel=REL)
        assert got.path_loss_db == pytest.approx(want["pl_db"], rel=REL)
        assert got.received_mw == pytest.approx(want["rx_mw"], rel=REL)
        assert got.rate_bps == pytest.approx(want["rate_bps"], rel=REL)


def test_low_exponent_profile_matches_oracle():
    params = RadioParams(delta=1.43, plos_form="standard")
    for uav, user in geometries(n=25, seed=7):
        want = oracle_link(uav, user, delta=1.43, form="standard")
        got = link_budget(uav, user, params)
        assert got.path_loss_db == pytest.approx(want["pl_db"], rel=REL)
        assert got.rate_bps == pytest.approx(want["rate_bps"], rel=REL)


def test_overhead_chain_frozen_values():
    """100 m overhead link reproduces the hand-derived budget to 0.1%."""
    lb = link_budget((0, 0, 100), (0, 0, 0), RadioParams())
    assert lb.path_loss_db == pytest.approx(OVERHEAD_PL_DB, rel=1e-3)
    assert lb.snr_db == pytest.approx(OVERHEAD_SNR_DB, rel=1e-3)
    assert lb.rate_bps == pytest.approx(OVERHEAD_RATE_BPS, rel=1e-3)


def _link_kw(radio):
    return dict(f_c=radio.f_c, delta=radio.delta, eta_los=radio.eta_los,
                eta_nlos=radio.eta_nlos, theta_env=radio.theta_env,
                xi_env=radio.xi_env, p_t=radio.p_t,
                bandwidth=radio.bandwidth, noise=radio.noise,
                form=radio.plos_form)


def _oracle_sinr(world, channels, n, m, radio):
    """User m's SINR from cell n, with every other alive cell on n's
    channel (per ``channels``) interfering, served or idle."""
    others = [p for k, (p, alive) in enumerate(zip(world.uav_pos.tolist(),
                                                   world.alive.tolist()))
              if alive and k != n and channels[k] == channels[n]]
    return oracle_sinr(world.uav_pos[n].tolist(), others,
                       world.user_pos[m].tolist(),
                       noise_dbm=radio.noise, **_link_kw(radio))


def _oracle_rate(sinr_linear, radio):
    return radio.bandwidth * math.log2(1.0 + sinr_linear)


def test_sinr_matches_oracle():
    params = RadioParams(plos_form="standard")
    rnd = random.Random(5)
    for _ in range(20):
        pts = [(rnd.uniform(-400, 400), rnd.uniform(-400, 400), 100.0)
               for _ in range(4)]
        user_xy = (rnd.uniform(-400, 400), rnd.uniform(-400, 400), 0.0)
        world = world_of([p[:2] for p in pts], [("premium", *user_xy[:2])],
                         channels=[1, 1, 1, 2], H=100.0)
        world.serving[0] = 0
        gains = ControlGains()
        update_rates(world, params, gains, tick_geometry(world, gains.r)[0])
        want = oracle_sinr(pts[0], pts[1:3], user_xy, form="standard")
        assert world.rate[0] == pytest.approx(
            _oracle_rate(want, params), rel=REL)


def _random_world(rnd):
    """A small world on 2-3 channels with a dead cell, an idle co-channel
    cell out of everyone's range, and cells crowded enough that premium
    users fall short of target and trigger channel switches."""
    channels = rnd.choice([2, 3])
    radio = RadioParams(num_channels=channels,
                        plos_form=rnd.choice(["as_written", "standard"]),
                        delta=rnd.choice([2.0, 1.43]))
    cells = [((rnd.uniform(0, 500), rnd.uniform(0, 300)),
              rnd.randrange(channels)) for _ in range(rnd.randint(3, 6))]
    dead = rnd.randrange(len(cells))
    cells.append(((3000.0, 0.0), rnd.randrange(channels)))
    users = []
    for _ in range(rnd.randint(4, 14)):
        klass = rnd.choice(["premium", "regular"])
        users.append((klass, rnd.uniform(0, 500), rnd.uniform(0, 300)))
    # past the switch cooldown, so every deficient premium user may trigger
    world = world_of([xy for xy, _ in cells], users,
                     channels=[k for _, k in cells], time=10.0, H=100.0)
    world.alive[dead] = False
    return world, radio


def test_engine_rates_and_switch_sinr_match_oracle():
    gains = ControlGains()
    rnd = random.Random(2024)
    served = switched = 0
    for _ in range(150):
        world, radio = _random_world(rnd)
        geom, links = tick_geometry(world, gains.r)
        associate_users(world, gains, geom, links)
        powers, chan_power = update_rates(world, radio, gains, geom)
        channels = world.channel.tolist()
        for m, (n, rate) in enumerate(zip(world.serving.tolist(),
                                          world.rate.tolist())):
            if n < 0:
                assert rate == 0.0
                continue
            served += 1
            want = _oracle_sinr(world, channels, n, m, radio)
            assert rate == pytest.approx(_oracle_rate(want, radio), rel=REL)
        events = channel_switching(world, powers, chan_power, radio, gains)
        # replay the pass in order: a later cell sees earlier switches
        for ev in events:
            switched += 1
            n = ev.uav_id
            assert channels[n] == ev.old_channel
            for m, got in zip(ev.user_ids, ev.sinr_before):
                want = _oracle_sinr(world, channels, n, m, radio)
                assert got == pytest.approx(want, rel=REL)
            channels[n] = ev.new_channel
            for m, got in zip(ev.user_ids, ev.sinr_after):
                want = _oracle_sinr(world, channels, n, m, radio)
                assert got == pytest.approx(want, rel=REL)
        assert channels == world.channel.tolist()
    assert served > 500 and switched > 50
