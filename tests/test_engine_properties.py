"""Property tests: random small worlds driven through step() keep the
world's invariants, and log what run() reports on the same config; a
channel switch lowers the exactly summed interference at the user that
triggered it and raises that user's SINR."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavswarm.engine import (
    _check_invariants,
    associate_users,
    channel_switching,
    make_world,
    run,
    step,
    tick_geometry,
    update_rates,
)
from uavswarm.model import (
    FLOCKING_MODE,
    L0,
    PREMIUM,
    QOS_MODE,
    USER_CLASSES,
    ControlGains,
    FailureEvent,
    RadioParams,
    ScenarioConfig,
    UserSpec,
)
from uavswarm.radio import geometry
from worlds import world_of

# Users spread over twice the default range, so some fall out of it; cells
# start in the middle third, close enough to interfere and to switch.
SIDE = 600.0    # m
DT = 0.1


def _points(n, lo=0.0, hi=SIDE):
    coord = st.floats(lo, hi)
    return st.lists(st.tuples(coord, coord), min_size=n, max_size=n)


@st.composite
def worlds(draw):
    cells = draw(st.integers(1, 6))
    users = draw(st.lists(
        st.builds(lambda klass, xy: UserSpec(klass=klass, position=xy),
                  st.sampled_from(USER_CLASSES), _points(1).map(lambda p: p[0])),
        max_size=30))
    ticks = draw(st.integers(0, 10))
    wave = draw(st.none() | st.builds(
        FailureEvent, at_time=st.floats(0.0, ticks * DT),
        fraction=st.floats(0.0, 1.0)))
    return ScenarioConfig(
        users=users, uav_count=cells,
        uav_initial_positions=draw(_points(cells, SIDE / 3, 2 * SIDE / 3)),
        duration=ticks * DT,
        failure_events=[] if wave is None else [wave],
        controller_mode=draw(st.sampled_from([QOS_MODE, FLOCKING_MODE])),
        radio=RadioParams(num_channels=draw(st.integers(1, 4))),
        # a small capacity makes association spill; a short window lets
        # cells switch channel within a few ticks
        gains=ControlGains(n_max=draw(st.integers(1, 5)), dt=DT,
                           tau=draw(st.sampled_from([0.1, 0.3]))))


@settings(max_examples=100, deadline=None)
@given(worlds())
def test_stepped_world_keeps_invariants_and_logs_like_run(config):
    world = make_world(config)
    rows = []
    for _ in range(config.ticks() + 1):
        # association is made at the positions before step() moves the cells
        frozen = world.uav_pos.copy()
        rows.append(step(world, config)[0])     # raises on a broken invariant
        _assert_association_valid(world, frozen, config.gains)
    full = run(config)
    _check_invariants(full.world, config, tick_geometry(full.world, config.gains.r)[0])
    assert rows == full.metrics
    assert world.failures == full.failures
    assert world.min_distance_violations == full.min_distance_violations


def _assert_association_valid(world, frozen, gains):
    serving = world.serving
    loads = np.bincount(serving[serving >= 0], minlength=len(world.alive))
    assert (loads <= gains.n_max).all()
    for m, n in enumerate(serving.tolist()):
        if n < 0:
            continue
        assert world.alive[n]
        assert geometry(frozen[n], world.user_pos[m]).dist[0, 0] <= gains.r
        assert world.premium[m] or world.channel[n] == L0


@st.composite
def switching_worlds(draw):
    """A world past the switch cooldown on 2-4 channels, its cells crowded
    enough that premium users fall short of target, maybe with a dead cell."""
    channels = draw(st.integers(2, 4))
    cells = draw(st.integers(2, 6))
    radio = RadioParams(num_channels=channels)
    users = draw(st.lists(
        st.tuples(st.sampled_from(USER_CLASSES), st.floats(0.0, 500.0),
                  st.floats(0.0, 300.0)), min_size=1, max_size=14))
    world = world_of(
        draw(_points(cells, 0.0, 300.0)), users,
        channels=draw(st.lists(st.integers(0, channels - 1),
                               min_size=cells, max_size=cells)),
        time=10.0, radio=radio)
    world.alive[draw(st.integers(0, cells - 1))] = draw(st.booleans())
    return world, radio


def _rated(world, radio, gains):
    """The power field and per-channel sums of one recorded tick."""
    geom, links = tick_geometry(world, gains.r)
    associate_users(world, gains, geom, links)
    return update_rates(world, radio, gains, geom)


@settings(max_examples=200, deadline=None)
@given(switching_worlds())
def test_switch_raises_the_sinr_of_the_user_that_triggered_it(case):
    # only the trigger is promised a gain: another retained user's SINR
    # can fall when its cell moves to a channel busier for that user
    world, radio = case
    gains = ControlGains()
    powers, chan_power = _rated(world, radio, gains)
    # one recorded tick: every window's mean is its rate, so the trigger
    # is the retained premium user furthest below target, the first on ties
    deficit = world.target - world.rate
    channels = world.channel.copy()
    cells = np.arange(len(channels))
    for event in channel_switching(world, powers, chan_power, radio, gains):
        shortfalls = deficit[event.user_ids].tolist()
        trigger = shortfalls.index(max(shortfalls))
        column = powers[:, event.user_ids[trigger]]
        old = math.fsum(column[(channels == event.old_channel)
                               & (cells != event.uav_id)])
        new = math.fsum(column[channels == event.new_channel])
        channels[event.uav_id] = event.new_channel
        assert new < old
        assert event.sinr_after[trigger] > event.sinr_before[trigger]


def test_no_switch_onto_a_channel_with_the_same_interference():
    # cells 1 and 2 sit together, so channels 1 and 2 give the user the
    # same interference and cell 0 gains nothing by leaving channel 1
    radio = RadioParams(num_channels=3)
    world = world_of([(0.0, 0.0), (170.0, 0.0), (170.0, 0.0)],
                     [(PREMIUM, 0.0, 0.0)], channels=[1, 1, 2], time=10.0,
                     radio=radio)
    gains = ControlGains()
    powers, chan_power = _rated(world, radio, gains)
    assert channel_switching(world, powers, chan_power, radio, gains) == []
