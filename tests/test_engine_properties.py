"""Property tests: random small worlds driven through step() keep the
world's invariants, and log what run() reports on the same config; a
channel switch lowers the exactly summed interference at the user that
triggered it and raises that user's SINR."""

import math

import hypothesis
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
from kernel_oracle import oracle_channel_switching
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


@st.composite
def switching_runs(draw):
    """A switching world recorded for 2-6 ticks of 0.25 s with a rate window
    and cooldown of 2 or 3 ticks or of 5 s, all exact in binary, so a
    cooldown can end exactly at a tick; between ticks its cells move up to
    60 m and are put on drawn channels, so cells out of cooldown find
    crowded channels again."""
    world, radio = draw(switching_worlds())
    cells, ticks = len(world.alive), draw(st.integers(2, 6))
    channels = st.lists(st.integers(0, radio.num_channels - 1),
                        min_size=cells, max_size=cells)
    steps = draw(st.lists(st.tuples(_points(cells, -60.0, 60.0), channels),
                          min_size=ticks - 1, max_size=ticks - 1))
    gains = ControlGains(dt=0.25, tau=draw(st.sampled_from([0.5, 0.75, 5.0])))
    return world, radio, gains, steps


def _switch_as_oracle_does(world, radio, gains, histories):
    """Records one tick, then holds channel_switching to its oracle."""
    powers, chan_power = _rated(world, radio, gains)
    # every user is a column of a world this small
    assert powers.shape == (len(world.alive), len(world.serving))
    for m, rate in enumerate(world.rate.tolist()):
        histories[m].append((world.time, rate))
    want, *state = oracle_channel_switching(world, histories, powers, radio,
                                            gains)
    got = channel_switching(world, powers, chan_power, radio, gains)
    assert [(e.uav_id, e.old_channel, e.new_channel, e.user_ids)
            for e in got] == [w[:4] for w in want]
    for e, w in zip(got, want):
        assert e.time == world.time
        np.testing.assert_allclose(e.sinr_before, w[4], rtol=1e-9, atol=0)
        np.testing.assert_allclose(e.sinr_after, w[5], rtol=1e-9, atol=0)
    assert [world.channel.tolist(), world.last_switch.tolist(),
            world.serving.tolist(), world.rate.tolist()] == state
    return got


@settings(max_examples=200, deadline=None)
@given(switching_worlds())
def test_switching_matches_oracle_after_one_recorded_tick(case):
    world, radio = case
    histories = [[] for _ in world.users]
    events = _switch_as_oracle_does(world, radio, ControlGains(), histories)
    hypothesis.event("switched" if events else "no switch")


@settings(max_examples=100, deadline=None)
@given(switching_runs())
def test_switching_matches_oracle_after_several_recorded_ticks(case):
    # earlier switches start cooldowns, and the windows' means part from
    # the rates as the cells move
    world, radio, gains, steps = case
    histories = [[] for _ in world.users]
    switched = []
    for move, channels in steps:
        switched.append(bool(_switch_as_oracle_does(world, radio, gains,
                                                    histories)))
        world.uav_pos[:, :2] += move
        world.channel[:] = channels
        world.time += gains.dt
    switched.append(bool(_switch_as_oracle_does(world, radio, gains,
                                                histories)))
    hypothesis.event("switched after the first tick" if any(switched[1:])
                     else "switched on the first tick only" if switched[0]
                     else "no switch")


def test_equal_deficits_trigger_the_lowest_id():
    # users 0 and 1 sit mirrored about cell 0, so their rates have the same
    # bits; cells 1 and 2, one per candidate channel, are each nearer one
    # of them, so the trigger decides the channel
    radio = RadioParams(num_channels=4)
    world = world_of([(0.0, 0.0), (-200.0, 0.0), (200.0, 0.0), (0.0, 200.0),
                      (0.0, -200.0)],
                     [(PREMIUM, -50.0, 0.0), (PREMIUM, 50.0, 0.0)],
                     channels=[3, 1, 2, 3, 3], time=10.0, radio=radio)
    events = _switch_as_oracle_does(world, radio, ControlGains(), [[], []])
    assert world.rate[0] == world.rate[1]
    assert [(e.uav_id, e.new_channel) for e in events] == [(0, 2)]


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
