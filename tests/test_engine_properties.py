"""Property tests: random small worlds driven through step() keep the
world's invariants, and log what run() reports on the same config."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavswarm.engine import (
    _check_invariants,
    make_world,
    run,
    step,
    tick_geometry,
)
from uavswarm.model import (
    FLOCKING_MODE,
    L0,
    QOS_MODE,
    REGULAR,
    USER_CLASSES,
    ControlGains,
    FailureEvent,
    RadioParams,
    ScenarioConfig,
    UserSpec,
)
from uavswarm.radio import geometry

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
        frozen = np.array([u.position for u in world.uavs])
        rows.append(step(world, config)[0])     # raises on a broken invariant
        _assert_association_valid(world, frozen, config.gains)
    full = run(config)
    _check_invariants(full.world, config, tick_geometry(full.world))
    assert rows == full.metrics
    assert world.failures == full.failures
    assert world.min_distance_violations == full.min_distance_violations


def _assert_association_valid(world, frozen, gains):
    serving = np.array([-1 if u.serving_uav is None else u.serving_uav
                        for u in world.users], dtype=int)
    loads = np.bincount(serving[serving >= 0], minlength=len(world.uavs))
    assert (loads <= gains.n_max).all()
    for user, n in zip(world.users, serving.tolist()):
        if n < 0:
            continue
        assert world.uavs[n].alive
        assert geometry(frozen[n], user.position).dist[0, 0] <= gains.r
        assert user.klass != REGULAR or world.uavs[n].channel == L0
