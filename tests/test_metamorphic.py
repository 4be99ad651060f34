"""Metamorphic tests: changes to fig3 that the model must not notice.

A quarter turn of the plane, (x, y) -> (-y, x), moves every coordinate
exactly in floats, as does a shift of the plane by an offset whose sums with
fig3's coordinates are exact; a dead cell serves no one, interferes with no
one and takes no part in the spacing terms; relabelling the users only
re-orders the sums over them.  None of these may change fig3's metrics,
switches and failures beyond the golden comparer's tolerance.
"""

import itertools
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from golden import FIG3_GOLDEN, compare, digest, fig3_configs
from uavswarm.engine import RunResult, make_world, run, step
from uavswarm.model import (
    FLOCKING_MODE,
    PREMIUM,
    QOS_MODE,
    REGULAR,
    ControlGains,
    RadioParams,
    ScenarioConfig,
    UserSpec,
)
from uavswarm.radio import geometry


def _turn(x, y):
    return -y, x


@pytest.fixture(scope="module")
def goldens():
    with open(FIG3_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_quarter_turn_matches_golden(goldens, name):
    config = fig3_configs()[name]
    turned = replace(
        config,
        users=[replace(spec, position=_turn(*spec.position))
               for spec in config.users],
        uav_initial_positions=[_turn(x, y)
                               for x, y in config.uav_initial_positions])
    got = digest(run(turned))
    # turn the final cell states back: (x', y') = (-y, x) gives (y', -x')
    for key in ("final_positions", "final_velocities"):
        got["float"][key] = [[y, -x] for x, y in got["float"][key]]
    assert compare(goldens[name], got) == []


@pytest.mark.parametrize("offset", [(1000.0, -500.0), (256.0, 128.0),
                                    (3.0, -7.0)])
@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_plane_shift_matches_golden(goldens, name, offset):
    config = fig3_configs()[name]
    dx, dy = offset
    shifted = replace(
        config,
        users=[replace(spec, position=(spec.position[0] + dx,
                                       spec.position[1] + dy))
               for spec in config.users],
        uav_initial_positions=[(x + dx, y + dy)
                               for x, y in config.uav_initial_positions])
    got = digest(run(shifted))
    got["float"]["final_positions"] = [
        [x - dx, y - dy] for x, y in got["float"]["final_positions"]]
    assert compare(goldens[name], got) == []


def _stepped(config, dead=()):
    """fig3 driven through step(), with the listed cells dead from the
    start; returns its result and every tick's serving ids."""
    world = make_world(config)
    world.alive[list(dead)] = False
    metrics, switches, serving = [], [], []
    for _ in range(config.ticks() + 1):
        row, events = step(world, config)
        metrics.append(row)
        switches.extend(events)
        serving.append(world.serving.tolist())
    result = RunResult(config=config, seed=config.seed, metrics=metrics,
                       trace=[], user_trace=[], switch_events=switches,
                       failures=world.failures,
                       min_distance_violations=world.min_distance_violations,
                       world=world)
    return result, serving


@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_far_dead_cell_changes_nothing(name):
    config = fig3_configs()[name]
    plain, plain_serving = _stepped(config)
    extra = replace(config, uav_count=config.uav_count + 1,
                    uav_initial_positions=[*config.uav_initial_positions,
                                           (5000.0, 5000.0)])
    with_dead, dead_serving = _stepped(extra, dead=[config.uav_count])
    got = digest(with_dead)
    for key in ("final_positions", "final_velocities"):
        got["float"][key] = got["float"][key][:-1]
    assert compare(digest(plain), got) == []
    assert dead_serving == plain_serving
    assert with_dead.world.uav_pos[-1, :2].tolist() == [5000.0, 5000.0]


def _relabelled_digest(result, order):
    """The golden digest of a run whose user i is user ``order[i]`` of the
    unrelabelled list, mapped back to that list: each switch event's
    retained users and their SINRs in its order, plus every tick's serving
    id, rate and trailing mean of each user."""
    got = digest(result)
    sinrs = []
    for event, entry in zip(result.switch_events, got["exact"]["switches"]):
        users = sorted(zip([order[m] for m in event.user_ids],
                           event.sinr_before, event.sinr_after))
        entry[-1] = [m for m, _, _ in users]
        sinrs.append([x for _, before, after in users for x in (before, after)])
    got["float"]["switch_sinr"] = sinrs
    rows = np.array([row[2:] for row in result.user_trace])
    rows = rows.reshape(len(result.metrics), len(order), 3)[:, np.argsort(order)]
    got["exact"]["serving"] = rows[..., 0].tolist()
    got["float"]["user_rates"] = rows[..., 1:].tolist()
    return got


def _holds_under_relabelling(config, orders):
    identity = list(range(len(config.users)))
    want = _relabelled_digest(run(config, trace=True), identity)
    for order in orders:
        relabelled = replace(config, users=[config.users[k] for k in order])
        got = _relabelled_digest(run(relabelled, trace=True), order)
        assert compare(want, got) == [], order


@pytest.mark.parametrize("name", ["qos", "flocking"])
def test_relabelled_users_match_unrelabelled_run(name):
    config = fig3_configs()[name]
    _holds_under_relabelling(
        config, list(itertools.permutations(range(len(config.users))))[1:])


def _small_world(seed):
    """A short run of 2-4 cells and 3-8 users, most of them premium, at
    explicit positions with no two cell-user distances alike; most worlds
    run the QoS controller on few channels with a short window, so that
    cells switch."""
    rnd = random.Random(seed)
    users = [UserSpec(klass=rnd.choice([PREMIUM, PREMIUM, REGULAR]),
                      position=(rnd.uniform(0, 250), rnd.uniform(0, 150)))
             for _ in range(rnd.randint(3, 8))]
    cells = [(rnd.uniform(0, 250), rnd.uniform(0, 150))
             for _ in range(rnd.randint(2, 4))]
    config = ScenarioConfig(
        users=users, uav_count=len(cells), uav_initial_positions=cells,
        duration=1.5, seed=seed,
        controller_mode=FLOCKING_MODE if seed % 4 == 3 else QOS_MODE,
        radio=RadioParams(num_channels=rnd.randint(2, 3)),
        gains=ControlGains(tau=0.3, n_max=rnd.randint(2, 8)))
    dist = geometry([(*xy, config.H) for xy in cells],
                    [(*u.position, 0.0) for u in users]).dist
    assert len(np.unique(dist)) == dist.size
    return config


SMALL_WORLDS = range(16)


def test_small_worlds_switch_channels():
    assert sum(len(run(_small_world(seed)).switch_events)
               for seed in SMALL_WORLDS) >= 5


@pytest.mark.parametrize("seed", SMALL_WORLDS)
def test_relabelled_users_of_small_worlds_match(seed):
    config = _small_world(seed)
    rnd = random.Random(seed)
    orders = [rnd.sample(range(len(config.users)), len(config.users))
              for _ in range(3)]
    _holds_under_relabelling(config, orders)
