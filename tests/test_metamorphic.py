"""Metamorphic tests: changes to fig3 that the model must not notice.

A quarter turn of the plane, (x, y) -> (-y, x), moves every coordinate
exactly in floats, as does a shift of the plane by an offset whose sums with
fig3's coordinates are exact; a dead cell serves no one, interferes with no
one and takes no part in the spacing terms.  None of these may change
fig3's metrics, switches and failures beyond the golden comparer's
tolerance.
"""

import json
from dataclasses import replace

import pytest

from golden import FIG3_GOLDEN, compare, digest, fig3_configs
from uavswarm.engine import RunResult, make_world, run, step


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
    for n in dead:
        world.uavs[n].alive = False
    metrics, switches, serving = [], [], []
    for _ in range(config.ticks() + 1):
        row, events = step(world, config)
        metrics.append(row)
        switches.extend(events)
        serving.append([u.serving_uav for u in world.users])
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
    assert with_dead.world.uavs[-1].position[:2].tolist() == [5000.0, 5000.0]
