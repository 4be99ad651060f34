"""Hand-placed worlds for tests, built through make_world.

A test lists its cells as (x, y) starts and its users as (klass, x, y),
gets the world make_world builds from them, and then writes whatever state
it needs straight into the world's arrays (``channel``, ``alive``,
``serving``, ``rate``, ...).
"""

from uavswarm.engine import make_world
from uavswarm.model import ScenarioConfig, UserSpec


def world_of(cells, users, channels=None, time=0.0, **config):
    """The world of a scenario with ``cells`` and ``users`` placed by hand,
    its cells on ``channels`` and its clock at ``time``; ``config`` passes
    further ScenarioConfig fields, such as H or gains."""
    world = make_world(ScenarioConfig(
        users=[UserSpec(klass=klass, position=(float(x), float(y)))
               for klass, x, y in users],
        uav_count=len(cells),
        uav_initial_positions=[(float(x), float(y)) for x, y in cells],
        **config))
    if channels is not None:
        world.channel[:] = channels
    world.time = time
    return world
