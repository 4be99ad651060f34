"""Hand-placed worlds for tests, built through make_world.

A test lists its cells as (x, y) starts and its users as (klass, x, y),
gets the world make_world builds from them, and then writes whatever state
it needs straight into the world's arrays (``channel``, ``alive``,
``serving``, ``rate``, ...).
"""

import numpy as np

from uavswarm.engine import make_world
from uavswarm.model import PREMIUM, REGULAR, ScenarioConfig, UserSpec

HEIGHT = 180.0      # grid_field's flight height


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


def grid_field(seed):
    """100 cells and 3,000 users on a 60 m grid over 11 x 2.2 km at HEIGHT,
    15 cells dead and about a fifth off the default channel: equal
    distances, coincident users and, for r = 300 m (a 180-240-300
    triangle), users at exactly r all occur."""
    rng = np.random.default_rng(seed)
    cells = 60.0 * rng.integers((0, 0), (184, 37), (100, 2))
    users = 60.0 * rng.integers((0, 0), (184, 37), (3000, 2))
    klass = np.where(rng.random(3000) < 0.2, PREMIUM, REGULAR)
    world = world_of(cells.tolist(),
                     list(zip(klass.tolist(), *users.T.tolist())),
                     channels=rng.choice([0, 0, 0, 0, 1, 2], 100), H=HEIGHT)
    world.alive[rng.choice(100, size=15, replace=False)] = False
    return world
