"""The near set: a tick's field over the users some cell can reach.

Between rebuilds a tick computes geometry, power field and channel sums
over the users within r + engine._SKIN of some cell, dead or alive, where
the cells were at the last rebuild; a tick on which some cell has moved
more than _SKIN since covers every user and takes the next set.  These
tests drive random worlds by hand with step(), teleporting cells past the
skin, killing cells and leaving others idle between ticks, and hold every
tick to a twin world whose workspace is dropped before each tick, so that
each of its ticks covers every user: the in-range list, serving ids,
rates, switch events and controls bit for bit, and the channel sums on
the near columns.  With the split on, radio's pool threads write the
narrowed ticks' views of the workspace buffers.  The worlds are small, so
most tests narrow whatever links a set leaves out (engine._NARROW_LINKS
set to 0).
"""

from dataclasses import replace

import numpy as np
import pytest

from uavswarm import engine, radio
from uavswarm.engine import make_world, step
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
from worlds import world_of

SKIN = engine._SKIN


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class _Recorder:
    """Records the tick's in-range list, field width, power field, channel
    sums as update_rates returns them, and controls, through the engine's
    own names, which step() calls."""

    def __init__(self, monkeypatch):
        self.tick: dict = {}
        for name in ("tick_geometry", "update_rates", "control_all"):
            monkeypatch.setattr(engine, name,
                                self._wrap(name, getattr(engine, name)))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if name == "tick_geometry":
                self.tick["links"] = [a.copy() for a in out[1]]
                self.tick["width"] = out[0].dist.shape[1]
            elif name == "update_rates":
                # channel_switching moves powers between the sums later
                self.tick["powers"], self.tick["chan_power"] = (
                    a.copy() for a in out)
            else:
                self.tick["controls"] = out.copy()
            return out
        return wrapper

    def step(self, world, config):
        self.tick = {}
        _, events = step(world, config)
        return self.tick, events


def _config(seed, mode):
    """A random world: cells over the left of a strip of users, two or
    three channels, crowded enough that premium users fall short of target
    and cells switch, and loads spill."""
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(4, 10))
    return ScenarioConfig(
        users=[UserSpec(klass=PREMIUM, region=(0.0, 0.0, 1200.0, 600.0),
                        count=int(rng.integers(40, 120))),
               UserSpec(klass=REGULAR, region=(0.0, 0.0, 2500.0, 600.0),
                        count=int(rng.integers(60, 200)))],
        uav_count=n_cells, uav_region=(0.0, 0.0, 900.0, 600.0), seed=seed,
        duration=3.0, controller_mode=mode,
        radio=RadioParams(num_channels=int(rng.integers(2, 4))),
        gains=ControlGains(n_max=int(rng.integers(8, 30)), tau=0.3))


def _disturb(rng, worlds):
    """The same disturbance of every world in ``worlds``: teleport some
    cells, dead ones too, past the skin, kill some, or leave them all."""
    n_cells = len(worlds[0].alive)
    kind = rng.choice(["teleport", "kill", "idle", "idle"])
    cells = rng.choice(n_cells, size=int(rng.integers(1, 3)), replace=False)
    if kind == "teleport":
        angle = rng.uniform(0.0, 2.0 * np.pi, len(cells))
        length = rng.uniform(1.01 * SKIN, 20.0 * SKIN, len(cells))
        shift = np.column_stack([length * np.cos(angle),
                                 length * np.sin(angle)])
    for world in worlds:
        if kind == "teleport":
            world.uav_pos[cells, :2] += shift
        elif kind == "kill":
            world.alive[cells] = False
            world.uav_vel[cells] = 0.0
    return kind


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("mode", [QOS_MODE, FLOCKING_MODE])
def test_near_ticks_match_full_ticks_bit_for_bit(monkeypatch, cpus, mode,
                                                 split):
    if split:
        cpus(3)
        monkeypatch.setattr(radio, "_SPLIT_LINKS", 1)
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    recorder = _Recorder(monkeypatch)
    seen = dict(narrowed=0, rebuilt=0, teleport=0, kill=0, idle=0,
                switches=0, dead_pairs=0)
    for seed in range(12):
        config = _config(seed, mode)
        world, twin = make_world(config), make_world(config)
        n_users = len(world.serving)
        rng = np.random.default_rng(1000 + seed)
        for tick in range(config.ticks() + 1):
            if tick:
                seen[_disturb(rng, [world, twin])] += 1
            got, events = recorder.step(world, config)
            twin.workspace = None           # every twin tick is full
            want, want_events = recorder.step(twin, config)
            assert want["width"] == n_users
            for g, w in zip(got["links"], want["links"], strict=True):
                _same(g, w)
            _same(world.serving, twin.serving)
            _same(world.rate, twin.rate)
            assert events == want_events
            _same(got["controls"], want["controls"])
            near = world.workspace.near
            # every pair within r is among the near set's users
            assert np.isin(want["links"][2], near).all()
            if got["width"] < n_users:
                seen["narrowed"] += 1
                assert got["width"] == len(near)
                for name in ("powers", "chan_power"):
                    _same(got[name],
                          np.ascontiguousarray(want[name][:, near]))
            else:
                seen["rebuilt"] += 1
                for name in ("powers", "chan_power"):
                    _same(got[name], want[name])
            seen["switches"] += len(events)
            seen["dead_pairs"] += int(
                (~world.alive[want["links"][1]]).sum())
    if mode == FLOCKING_MODE:
        assert seen.pop("switches") == 0
    assert min(seen.values()) > 0, seen


def _far_world():
    """Cell 0 at the origin and cell 1 1 km away, a user near each and one
    2 km away, so that the near set is users 0 and 1."""
    return world_of([(0.0, 0.0), (1000.0, 0.0)],
                    [(PREMIUM, 100.0, 0.0), (PREMIUM, 1000.0, 50.0),
                     (PREMIUM, 2000.0, 0.0)])


@pytest.mark.parametrize("user, cell", [(2, 1), (0, 1)])
def test_invariant_check_on_a_narrowed_tick(monkeypatch, user, cell):
    # user 2 is outside the near set, so the tick has no column for it,
    # and user 0 is in it but 900 m from cell 1: each is out of range
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    world = _far_world()
    config = ScenarioConfig(users=[UserSpec(klass=PREMIUM, position=(0, 0))],
                            uav_count=2)
    engine.tick_geometry(world, config.gains.r)
    geom, _ = engine.tick_geometry(world, config.gains.r)
    assert geom.dist.shape[1] == 2
    world.serving[:] = [0, 1, -1]
    engine._check_invariants(world, config, geom)
    world.serving[user] = cell
    with pytest.raises(RuntimeError, match=f"user {user} served out of range"):
        engine._check_invariants(world, config, geom)


def test_displacement_just_over_the_skin_rebuilds(monkeypatch):
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    world = _far_world()
    gains = ControlGains()
    engine.tick_geometry(world, gains.r)
    assert world.workspace.near.tolist() == [0, 1]
    for x, rebuilds in [(SKIN, False), (np.nextafter(SKIN, np.inf), True)]:
        anchor = world.workspace.anchor.copy()
        world.uav_pos[0, 0] = x
        geom, _ = engine.tick_geometry(world, gains.r)
        assert (geom.dist.shape[1] == 3) == rebuilds, x
        assert (world.workspace.anchor[0, 0] == x) == rebuilds
        if not rebuilds:
            _same(world.workspace.anchor, anchor)


def test_non_finite_position_rebuilds(monkeypatch):
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    world = _far_world()
    gains = ControlGains()
    engine.tick_geometry(world, gains.r)
    world.uav_pos[1, 1] = np.nan
    geom, _ = engine.tick_geometry(world, gains.r)
    assert geom.dist.shape[1] == 3


@pytest.mark.parametrize("mode", [QOS_MODE, FLOCKING_MODE])
def test_users_beyond_every_cells_reach_change_nothing(monkeypatch, mode):
    # the same worlds with 40 more users 100 km away, after the others:
    # the first users' rates and serving ids, the switch events, the near
    # set and the power field on its columns keep their bits.  The far
    # users move the flocking goal's centroid by design, so the wider
    # world takes the first one's, and then every control keeps its bits
    # too.  h's dense (cells, users) operands round their row sums by the
    # user count, far users or not (kernels._pair_sums), so in QoS mode
    # the controls agree to 1e-12 m/s^2 and the wider world starts each
    # tick from the first one's cells.
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    recorder = _Recorder(monkeypatch)
    seen = dict(narrowed=0, switches=0 if mode == QOS_MODE else 1)
    for seed in range(4):
        config = _config(seed, mode)
        far = UserSpec(klass=PREMIUM, region=(1e5, 0.0, 1.01e5, 600.0),
                       count=40)
        wider = replace(config, users=config.users + [far])
        world, other = make_world(config), make_world(wider)
        other.user_centroid[:] = world.user_centroid
        n_users = len(world.serving)
        _same(other.user_pos[:n_users], world.user_pos)
        for _ in range(config.ticks() + 1):
            if mode == QOS_MODE:
                other.uav_pos[:] = world.uav_pos
                other.uav_vel[:] = world.uav_vel
            got, events = recorder.step(world, config)
            want, want_events = recorder.step(other, wider)
            _same(world.rate, other.rate[:n_users])
            _same(world.serving, other.serving[:n_users])
            assert events == want_events
            _same(world.workspace.near, other.workspace.near)
            if got["width"] < n_users:
                seen["narrowed"] += 1
                for name in ("powers", "chan_power"):
                    _same(got[name], want[name])
            if mode == QOS_MODE:
                np.testing.assert_allclose(got["controls"], want["controls"],
                                           rtol=0.0, atol=1e-12)
            else:
                _same(got["controls"], want["controls"])
            seen["switches"] += len(events)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("line, width", [(3, 3), (2, 2)])
def test_set_leaving_out_fewer_links_than_the_line_is_every_user(
        monkeypatch, line, width):
    # _far_world's set leaves out its third user, 2 links of its 2 cells:
    # below the line every tick covers every user, at it the ticks after
    # the first cover the set
    monkeypatch.setattr(engine, "_NARROW_LINKS", line)
    world = _far_world()
    widths = [engine.tick_geometry(world, ControlGains().r)[0].dist.shape[1]
              for _ in range(3)]
    assert widths == [3, width, width]
