"""World construction, association, failures, switching, integration."""

import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from kernel_oracle import oracle_f_term_pair_loop
from radio_oracle import oracle_sinr
from uavswarm import engine, kernels
from uavswarm.engine import (
    _check_invariants,
    _evaluate,
    advance,
    associate_users,
    channel_switching,
    control_all,
    inject_failures,
    make_world,
    resolve_user_positions,
    run,
    step,
    tick_geometry,
    update_rates,
)
from uavswarm.model import (
    ControlGains,
    FailureEvent,
    RadioParams,
    ScenarioConfig,
    ScenarioError,
    UserSpec,
    load_scenario,
)
from uavswarm.radio import geometry

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _region_config(seed=5):
    return ScenarioConfig(
        users=[
            UserSpec(klass="premium", position=(-40.0, 0.0)),
            UserSpec(klass="regular", region=(0.0, 0.0, 200.0, 100.0),
                     count=20),
        ],
        uav_count=2,
        uav_region=(-100.0, -100.0, 100.0, 100.0),
        seed=seed,
        duration=1.0,
    )


class TestResolveUsers:
    def test_deterministic_and_in_bounds(self):
        cfg = _region_config()
        premium, pos = resolve_user_positions(cfg)
        again = resolve_user_positions(cfg)
        assert premium.tobytes() == again[0].tobytes()
        assert pos.tobytes() == again[1].tobytes()
        assert premium.shape == (21,) and pos.shape == (21, 3)
        assert premium.tolist() == [True] + [False] * 20
        assert pos[0].tolist() == [-40.0, 0.0, 0.0]
        for x, y, z in pos[1:].tolist():
            assert 0.0 <= x <= 200.0 and 0.0 <= y <= 100.0 and z == 0.0

    def test_seed_changes_draw(self):
        assert resolve_user_positions(_region_config(seed=5))[1].tobytes() \
            != resolve_user_positions(_region_config(seed=6))[1].tobytes()


class TestMakeWorld:
    def test_explicit_starts(self):
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(0.0, 0.0))],
            uav_count=2,
            uav_initial_positions=[(10.0, 20.0), (30.0, 40.0)],
            H=120.0)
        world = make_world(cfg)
        assert world.uav_pos.tolist() == \
            [[10.0, 20.0, 120.0], [30.0, 40.0, 120.0]]
        assert world.channel.tolist() == [0, 0]
        assert world.alive.all()
        assert world.target.tolist() == [300e6]
        assert world.time == 0.0 and world.tick == 0

    def test_run_seed_moves_uavs_not_users(self):
        cfg = _region_config()
        w1 = make_world(cfg, run_seed=101)
        w2 = make_world(cfg, run_seed=202)
        assert np.array_equal(w1.user_pos, w2.user_pos)
        assert (w1.uav_pos != w2.uav_pos).any(axis=1).all()

    def test_validates_config(self):
        cfg = _region_config()
        cfg.uav_count = -1
        with pytest.raises(ScenarioError):
            make_world(cfg)


class TestInjectFailures:
    def _world(self, n=15):
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(0.0, 0.0))],
            uav_count=n,
            uav_initial_positions=[(50.0 * k, 0.0) for k in range(n)])
        return make_world(cfg)

    def test_rounds_half_up(self):
        # 0.3 of 15 alive = 4.5 -> 5 killed
        world = self._world(15)
        killed = inject_failures(world, 0.3)
        assert len(killed) == 5
        assert np.count_nonzero(~world.alive) == 5

    def test_zero_fraction_is_noop(self):
        world = self._world(4)
        assert inject_failures(world, 0.0) == []
        assert world.alive.all()

    def test_deterministic_per_seed(self):
        a = inject_failures(self._world(), 0.3)
        b = inject_failures(self._world(), 0.3)
        assert a == b

    def test_releases_connected_users(self):
        # cells 700 m apart, two users under each: a killed cell's users
        # have no other cell in range, so the failure tick must leave them
        # unserved at rate 0.0, through association and the rate update
        xs = [700.0 * k for k in range(6)]
        cfg = ScenarioConfig(
            users=[UserSpec(klass=klass, position=(x, 5.0))
                   for x in xs for klass in ("premium", "regular")],
            uav_count=6, uav_initial_positions=[(x, 0.0) for x in xs],
            failure_events=[FailureEvent(at_time=0.1, fraction=0.5)])
        world = make_world(cfg)
        step(world, cfg)
        assert (world.serving >= 0).all() and (world.rate > 0.0).all()
        step(world, cfg)
        [(_, killed)] = world.failures
        assert len(killed) == 3
        unserved = world.serving < 0
        assert np.count_nonzero(unserved) == 6
        assert not np.isin(world.serving, killed).any()
        assert (world.rate[unserved] == 0.0).all()

    def test_dead_uavs_not_rekilled(self):
        world = self._world(6)
        first = inject_failures(world, 0.5)
        second = inject_failures(world, 1.0)
        assert set(first).isdisjoint(second)
        assert sorted(first + second) == list(range(6))


def _assoc_world(uav_xy, channels, user_specs, gains=None):
    gains = gains or ControlGains()
    cfg = ScenarioConfig(users=user_specs, uav_count=len(uav_xy),
                         uav_initial_positions=uav_xy, gains=gains)
    world = make_world(cfg)
    world.channel[:] = channels
    return world, gains


def test_distances_match_linalg_norm_bits():
    rng = np.random.default_rng(3)
    a = rng.uniform(-5e3, 5e3, size=(7, 3))
    b = rng.uniform(-5e3, 5e3, size=(11, 3))
    assert np.array_equal(geometry(a, b).dist,
                          np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2))


class TestAssociation:
    def test_nearest_eligible_wins(self):
        world, gains = _assoc_world(
            [(0.0, 0.0), (200.0, 0.0)], [0, 0],
            [UserSpec(klass="premium", position=(150.0, 0.0))])
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving[0] == 1

    def test_regular_users_need_default_channel(self):
        # the nearer UAV sits off the default channel, so the regular user
        # walks past it while the premium user does not
        world, gains = _assoc_world(
            [(0.0, 0.0), (180.0, 0.0)], [0, 2],
            [UserSpec(klass="regular", position=(170.0, 0.0)),
             UserSpec(klass="premium", position=(170.0, 10.0))])
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving[0] == 0
        assert world.serving[1] == 1

    def test_out_of_range_unserved(self):
        world, gains = _assoc_world(
            [(0.0, 0.0)], [0],
            [UserSpec(klass="premium", position=(1000.0, 0.0))])
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving[0] == -1

    def test_capacity_spill_to_next_nearest(self):
        gains = ControlGains(n_max=1)
        world, gains = _assoc_world(
            [(0.0, 0.0), (100.0, 0.0)], [0, 0],
            [UserSpec(klass="premium", position=(10.0, 0.0)),
             UserSpec(klass="premium", position=(20.0, 0.0))],
            gains)
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving[0] == 0
        assert world.serving[1] == 1

    def test_dead_uav_never_serves(self):
        world, gains = _assoc_world(
            [(0.0, 0.0)], [0],
            [UserSpec(klass="premium", position=(10.0, 0.0))])
        world.alive[0] = False
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving[0] == -1


# (breach of a served world, message), for TestInvariants
BREACHES = [
    (lambda w: w.alive.__setitem__(0, False), "served by dead UAV"),
    (lambda w: w.uav_pos.__setitem__((0, 0), -1e-9),
     "served out of range"),
    (lambda w: w.channel.__setitem__(0, 3), "off the default channel"),
    (lambda w: w.uav_pos.__setitem__((1, 1), np.nan),
     "UAV 1 position not finite"),
    (lambda w: w.serving.__setitem__(slice(1, None), 1),
     "UAV 1 over capacity"),
    (lambda w: w.uav_vel.__setitem__((1, 0), np.nan),
     "UAV 1 velocity not finite"),
    (lambda w: w.rate.__setitem__(0, np.nan), "user 0 has invalid rate nan"),
    (lambda w: w.rate.__setitem__(0, -1.0), "user 0 has invalid rate -1"),
    (lambda w: w.rate.__setitem__(0, np.inf), "user 0 has invalid rate inf"),
    (lambda w: w.rate.__setitem__(81, 5e6), "unserved user 81 has rate"),
    (lambda w: w.serving.__setitem__(0, 2), "user 0 served by unknown UAV 2"),
    (lambda w: w.serving.__setitem__(0, -2),
     "user 0 served by unknown UAV -2"),
    (lambda w: w.uav_pos.__setitem__((1, 2), 200.0),
     "UAV 1 off the flight plane"),
    (lambda w: w.uav_vel.__setitem__((1, 2), -0.5),
     "UAV 1 has vertical velocity"),
    (lambda w: w.channel.__setitem__(1, 8), "UAV 1 on invalid channel 8"),
    (lambda w: w.channel.__setitem__(1, -1), "UAV 1 on invalid channel -1"),
    (lambda w: w.serving.__setitem__(82, 1), "user 82 served out of range"),
]


def _breach(*changes):
    """One breach made of several (array name, index, value) writes."""
    def apply(world):
        for name, index, value in changes:
            getattr(world, name)[index] = value
    return apply


# Two breaches at once: the lowest index wins within a group, the first
# check's message at that index, and an earlier group over a later one
FIRST_BREACHES = [
    (_breach(("uav_vel", (0, 0), np.inf), ("uav_pos", (1, 2), 170.0)),
     "UAV 0 velocity not finite"),
    (_breach(("channel", 0, 9), ("uav_vel", (0, 2), 1.0)),
     "UAV 0 has vertical velocity"),
    (_breach(("serving", 81, 7), ("uav_vel", (0, 0), np.nan)),
     "user 81 served by unknown UAV 7"),
    (_breach(("rate", 0, -1.0), ("serving", 5, 1)),
     "user 5 served out of range"),
    (_breach(("serving", 5, 1), ("alive", 1, False)),
     "user 5 served by dead UAV 1"),
    (_breach(("rate", 82, 1.0), ("rate", 81, np.nan)),
     "user 81 has invalid rate nan"),
    (_breach(("channel", 0, 2), ("serving", 82, 1)),
     "regular user 0 served off the default channel"),
]


class TestInvariants:
    """The invariant check on a served world, on full-width ticks and on
    ticks over the near set, which leaves out user 82."""

    def _served_world(self, monkeypatch=None):
        # 82 users at one spot: cell 0 serves its capacity of 80 of them,
        # cell 1 is out of everyone's range, and users 80 and 81 go
        # unserved; user 82, 5 km away, is beyond every cell's reach.
        # Given monkeypatch, the world's ticks after the first cover the
        # near set, users 0-81.
        if monkeypatch is not None:
            monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
        cfg = ScenarioConfig(
            users=[UserSpec(klass="regular", position=(240.0, 0.0))] * 82
            + [UserSpec(klass="regular", position=(5000.0, 0.0))],
            uav_count=2, uav_initial_positions=[(0.0, 0.0), (900.0, 0.0)],
            H=180.0)
        world = make_world(cfg)
        associate_users(world, cfg.gains,
                        *tick_geometry(world, cfg.gains.r))
        assert world.serving[0] == 0    # slant range exactly r
        return world, cfg

    def _check(self, world, cfg, near=False):
        geom = tick_geometry(world, cfg.gains.r)[0]
        # a position that is not finite rebuilds the near set
        assert geom.dist.shape[1] == (
            82 if near and np.isfinite(world.uav_pos).all() else 83)
        _check_invariants(world, cfg, geom)

    def test_consistent_state_passes(self):
        world, cfg = self._served_world()
        self._check(world, cfg)

    def test_consistent_state_passes_on_a_near_set_tick(self, monkeypatch):
        world, cfg = self._served_world(monkeypatch)
        self._check(world, cfg, near=True)

    def test_dead_cell_off_the_plane_passes(self, monkeypatch):
        world, cfg = self._served_world(monkeypatch)
        world.alive[1] = False
        world.uav_pos[1, 2] = 170.0
        self._check(world, cfg, near=True)

    @pytest.mark.parametrize("breach, message", BREACHES)
    def test_each_breach_raises(self, breach, message):
        world, cfg = self._served_world()
        breach(world)
        with pytest.raises(RuntimeError, match=message):
            self._check(world, cfg)

    @pytest.mark.parametrize("breach, message", BREACHES)
    def test_each_breach_raises_on_a_near_set_tick(self, monkeypatch, breach,
                                                   message):
        world, cfg = self._served_world(monkeypatch)
        breach(world)
        with pytest.raises(RuntimeError, match=message):
            self._check(world, cfg, near=True)

    @pytest.mark.parametrize("near", [False, True])
    @pytest.mark.parametrize("breach, message", FIRST_BREACHES)
    def test_first_breach_wins(self, monkeypatch, breach, message, near):
        world, cfg = self._served_world(monkeypatch if near else None)
        breach(world)
        with pytest.raises(RuntimeError, match=f"^{message}"):
            self._check(world, cfg, near)


def _switch_world(num_channels=8, extra_uav=None, regular_too=True,
                  time=10.0):
    """Two co-channel UAVs; UAV 0 serves a deficient premium user."""
    uav_xy = [(0.0, 0.0), (150.0, 0.0)]
    channels = [0, 0]
    if extra_uav is not None:
        uav_xy.append(extra_uav[0])
        channels.append(extra_uav[1])
    users = [UserSpec(klass="premium", position=(10.0, 0.0))]
    if regular_too:
        users.append(UserSpec(klass="regular", position=(-10.0, 0.0)))
    cfg = ScenarioConfig(users=users, uav_count=len(uav_xy),
                         uav_initial_positions=uav_xy,
                         radio=RadioParams(num_channels=num_channels))
    world = make_world(cfg)
    world.channel[:] = channels
    world.time = time
    geom, links = tick_geometry(world, cfg.gains.r)
    associate_users(world, cfg.gains, geom, links)
    powers, chan_power = update_rates(world, cfg.radio, cfg.gains,
                                      geom)
    return world, cfg, powers, chan_power


class TestChannelSwitching:
    def test_switch_to_free_channel_and_release_regulars(self):
        world, cfg, powers, chan_power = _switch_world()
        assert world.rate[0] < 300e6
        events = channel_switching(world, powers, chan_power, cfg.radio,
                                   cfg.gains)
        assert len(events) == 1
        ev = events[0]
        assert (ev.uav_id, ev.old_channel, ev.new_channel) == (0, 0, 1)
        assert ev.user_ids == [0]       # premium kept, regular dropped
        assert world.serving[1] == -1
        assert world.channel[0] == 1
        assert world.last_switch[0] == world.time

    def test_event_sinr_matches_independent_recompute(self):
        world, cfg, powers, chan_power = _switch_world()

        def sinr_of_user_0():
            others = world.alive & (world.channel == world.channel[0])
            others[0] = False
            return oracle_sinr(world.uav_pos[0].tolist(),
                               world.uav_pos[others].tolist(),
                               world.user_pos[0].tolist(),
                               noise_dbm=cfg.radio.noise,
                               form=cfg.radio.plos_form)

        before = sinr_of_user_0()
        [ev] = channel_switching(world, powers, chan_power, cfg.radio,
                                 cfg.gains)
        after = sinr_of_user_0()
        assert ev.sinr_before[0] == pytest.approx(before, rel=1e-9)
        assert ev.sinr_after[0] == pytest.approx(after, rel=1e-9)
        assert after > before

    def test_no_free_channel_picks_least_interfered(self):
        # 2 channels; channel 1 already occupied by a distant UAV
        world, cfg, powers, chan_power = _switch_world(
            num_channels=2, extra_uav=((2000.0, 0.0), 1))
        [ev] = channel_switching(world, powers, chan_power, cfg.radio,
                                 cfg.gains)
        assert ev.new_channel == 1
        assert ev.sinr_after[0] < ev.sinr_before[0] * 1e9  # finite, interfered
        assert ev.sinr_after[0] > ev.sinr_before[0]

    def test_blocked_when_candidate_not_strictly_better(self):
        # channel 1 held by a UAV even closer than the co-channel one
        world, cfg, powers, chan_power = _switch_world(
            num_channels=2, extra_uav=((60.0, 0.0), 1))
        events = channel_switching(world, powers, chan_power, cfg.radio,
                                   cfg.gains)
        assert events == []
        assert world.channel[0] == 0

    def test_cooldown_blocks_early_switch(self):
        world, cfg, powers, chan_power = _switch_world(time=0.0)
        assert channel_switching(world, powers, chan_power, cfg.radio,
                                 cfg.gains) == []

    @pytest.mark.parametrize("first_x, new_channel", [(-50.0, 2), (50.0, 1)])
    def test_equal_deficits_trigger_the_lowest_id(self, first_x,
                                                  new_channel):
        # two premium users mirrored about cell 0 and its co-channel
        # neighbour get the same rate bits; the least interfered channel
        # at user 0 (cell 2's channel 1 on the left, cell 3's channel 2 on
        # the right, both in use) is the one taken
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(x, 0.0))
                   for x in (first_x, -first_x)],
            uav_count=4, uav_initial_positions=[
                (0.0, 0.0), (0.0, 200.0), (-400.0, -100.0), (400.0, -100.0)],
            radio=RadioParams(num_channels=3))
        world = make_world(cfg)
        world.channel[:] = [0, 0, 1, 2]
        world.time = 10.0
        geom, links = tick_geometry(world, cfg.gains.r)
        associate_users(world, cfg.gains, geom, links)
        powers, chan_power = update_rates(world, cfg.radio, cfg.gains, geom)
        assert world.serving.tolist() == [0, 0]
        assert world.rate[0] == world.rate[1] < world.target[0]
        [ev] = channel_switching(world, powers, chan_power, cfg.radio,
                                 cfg.gains)
        assert (ev.uav_id, ev.new_channel, ev.user_ids) == (0, new_channel,
                                                            [0, 1])

    def test_regular_deficit_never_triggers(self):
        # same interference picture but the deficient user is regular
        uav_xy = [(0.0, 0.0), (150.0, 0.0)]
        cfg = ScenarioConfig(
            users=[UserSpec(klass="regular", position=(10.0, 0.0))],
            uav_count=2, uav_initial_positions=uav_xy)
        world = make_world(cfg)
        world.time = 10.0
        geom, links = tick_geometry(world, cfg.gains.r)
        associate_users(world, cfg.gains, geom, links)
        powers, chan_power = update_rates(world, cfg.radio, cfg.gains,
                                          geom)
        assert world.rate[0] < 100e6
        assert channel_switching(world, powers, chan_power, cfg.radio,
                                 cfg.gains) == []


class TestAdvance:
    def _world(self, n=1):
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(0.0, 0.0))],
            uav_count=n,
            uav_initial_positions=[(100.0 * k, 0.0) for k in range(n)])
        return make_world(cfg), cfg

    def test_semi_implicit_euler(self):
        world, cfg = self._world()
        advance(world, np.array([[3.0, 4.0, 0.0]]), cfg.gains, cfg.H)
        assert np.allclose(world.uav_vel[0], [0.3, 0.4, 0.0])
        assert np.allclose(world.uav_pos[0], [0.03, 0.04, 100.0])
        assert world.tick == 1
        assert world.time == pytest.approx(0.1)

    def test_speed_clamp(self):
        world, cfg = self._world()
        advance(world, np.array([[1000.0, 0.0, 0.0]]), cfg.gains, cfg.H)
        assert np.linalg.norm(world.uav_vel[0]) == pytest.approx(
            cfg.gains.v_max)

    def test_height_pinned(self):
        world, cfg = self._world()
        world.uav_pos[0, 2] = 57.0
        advance(world, np.zeros((1, 3)), cfg.gains, cfg.H)
        assert world.uav_pos[0, 2] == cfg.H

    def test_dead_uav_frozen(self):
        world, cfg = self._world(2)
        world.alive[1] = False
        before = world.uav_pos[1].copy()
        advance(world, np.full((2, 3), 5.0), cfg.gains, cfg.H)
        assert np.array_equal(world.uav_pos[1], before)


class TestControlAll:
    """Rows of the one-pass control phase: 0 and 1 sit 40 m apart and repel
    hard, dead 2 sits between them, 3 is alone with no user in range."""

    def _world(self):
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(0.0, 250.0))],
            uav_count=4,
            uav_initial_positions=[(0.0, 0.0), (40.0, 0.0), (20.0, 0.0),
                                   (5000.0, 0.0)],
            gains=ControlGains(u_max=2.0))
        world = make_world(cfg)
        world.alive[2] = False
        world.uav_vel[2] = (3.0, 1.0, 0.0)
        geom, links = tick_geometry(world, cfg.gains.r)
        associate_users(world, cfg.gains, geom, links)
        return world, cfg, geom.dist

    def test_dead_cell_row_is_exactly_zero(self):
        world, cfg, dist = self._world()
        controls = control_all(world, cfg.gains, cfg.controller_mode, dist)
        assert controls.shape == (4, 3)
        assert np.array_equal(controls[2], np.zeros(3))

    def test_row_above_u_max_is_clamped(self):
        world, cfg, dist = self._world()
        controls = control_all(world, cfg.gains, cfg.controller_mode, dist)
        loose = control_all(world, replace(cfg.gains, u_max=1e9),
                            cfg.controller_mode, dist)
        for i in (0, 1):
            assert np.linalg.norm(loose[i]) > cfg.gains.u_max
            assert np.linalg.norm(controls[i]) == pytest.approx(
                cfg.gains.u_max, rel=1e-12)
            np.testing.assert_allclose(
                controls[i], loose[i] * (cfg.gains.u_max
                                         / np.linalg.norm(loose[i])),
                rtol=1e-12)

    def test_zero_row_stays_zero(self):
        world, cfg, dist = self._world()
        controls = control_all(world, cfg.gains, cfg.controller_mode, dist)
        assert np.array_equal(controls[3], np.zeros(3))
        assert np.isfinite(controls).all()

    def test_gradients_only_for_interacting_pairs(self, monkeypatch):
        # fig5 at tick 0: f and g share the sigma-gradients of the ordered
        # alive pairs within r, and h takes those of the users in range of
        # each cell, not of all cells x users
        config = load_scenario(SCENARIOS / "fig5_parade.yaml")
        world = make_world(config)
        geom = _evaluate(world, config)[2]
        rows = []
        sigma_grads = kernels._sigma_grads

        def recording(rel, eps, out=None):
            rows.append(rel.shape)
            return sigma_grads(rel, eps, out)

        monkeypatch.setattr(kernels, "_sigma_grads", recording)
        control_all(world, config.gains, config.controller_mode, geom.dist)
        pos = world.uav_pos
        rel = pos[None, :, :] - pos[:, None, :]
        near = world.alive[None, :] & (
            np.sqrt(np.einsum("...k,...k->...", rel, rel)) <= config.gains.r)
        np.fill_diagonal(near, False)
        h_pairs = int((geom.dist <= config.gains.r).sum())
        assert rows == [(int(near.sum()), 3), (h_pairs, 3)]
        assert 0 < h_pairs < geom.dist.size / 5

    def test_crowding_term_never_acts_in_a_run(self, monkeypatch):
        # association caps every load at n_max, so f's crowding penalty of
        # the load past n_max is +0.0 at every control pass: f with the
        # world's loads has the bytes of f with no load, and of the pair
        # loop, which runs the crowding arithmetic whatever the loads
        config = replace(load_scenario(SCENARIOS / "fig5_parade.yaml"),
                         duration=16.0)         # through the failure wave
        seen = []
        f_term = kernels.f_term

        def checking(positions, loads, alive, p, pairs=None):
            got = f_term(positions, loads, alive, p, pairs=pairs)
            idle = f_term(positions, np.zeros_like(loads), alive, p,
                          pairs=pairs)
            assert got.tobytes() == idle.tobytes()
            assert got.tobytes() == oracle_f_term_pair_loop(
                positions, loads, alive, p).tobytes()
            seen.append(int(loads.max()))
            return got

        monkeypatch.setattr(kernels, "f_term", checking)
        run(config)
        assert len(seen) == config.ticks()
        assert max(seen) == config.gains.n_max


class TestRun:
    def test_same_seed_reruns_identical(self, fig3_config, fig3_result):
        again = run(fig3_config, trace=True)
        assert again.metrics == fig3_result.metrics
        assert again.trace and again.trace == run(fig3_config, trace=True).trace
        assert [e.__dict__ for e in again.switch_events] == \
            [e.__dict__ for e in fig3_result.switch_events]

    def test_tick_count_and_times(self, fig3_config, fig3_result):
        dt = fig3_config.gains.dt
        expect = int(round(fig3_config.duration / dt)) + 1
        assert len(fig3_result.metrics) == expect
        assert fig3_result.metrics[0].time == 0.0
        assert fig3_result.metrics[-1].time == pytest.approx(
            fig3_config.duration)

    def test_zero_duration_still_evaluates(self):
        cfg = ScenarioConfig(
            users=[UserSpec(klass="premium", position=(10.0, 0.0))],
            uav_count=1, uav_initial_positions=[(0.0, 0.0)], duration=0.0)
        result = run(cfg)
        assert len(result.metrics) == 1
        assert result.metrics[0].premium_served_pct == 100.0

    def test_min_distance_violations_recorded(self):
        cfg = ScenarioConfig(
            users=[], uav_count=2,
            uav_initial_positions=[(0.0, 0.0), (50.0, 0.0)], duration=0.0)
        result = run(cfg)
        assert result.min_distance_violations
        t, i, j, dist = result.min_distance_violations[0]
        assert (t, i, j) == (0.0, 0, 1) and dist == pytest.approx(50.0)

    def test_min_distance_violations_in_pair_order(self):
        cfg = ScenarioConfig(
            users=[], uav_count=4,
            uav_initial_positions=[(0.0, 0.0), (500.0, 0.0), (60.0, 0.0),
                                   (30.0, 40.0)], duration=0.0)
        result = run(cfg)
        pairs = [(i, j) for _, i, j, _ in result.min_distance_violations]
        assert pairs == [(0, 2), (0, 3), (2, 3)]
        assert result.min_distance_violations[1][3] == 50.0

    @pytest.mark.parametrize("mode", ["qos_driven", "flocking_baseline"])
    def test_each_evaluated_tick_builds_the_cell_pairs_once(
            self, monkeypatch, fig3_config, mode):
        # the spacing log and the control pass share one build, and no
        # other cells x cells distance is made
        calls = []
        build = kernels._cell_pairs

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(kernels, "_cell_pairs", counting)
        monkeypatch.setattr(engine, "_cell_pairs", counting)
        config = replace(fig3_config, duration=1.0, controller_mode=mode)
        run(config)
        assert len(calls) == config.ticks() + 1
        calls.clear()
        step(make_world(config), config)
        assert len(calls) == 1

    def test_bad_mode_rejected(self, fig3_config):
        with pytest.raises(ScenarioError):
            run(replace(fig3_config, controller_mode="hover"))

    def test_user_trace_collection(self, fig3_config):
        cfg = replace(fig3_config, duration=1.0)
        result = run(cfg, trace=True)
        rows = [r for r in result.user_trace if r[0] == 0.0]
        assert len(rows) == 3
        for t, uid, serving, rate, mean in result.user_trace:
            assert serving == -1 or 0 <= serving < cfg.uav_count
            assert rate >= 0.0 and mean >= 0.0


def test_step_matches_run_loop(fig3_config):
    world = make_world(fig3_config)
    rows = []
    for _ in range(11):
        metrics, _ = step(world, fig3_config)
        rows.append(metrics)
    full = run(fig3_config)
    assert rows == full.metrics[:11]


def test_step_fires_failures_like_run():
    cfg = ScenarioConfig(
        users=[UserSpec(klass="premium", region=(0.0, 0.0, 300.0, 200.0),
                        count=12),
               UserSpec(klass="regular", region=(0.0, 0.0, 300.0, 200.0),
                        count=12)],
        uav_count=4, uav_region=(0.0, 0.0, 300.0, 200.0), seed=11,
        duration=1.0, failure_events=[FailureEvent(at_time=0.3,
                                                   fraction=0.5)])
    world = make_world(cfg)
    ticks = int(round(cfg.duration / cfg.gains.dt))
    rows = [step(world, cfg)[0] for _ in range(ticks + 1)]
    full = run(cfg)
    assert full.failures and full.failures[0][0] == pytest.approx(0.3)
    assert rows == full.metrics
    assert world.failures == full.failures


def test_stepped_world_traces_like_run_through_a_failure_wave():
    # the workspace's rows of cells killed by the wave keep old values;
    # every traced value of every tick must still match run()'s, bit for
    # bit, with association spilling (n_max 5) and cells switching channel
    cfg = ScenarioConfig(
        users=[UserSpec(klass="premium", region=(0.0, 0.0, 300.0, 200.0),
                        count=16),
               UserSpec(klass="regular", region=(0.0, 0.0, 300.0, 200.0),
                        count=16)],
        uav_count=5, uav_region=(0.0, 0.0, 300.0, 200.0), seed=11,
        duration=1.5, gains=ControlGains(n_max=5, tau=0.3),
        radio=RadioParams(num_channels=3),
        failure_events=[FailureEvent(at_time=0.5, fraction=0.4)])
    world = make_world(cfg)
    cells, users, switches = [], [], []
    for _ in range(cfg.ticks() + 1):
        t = world.time
        pos, vel = world.uav_pos.copy(), world.uav_vel.copy()
        switches += step(world, cfg)[1]
        # the trace shows the evaluated state: a cell the wave kills stops
        # there, and the integration moves only alive cells
        dead = ~world.alive
        pos[dead], vel[dead] = world.uav_pos[dead], world.uav_vel[dead]
        pos, vel = pos.tolist(), vel[:, :2].tolist()
        loads = np.bincount(world.serving[world.serving >= 0],
                            minlength=len(world.alive)).tolist()
        cells += [(t, n, *p, *v, ch, a, load) for n, (p, v, ch, a, load)
                  in enumerate(zip(pos, vel, world.channel.tolist(),
                                   world.alive.tolist(), loads))]
        users += [(t, m, n, r, user.mean_rate) for m, (user, n, r)
                  in enumerate(zip(world.users, world.serving.tolist(),
                                   world.rate.tolist()))]
    full = run(cfg, trace=True)
    assert world.failures == full.failures and full.failures
    assert repr(cells) == repr(full.trace)
    assert repr(users) == repr(full.user_trace)
    assert switches == full.switch_events


def test_step_logs_spacing_like_run():
    cfg = ScenarioConfig(
        users=[], uav_count=2,
        uav_initial_positions=[(0.0, 0.0), (50.0, 0.0)], duration=0.5)
    world = make_world(cfg)
    for _ in range(int(round(cfg.duration / cfg.gains.dt)) + 1):
        step(world, cfg)
    full = run(cfg)
    assert full.min_distance_violations
    assert world.min_distance_violations == full.min_distance_violations


def _spacing_oracle(world, d):
    """The spacing log's entries for the world's positions: every alive
    pair i < j closer than d, by a nested loop over the geometry's
    arithmetic."""
    pos, alive = world.uav_pos.tolist(), world.alive.tolist()
    out = []
    for i in range(len(pos)):
        for j in range(i + 1, len(pos)):
            if alive[i] and alive[j]:
                dx, dy, dz = (a - b for a, b in zip(pos[i], pos[j]))
                dist = math.sqrt((dx * dx + dy * dy) + dz * dz)
                if dist < d:
                    out.append((world.time, i, j, dist))
    return out


def test_spacing_log_matches_nested_loop():
    # random grid worlds with dead cells, a coincident pair and a pair at
    # exactly d (a 60-80-100 triangle, which neither side logs); three
    # ticks each, so the later ticks log positions off the grid.  repr
    # compares the order, the int ids and every bit of the distances.
    seen = dict(dead=0, coincident=0, at_d=0, logged=0)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        xy = rng.integers(0, 400, (n, 2)).astype(float)
        xy[1] = xy[0]
        xy[2] = xy[0] + (60.0, 80.0)
        cfg = ScenarioConfig(users=[], uav_count=n,
                             uav_initial_positions=xy.tolist(), duration=1.0)
        assert cfg.gains.d == 100.0
        world = make_world(cfg)
        world.alive[:] = rng.random(n) < 0.75
        seen["dead"] += int((~world.alive).sum())
        seen["coincident"] += bool(world.alive[0] & world.alive[1])
        seen["at_d"] += bool(world.alive[0] & world.alive[2])
        for _ in range(3):
            want = _spacing_oracle(world, cfg.gains.d)
            logged = len(world.min_distance_violations)
            step(world, cfg)
            got = world.min_distance_violations[logged:]
            assert repr(got) == repr(want), seed
            seen["logged"] += len(got)
    assert min(seen.values()) > 0, seen


def test_fractional_run_seed_rejected_not_truncated(fig3_config):
    for call in (make_world, run):
        with pytest.raises(ScenarioError, match="run_seed"):
            call(fig3_config, run_seed=2.5)
    assert run(replace(fig3_config, duration=0.0), run_seed=2.0).seed == 2


@pytest.mark.parametrize("run_seed", [-1, 2**63, 2**64])
def test_out_of_range_run_seed_rejected_like_seed(fig3_config, run_seed):
    for call in (make_world, run):
        with pytest.raises(ScenarioError,
                           match="^run_seed must be a non-negative 63-bit"):
            call(fig3_config, run_seed=run_seed)
    assert run(replace(fig3_config, duration=0.0),
               run_seed=2**63 - 1).seed == 2**63 - 1
