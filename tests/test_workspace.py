"""The tick's workspace and association's fast path.

A world writes its (cells, users) arrays into one workspace tick after
tick, the power field over the geometry's elevations.  These tests hold
the in-place writes to the allocating calls bit for bit, on reused buffers
whose old contents must never show, and hold association, which reads the
tick's in-range list and skips its greedy pass when no cell is full, to
the one-user-at-a-time greedy oracle, on worlds small enough to spill and
on one of 100 cells and 3,000 users.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import oracle_associate
from uavswarm.engine import (
    Workspace,
    _evaluate,
    associate_users,
    make_world,
    run,
    step,
    tick_geometry,
    update_rates,
)
from uavswarm.harness import generate_scenario
from uavswarm.model import (
    FLOCKING_MODE,
    PLOS_FORMS,
    PREMIUM,
    REGULAR,
    ControlGains,
    RadioParams,
)
from uavswarm.radio import geometry, received_power_field
from worlds import world_of

HEIGHT = 180.0
# a 60 m grid: equal distances, coincident cells and users at exactly
# r = 300 m (a 180-240-300 triangle) all occur
GRID = st.integers(0, 10).map(lambda k: 60.0 * k)


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- association ------------------------------------------------------------

@st.composite
def assoc_worlds(draw):
    n_cells = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(GRID, GRID), min_size=n_cells,
                          max_size=n_cells))
    channels = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=n_cells,
                             max_size=n_cells))
    users = draw(st.lists(st.tuples(st.sampled_from([PREMIUM, REGULAR]),
                                    GRID, GRID), max_size=30))
    # a regular user right under each off-default cell, which it must skip
    users += [(REGULAR, x, y) for (x, y), ch in zip(cells, channels) if ch]
    gains = ControlGains(n_max=draw(st.integers(1, 3)))
    world = world_of(cells, users, channels=channels, H=HEIGHT, gains=gains)
    world.alive[:] = draw(st.lists(st.booleans(), min_size=n_cells,
                                   max_size=n_cells))
    return world, gains


def _associate(world, gains):
    """Associate ``world`` and return its serving ids, after checking them
    against the oracle."""
    want = oracle_associate(world, gains)
    associate_users(world, gains, tick_geometry(world))
    assert world.serving.tolist() == want
    return world.serving.tolist()


@settings(max_examples=300, deadline=None)
@given(assoc_worlds())
def test_association_matches_greedy_oracle(case):
    _associate(*case)


def _count_greedy_passes(monkeypatch):
    """Count association's greedy passes: only they sort users by distance."""
    passes = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: passes.append(1) or lexsort(keys))
    return passes


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_nearest_cell_exactly_full_takes_fast_path(monkeypatch, n_max):
    # n_max users nearest cell 0, one nearest cell 1
    users = [(PREMIUM, 10.0 * (k + 1), 0.0) for k in range(n_max)]
    gains = ControlGains(n_max=n_max)
    world = world_of([(0.0, 0.0), (200.0, 0.0)],
                     users + [(PREMIUM, 190.0, 0.0)], gains=gains)
    passes = _count_greedy_passes(monkeypatch)
    assert _associate(world, gains) == [0] * n_max + [1]
    assert passes == []


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_nearest_cell_one_over_runs_greedy_pass(monkeypatch, n_max):
    # n_max + 1 users nearest cell 0; the last two tie in distance, and the
    # higher id of them spills to cell 1
    users = [(PREMIUM, 10.0 * (k + 1), 0.0) for k in range(n_max)]
    users.append((PREMIUM, 10.0 * n_max, 0.0))
    gains = ControlGains(n_max=n_max)
    world = world_of([(0.0, 0.0), (200.0, 0.0)], users, gains=gains)
    passes = _count_greedy_passes(monkeypatch)
    assert _associate(world, gains) == [0] * n_max + [1]
    assert passes == [1]


def _grid_field(seed):
    """100 cells and 3,000 users on a 60 m grid over 11 x 2.2 km, 15 cells
    dead and about a fifth off the default channel: equal distances,
    coincident users and users at exactly r all occur."""
    rng = np.random.default_rng(seed)
    cells = 60.0 * rng.integers((0, 0), (184, 37), (100, 2))
    users = 60.0 * rng.integers((0, 0), (184, 37), (3000, 2))
    klass = np.where(rng.random(3000) < 0.2, PREMIUM, REGULAR)
    world = world_of(cells.tolist(),
                     list(zip(klass.tolist(), *users.T.tolist())),
                     channels=rng.choice([0, 0, 0, 0, 1, 2], 100), H=HEIGHT)
    world.alive[rng.choice(100, size=15, replace=False)] = False
    return world


@pytest.mark.parametrize("n_max, greedy", [(80, False), (3, True)])
def test_field_sized_association_matches_greedy_oracle(monkeypatch, n_max,
                                                        greedy):
    world = _grid_field(n_max)
    gains = ControlGains(n_max=n_max)
    passes = _count_greedy_passes(monkeypatch)
    serving = _associate(world, gains)
    assert passes == ([1] if greedy else [])
    assert np.count_nonzero(np.array(serving) >= 0) > 200


# --- buffers ----------------------------------------------------------------

def _positions(rng, n_cells, n_users):
    cells = rng.uniform(-800.0, 800.0, (n_cells, 3))
    cells[:, 2] = rng.uniform(50.0, 300.0, n_cells)
    users = rng.uniform(-800.0, 800.0, (n_users, 3))
    users[:, 2] = 0.0
    return cells, users


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("seed", range(5))
def test_buffered_geometry_and_field_match_allocating_calls(plos_form, seed):
    rng = np.random.default_rng(seed)
    n_cells, n_users = int(rng.integers(1, 30)), int(rng.integers(1, 400))
    params = RadioParams(plos_form=plos_form)
    ws = Workspace(n_cells, n_users)
    # stale contents in every buffer, then moved positions on each call
    for buf in (*ws.geom, ws.scratch):
        buf[:] = rng.normal(size=buf.shape)
    for _ in range(3):
        cells, users = _positions(rng, n_cells, n_users)
        want = geometry(cells, users)
        got = geometry(cells, users, out=ws.geom, scratch=ws.scratch)
        assert got.dist is ws.geom.dist and got.elev is ws.geom.elev
        _same(got.dist, want.dist)
        _same(got.elev, want.elev)
        # the field written over the elevations, as update_rates writes it
        field = received_power_field(got, params, out=got.elev,
                                     scratch=ws.scratch)
        assert field is ws.geom.elev
        _same(field, received_power_field(want, params))


def test_reused_workspace_matches_fresh_world_after_failures_and_moves():
    rng = np.random.default_rng(7)
    cells, users = _positions(rng, 12, 300)
    placed = [(PREMIUM if k % 3 else REGULAR, x, y)
              for k, (x, y, _) in enumerate(users.tolist())]
    gains = ControlGains(n_max=30)
    world = world_of(cells[:, :2].tolist(), placed, gains=gains)
    radio = RadioParams(num_channels=3)
    for tick in range(4):
        # a wave kills cells, others move and leave the default channel
        if tick:
            world.alive[rng.choice(12, size=2, replace=False)] = False
            world.uav_pos[:, :2] += rng.uniform(-150.0, 150.0, (12, 2))
            world.channel[:] = rng.integers(0, 3, 12)
        fresh = world_of(world.uav_pos[:, :2].tolist(), placed, gains=gains)
        for name in ("alive", "channel"):
            getattr(fresh, name)[:] = getattr(world, name)
        results = []
        for w in (world, fresh):
            geom = tick_geometry(w)
            elev = geom.elev.copy()     # update_rates writes over them
            associate_users(w, gains, geom)
            powers, chan_power = update_rates(w, radio, gains, geom)
            assert powers is w.workspace.geom.elev
            results.append((geom.dist, elev, w.serving.copy(),
                            w.rate.copy(), powers, chan_power))
        assert fresh.workspace is not world.workspace
        for got, want in zip(*results):
            _same(got, want)
        assert not results[0][4][~world.alive].any()


# --- allocation ---------------------------------------------------------------

def test_tick_allocates_at_most_one_field_after_the_first():
    # the field_flock shape: 100 cells x 3,000 users, flocking mode
    config = generate_scenario(
        3000, 0.2, (0.0, 0.0, 11000.0, 2200.0), (0.0, 0.0, 2200.0, 2200.0),
        100, duration=1.0, seed=0, controller_mode=FLOCKING_MODE)
    world = make_world(config)
    step(world, config)
    field_bytes = 100 * 3000 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        _evaluate(world, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * field_bytes


def test_run_releases_workspace_and_step_rebuilds_it(fig3_config):
    result = run(fig3_config)
    assert result.world.workspace is None
    step(result.world, fig3_config)
    assert result.world.workspace is not None
