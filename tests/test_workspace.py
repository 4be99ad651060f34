"""The tick's workspace and association's fast path.

A world writes its two (cells, users) arrays into one workspace tick after
tick, the power field over the geometry's elevations; a tick over the near
set writes (cells, near) views of their first elements.  These tests hold
the in-place writes to the allocating calls bit for bit, on reused buffers
whose old contents must never show and with radio's temporaries in one
tile or many, a world's narrowed ticks to a fresh world's near columns,
hold the workspace to those two float arrays, and hold
association, which reads the tick's in-range list and skips its greedy
pass when no cell is full, to the one-user-at-a-time greedy oracle, on
worlds small enough to spill and on one of 100 cells and 3,000 users.
"""

import gc
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import oracle_associate
from uavswarm import engine, radio
from uavswarm.engine import (
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
from uavswarm.radio import Geometry, geometry, received_power_field
from worlds import HEIGHT, grid_field, world_of

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
    associate_users(world, gains, *tick_geometry(world, gains.r))
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


@pytest.mark.parametrize("n_max, greedy", [(80, False), (3, True)])
def test_field_sized_association_matches_greedy_oracle(monkeypatch, n_max,
                                                        greedy):
    world = grid_field(n_max)
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


def _buffered_calls_match_allocating_calls(monkeypatch, plos_form, seed,
                                           chunk):
    """Geometry and field into stale buffers, with radio._CHUNK set to
    ``chunk`` when given, against the allocating calls with radio's own
    tiles."""
    rng = np.random.default_rng(seed)
    n_cells, n_users = int(rng.integers(1, 30)), int(rng.integers(1, 400))
    params = RadioParams(plos_form=plos_form)
    wants = []
    for _ in range(3):
        cells, users = _positions(rng, n_cells, n_users)
        want = geometry(cells, users)
        wants.append((cells, users, *want,
                      received_power_field(want, params)))
    if chunk is not None:
        monkeypatch.setattr(radio, "_CHUNK", chunk)
    buffers = Geometry(np.empty((n_cells, n_users)),
                       np.empty((n_cells, n_users)))
    # stale contents in every buffer, then moved positions on each call
    for buf in buffers:
        buf[:] = rng.normal(size=buf.shape)
    for cells, users, dist, elev, field in wants:
        got = geometry(cells, users, out=buffers)
        assert got.dist is buffers.dist and got.elev is buffers.elev
        _same(got.dist, dist)
        _same(got.elev, elev)
        # the field written over the elevations, as update_rates writes it
        assert received_power_field(got, params, out=got.elev) is got.elev
        _same(got.elev, field)


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("seed", range(5))
def test_buffered_geometry_and_field_match_allocating_calls(
        monkeypatch, plos_form, seed):
    _buffered_calls_match_allocating_calls(monkeypatch, plos_form, seed,
                                           None)


# tiles of several rows (37 < users), or pieces of one row (256 < users)
@pytest.mark.parametrize("chunk", [37, 256])
@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("seed", range(5))
def test_buffered_calls_in_many_tiles_match_allocating_calls(
        monkeypatch, plos_form, seed, chunk):
    _buffered_calls_match_allocating_calls(monkeypatch, plos_form, seed,
                                           chunk)


def _starts_buffer(view, buffer):
    """Whether ``view`` is a contiguous view of the start of ``buffer``."""
    return (view.flags.c_contiguous and np.shares_memory(view, buffer)
            and view.__array_interface__["data"][0]
            == buffer.__array_interface__["data"][0])


def test_reused_workspace_matches_fresh_world_after_failures_and_moves(
        monkeypatch):
    # each tick's moves: up to 150 m rebuilds the near set, up to 8 m (11.3
    # m at most in the plane, twice within the skin of 25 m) narrows it,
    # however few links the set leaves out
    monkeypatch.setattr(engine, "_NARROW_LINKS", 0)
    for moves in [(150.0, 150.0, 150.0), (8.0, 150.0, 8.0),
                  (8.0, 8.0, 150.0)]:
        _reused_workspace_matches_fresh_world(moves)


def _reused_workspace_matches_fresh_world(moves):
    rng = np.random.default_rng(7)
    cells, users = _positions(rng, 12, 300)
    placed = [(PREMIUM if k % 3 else REGULAR, x, y)
              for k, (x, y, _) in enumerate(users.tolist())]
    gains = ControlGains(n_max=30)
    world = world_of(cells[:, :2].tolist(), placed, gains=gains)
    params = RadioParams(num_channels=3)
    narrowed = 0
    for move in (None, *moves):
        # a wave kills cells, others move and leave the default channel
        if move:
            world.alive[rng.choice(12, size=2, replace=False)] = False
            world.uav_pos[:, :2] += rng.uniform(-move, move, (12, 2))
            world.channel[:] = rng.integers(0, 3, 12)
        fresh = world_of(world.uav_pos[:, :2].tolist(), placed, gains=gains)
        for name in ("alive", "channel"):
            getattr(fresh, name)[:] = getattr(world, name)
        results = []
        for w in (world, fresh):
            geom, links = tick_geometry(w, gains.r)
            elev = geom.elev.copy()     # update_rates writes over them
            associate_users(w, gains, geom, links)
            powers, chan_power = update_rates(w, params, gains, geom)
            assert powers is geom.elev
            assert _starts_buffer(powers, w.workspace.buffers.elev)
            assert _starts_buffer(geom.dist, w.workspace.buffers.dist)
            results.append((links, w.serving.copy(), w.rate.copy(),
                            geom.dist, elev, powers, chan_power))
        assert fresh.workspace is not world.workspace
        # a world's first tick covers every user, a narrowed one the near
        # columns: the fresh world's, bit for bit
        (links, *users), (want_links, *want_users) = (r[:3] for r in results)
        for got, want in zip(links, want_links, strict=True):
            _same(got, want)
        for got, want in zip(users, want_users, strict=True):
            _same(got, want)
        near = world.workspace.near
        if results[0][3].shape[1] < len(placed):
            narrowed += 1
            assert move == 8.0
        else:
            near = slice(None)
        for got, want in zip(results[0][3:], results[1][3:], strict=True):
            _same(got, np.ascontiguousarray(want[:, near]))
        assert not results[0][5][~world.alive].any()
    assert narrowed == moves.count(8.0)


def _loop_channel_power(world, powers, num_channels):
    """Each channel's power sums as a row loop over the alive cells in id
    order, adding each row into a zeroed one."""
    want = np.zeros((num_channels, powers.shape[1]))
    for n in np.flatnonzero(world.alive).tolist():
        want[world.channel[n]] += powers[n]
    return want


@pytest.mark.parametrize("channels", ["mixed", "all on one", "alive on one",
                                      "none alive"])
def test_channel_power_sums_match_the_row_loop(channels):
    # with every alive cell on one channel the sums are one reduce over the
    # field, dead rows (zeroed) included; otherwise a row loop
    world = grid_field(3)
    if channels == "all on one":
        world.channel[:] = 2
    elif channels == "alive on one":
        world.channel[world.alive] = 1      # dead cells keep other channels
        assert len(set(world.channel.tolist())) == 3
    elif channels == "none alive":
        world.alive[:] = False
    gains, params = ControlGains(), RadioParams(num_channels=3)
    geom, links = tick_geometry(world, gains.r)
    associate_users(world, gains, geom, links)
    powers, chan_power = update_rates(world, params, gains, geom)
    assert (~world.alive).any() and powers[world.alive].all()
    _same(chan_power, _loop_channel_power(world, powers, 3))


# --- allocation ---------------------------------------------------------------

def _field_flock_world():
    """A world of the field_flock shape, 100 cells x 3,000 users in
    flocking mode, after its first tick, and its config."""
    config = generate_scenario(
        3000, 0.2, (0.0, 0.0, 11000.0, 2200.0), (0.0, 0.0, 2200.0, 2200.0),
        100, duration=1.0, seed=0, controller_mode=FLOCKING_MODE)
    world = make_world(config)
    step(world, config)
    return world, config


def _large_arrays(world, nbytes):
    """The arrays of at least ``nbytes`` bytes that the world's state
    reaches, each once."""
    found, seen, todo = [], set(), [world]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.nbytes >= nbytes:
            found.append(obj)
        if isinstance(obj, (dict, list, tuple, set, np.ndarray)) or \
                type(obj).__module__.startswith("uavswarm"):
            todo.extend(gc.get_referents(obj))
    return found


def test_tick_keeps_two_float_field_arrays():
    # after the first tick, which covers every user, and after a tick over
    # the near set, whose arrays are views of the buffers
    world, config = _field_flock_world()
    shape = (100, 3000)
    assert len(world.workspace.near) < shape[1]
    for tick in range(2):
        if tick:
            step(world, config)
        # a bool (cells, users) mask would be the smallest field-sized array
        large = _large_arrays(world, shape[0] * shape[1])
        assert isinstance(world.workspace.buffers, Geometry)
        assert sorted(map(id, large)) == sorted(map(id,
                                                    world.workspace.buffers))
        assert [(a.shape, a.dtype) for a in large] == [(shape, np.float64)] * 2
        assert not np.shares_memory(*world.workspace.buffers)


def test_tick_allocates_at_most_one_field_after_the_first(monkeypatch, cpus):
    field_bytes = 100 * 3000 * np.dtype(float).itemsize
    for n_cpus in (1, 4, 16):
        cpus(n_cpus)
        world, config = _field_flock_world()
        # new pool threads and no kept temporaries, so that the measured
        # tick takes radio's tile temporaries anew
        cpus(n_cpus)
        monkeypatch.setattr(radio, "_temporaries", threading.local())
        tracemalloc.start()
        try:
            _evaluate(world, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # radio's tile temporaries take at most _CHUNK floats (0.22 of a
        # field) however many blocks run at once, and the tick's other
        # arrays under 0.15 of a field: 0.32-0.37 of a field measured in
        # all (numpy 2.4, 1 to 16 CPUs set), under a bound of 0.47
        assert peak <= radio._CHUNK * 8 + 0.25 * field_bytes, n_cpus


def test_run_releases_workspace_and_step_rebuilds_it(fig3_config):
    result = run(fig3_config)
    assert result.world.workspace is None
    step(result.world, fig3_config)
    assert result.world.workspace is not None
