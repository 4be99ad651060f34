"""Cross-check the array controller terms, association and the rate window
against their loop and pair forms.

Random small worlds on an integer grid, so that coincident cells, equal
distances and links at exactly the range r (integer right triangles) occur
and are exact under any summation order.  The worlds also hold dead cells,
cells off the default channel, empty user sets and capacities small enough
to force spills.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    oracle_advance,
    oracle_associate,
    oracle_bump,
    oracle_cell_pairs,
    oracle_clamp_controls,
    oracle_f_term,
    oracle_f_term_pair_loop,
    oracle_flocking_goal_term,
    oracle_g_term,
    oracle_g_term_pair_loop,
    oracle_h_term,
    oracle_h_term_pair_loop,
    oracle_mean_rates,
)
from uavswarm.engine import advance, associate_users, tick_geometry
from uavswarm.kernels import (
    _cell_pairs,
    bump,
    control_input,
    f_term,
    flocking_goal_term,
    g_term,
    h_term,
)
from uavswarm.model import (
    PREMIUM,
    QOS_MODE,
    REGULAR,
    TARGET_RATE,
    ControlGains,
)
from uavswarm.radio import geometry
from worlds import world_of

GAINS = ControlGains()
SEEDS = range(200)

# The array forms sum in another order, so forces agree to rounding only.
# One pair's term is at most 1.5 * c2_reg * a / sqrt(eps) ~ 95 in size at
# the default gains, which sets the absolute floor for sums that cancel.
REL = 1e-12
TERM_BOUND = 100.0

# Cells fly at this height, so the offsets below are exactly r = 300 m.
HEIGHT = 180.0
CELL_AT_RANGE = [(180.0, 240.0, 0.0), (0.0, -300.0, 0.0)]
USER_AT_RANGE = [(240.0, 0.0, -HEIGHT), (-144.0, 192.0, -HEIGHT)]


def _assert_close(got, want, terms):
    np.testing.assert_allclose(got, want, rtol=REL,
                               atol=REL * TERM_BOUND * max(terms, 1))


def _cells(rng, n):
    positions = np.column_stack([
        rng.integers(0, 600, n), rng.integers(0, 600, n),
        np.full(n, HEIGHT)]).astype(float)
    if n >= 2:
        positions[1] = positions[0]                         # coincident
    for k, offset in enumerate(CELL_AT_RANGE, start=2):
        if n > k:
            positions[k] = positions[0] + offset            # exactly at r
    alive = rng.random(n) < 0.75
    loads = rng.integers(0, 2 * GAINS.n_max, n)
    velocities = rng.normal(scale=8.0, size=(n, 3))
    velocities[:, 2] = 0.0
    return positions, alive, loads, velocities


def _users(rng, n, uav_pos):
    """Users around one cell, as (served, positions, rates, targets,
    premium); ``served`` marks the users _serving gives a cell."""
    user_pos = np.column_stack([
        uav_pos[0] + rng.integers(-400, 400, n),
        uav_pos[1] + rng.integers(-400, 400, n), np.zeros(n)])
    for k, offset in enumerate(USER_AT_RANGE):
        if n > k:
            user_pos[k] = uav_pos + offset
    premium = rng.random(n) < 0.4
    targets = np.where(premium, TARGET_RATE[PREMIUM], TARGET_RATE[REGULAR])
    rates = targets * rng.choice([0.0, 0.5, 1.0, GAINS.beta, 2.0], n) * \
        rng.choice([1.0, rng.uniform(0.5, 1.5)], n)
    served = rng.random(n) < 0.5
    return served, user_pos, rates, targets, premium


def _serving(rng, positions, user_pos, served):
    """Serving ids as association leaves them: each ``served`` user takes a
    random cell within r of it by the geometry's distances, and a user with
    no cell in range, or not ``served``, is unserved (-1)."""
    in_range = geometry(positions, user_pos).dist <= GAINS.r
    draw = np.where(in_range, rng.random(in_range.shape), -1.0)
    return np.where(served & in_range.any(axis=0), draw.argmax(axis=0), -1)


def _connected(serving, n_cells):
    """The (cells, users) matrix of the dense oracle, from serving ids."""
    return serving[None, :] == np.arange(n_cells)[:, None]


@pytest.mark.parametrize("seed", SEEDS)
def test_spacing_and_consensus_match_loops(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    positions, alive, loads, velocities = _cells(rng, n)
    f = f_term(positions, loads, alive, GAINS)
    g = g_term(positions, velocities, alive, GAINS)
    assert f.shape == g.shape == (n, 3)
    for i in range(n):
        _assert_close(f[i], oracle_f_term(i, positions, loads, alive, GAINS), n)
        _assert_close(g[i],
                      oracle_g_term(i, positions, velocities, alive, GAINS), n)


def test_coincident_cells_count_in_consensus_only():
    positions = np.array([[0.0, 0.0, HEIGHT], [0.0, 0.0, HEIGHT]])
    velocities = np.array([[0.0, 0.0, 0.0], [3.0, -1.0, 0.0]])
    alive = np.array([True, True])
    loads = np.array([GAINS.n_max * 2, 0])
    assert np.array_equal(f_term(positions, loads, alive, GAINS)[0],
                          np.zeros(3))
    assert np.array_equal(g_term(positions, velocities, alive, GAINS)[0],
                          velocities[1])


# cells on a 60 m grid at mixed heights, where pairs at exactly r = 300 m
# occur level (180-240-300) and across heights (dz = 180, 240 m
# horizontally), or anywhere in a 2 km square
CELL = st.one_of(
    st.tuples(*[st.integers(0, 10).map(lambda k: 60.0 * k)] * 2,
              st.sampled_from([100.0, 160.0, 280.0, 340.0])),
    st.tuples(*[st.floats(-1000.0, 1000.0)] * 2, st.floats(50.0, 400.0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(CELL, st.booleans()), min_size=1, max_size=14))
@example([((0.0, 0.0, 100.0), True), ((240.0, 0.0, 280.0), True),
          ((180.0, 240.0, 100.0), True), ((180.0, 240.0, 100.0), False)])
def test_cell_pairs_match_the_dense_build(cells):
    positions = np.array([xyz for xyz, _ in cells])
    alive = np.array([a for _, a in cells])
    got = _cell_pairs(positions, alive, GAINS)
    for g, w in zip(got, oracle_cell_pairs(positions, alive, GAINS),
                    strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_cell_pairs_at_exactly_r_are_in_range():
    # level and across heights, from either end
    positions = np.array([(0.0, 0.0, 100.0), (240.0, 0.0, 280.0),
                          (180.0, 240.0, 100.0)])
    i, j, _, dist, sig, window = _cell_pairs(positions, np.ones(3, bool),
                                             GAINS)
    assert sorted(zip(i.tolist(), j.tolist())) == [
        (0, 1), (0, 2), (1, 0), (2, 0)]
    assert (dist == GAINS.r).all()
    # the support of the pair potential and the consensus ends at r
    assert (sig == GAINS.r_sig).all() and (window == 0.0).all()


@pytest.mark.parametrize("gamma", [0.0, 0.2, 1.0, 1.5])
def test_bump_keeps_the_mask_form_bits(gamma):
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, -0.0, gamma, math.nextafter(gamma, -math.inf),
             math.nextafter(gamma, math.inf), 1.0, math.nextafter(1.0, 0.0),
             -0.5, -1e300, math.inf, -math.inf, math.nan, tiny, -tiny,
             2.2250738585072014e-308 / 3, 0.5, 1.2, 7.3]
    z = np.array(edges + np.linspace(-0.5, 1.7, 97).tolist())
    got, want = bump(z, gamma), oracle_bump(z, gamma)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    square = z[:110].reshape(10, 11)
    assert bump(square, gamma).tobytes() == oracle_bump(square, gamma).tobytes()
    for x in edges:
        for arg in (x, np.float64(x), np.array(x)):
            b = bump(arg, gamma)
            assert type(b) is float
            assert np.float64(b).tobytes() == np.float64(
                oracle_bump(arg, gamma)).tobytes(), (x, arg)


def test_cell_pairs_built_inside_or_passed_in_give_the_same_bytes():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        positions, alive, loads, velocities = _cells(
            rng, int(rng.integers(1, 12)))
        pairs = _cell_pairs(positions, alive, GAINS)
        for loads_now in (loads, np.minimum(loads, GAINS.n_max)):
            assert f_term(positions, loads_now, alive, GAINS,
                          pairs=pairs).tobytes() == f_term(
                positions, loads_now, alive, GAINS).tobytes(), seed
        assert g_term(positions, velocities, alive, GAINS,
                      pairs=pairs).tobytes() == g_term(
            positions, velocities, alive, GAINS).tobytes(), seed


def test_spacing_and_consensus_keep_dense_form_bits():
    # every pair's weight and vector in the dense form, summed by a pair
    # loop in list order.  Each world gets one more cell far from the rest,
    # so some cell has no neighbor; across the worlds, dead cells,
    # coincident alive pairs and alive pairs at exactly r must all occur
    seen = dict(dead=0, coincident=0, at_range=0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        positions, alive, loads, velocities = _cells(
            rng, int(rng.integers(1, 12)))
        positions = np.vstack([positions, (5000.0, 5000.0, HEIGHT)])
        alive = np.append(alive, True)
        loads = np.append(loads, GAINS.n_max)
        velocities = np.vstack([velocities, (2.0, -1.0, 0.0)])
        f = f_term(positions, loads, alive, GAINS)
        g = g_term(positions, velocities, alive, GAINS)
        assert f.tobytes() == oracle_f_term_pair_loop(
            positions, loads, alive, GAINS).tobytes(), seed
        # loads within capacity skip the crowding arithmetic, whose
        # penalty is then +0.0
        capped = np.minimum(loads, GAINS.n_max)
        assert f_term(positions, capped, alive, GAINS).tobytes() == \
            oracle_f_term_pair_loop(positions, capped, alive, GAINS).tobytes()
        assert g.tobytes() == oracle_g_term_pair_loop(
            positions, velocities, alive, GAINS).tobytes(), seed
        assert not f[-1].any() and not g[-1].any()
        dist = np.linalg.norm(positions[:, None] - positions[None], axis=2)
        pair = alive[:, None] & alive[None, :]
        np.fill_diagonal(pair, False)
        seen["dead"] += (~alive).sum()
        seen["coincident"] += (pair & (dist == 0.0)).sum()
        seen["at_range"] += (pair & (dist == GAINS.r)).sum()
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("seed", SEEDS)
def test_user_coupling_matches_loop(seed):
    rng = np.random.default_rng(seed)
    uav_pos = np.array([rng.integers(0, 600), rng.integers(0, 600), HEIGHT],
                       dtype=float)
    n = int(rng.integers(0, 30))
    served, user_pos, *rest = _users(rng, n, uav_pos)
    # more cells over the same users, each serving some of those in range
    others, _, _, _ = _cells(rng, int(rng.integers(0, 4)))
    positions = np.vstack([uav_pos, others])
    serving = _serving(rng, positions, user_pos, served)
    h = h_term(positions, serving, user_pos,
               geometry(positions, user_pos).dist, *rest, GAINS)
    assert h.shape == positions.shape
    for i, cell in enumerate(positions):
        _assert_close(h[i], oracle_h_term(cell, serving == i, user_pos, *rest,
                                          GAINS), n)


@pytest.mark.parametrize("seed", range(50))
def test_user_coupling_keeps_allocating_form_bits(seed):
    # every pair's weight and gradient in the dense form, summed by a pair
    # loop in list order, on the random world, then the same world with a
    # cell far from every user (a row with no pair), a huddle where every
    # user is within r of every cell, no users, and one cell
    rng = np.random.default_rng(seed)
    positions, _, _, _ = _cells(rng, int(rng.integers(1, 6)))
    n = int(rng.integers(0, 60))
    served, user_pos, *rest = _users(rng, n, positions[0])
    serving = _serving(rng, positions, user_pos, served)
    lone = np.vstack([positions, positions[0] + (1e4, 0.0, 0.0)])
    huddle = positions[0] + rng.integers(-40, 40, positions.shape) * (1, 1, 0)
    near = np.column_stack([huddle[0, :2] + rng.integers(-100, 100, (n, 2)),
                            np.zeros(n)])
    worlds = [(positions, user_pos, rest, serving),
              (lone, user_pos, rest, serving),
              (huddle, near, rest, _serving(rng, huddle, near, served)),
              (positions, user_pos[:0], [a[:0] for a in rest], serving[:0]),
              (positions[:1], user_pos, rest,
               _serving(rng, positions[:1], user_pos, served))]
    for cells, users, tail, ids in worlds:
        dist = geometry(cells, users).dist
        got = h_term(cells, ids, users, dist, *tail, GAINS)
        want = oracle_h_term_pair_loop(cells, _connected(ids, len(cells)),
                                       users, dist, *tail, GAINS)
        assert got.tobytes() == want.tobytes()
    assert not (geometry(lone, user_pos).dist[-1] <= GAINS.r).any()
    assert (geometry(huddle, near).dist <= GAINS.r).all()


def test_rows_of_negative_zero_products_read_positive_zero():
    # a row whose products in a component are all -0.0 sums to +0.0, as a
    # loop from +0.0 does; a sum that starts from the row's first product
    # would keep -0.0
    positions = np.array([[0.0, 0.0, HEIGHT], [50.0, 0.0, HEIGHT]])
    alive = np.ones(2, bool)
    # f: level cells closer than d repel along x, so their y and z
    # products are a negative weight times +0.0
    f = f_term(positions, np.zeros(2), alive, GAINS)
    assert f[0, 0] < 0.0 < f[1, 0]
    # g: a neighbor at -0.0 m/s seen from a cell at +0.0 m/s
    velocities = np.array([[0.0, 0.0, 0.0], [-0.0, -0.0, 0.0]])
    g = g_term(positions, velocities, alive, GAINS)
    # h: an unserved user at its target pushes with weight -0.0, here from
    # exactly r along x
    cell, user = positions[:1], positions[:1] + USER_AT_RANGE[0]
    target = np.array([TARGET_RATE[REGULAR]])
    dist = geometry(cell, user).dist
    h = h_term(cell, np.array([-1]), user, dist, target, target,
               np.array([False]), GAINS)
    assert f[:, 1:].tobytes() == np.zeros((2, 2)).tobytes()
    assert g.tobytes() == np.zeros((2, 3)).tobytes()
    assert h[:, :2].tobytes() == np.zeros((1, 2)).tobytes()
    assert f.tobytes() == oracle_f_term_pair_loop(positions, np.zeros(2),
                                                  alive, GAINS).tobytes()
    assert g.tobytes() == oracle_g_term_pair_loop(positions, velocities,
                                                  alive, GAINS).tobytes()
    assert h.tobytes() == oracle_h_term_pair_loop(
        cell, np.array([[False]]), user, dist, target, target,
        np.array([False]), GAINS).tobytes()


def test_user_coupling_counts_unconnected_user_at_exact_range():
    uav_pos = np.array([0.0, 0.0, HEIGHT])
    user_pos = np.array([uav_pos + USER_AT_RANGE[0]])
    rest = (np.array([0.0]), np.array([TARGET_RATE[REGULAR]]),
            np.array([False]))
    got = h_term(uav_pos[None], np.array([-1]), user_pos,
                 geometry(uav_pos, user_pos).dist, *rest, GAINS)[0]
    assert got[0] < 0.0
    _assert_close(got, oracle_h_term(uav_pos, np.array([False]), user_pos,
                                     *rest, GAINS), 1)


def test_user_coupling_range_is_the_geometry_distance():
    # the geometry puts this user at exactly r, where association finds it
    # in range, while the sum of squares in another order lands one ulp
    # past r: h must push, as association's range test says
    uav_pos = np.array([[0.0, 0.0, 100.0]])
    user_pos = np.array([[-165.5897606807269, -229.3033605460234, 0.0]])
    dist = geometry(uav_pos, user_pos).dist
    rel = user_pos - uav_pos
    assert dist[0, 0] == GAINS.r
    assert np.sqrt(np.einsum("ik,ik->i", rel, rel))[0] == math.nextafter(
        GAINS.r, math.inf)
    got = h_term(uav_pos, np.array([-1]), user_pos, dist,
                 np.array([0.0]), np.array([TARGET_RATE[PREMIUM]]),
                 np.array([True]), GAINS)[0]
    assert (got[:2] > 0.0).all()        # away from the user


@pytest.mark.parametrize("seed", range(50))
def test_flocking_goal_matches_loop(seed):
    rng = np.random.default_rng(seed)
    positions, _, _, _ = _cells(rng, int(rng.integers(1, 9)))
    n = int(rng.integers(0, 30))
    _, user_pos, _, _, _ = _users(rng, n, positions[0])
    goal = flocking_goal_term(positions, user_pos, GAINS)
    assert goal.shape == positions.shape
    for i, cell in enumerate(positions):
        _assert_close(goal[i], oracle_flocking_goal_term(cell, user_pos, GAINS),
                      1)


def _assoc_world(rng):
    n_cells = int(rng.integers(0, 7))
    n_users = int(rng.integers(0, 40))
    positions, alive, _, _ = _cells(rng, n_cells)
    channels = [int(rng.choice([0, 0, 2])) for _ in range(n_cells)]
    anchor = positions[0] if n_cells else np.array([0.0, 0.0, HEIGHT])
    _, user_pos, _, _, premium = _users(rng, n_users, anchor)
    gains = ControlGains(n_max=int(rng.integers(1, 5)))
    world = world_of(positions[:, :2].tolist(),
                     [(PREMIUM if p else REGULAR, x, y)
                      for p, (x, y, _) in zip(premium, user_pos.tolist())],
                     channels=channels, H=HEIGHT, gains=gains)
    world.alive[:] = alive
    return world, gains


def _spilled(world, serving, gains):
    """Users served by a cell other than their nearest eligible one."""
    count = 0
    for m, n in enumerate(serving):
        if n < 0:
            continue
        dists = np.linalg.norm(world.uav_pos - world.user_pos[m], axis=1)
        eligible = world.alive & (dists <= gains.r) & (
            world.premium[m] | (world.channel == 0))
        count += dists[n] > dists[eligible].min()
    return count


def test_association_matches_greedy_loop():
    spills = 0
    for seed in range(400):
        world, gains = _assoc_world(np.random.default_rng(seed))
        want_serving = oracle_associate(world, gains)
        associate_users(world, gains, *tick_geometry(world, gains.r))
        assert world.serving.tolist() == want_serving, seed
        spills += _spilled(world, want_serving, gains)
    # the worlds must reach the spill path, not only the nearest-cell one
    assert spills > 50


# (dt, tau) pairs where tick * dt rounds on either side of the window edge,
# so the window holds round(tau / dt) entries on some ticks and one more on
# others; (0.1, 5.0) is the shipped scenarios' setting.
RATE_WINDOWS = [(0.1, 5.0), (0.1, 0.3), (0.3, 0.9), (0.7, 2.1), (1 / 3, 1.0),
                (0.05, 0.15)]


@pytest.mark.parametrize("dt, tau", RATE_WINDOWS)
def test_rate_window_mean_matches_pair_form_bits(dt, tau):
    rng = np.random.default_rng(int(tau * 1000))
    ticks = 400
    times = [k * dt for k in range(ticks)]
    # magnitudes far apart and shared zeros, so any change in which entries
    # are summed, or in what order, shows in the bits
    rates = (rng.choice([0.0, 1.0, 1e-3, 1e8], ticks) *
             rng.uniform(0.5, 3.0, ticks)).tolist()
    want = oracle_mean_rates(times, rates, tau)
    user = world_of([], [(PREMIUM, 0.0, 0.0)]).users[0]
    lengths = set()
    for k, (time, rate) in enumerate(zip(times, rates)):
        user.record_rate(time, rate, tau)
        assert user.mean_rate == want[k], k
        assert len(user.rate_times) == len(user.rate_window), k
        lengths.add(len(user.rate_window))
    assert {round(tau / dt), round(tau / dt) + 1} <= lengths


@pytest.mark.parametrize("seed", range(20))
def test_advance_matches_per_cell_loop_bits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    world = world_of([(0.0, 0.0)] * n, [], H=HEIGHT)
    world.uav_pos[:] = rng.uniform(-2e3, 2e3, (n, 3))
    # most rows end above v_max, so the clamp and its speed decide the bits
    world.uav_vel[:] = rng.normal(scale=2 * GAINS.v_max, size=(n, 3))
    world.alive[:] = rng.random(n) < 0.8
    controls = rng.normal(scale=4 * GAINS.u_max, size=(n, 3))
    before = world.uav_pos.copy(), world.uav_vel.copy()
    want = oracle_advance(*before, world.alive, controls, GAINS, HEIGHT)
    advance(world, controls, GAINS, HEIGHT)
    assert world.uav_pos.tobytes() == want[0].tobytes()
    assert world.uav_vel.tobytes() == want[1].tobytes()
    dead = ~world.alive
    assert world.uav_pos[dead].tobytes() == before[0][dead].tobytes()
    assert world.uav_vel[dead].tobytes() == before[1][dead].tobytes()
    speeds = np.linalg.norm(world.uav_vel[world.alive], axis=1)
    assert (speeds > GAINS.v_max * (1 - 1e-12)).mean() > 0.5


@pytest.mark.parametrize("dead", [0, 3, 8])
@pytest.mark.parametrize("scale", [0.0, 0.1, 10.0])
def test_advance_with_masks_that_select_nothing_matches_loop_bits(dead,
                                                                  scale):
    # every cell alive (whole arrays), some dead or all dead, against rows
    # at rest, all under v_max or all over it but cell 7, which stays at
    # rest: a speed of 0 must not be divided by
    rng = np.random.default_rng(dead)
    world = world_of([(0.0, 0.0)] * 8, [], H=HEIGHT)
    world.uav_pos[:] = rng.uniform(-2e3, 2e3, (8, 3))
    world.uav_vel[:] = rng.normal(scale=scale * GAINS.v_max, size=(8, 3))
    world.alive[:dead] = False
    controls = rng.normal(scale=scale * GAINS.u_max, size=(8, 3))
    world.uav_vel[7] = controls[7] = 0.0
    before = world.uav_pos.copy(), world.uav_vel.copy()
    want = oracle_advance(*before, world.alive, controls, GAINS, HEIGHT)
    advance(world, controls, GAINS, HEIGHT)
    assert world.uav_pos.tobytes() == want[0].tobytes()
    assert world.uav_vel.tobytes() == want[1].tobytes()
    if dead < 8:
        speeds = np.linalg.norm(world.uav_vel[world.alive], axis=1)
        assert speeds[-1] == 0.0
        assert (speeds[:-1] > GAINS.v_max * (1 - 1e-12)).all() == (scale > 1)
        assert (speeds[:-1] < GAINS.v_max).all() == (scale < 1)


@pytest.mark.parametrize("dead", [0, 2, 6])
@pytest.mark.parametrize("u_max", [1e-3, 1.0, 1e9])
def test_control_clamp_matches_mask_form_bits(dead, u_max):
    # every cell alive, some dead or all dead, against every row, some
    # rows or no row over u_max; cell 5, far from every cell and user, has
    # a zero row, which must not be divided by
    rng = np.random.default_rng(dead)
    positions, _, loads, velocities = _cells(rng, 6)
    positions[5] += (1e5, 0.0, 0.0)
    alive = np.arange(6) >= dead
    served, user_pos, *rest = _users(rng, 40, positions[0])
    serving = _serving(rng, positions, user_pos, served)
    dist = geometry(positions, user_pos).dist
    gains = ControlGains(u_max=u_max)
    pairs = _cell_pairs(positions, alive, gains)
    summed = f_term(positions, loads, alive, gains, pairs=pairs) + \
        g_term(positions, velocities, alive, gains, pairs=pairs) + \
        h_term(positions, serving, user_pos, dist, *rest, gains)
    got = control_input(positions, velocities, loads, alive, serving,
                        user_pos, dist, *rest, gains, QOS_MODE, pairs=pairs)
    assert got.tobytes() == oracle_clamp_controls(summed, alive,
                                                  u_max).tobytes()
    norms = np.linalg.norm(summed[:, :2], axis=1)
    assert norms[5] == 0.0 and norms[:5].min() > 1e-3
    assert (norms[:5].max() > u_max) == (u_max < 1e9)
