"""radio's geometry, in-range list and power field against whole-array
references that share no code with it (radio_oracle).

The split and tile tests hold radio to itself, so a change in the order of
a sum that moves every path alike passes them.  Here each element must
come out with the bits of dist = sqrt(dz*dz + (dx*dx + dy*dy)), elev =
arctan2(dz, sqrt(dx*dx + dy*dy)) and the closed-form field over whole
arrays: on one user, on fields just under and over radio._CHUNK and
radio._SPLIT_LINKS on one CPU and on two, on users all at one height
(radio takes dz as one column per cell row), with a cell at the users'
height, a NaN cell height, and the users' positions in any memory layout.
Users at several heights, a NaN one included, radio rejects before any
block runs.
"""

import numpy as np
import pytest

from radio_oracle import (
    oracle_geometry,
    oracle_in_range,
    oracle_power_field,
)
from uavswarm import radio
from uavswarm.engine import tick_geometry
from uavswarm.model import PLOS_FORMS, RadioParams
from worlds import world_of

R = 300.0
CHUNK, SPLIT = radio._CHUNK, radio._SPLIT_LINKS

# (cells, users): one link, one user, fields one row under and over
# _CHUNK (one tile and several), and under and over _SPLIT_LINKS
SHAPES = [(1, 1), (7, 1), (16, CHUNK // 16 - 1), (16, CHUNK // 16 + 1),
          (20, SPLIT // 20 - 1), (20, SPLIT // 20 + 1)]

# the users' heights: all at the ground, all at one height above it, and
# spread over 0-10 m, which radio rejects
HEIGHTS = ["ground", "level", "varied"]


def _positions(seed, n_cells, n_users, heights):
    rng = np.random.default_rng(seed)
    cells = rng.uniform([-700, -700, 60], [700, 700, 300], (n_cells, 3))
    users = np.empty((n_users, 3))
    users[:, :2] = rng.uniform(-900, 900, (n_users, 2))
    if heights == "varied":
        users[:, 2] = rng.uniform(0, 10, n_users)
    else:
        users[:, 2] = 0.0 if heights == "ground" else 7.5
    return cells, users


def _layouts(users):
    """The same positions as a C-ordered array, as the transpose of
    contiguous x, y and z rows (the engine's near set), and as a strided
    view."""
    spread = np.zeros((2 * len(users), 3))
    spread[::2] = users
    return {"rows": users, "columns": users.T.copy().T,
            "strided": spread[::2]}


def _same(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _check(cells, users, params=RadioParams()):
    if not (users[:, 2] == users[0, 2]).all():
        for layout in _layouts(users).values():
            with pytest.raises(ValueError, match="one height"):
                radio.geometry(cells, layout)
            with pytest.raises(ValueError, match="one height"):
                radio.geometry_in_range(cells, layout, R)
        return
    dist, elev = oracle_geometry(cells, users)
    want_field = oracle_power_field(
        dist, elev, f_c=params.f_c, delta=params.delta,
        eta_los=params.eta_los, eta_nlos=params.eta_nlos,
        theta_env=params.theta_env, xi_env=params.xi_env, p_t=params.p_t,
        form=params.plos_form)
    for layout in _layouts(users).values():
        geom = radio.geometry(cells, layout)
        _same(geom.dist, dist)
        _same(geom.elev, elev)
        geom, links = radio.geometry_in_range(cells, layout, R)
        _same(geom.dist, dist)
        _same(geom.elev, elev)
        for got, want in zip(links, oracle_in_range(dist, R), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        _same(radio.received_power_field(geom, params, out=geom.elev),
              want_field)


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("heights", HEIGHTS)
@pytest.mark.parametrize("n_cells, n_users", SHAPES)
def test_field_matches_whole_array_oracle(cpus, n_cells, n_users, heights,
                                          n_cpus):
    cpus(n_cpus)
    cells, users = _positions(n_cells * n_users, n_cells, n_users, heights)
    _check(cells, users)
    assert (radio._pool is not None) == (
        n_cpus > 1 and n_cells * n_users >= SPLIT and heights != "varied")


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("heights", ["level", "varied"])
def test_cell_at_the_users_height(cpus, heights, plos_form):
    # dz = 0 on a row: elevation 0, distance the horizontal one
    cpus(2)
    cells, users = _positions(11, 21, 5003, heights)
    cells[3, 2] = users[0, 2]
    dist, elev = oracle_geometry(cells, users)
    assert (elev[3] == 0.0).any()
    _check(cells, users, RadioParams(plos_form=plos_form))


def test_tick_geometry_rejects_users_at_several_heights():
    world = world_of([(0.0, 0.0)], [("premium", 10.0, 0.0)] * 3)
    world.user_pos[1, 2] = 1.5
    with pytest.raises(ValueError, match="one height"):
        tick_geometry(world, R)


@pytest.mark.parametrize("where", ["user", "cell"])
def test_nan_height(cpus, where):
    # a NaN user height is not the others' height, so radio rejects it;
    # a NaN cell height gives a NaN row
    cpus(2)
    cells, users = _positions(12, 21, 5003, "ground")
    if where == "user":
        users[17, 2] = np.nan
    else:
        cells[4, 2] = np.nan
    dist, _ = oracle_geometry(cells, users)
    assert np.isnan(dist).any() and not np.isnan(dist).all()
    _check(cells, users)
    assert radio._pool is None or where == "cell"
