"""The radio field's cell-row blocks.

A field of at least radio._SPLIT_LINKS links is computed in one block of
cell rows per CPU, the calling thread running the first and a thread pool
the others.  Every element goes through the same ufuncs whatever the
split or the tiles a block takes its temporaries in, so these hold the
blocked geometry and power field to the one-block result byte for byte, on
stale buffers and with blocks of many tiles, the in-range list built in
the blocks to the one read off the whole distance array, and a whole run
to the same run with the split disabled.  A thread keeps its own tile
temporary from call to call.  A forked child must not wait on the
parent's pool threads, which it does not have.
"""

import os
import signal
import threading
import time
from dataclasses import astuple

import numpy as np
import pytest

from uavswarm import radio
from uavswarm.engine import run
from uavswarm.harness import generate_scenario
from uavswarm.kernels import _pair_indices
from uavswarm.model import PLOS_FORMS, RadioParams
from worlds import grid_field

SERIAL = 1 << 62        # a _SPLIT_LINKS no field reaches


def _positions(rng, n_cells, n_users):
    cells = rng.uniform([-2000, -2000, 60], [2000, 2000, 300], (n_cells, 3))
    users = np.column_stack([rng.uniform(-2500, 2500, (n_users, 2)),
                             np.zeros(n_users)])
    return cells, users


def _field(cells, users, params, buffers=None):
    """The tick's two calls, into the Geometry ``buffers`` when given."""
    if buffers is None:
        geom = radio.geometry(cells, users)
        return (*geom, radio.received_power_field(geom, params))
    geom = radio.geometry(cells, users, out=buffers)
    elev = geom.elev.copy()     # the field is written over them
    return (geom.dist, elev, radio.received_power_field(
        geom, params, out=geom.elev))


def _same(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# (cells, users, CPUs): one row, fewer rows than CPUs, more blocks than the
# host may have, rows that do not divide evenly, and user counts that are
# not a multiple of 8
SHAPES = [(1, 3001, 2), (3, 997, 4), (2, 5, 2), (7, 1003, 3), (13, 77, 5),
          (41, 129, 2), (100, 300, 2)]


# a radio._CHUNK below most blocks' sizes, so that a block takes its
# temporaries in several tiles of whole rows or in pieces of one row
SMALL_CHUNK = 100


def _blocks_match_one_block(monkeypatch, cpus, plos_form, n_cells, n_users,
                            n_cpus, chunk):
    """The blocked calls, with radio._CHUNK set to ``chunk``, give the
    one-block, one-tile bits, into stale buffers and allocating."""
    rng = np.random.default_rng(n_cells * n_users)
    params = RadioParams(plos_form=plos_form)
    buffers = radio.Geometry(np.empty((n_cells, n_users)),
                             np.empty((n_cells, n_users)))
    for buf in buffers:
        buf[:] = rng.normal(size=buf.shape)       # stale contents
    cpus(n_cpus)
    one_tile = radio._CHUNK
    for _ in range(2):
        cells, users = _positions(rng, n_cells, n_users)
        monkeypatch.setattr(radio, "_SPLIT_LINKS", SERIAL)
        monkeypatch.setattr(radio, "_CHUNK", one_tile)
        want = _field(cells, users, params)
        monkeypatch.setattr(radio, "_CHUNK", chunk)
        monkeypatch.setattr(radio, "_SPLIT_LINKS", 1)
        _same(_field(cells, users, params, buffers), want)
        _same(_field(cells, users, params), want)
    assert (radio._pool is not None) == (min(n_cells, n_cpus) > 1)


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("n_cells, n_users, n_cpus", SHAPES)
def test_blocks_give_the_one_block_bits(monkeypatch, cpus, plos_form,
                                        n_cells, n_users, n_cpus):
    _blocks_match_one_block(monkeypatch, cpus, plos_form, n_cells, n_users,
                            n_cpus, radio._CHUNK)


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("n_cells, n_users, n_cpus", SHAPES)
def test_blocks_of_many_tiles_give_the_one_block_bits(
        monkeypatch, cpus, plos_form, n_cells, n_users, n_cpus):
    _blocks_match_one_block(monkeypatch, cpus, plos_form, n_cells, n_users,
                            n_cpus, SMALL_CHUNK)


@pytest.mark.parametrize("chunk", [None, SMALL_CHUNK, 4096])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_block_built_in_range_list_matches_the_mask(monkeypatch, cpus, seed,
                                                    split, chunk):
    world = grid_field(seed)
    r = 300.0
    cpus(3)
    monkeypatch.setattr(radio, "_SPLIT_LINKS", 1 if split else SERIAL)
    if chunk is not None:
        monkeypatch.setattr(radio, "_CHUNK", chunk)
    geom, links = radio.geometry_in_range(world.uav_pos, world.user_pos, r)
    assert (radio._pool is not None) == split
    assert (geom.dist == r).any()           # users at exactly r
    want = _pair_indices(geom.dist <= r)
    for got, w in zip(links, want, strict=True):
        assert got.dtype == w.dtype and np.array_equal(got, w)
    _same(geom, radio.geometry(world.uav_pos, world.user_pos))


@pytest.mark.parametrize("n_cells, n_users", [(0, 5), (4, 0), (3, 40000)])
def test_in_range_list_of_empty_and_long_rows(monkeypatch, n_cells,
                                              n_users):
    # no rows, no columns, and rows longer than a tile, in pieces
    rng = np.random.default_rng(n_users)
    cells, users = _positions(rng, n_cells, n_users)
    monkeypatch.setattr(radio, "_SPLIT_LINKS", SERIAL)
    geom, links = radio.geometry_in_range(cells, users, 2500.0)
    for got, w in zip(links, _pair_indices(geom.dist <= 2500.0),
                      strict=True):
        assert got.dtype == w.dtype and np.array_equal(got, w)


@pytest.mark.parametrize("plos_form", PLOS_FORMS)
@pytest.mark.parametrize("n_cells, n_users, splits", [
    (41, 2439, False),      # 99,999 links
    (40, 2500, True),       # 100,000
    (53, 1999, True),
])
def test_threshold_splits_only_large_fields(monkeypatch, cpus, plos_form,
                                            n_cells, n_users, splits):
    assert (n_cells * n_users >= radio._SPLIT_LINKS) == splits
    rng = np.random.default_rng(n_users)
    params = RadioParams(plos_form=plos_form)
    cells, users = _positions(rng, n_cells, n_users)
    cpus(2)
    got = _field(cells, users, params)
    assert (radio._pool is not None) == splits
    monkeypatch.setattr(radio, "_SPLIT_LINKS", SERIAL)
    _same(got, _field(cells, users, params))


def test_block_no_worker_starts_runs_on_the_caller(monkeypatch, cpus):
    # the pool's one worker is busy, so the caller takes the second block
    # back and the call still returns the one-block bits
    rng = np.random.default_rng(8)
    params = RadioParams()
    cells, users = _positions(rng, 9, 1001)
    monkeypatch.setattr(radio, "_SPLIT_LINKS", SERIAL)
    want = _field(cells, users, params)
    monkeypatch.setattr(radio, "_SPLIT_LINKS", 1)
    cpus(2)
    _field(cells, users, params)                  # builds the pool
    release = threading.Event()
    busy = radio._pool.submit(release.wait, 60.0)
    try:
        _same(_field(cells, users, params), want)
        assert not busy.done()
    finally:
        release.set()
    assert busy.result(timeout=60.0)


def _outcome(result):
    world = result.world
    return ([astuple(m) for m in result.metrics], result.trace,
            result.user_trace, [vars(e) for e in result.switch_events],
            result.failures, result.min_distance_violations,
            [getattr(world, name).tobytes() for name in (
                "uav_pos", "uav_vel", "alive", "channel", "last_switch",
                "serving", "rate")])


def test_run_above_the_threshold_matches_the_serial_run(monkeypatch, cpus):
    # 40 cells x 2,600 users: 104,000 links, split into two blocks
    config = generate_scenario(
        2600, 0.25, (0.0, 0.0, 4000.0, 1500.0), (0.0, 0.0, 1200.0, 1500.0),
        40, duration=0.4, seed=5)
    assert 40 * 2600 >= radio._SPLIT_LINKS
    cpus(2)
    split = _outcome(run(config, trace=True))
    assert radio._pool is not None
    monkeypatch.setattr(radio, "_SPLIT_LINKS", SERIAL)
    assert split == _outcome(run(config, trace=True))


def test_tile_temporary_is_the_threads_own_and_kept(monkeypatch):
    monkeypatch.setattr(radio, "_temporaries", threading.local())
    first = radio._temporary(10)
    assert radio._temporary(5) is first
    grown = radio._temporary(20)
    assert grown.size >= 20 and radio._temporary(20) is grown
    other = []
    worker = threading.Thread(target=lambda: other.append(radio._temporary(5)))
    worker.start()
    worker.join()
    assert not np.shares_memory(other[0], grown)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
# CPython 3.12+ warns on fork() in a process with threads; this test forks
# after the pool's threads exist on purpose
@pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_builds_its_own_pool(cpus):
    rng = np.random.default_rng(3)
    params = RadioParams()
    cells, users = _positions(rng, 50, 2500)
    cpus(2)
    want = _field(cells, users, params)
    assert radio._pool is not None
    pid = os.fork()
    if pid == 0:                                    # the child
        code = 1
        try:
            if radio._pool is not None:
                code = 2
            else:
                got = _field(cells, users, params)
                same = all(g.tobytes() == w.tobytes()
                           for g, w in zip(got, want))
                code = 0 if same and radio._pool is not None else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish within 60 s")
        time.sleep(0.01)
    # 2: the child kept the parent's pool; 3: its field differed
    assert os.waitstatus_to_exitcode(status) == 0
