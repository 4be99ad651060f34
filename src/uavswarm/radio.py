"""Air-to-ground radio link model.

The model is the sigmoid LoS probability and mean path loss of Al-Hourani,
Kandeepan and Lardner, "Optimal LAP Altitude for Maximum Coverage" (IEEE
WCL 3(6), 2014): slant distance d and elevation angle -> LoS probability
p_los -> mean path loss -> received power -> SINR -> Shannon rate.

`geometry` builds d and the elevation for every pair of the cells and
users it is given at once.  The engine builds it once per tick, with
geometry_in_range, which also lists the pairs within range as it writes
the distances, over every cell and the users some cell can reach (its
near set), and association, the power field and the invariant check all
read it.  received_power_field
evaluates the model's received power in closed form, with no dB round
trip,

    P = K * d**-delta * 10**(-(eta_nlos + p_los * (eta_los - eta_nlos)) / 10),
    K = 10**(p_t / 10) * (c / (4 pi f_c))**delta,

in place over one output array, with c the speed of light.  It is the one
path-loss formula: link_budget takes its received power from the same
function on a 1 x 1 geometry and reports the loss as p_t minus that power
in dBm.

A field of at least _SPLIT_LINKS cells x users links is computed in
contiguous blocks of cell rows, one per CPU the process may run on: the
calling thread runs the first block and a thread pool, built on the first
split, the others; a block no worker has started when the calling thread
is done runs on the calling thread too.  numpy releases the interpreter
lock inside its ufunc loops, so the blocks run at once.  Every element
goes through the same ufuncs in the same order whatever the split, so the
bits do not depend on the CPU count.  The threads run only this module's
private block helpers, never a public function, and a forked child drops
the pool whose threads it does not have.

The only (cells, users) arrays are the geometry's two and the field, which
the engine writes over the elevations.  The users must all be at one
height, as every engine world's are (on the ground), so dz is one number
per cell row, a column that the distance's sum and the elevation's arctan2
broadcast, and the geometry's passes run over whole blocks.  The steps
that need a third array, delta * ln d for the field and the in-range
list's mask, run a tile of the block at a time in a temporary that each
thread keeps from call to call.  A block's tiles take at most its share
of the field's rows times _CHUNK elements, so the blocks of a split field
use at most _CHUNK elements of temporaries together, on any CPU count.
The users' x, y and z are read as contiguous rows, a copy per call unless
given as the transpose of such rows, as the engine keeps its near set.
Neither tiles, the dz column nor the layout changes an element's ufuncs
or their order, so neither the bits nor the in-range list depend on them,
nor on the columns a field covers.

Interference is network wide: every alive UAV on the same channel as a
user's serving UAV contributes its received power at that user, whether or
not it currently serves anyone.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PLOS_FORMS, PLOS_STANDARD, RadioParams

# Fields of fewer links run on the calling thread alone.  Measured on a
# 2-vCPU x86-64 KVM guest, geometry plus power field over 3,000 users with
# Python work between the calls as in a tick (60 interleaved pairs per
# size): two blocks took 1.16x the serial time at 51,000 links, 0.89x at
# 75,000, 0.77x at 102,000 and 0.60x at 300,000.  An idle worker can take
# milliseconds to wake on a shared host, so the line sits above break-even;
# fig5's 9,000 links and the sweep's 12,600 stay serial.
_SPLIT_LINKS = 100_000

# The most elements of temporaries that a field's blocks hold at once
# (512 KB of floats).  Every fig5 and sweep field is one tile.
_CHUNK = 2 ** 16

_pool = None        # the ThreadPoolExecutor of the other blocks, when built
_temporaries = threading.local()    # each thread's tile temporary

C_LIGHT = 3e8       # propagation speed, m/s


class Geometry(NamedTuple):
    """Slant distances and elevation angles, each (n_uavs, n_users)."""

    dist: np.ndarray
    elev: np.ndarray


def geometry(uav_positions, user_positions,
             out: Geometry | None = None) -> Geometry:
    """The cells x users geometry, built with in-place ufuncs so that the
    only (n_uavs, n_users) arrays are the two it returns.

    The distance is sqrt((dx*dx + dy*dy) + dz*dz), the squares summed in
    x, y, z order as np.linalg.norm over the last axis does; the elevation
    is arctan2(dz, sqrt(dx*dx + dy*dy)), with dz taken once per cell.  The
    users must all be at one height: ValueError otherwise, a NaN height
    included.  It is the one cell-user distance
    code: association, the invariant check, the power field and h's range
    test all read it, so a user at exactly r is at exactly r everywhere.

    Given ``out``, a Geometry of (n_uavs, n_users) arrays, it writes into
    them and allocates nothing of that size; the values are the same bits
    either way.
    """
    return _geometry(uav_positions, user_positions, out, None)[0]


def geometry_in_range(uav_positions, user_positions, r: float,
                      out: Geometry | None = None):
    """geometry(), and the cell-user pairs within r of its distances as
    flat indices, cells and users in row-major order: the list
    kernels._pair_indices(dist <= r) gives, built block by block as the
    distances are written, with no (n_uavs, n_users) mask."""
    return _geometry(uav_positions, user_positions, out, r)


def _geometry(uav_positions, user_positions, out, r):
    uavs = np.asarray(uav_positions, dtype=float).reshape(-1, 3)
    # the users' x, y and z as contiguous rows, which the outer
    # differences read with unit stride
    users = np.ascontiguousarray(
        np.asarray(user_positions, dtype=float).reshape(-1, 3).T)
    shape = (len(uavs), users.shape[1])
    uz = users[2]
    # a NaN height fails the comparison too
    if len(uz) and not (uz == uz[0]).all():
        raise ValueError("users must all be at one height")
    if out is None:
        out = Geometry(np.empty(shape), np.empty(shape))
    # dz is one number per cell row
    dz = (uavs[:, 2] - (uz[0] if len(uz) else 0.0))[:, None]
    found: dict[int, np.ndarray] = {}   # flat start of a tile: its pairs
    _by_rows(_geometry_rows, shape, uavs, users, dz, *out, r, found)
    if r is None:
        return out, None
    flat = [found[k] for k in sorted(found)]
    flat = flat[0] if len(flat) == 1 else np.concatenate(flat)
    return out, (flat, *divmod(flat, shape[1]))


def _tiles(rows: slice, shape: tuple[int, int]):
    """(rows, cols) slices, relative to the block of a (rows, cols) field's
    ``rows``, that cover the block in row-major order, each of at most the
    block's share of _CHUNK elements: the whole block when it fits, else
    whole rows, or pieces of one row when a row is longer.  Also the
    elements a temporary for them takes: the block's when it is one tile,
    else its share of _CHUNK, whatever the width, so that the engine's
    narrower fields over the near set fit the temporary of its wider
    ones."""
    n_rows, n_cols = rows.stop - rows.start, shape[1]
    limit = max(1, _CHUNK * n_rows // max(shape[0], 1))
    if n_rows * n_cols <= limit:
        return [(slice(0, n_rows), slice(0, n_cols))], n_rows * n_cols
    if n_cols <= limit:
        step = limit // n_cols
        return [(slice(a, min(a + step, n_rows)), slice(0, n_cols))
                for a in range(0, n_rows, step)], limit
    return [(slice(a, a + 1), slice(c, min(c + limit, n_cols)))
            for a in range(n_rows) for c in range(0, n_cols, limit)], limit


def _temporary(size: int) -> np.ndarray:
    """A flat float array of at least ``size`` elements, the calling
    thread's own, kept from call to call and grown when a call needs more,
    so that a tick after the first allocates no temporary."""
    buf = getattr(_temporaries, "buf", None)
    if buf is None or buf.size < size:
        buf = _temporaries.buf = np.empty(size)
    return buf


def _like(buffer: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The start of a flat ``buffer`` as an array of ``a``'s shape."""
    return buffer[:a.size].reshape(a.shape)


def _geometry_rows(rows: slice, uavs, users, dz, dist, elev, r,
                   found) -> None:
    tiles, room = _tiles(rows, dist.shape)
    uavs, dist, h, dz = uavs[rows], dist[rows], elev[rows], dz[rows]
    # h holds dx, then dx*dx + dy*dy, then its root, until the arctan2
    np.subtract.outer(uavs[:, 0], users[0], out=h)
    np.multiply(h, h, out=h)
    np.subtract.outer(uavs[:, 1], users[1], out=dist)         # dy
    np.multiply(dist, dist, out=dist)
    h += dist
    # dz is a (rows, 1) column, broadcast along each row by the sum and
    # the arctan2
    np.add(dz * dz, h, out=dist)
    np.sqrt(dist, out=dist)
    np.sqrt(h, out=h)
    np.arctan2(dz, h, out=h)
    if r is None:
        return
    buf = _temporary(room)
    for tile in tiles:
        _list_in_range(dist[tile], r, buf, (rows.start + tile[0].start)
                       * dist.shape[1] + tile[1].start, found)


def _list_in_range(dist, r, spent, start, found) -> None:
    """found[start] = the flat indices of ``dist`` <= r, plus ``start``,
    ``dist``'s flat index in the field; the mask takes the first bytes of
    ``spent``, a contiguous float temporary no longer read."""
    near = np.flatnonzero(np.less_equal(
        dist, r, out=_like(spent.view(bool), dist)))
    if start:
        near += start
    found[start] = near


def _by_rows(block, shape: tuple[int, int], *args) -> None:
    """``block(rows, *args)`` over slices of a field's rows that together
    cover all ``shape[0]`` of them, each once; returns when all are done.

    A field of fewer than _SPLIT_LINKS links is one slice on the calling
    thread, a larger one a slice per CPU.  The calling thread runs the
    first, then any that no pool worker has started by then.
    """
    n_rows, blocks = shape[0], 1
    if n_rows * shape[1] >= _SPLIT_LINKS:
        try:
            blocks = min(n_rows, len(os.sched_getaffinity(0)))
        except AttributeError:          # no affinity on this platform
            blocks = min(n_rows, os.cpu_count() or 1)
    if blocks == 1:
        block(slice(0, n_rows), *args)
        return
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(blocks - 1, thread_name_prefix="radio")
    edges = [n_rows * k // blocks for k in range(blocks + 1)]
    rest = [slice(lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    futures = [_pool.submit(block, rows, *args) for rows in rest]
    try:
        block(slice(0, edges[1]), *args)
    finally:
        # the blocks write into the caller's arrays: wait for every one a
        # worker has started, and take back the others, since an idle
        # worker can take longer to wake than a block takes
        left = [rows for rows, f in zip(rest, futures) if f.cancel()]
        for f in futures:
            if not f.cancelled():
                f.result()
    for rows in left:
        block(rows, *args)


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # a forked child has none of the pool's threads; it builds its own
    os.register_at_fork(after_in_child=_drop_pool)


def los_probability(elevation_rad, params: RadioParams):
    """Probability of a line-of-sight link at the given elevation angle.

    Two sigmoid-in-degrees forms are supported:

    * ``as_written``: 1 / (1 + theta * exp(-xi * theta_deg - theta))
    * ``standard``:   1 / (1 + theta * exp(-xi * (theta_deg - theta)))

    where theta_deg is the elevation in degrees and (theta, xi) are the
    environment constants.  The first keeps p_los near 1 at all angles for
    urban constants; the second falls off at low elevation.  The result is
    computed in place in one new array.
    """
    return _los(elevation_rad, params, _is_standard(params),
                np.empty(np.shape(elevation_rad)))


def _is_standard(params: RadioParams) -> bool:
    if params.plos_form not in PLOS_FORMS:
        raise ValueError(f"unknown plos_form {params.plos_form!r}")
    return params.plos_form == PLOS_STANDARD


def _los(elevation_rad, params: RadioParams, standard: bool, out):
    th, xi = params.theta_env, params.xi_env
    # np.degrees' own product, at a third of its cost
    p = np.multiply(elevation_rad, 180.0 / math.pi, out=out)
    if standard:
        p -= th
        p *= -xi
    else:
        p *= -xi
        p -= th
    np.exp(p, out=p)
    p *= th
    p += 1.0
    return np.reciprocal(p, out=p)


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def received_power_field(geom: Geometry, params: RadioParams,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Received power in mW over a geometry, shape (n_uavs, n_users).

    The closed form of the module docstring, as exp(ln K - delta ln d -
    ln(10)/10 * excess loss), evaluated in place in one output array,
    ``out`` when given, with ln d taken a tile at a time.  ``out`` may be
    the geometry's own elevations, which each element reads before it
    writes, so the field then takes their place with the same bits.
    """
    dist, elev = geom
    # a reduction, not a (n_uavs, n_users) mask; NaN passes both ways
    if dist.size and dist.min() <= 0:
        raise ValueError("path loss requires a positive distance")
    standard = _is_standard(params)
    per_db = math.log(10.0) / 10.0          # ln of a power ratio per dB
    ln_k = per_db * params.p_t + params.delta * math.log(
        C_LIGHT / (4.0 * math.pi * params.f_c))
    if out is None:
        out = np.empty(dist.shape)
    _by_rows(_power_rows, dist.shape, dist, elev, params, standard,
             -per_db * (params.eta_los - params.eta_nlos),
             ln_k - per_db * params.eta_nlos, out)
    return out


def _power_rows(rows: slice, dist, elev, params, standard, per_p_los,
                offset, out) -> None:
    tiles, room = _tiles(rows, dist.shape)
    dist = dist[rows]
    p = _los(elev[rows], params, standard, out[rows])
    p *= per_p_los
    p += offset
    buf = _temporary(room)
    for tile in tiles:
        d, p_t = dist[tile], p[tile]
        log_d = np.log(d, out=_like(buf, d))
        log_d *= params.delta
        p_t -= log_d
    np.exp(p, out=p)


def data_rate(sinr_linear, bandwidth: float):
    """Shannon rate in bits/s for a linear SINR over the given bandwidth."""
    return bandwidth * np.log2(1.0 + np.asarray(sinr_linear, dtype=float))


@dataclass
class LinkBudget:
    distance_m: float
    elevation_rad: float
    p_los: float
    path_loss_db: float
    received_mw: float
    snr_db: float
    rate_bps: float


def link_budget(uav_pos, user_pos, params: RadioParams) -> LinkBudget:
    """Single-link budget with no interference, for inspection and tests."""
    geom = geometry(uav_pos, user_pos)
    dist, elev = (float(v[0, 0]) for v in geom)
    rx_mw = float(received_power_field(geom, params)[0, 0])
    snr = rx_mw / float(dbm_to_mw(params.noise))
    return LinkBudget(
        distance_m=dist,
        elevation_rad=elev,
        p_los=float(los_probability(elev, params)),
        path_loss_db=params.p_t - 10.0 * math.log10(rx_mw),
        received_mw=rx_mw,
        snr_db=10.0 * math.log10(snr),
        rate_bps=float(data_rate(snr, params.bandwidth)),
    )
