"""Air-to-ground radio link model.

The model is the sigmoid LoS probability and mean path loss of Al-Hourani,
Kandeepan and Lardner, "Optimal LAP Altitude for Maximum Coverage" (IEEE
WCL 3(6), 2014): slant distance d and elevation angle -> LoS probability
p_los -> mean path loss -> received power -> SINR -> Shannon rate.

`geometry` builds d and the elevation for every cell/user pair at once; the
engine builds it once per tick and association, the power field and the
invariant check all read it.  received_power_field evaluates the model's
received power in closed form, with no dB round trip,

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

Interference is network wide: every alive UAV on the same channel as a
user's serving UAV contributes its received power at that user, whether or
not it currently serves anyone.
"""

from __future__ import annotations

import math
import os
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

_pool = None        # the ThreadPoolExecutor of the other blocks, when built

C_LIGHT = 3e8       # propagation speed, m/s


class Geometry(NamedTuple):
    """Slant distances and elevation angles, each (n_uavs, n_users)."""

    dist: np.ndarray
    elev: np.ndarray


def geometry(uav_positions, user_positions, out: Geometry | None = None,
             scratch: np.ndarray | None = None) -> Geometry:
    """The cells x users geometry, built with in-place ufuncs so that at
    most three (n_uavs, n_users) arrays are live at once.

    The distance is sqrt((dx*dx + dy*dy) + dz*dz), the squares summed in
    x, y, z order as np.linalg.norm over the last axis does; the elevation
    is arctan2(dz, sqrt(dx*dx + dy*dy)).  It is the one cell-user distance
    code: association, the invariant check, the power field and h's range
    test all read it, so a user at exactly r is at exactly r everywhere.

    Given ``out``, a Geometry of (n_uavs, n_users) arrays, and a
    ``scratch`` array of that shape, it writes into them (dz goes to
    ``scratch``) and allocates nothing of that size; the values are the
    same bits either way.
    """
    uavs = np.asarray(uav_positions, dtype=float).reshape(-1, 3)
    users = np.asarray(user_positions, dtype=float).reshape(-1, 3)
    shape = (len(uavs), len(users))
    if out is None:
        out = Geometry(np.empty(shape), np.empty(shape))
    if scratch is None:
        scratch = np.empty(shape)
    _by_rows(_geometry_rows, shape, uavs, users, *out, scratch)
    return out


def _geometry_rows(rows: slice, uavs, users, dist, elev, dz) -> None:
    uavs, dist, h, dz = uavs[rows], dist[rows], elev[rows], dz[rows]
    # h holds dx, then dx*dx + dy*dy, then its root, until the arctan2
    np.subtract.outer(uavs[:, 0], users[:, 0], out=h)
    np.multiply(h, h, out=h)
    np.subtract.outer(uavs[:, 1], users[:, 1], out=dz)      # dy, then dz
    np.multiply(dz, dz, out=dz)
    h += dz
    np.subtract.outer(uavs[:, 2], users[:, 2], out=dz)
    np.multiply(dz, dz, out=dist)
    dist += h
    np.sqrt(dist, out=dist)
    np.sqrt(h, out=h)
    np.arctan2(dz, h, out=h)


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
                         out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """Received power in mW over a geometry, shape (n_uavs, n_users).

    The closed form of the module docstring, as exp(ln K - delta ln d -
    ln(10)/10 * excess loss), evaluated in place: one output array and one
    temporary for ln d, or ``out`` and ``scratch`` when given.  ``out``
    may be the geometry's own elevations, which each element reads before
    it writes, so the field then takes their place with the same bits.
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
    if scratch is None:
        scratch = np.empty(dist.shape)
    _by_rows(_power_rows, dist.shape, dist, elev, params, standard,
             -per_db * (params.eta_los - params.eta_nlos),
             ln_k - per_db * params.eta_nlos, out, scratch)
    return out


def _power_rows(rows: slice, dist, elev, params, standard, per_p_los,
                offset, out, scratch) -> None:
    p = _los(elev[rows], params, standard, out[rows])
    p *= per_p_los
    p += offset
    log_d = np.log(dist[rows], out=scratch[rows])
    log_d *= params.delta
    p -= log_d
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
