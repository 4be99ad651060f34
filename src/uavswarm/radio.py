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

in place over one output array.  It is the one received-power formula:
link_budget takes its received power from the same function on a 1 x 1
geometry, and path_loss_db gives only the reported loss in dB.

Interference is network wide: every alive UAV on the same channel as a
user's serving UAV contributes its received power at that user, whether or
not it currently serves anyone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import PLOS_AS_WRITTEN, PLOS_STANDARD, RadioParams


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
    is arctan2(dz, sqrt(dx*dx + dy*dy)).  It is the one Euclidean distance
    code: association, the invariant check, the power field and the
    spacing log all read it, so a user at exactly r is at exactly r
    everywhere.

    Given ``out``, a Geometry of (n_uavs, n_users) arrays, and a
    ``scratch`` array of that shape, it writes into them (dz goes to
    ``scratch``) and allocates nothing of that size; the values are the
    same bits either way.
    """
    uavs = np.asarray(uav_positions, dtype=float).reshape(-1, 3)
    users = np.asarray(user_positions, dtype=float).reshape(-1, 3)
    dist, h2, dz = (None, None, None) if out is None else (*out, scratch)
    h2 = np.subtract.outer(uavs[:, 0], users[:, 0], out=h2)     # dx
    np.multiply(h2, h2, out=h2)
    dz = np.subtract.outer(uavs[:, 1], users[:, 1], out=dz)     # dy, then dz
    np.multiply(dz, dz, out=dz)
    h2 += dz                                               # dx*dx + dy*dy
    np.subtract.outer(uavs[:, 2], users[:, 2], out=dz)
    dist = np.multiply(dz, dz, out=dist)
    dist += h2
    np.sqrt(dist, out=dist)
    np.sqrt(h2, out=h2)
    return Geometry(dist, np.arctan2(dz, h2, out=h2))


def los_probability(elevation_rad, params: RadioParams,
                    out: np.ndarray | None = None):
    """Probability of a line-of-sight link at the given elevation angle.

    Two sigmoid-in-degrees forms are supported:

    * ``as_written``: 1 / (1 + theta * exp(-xi * theta_deg - theta))
    * ``standard``:   1 / (1 + theta * exp(-xi * (theta_deg - theta)))

    where theta_deg is the elevation in degrees and (theta, xi) are the
    environment constants.  The first keeps p_los near 1 at all angles for
    urban constants; the second falls off at low elevation.  The result is
    computed in place, in ``out`` when given, else in one new array.
    """
    th, xi = params.theta_env, params.xi_env
    if out is None:
        out = np.empty(np.shape(elevation_rad))
    p = np.degrees(elevation_rad, out=out)
    if params.plos_form == PLOS_AS_WRITTEN:
        p *= -xi
        p -= th
    elif params.plos_form == PLOS_STANDARD:
        p -= th
        p *= -xi
    else:
        raise ValueError(f"unknown plos_form {params.plos_form!r}")
    np.exp(p, out=p)
    p *= th
    p += 1.0
    return np.reciprocal(p, out=p)


def path_loss_db(distance_m, elevation_rad, params: RadioParams):
    """Mean path loss in dB over a slant distance at an elevation angle.

    Free-space term with exponent delta, plus the LoS/NLoS excess losses
    weighted by the LoS probability.
    """
    distance_m = np.asarray(distance_m, dtype=float)
    _require_positive(distance_m)
    p_los = los_probability(elevation_rad, params)
    fspl = 10.0 * params.delta * np.log10(
        4.0 * math.pi * params.f_c * distance_m / params.c_light)
    return fspl + p_los * params.eta_los + (1.0 - p_los) * params.eta_nlos


def _require_positive(distance_m: np.ndarray) -> None:
    # a reduction, not a (n_uavs, n_users) mask; NaN passes both ways
    if distance_m.size and distance_m.min() <= 0:
        raise ValueError("path loss requires a positive distance")


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def received_power_field(geom: Geometry, params: RadioParams,
                         out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """Received power in mW over a geometry, shape (n_uavs, n_users).

    The closed form of the module docstring, as exp(ln K - delta ln d -
    ln(10)/10 * excess loss), evaluated in place: one output array and one
    temporary for ln d, or ``out`` and ``scratch`` when given.
    """
    dist, elev = geom
    _require_positive(dist)
    per_db = math.log(10.0) / 10.0          # ln of a power ratio per dB
    ln_k = per_db * params.p_t + params.delta * math.log(
        params.c_light / (4.0 * math.pi * params.f_c))
    out = los_probability(elev, params, out=out)
    out *= -per_db * (params.eta_los - params.eta_nlos)
    out += ln_k - per_db * params.eta_nlos
    log_d = np.log(dist, out=scratch)
    log_d *= params.delta
    out -= log_d
    return np.exp(out, out=out)


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
    p_los = float(los_probability(elev, params))
    pl = float(path_loss_db(dist, elev, params))
    rx_mw = float(received_power_field(geom, params)[0, 0])
    noise_mw = float(dbm_to_mw(params.noise))
    snr = rx_mw / noise_mw
    return LinkBudget(
        distance_m=dist,
        elevation_rad=elev,
        p_los=p_los,
        path_loss_db=pl,
        received_mw=rx_mw,
        snr_db=10.0 * math.log10(snr),
        rate_bps=float(data_rate(snr, params.bandwidth)),
    )
