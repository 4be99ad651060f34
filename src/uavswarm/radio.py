"""Air-to-ground radio link model.

Chain: slant distance and elevation angle -> LoS probability -> mean path
loss -> received power -> SINR -> Shannon rate.  There is one code path:
received_power_field evaluates the chain for every UAV/user pair at once,
and the engine forms each served user's SINR from that field and its
per-channel sums.  link_budget runs the same primitives on a single link,
without interference, for inspection and for the oracle tests.

Interference is network wide: every alive UAV on the same channel as a
user's serving UAV contributes its received power at that user, whether or
not it currently serves anyone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PLOS_AS_WRITTEN, PLOS_STANDARD, RadioParams, distances


def los_probability(elevation_rad, params: RadioParams):
    """Probability of a line-of-sight link at the given elevation angle.

    Two sigmoid-in-degrees forms are supported:

    * ``as_written``: 1 / (1 + theta * exp(-xi * theta_deg - theta))
    * ``standard``:   1 / (1 + theta * exp(-xi * (theta_deg - theta)))

    where theta_deg is the elevation in degrees and (theta, xi) are the
    environment constants.  The first keeps p_los near 1 at all angles for
    urban constants; the second falls off at low elevation.
    """
    theta_deg = np.degrees(elevation_rad)
    th, xi = params.theta_env, params.xi_env
    if params.plos_form == PLOS_AS_WRITTEN:
        expo = -xi * theta_deg - th
    elif params.plos_form == PLOS_STANDARD:
        expo = -xi * (theta_deg - th)
    else:
        raise ValueError(f"unknown plos_form {params.plos_form!r}")
    return 1.0 / (1.0 + th * np.exp(expo))


def path_loss_db(distance_m, elevation_rad, params: RadioParams):
    """Mean path loss in dB over a slant distance at an elevation angle.

    Free-space term with exponent delta, plus the LoS/NLoS excess losses
    weighted by the LoS probability.
    """
    distance_m = np.asarray(distance_m, dtype=float)
    if np.any(distance_m <= 0):
        raise ValueError("path loss requires a positive distance")
    p_los = los_probability(elevation_rad, params)
    fspl = 10.0 * params.delta * np.log10(
        4.0 * math.pi * params.f_c * distance_m / params.c_light)
    return fspl + p_los * params.eta_los + (1.0 - p_los) * params.eta_nlos


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def _geometry(uav_positions, user_positions):
    """Slant distances and elevation angles, each of shape (n_uavs, n_users)."""
    uavs = np.asarray(uav_positions, dtype=float).reshape(-1, 3)
    users = np.asarray(user_positions, dtype=float).reshape(-1, 3)
    dist = distances(uavs[:, None, :], users[None, :, :])
    dx = uavs[:, None, 0] - users[None, :, 0]
    dy = uavs[:, None, 1] - users[None, :, 1]
    dz = uavs[:, None, 2] - users[None, :, 2]
    return dist, np.arctan2(dz, np.hypot(dx, dy))


def received_power_field(uav_positions, user_positions, params: RadioParams):
    """Received power matrix in mW, shape (n_uavs, n_users)."""
    dist, elev = _geometry(uav_positions, user_positions)
    return dbm_to_mw(params.p_t - path_loss_db(dist, elev, params))


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
    dist, elev = (float(v[0, 0]) for v in _geometry(uav_pos, user_pos))
    p_los = float(los_probability(elev, params))
    pl = float(path_loss_db(dist, elev, params))
    rx_mw = float(dbm_to_mw(params.p_t - pl))
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
