"""Independent reimplementation of the link-budget math for cross-checks.

It shares no code with the package.  All formulas are written from
scratch: sigmoid LoS probability in degrees, free-space loss with
configurable exponent, probabilistic excess loss, dBm/mW conversion,
Shannon rate.  The single-link chain uses only the math and random stdlib.
oracle_geometry and oracle_power_field take numpy's ufuncs over whole
(cells, users) arrays, each element through the same operations in the
same order as the package's closed form, so that they give its bits on
any layout, split or tiling of the package's passes.
"""

import math
import random

import numpy as np

C_LIGHT = 3e8

# Frozen end-to-end chain for the default link (delta=2, as_written form,
# UAV 100 m directly overhead, P_t 37 dBm, B 15 MHz, noise -80 dBm).
OVERHEAD_PL_DB = 78.56237209932829
OVERHEAD_SNR_DB = 38.437627900671714
OVERHEAD_RATE_BPS = 191533654.8228063


def geometries(n=100, seed=2024):
    """Seeded UAV/user placements spanning 60..300 m heights."""
    rnd = random.Random(seed)
    out = []
    while len(out) < n:
        uav = (rnd.uniform(-500, 500), rnd.uniform(-500, 500),
               rnd.uniform(60, 300))
        user = (rnd.uniform(-500, 500), rnd.uniform(-500, 500), 0.0)
        out.append((uav, user))
    return out


def oracle_plos(theta_deg, theta_env, xi_env, form):
    if form == "as_written":
        expo = -xi_env * theta_deg - theta_env
    elif form == "standard":
        expo = -xi_env * (theta_deg - theta_env)
    else:
        raise ValueError(form)
    return 1.0 / (1.0 + theta_env * math.exp(expo))


def oracle_path_loss_db(dist, theta_deg, f_c, delta, eta_los, eta_nlos,
                        theta_env, xi_env, form):
    p = oracle_plos(theta_deg, theta_env, xi_env, form)
    fspl = 10.0 * delta * math.log10(4.0 * math.pi * f_c * dist / C_LIGHT)
    return fspl + p * eta_los + (1.0 - p) * eta_nlos


def oracle_link(uav, user, *, f_c=2e9, delta=2.0, eta_los=0.1, eta_nlos=21.0,
                theta_env=4.88, xi_env=0.43, p_t=37.0, bandwidth=15e6,
                noise=-80.0, form="as_written"):
    """Full single-link chain; returns a dict of intermediate quantities."""
    dx = uav[0] - user[0]
    dy = uav[1] - user[1]
    dz = uav[2] - user[2]
    horiz = math.hypot(dx, dy)
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    theta_deg = math.degrees(math.atan2(dz, horiz))
    p = oracle_plos(theta_deg, theta_env, xi_env, form)
    pl = oracle_path_loss_db(dist, theta_deg, f_c, delta, eta_los, eta_nlos,
                             theta_env, xi_env, form)
    rx_mw = 10.0 ** ((p_t - pl) / 10.0)
    noise_mw = 10.0 ** (noise / 10.0)
    snr = rx_mw / noise_mw
    return {
        "dist": dist,
        "p_los": p,
        "pl_db": pl,
        "rx_mw": rx_mw,
        "snr_db": 10.0 * math.log10(snr),
        "rate_bps": bandwidth * math.log2(1.0 + snr),
    }


def oracle_sinr(serving, others, user, noise_dbm=-80.0, **link_kw):
    """Linear SINR with the listed co-channel interferer positions."""
    signal = oracle_link(serving, user, **link_kw)["rx_mw"]
    interference = sum(oracle_link(o, user, **link_kw)["rx_mw"]
                       for o in others)
    noise_mw = 10.0 ** (noise_dbm / 10.0)
    return signal / (noise_mw + interference)


def oracle_geometry(uavs, users):
    """Slant distances and elevations, each (cells, users), from whole
    arrays: dist = sqrt(dz*dz + (dx*dx + dy*dy)) and elev = arctan2(dz,
    sqrt(dx*dx + dy*dy)), with d = cell - user on each axis."""
    uavs = np.array(uavs, dtype=float).reshape(-1, 3)
    users = np.array(users, dtype=float).reshape(-1, 3)
    dx, dy, dz = (uavs[:, k, None] - users[None, :, k] for k in range(3))
    horiz2 = dx * dx + dy * dy
    return np.sqrt(dz * dz + horiz2), np.arctan2(dz, np.sqrt(horiz2))


def oracle_in_range(dist, r):
    """The pairs with dist <= r as flat indices, cells and users, in
    row-major order."""
    flat = np.flatnonzero(dist <= r)
    return flat, flat // dist.shape[1], flat % dist.shape[1]


def oracle_power_field(dist, elev, *, f_c=2e9, delta=2.0, eta_los=0.1,
                       eta_nlos=21.0, theta_env=4.88, xi_env=0.43,
                       p_t=37.0, form="as_written"):
    """Received power in mW over whole arrays, as exp of its natural log:
    ln P = ln(10)/10 * (p_t - eta_nlos - p_los * (eta_los - eta_nlos))
    + delta * ln(c / (4 pi f_c)) - delta * ln d, the sums taken in the
    package's order."""
    per_db = math.log(10.0) / 10.0
    theta_deg = elev * (180.0 / math.pi)
    if form == "as_written":
        expo = theta_deg * -xi_env - theta_env
    elif form == "standard":
        expo = (theta_deg - theta_env) * -xi_env
    else:
        raise ValueError(form)
    p_los = 1.0 / (np.exp(expo) * theta_env + 1.0)
    ln_k = per_db * p_t + delta * math.log(C_LIGHT / (4.0 * math.pi * f_c))
    ln_p = (p_los * (-per_db * (eta_los - eta_nlos))
            + (ln_k - per_db * eta_nlos)) - np.log(dist) * delta
    return np.exp(ln_p)
