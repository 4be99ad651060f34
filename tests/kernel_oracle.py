"""Per-neighbor loop forms of the controller terms, of greedy association
and of the channel-switching pass, the (time, rate) pair form of the
trailing rate window, the per-cell form of the integration step and the
per-user form of the tick metrics, with left_sum, the sequential float sum
every reported sum is held to.

These are the scalar reference versions that the package's masked array
reductions replace.  They walk one cell, neighbor or user at a time,
summing in index order, and rank association candidates with Python's
sorted(); the tests compare the array code against them.  Only the scalar
kernel primitives (sigma-norm, sigmoid) are shared with the package, since
the rewrite did not touch them.  The bump keeps its mask form here
(oracle_bump), as the pair potential keeps its product; the package takes
the bump as one select.  The vector sigma-norm and its gradient, one vector
at a time, live here: the package only takes batched sigma-gradients.

The pair-loop forms of f, g and h take every cell pair's and cell-user
pair's weight and vector with the package's arithmetic, as dense (cells,
cells[, 3]) and (cells, users[, 3]) arrays, select the pairs that interact
with a mask, and add each selected pair's product into its cell's row one
pair at a time, in row-major order, from +0.0 (pair_loop).  The package
computes only the interacting pairs and sums each row with bincount, so the
two must agree bit for bit, on any CPU.
"""

import math
from collections import deque
from operator import itemgetter

import numpy as np

from uavswarm.kernels import phi_sigmoid, sigma_norm_scalar
from uavswarm.metrics import TickMetrics
from uavswarm.model import L0


def oracle_bump(z, gamma: float):
    """kernels.bump in its mask form: zeros, 1 scattered below gamma and the
    cosine taper scattered on [gamma, 1)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    out[z < gamma] = 1.0
    mid = (z >= gamma) & (z < 1.0)
    if gamma < 1.0:
        out[mid] = 0.5 * (1.0 + np.cos(np.pi * (z[mid] - gamma)
                                       / (1.0 - gamma)))
    if out.ndim == 0:
        return float(out)
    return out


def oracle_pair_potential(z_sig, p):
    """kernels.pair_potential with the mask-form bump."""
    return oracle_bump(z_sig / p.r_sig, 0.2) * phi_sigmoid(z_sig - p.d_sig, p)


def oracle_crowd(loads, p):
    """f's crowding penalty of each load, a * (1 - bump(...)) of the load
    past n_max."""
    overload = np.maximum(np.asarray(loads) - p.n_max, 0)
    return p.a * (1.0 - oracle_bump(
        sigma_norm_scalar(overload, p.eps) / p.n_max_sig, 0.0))


def sigma_norm(vec, eps: float) -> float:
    """Sigma-norm of a vector; shares the scalar code path exactly."""
    return sigma_norm_scalar(float(np.linalg.norm(np.asarray(vec, dtype=float))),
                             eps)


def sigma_grad(vec, eps: float) -> np.ndarray:
    """Gradient of the sigma-norm: z / sqrt(1 + eps |z|^2), one vector at
    a time.

    Bounded by 1/sqrt(eps) in magnitude; equals z near the origin.
    """
    vec = np.asarray(vec, dtype=float)
    return vec / np.sqrt(1.0 + eps * float(vec @ vec))


def oracle_f_term(i, positions, loads, alive, p):
    out = np.zeros(3)
    qi = positions[i]
    for j in range(len(positions)):
        if j == i or not alive[j]:
            continue
        rel = positions[j] - qi
        dist = float(np.linalg.norm(rel))
        if dist > p.r or dist <= 0.0:
            continue
        z_sig = sigma_norm_scalar(dist, p.eps)
        out += (oracle_pair_potential(z_sig, p) + oracle_crowd(loads[j], p)) \
            * sigma_grad(rel, p.eps)
    return out


def oracle_g_term(i, positions, velocities, alive, p):
    out = np.zeros(3)
    qi = positions[i]
    vi = velocities[i]
    for j in range(len(positions)):
        if j == i or not alive[j]:
            continue
        rel = positions[j] - qi
        dist = float(np.linalg.norm(rel))
        if dist > p.r:
            continue
        weight = oracle_bump(sigma_norm_scalar(dist, p.eps) / p.r_sig, 0.2)
        out += weight * (velocities[j] - vi)
    return out


def oracle_h_term(uav_pos, connected, user_pos, rates, targets, premium, p):
    out = np.zeros(3)
    for m in range(len(user_pos)):
        rel = user_pos[m] - uav_pos
        if connected[m]:
            gain = p.c2_prem if premium[m] else p.c2_reg
            gate = oracle_bump(rates[m] / (p.beta * targets[m]), 0.0)
            deficit_mbps = (targets[m] - rates[m]) / 1e6
            out += gain * gate * phi_sigmoid(deficit_mbps, p) * \
                sigma_grad(rel, p.eps)
        else:
            dist = float(np.linalg.norm(rel))
            if dist > p.r:
                continue
            shortfall = max(targets[m] - rates[m], 0.0) / targets[m]
            out += p.c1 * shortfall * sigma_grad(-rel, p.eps)
    return out


def _dense_cell_pairs(positions, alive, p):
    """Sigma-gradients, norms and the alive-neighbor-within-r mask of every
    ordered cell pair, as (cells, cells[, 3]) arrays."""
    rel = positions[None, :, :] - positions[:, None, :]
    sq = np.einsum("...k,...k->...", rel, rel)
    grads = rel / np.sqrt(1.0 + p.eps * sq)[..., None]
    dist = np.sqrt(sq)
    near = alive[None, :] & (dist <= p.r)
    np.fill_diagonal(near, False)
    return grads, dist, near


def oracle_cell_pairs(positions, alive, p):
    """kernels._cell_pairs built from every (cells, cells, 3) offset: the
    pairs whose einsum norm is within r, with their sigma-gradients, norms,
    sigma-norms and windows bump(sigma-norm / r_sig, 0.2) taken on the pair
    rows."""
    rel = positions[None, :, :] - positions[:, None, :]
    near = alive[None, :] & (np.sqrt(np.einsum("...k,...k->...", rel, rel))
                             <= p.r)
    np.fill_diagonal(near, False)
    flat = np.flatnonzero(near)
    pair_rel = rel.reshape(-1, 3)[flat]
    sq = np.einsum("...k,...k->...", pair_rel, pair_rel)
    dist = np.sqrt(sq)
    sig = sigma_norm_scalar(dist, p.eps)
    return (*divmod(flat, len(positions)),
            pair_rel / np.sqrt(1.0 + p.eps * sq)[..., None], dist, sig,
            oracle_bump(sig / p.r_sig, 0.2))


def pair_loop(mask, weight, vectors):
    """sum_j weight[i, j] * vectors[i, j] over the True entries of the 2-D
    ``mask`` for each row i, as (rows, 3): each pair's product is added to
    its row component by component in Python floats, one pair at a time in
    row-major order, from +0.0."""
    rows = [[0.0, 0.0, 0.0] for _ in range(mask.shape[0])]
    for i, j in zip(*np.nonzero(mask)):
        w = float(weight[i, j])
        for k, v in enumerate(vectors[i, j].tolist()):
            rows[i][k] += w * v
    return np.array(rows, dtype=float).reshape(-1, 3)


def oracle_f_term_pair_loop(positions, loads, alive, p):
    """f_term for every cell: the weights and gradients of every ordered
    cell pair as (cells, cells[, 3]) arrays, summed by pair_loop over the
    alive neighbors within r, a coincident one with weight 0."""
    grads, dist, near = _dense_cell_pairs(positions, alive, p)
    weight = oracle_pair_potential(sigma_norm_scalar(dist, p.eps), p) + \
        oracle_crowd(loads, p)
    return pair_loop(near, np.where(dist > 0.0, weight, 0.0), grads)


def oracle_g_term_pair_loop(positions, velocities, alive, p):
    """g_term for every cell, as in oracle_f_term_pair_loop: the windows
    and velocity differences of every ordered cell pair, summed over the
    alive neighbors within r."""
    _, dist, near = _dense_cell_pairs(positions, alive, p)
    weight = oracle_bump(sigma_norm_scalar(dist, p.eps) / p.r_sig, 0.2)
    return pair_loop(near, weight,
                     velocities[None, :, :] - velocities[:, None, :])


def oracle_h_term_pair_loop(positions, connected, user_pos, dist, rates,
                            targets, premium, p):
    """h_term for every cell: the weights and gradients of every cell-user
    pair as (cells, users[, 3]) arrays, summed by pair_loop over the pairs
    within r, the range read from ``dist`` as h_term reads it.  The package
    reads the connected pairs off serving ids, so given a ``connected``
    matrix built from ids of users within r, the two must agree bit for
    bit."""
    rel = user_pos[None, :, :] - positions[:, None, :]
    sq = np.einsum("...k,...k->...", rel, rel)
    grads = rel / np.sqrt(1.0 + p.eps * sq)[..., None]
    gain = np.where(premium, p.c2_prem, p.c2_reg)
    gate = oracle_bump(rates / (p.beta * targets), 0.0)
    pull = gain * gate * phi_sigmoid((targets - rates) / 1e6, p)
    push = -p.c1 * (np.maximum(targets - rates, 0.0) / targets)
    return pair_loop(dist <= p.r, np.where(connected, pull, push), grads)


def oracle_flocking_goal_term(uav_pos, user_pos, p):
    if len(user_pos) == 0:
        return np.zeros(3)
    total = np.zeros(3)
    for m in range(len(user_pos)):
        total += user_pos[m]
    return p.c1 * sigma_grad(total / len(user_pos) - uav_pos, p.eps)


def oracle_associate(world, gains):
    """Greedy nearest-feasible association, one user and one sort at a time.

    Returns the serving cell or -1 per user without touching the world.
    """
    n_cells, n_users = len(world.alive), len(world.serving)
    serving = [-1] * n_users
    if not n_cells or not n_users:
        return serving
    dist = np.linalg.norm(world.uav_pos[:, None, :]
                          - world.user_pos[None, :, :], axis=2)
    eligible = world.alive[:, None] & (dist <= gains.r) & \
        (world.premium[None, :] | (world.channel == L0)[:, None])
    nearest = np.where(eligible, dist, np.inf).min(axis=0)
    order = sorted(range(n_users), key=lambda m: (nearest[m], m))
    load = [0] * n_cells
    for m in order:
        if not np.isfinite(nearest[m]):
            continue
        candidates = sorted((n for n in range(n_cells) if eligible[n, m]),
                            key=lambda n: (dist[n, m], n))
        for n in candidates:
            if load[n] < gains.n_max:
                serving[m] = n
                load[n] += 1
                break
    return serving


def left_sum(values):
    """acc += x for each value, left to right from acc = 0.0: the same bits
    on every interpreter, and 0.0 for no values."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def oracle_mean_rates(times, rates, tau):
    """Trailing-tau mean after each (time, rate) record, from one deque of
    (time, rate) pairs: entries at or before time - tau drop out."""
    window = deque()
    means = []
    for time, rate in zip(times, rates):
        window.append((time, rate))
        while window and window[0][0] <= time - tau:
            window.popleft()
        means.append(left_sum(map(itemgetter(1), window)) / len(window))
    return means


def oracle_channel_switching(world, histories, powers, radio, gains):
    """One channel-switching pass in plain loops, from channel_switching's
    docstring, leaving the world untouched.

    ``histories`` holds each user's recorded (time, rate) pairs and
    ``powers`` the tick's received powers as (cells, users) rows, dead rows
    0.  Each cell's trigger is its served premium user below target and at
    or below its oracle_mean_rates mean with the largest deficit, the
    lowest id on ties, on an alive cell whose cooldown has elapsed.  Cells
    go in ascending id.  The candidate is the lowest free channel other than
    the default and the cell's own, else the one with the least co-channel
    power at the trigger.  A switch needs a strict drop of that power, each
    side summed with math.fsum over the other alive cells on its channel;
    leaving the default channel releases regular users.  The channel sums
    are kept as a tick keeps them, one += per alive cell in ascending id
    from 0.0 and one -= / += per switch, so later cells see the updated
    occupancy and sums and a least-power tie falls as the engine's does.
    The SINRs are signal / (noise + interference), the interference an
    fsum over the other alive cells on the channel.

    Returns the events as (cell, old channel, new channel, retained ids,
    SINRs before, SINRs after) and the channel, last_switch, serving and
    rate lists after the pass.
    """
    time, tau, noise_mw = world.time, gains.tau, 10.0 ** (radio.noise / 10.0)
    alive, premium = world.alive.tolist(), world.premium.tolist()
    target = world.target.tolist()
    channel, last_switch = world.channel.tolist(), world.last_switch.tolist()
    serving, rate = world.serving.tolist(), world.rate.tolist()
    powers = powers.tolist()
    cells, users = range(len(alive)), range(len(serving))
    usage = [0] * radio.num_channels
    sums = [[0.0] * len(serving) for _ in range(radio.num_channels)]
    for n in cells:
        if alive[n]:
            usage[channel[n]] += 1
            for m in users:
                sums[channel[n]][m] += powers[n][m]

    def interference(n, k, m):
        return math.fsum(powers[o][m] for o in cells
                         if o != n and alive[o] and channel[o] == k)

    def sinr(n, m):
        return powers[n][m] / (noise_mw + interference(n, channel[n], m))

    # every trigger is found before the pass, as a switch rewrites only its
    # own cell's users
    triggers = {}
    for m in users:
        n = serving[m]
        if n < 0 or not premium[m] or not alive[n] or rate[m] >= target[m]:
            continue
        if time - last_switch[n] < tau:
            continue
        times, rates = zip(*histories[m])
        if rate[m] > oracle_mean_rates(times, rates, tau)[-1]:
            continue
        if n not in triggers or target[m] - rate[m] > triggers[n][0]:
            triggers[n] = (target[m] - rate[m], m)
    events = []
    for n in cells:
        if n not in triggers:
            continue
        trig, current = triggers[n][1], channel[n]
        candidates = [k for k in range(1, radio.num_channels) if k != current]
        if not candidates:
            continue
        best = next((k for k in candidates if usage[k] == 0), None)
        if best is None:
            best = candidates[0]
            for k in candidates:
                if sums[k][trig] < sums[best][trig]:
                    best = k
        if not interference(n, best, trig) < interference(n, current, trig):
            continue
        retained = [m for m in users if serving[m] == n
                    and (current != L0 or premium[m])]
        before = [sinr(n, m) for m in retained]
        usage[current] -= 1
        usage[best] += 1
        for m in users:
            sums[current][m] -= powers[n][m]
            sums[best][m] += powers[n][m]
        channel[n], last_switch[n] = best, time
        after = [sinr(n, m) for m in retained]
        for m in users:
            if serving[m] == n and m not in retained:
                serving[m], rate[m] = -1, 0.0
        events.append((n, current, best, retained, before, after))
    return events, channel, last_switch, serving, rate


def oracle_advance(positions, velocities, alive, controls, gains, height):
    """The semi-implicit Euler step one cell at a time, its speed from
    np.linalg.norm; returns new (positions, velocities) arrays."""
    positions, velocities = positions.copy(), velocities.copy()
    for i in range(len(positions)):
        if not alive[i]:
            continue
        v = velocities[i] + controls[i] * gains.dt
        v[2] = 0.0
        speed = float(np.linalg.norm(v))
        if speed > gains.v_max:
            v = v * (gains.v_max / speed)
        p = positions[i] + v * gains.dt
        p[2] = height
        positions[i], velocities[i] = p, v
    return positions, velocities


def oracle_clamp_controls(u, alive, u_max):
    """control_input's last steps on the summed terms ``u`` in their mask
    form: z zeroed, the rows over u_max scaled by a fancy-indexed factor and
    the dead rows zeroed, each mask applied whatever it selects; returns a
    new array."""
    u = u.copy()
    u[:, 2] = 0.0
    norm = np.sqrt(np.einsum("ij,ij->i", u, u))
    over = norm > u_max
    u[over] *= (u_max / norm[over])[:, None]
    u[~alive] = 0.0
    return u


def oracle_metrics(time, premium, serving, rate, target, active_channels):
    """The tick metrics one user at a time: counts are generators and sums
    are left_sum over Python floats, in user order."""
    users = list(zip(premium.tolist(), serving.tolist(), rate.tolist(),
                     target.tolist()))

    def group_stats(group):
        if not group:
            return (0.0, 0.0, 0.0)
        served = sum(1 for _, n, _, _ in group if n >= 0)
        fulfilled = sum(1 for _, n, r, t in group if n >= 0 and r >= t)
        total_rate = left_sum(r for _, _, r, _ in group)
        k = len(group)
        return (100.0 * served / k, total_rate / k, 100.0 * fulfilled / k)

    p0 = left_sum(abs(r - t) for _, _, r, t in users)
    return TickMetrics(time, *group_stats([u for u in users if u[0]]),
                       *group_stats([u for u in users if not u[0]]),
                       *group_stats(users), p0, active_channels)
