"""Potential-field kernels and the three-term swarm controller.

The controller output for UAV i is u_i = f_i + g_i + h_i:

* f: pairwise cohesion/separation between UAVs, shaped by a smooth pair
  potential with its zero at the desired spacing, plus a crowding penalty
  of a neighbor's serving load past capacity, which association never
  allows, so in a run the penalty is +0.0;
* g: velocity consensus with neighbors, weighted by a bump of distance;
* h: user coupling.  Non-connected in-range users with unmet targets repel
  (pushing the UAV off station toward coverage gaps is handled by sign:
  the gradient points away from the user, freeing crowded spots); connected
  users attract or repel through an odd sigmoid of their rate deficit,
  gated off once the trailing rate clears beta times the target.

All kernels are built on the sigma-norm, a smooth everywhere-differentiable
surrogate for the Euclidean norm.  They take the scenario's ControlGains
directly; the sigma-norm images of r, d and n_max and the sigmoid shift are
read-only properties on it.  bump, sigma_norm_scalar, phi_sigmoid and
pair_potential return numpy values, 0-d for a scalar argument.

The terms follow Olfati-Saber's flocking construction, which is defined over
neighbor sets, so each term is evaluated for the whole fleet at once,
returns one (cells, 3) row per cell, and does per-pair work only for the
pairs that interact.  The pair lists are arguments, built by the caller;
no term builds one.  f and g share one list (_cell_pairs) of the ordered
pairs (i, j) with j alive and within r of i, which the engine builds once
per tick and its spacing log reads too; the list carries each pair's
sigma-norm and its window bump(sigma-norm / r_sig, 0.2), which f's pair
potential and g's weight both read.  h reads the list of cell-user
pairs whose user is within r of the cell, which the engine also builds
once per tick and association reads too, and a pair is connected when the
user's serving id, the one association record, names the cell:
association serves a user only from a cell within r, so every connected
pair is on the list.  Both lists are row-major, as np.flatnonzero of a
(cells, cells) or (cells, users) mask gives them.  Each term computes its
sigma-gradients (g: velocity differences) and weights for the listed pairs
only, as (pairs, 3) rows, and sums each cell's products with one
np.bincount per component over the pairs' rows (_pair_sums).  That adds
weight * vector into the cell's row from +0.0, one pair at a time in list
order, so every row has the bits of a literal per-pair loop on any CPU,
and a row with no pair, or with only -0.0 products, reads +0.0.
The sigma-norm's sum of squares stays an einsum over (..., 3) rows: any
other order moves the fig5 goldens.  bump takes its cosine taper over the
whole input and picks taper or 0 with one select, with the bits of
scattering each piece under a mask.
"""

from __future__ import annotations

import numpy as np

from .model import ControlGains, FLOCKING_MODE, QOS_MODE


def bump(z, gamma: float):
    """Smooth cutoff: 1 on [0, gamma), cosine taper to 0 on [gamma, 1).

    Negative arguments clamp to 1; arguments at or past 1, and NaN, give 0.
    The taper is taken once over the whole input, clamped into [gamma, 1]
    so that it stays finite and is exactly 1 below gamma, and one select
    zeroes the arguments not below 1.
    """
    z = np.asarray(z, dtype=float)
    if gamma < 1.0:
        t = np.minimum(np.maximum(z, gamma), 1.0)
        taper = 0.5 * (1.0 + np.cos(np.pi * (t - gamma) / (1.0 - gamma)))
        return np.where(z < 1.0, taper, 0.0)
    return np.where(z < gamma, 1.0, 0.0)


def sigma_norm_scalar(x, eps: float):
    """Sigma-norm of a non-negative magnitude: ((1 + eps x^2)^0.5 - 1)/eps."""
    x = np.asarray(x, dtype=float)
    return (np.sqrt(1.0 + eps * x * x) - 1.0) / eps


def phi_sigmoid(z, p: ControlGains):
    """Uneven sigmoid through the origin with limits -b and a.

    phi(z) = 0.5 * [(a + b) * s(z + c) + (a - b)], s(y) = y / sqrt(1 + y^2).
    With a = b the shift c is 0 and phi is odd.
    """
    z = np.asarray(z, dtype=float)
    y = z + p.c_sig
    s = y / np.sqrt(1.0 + y * y)
    return 0.5 * ((p.a + p.b) * s + (p.a - p.b))


def pair_potential(z_sig, p: ControlGains):
    """Action function for UAV pairs: bump-windowed sigmoid of spacing error.

    Zero crossing at the sigma-image of the desired spacing d; support ends
    at the sigma-image of the communication range r.
    """
    z_sig = np.asarray(z_sig, dtype=float)
    return _pair_potential(z_sig, bump(z_sig / p.r_sig, 0.2), p)


def _pair_potential(z_sig, window, p: ControlGains):
    """pair_potential of ``z_sig`` given its ``window``,
    bump(z_sig / p.r_sig, 0.2)."""
    return window * phi_sigmoid(z_sig - p.d_sig, p)


def _sigma_grads(rel: np.ndarray, eps: float,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sigma-gradients of (..., 3) offsets along the last axis, in ``out``
    when given (which may be ``rel``), and their Euclidean norms."""
    sq = np.einsum("...k,...k->...", rel, rel)
    return (np.divide(rel, np.sqrt(1.0 + eps * sq)[..., None], out=out),
            np.sqrt(sq))


def _pair_indices(mask: np.ndarray):
    """The True entries of a 2-D mask in row-major order, as flat indices,
    rows and columns."""
    flat = np.flatnonzero(mask)
    return (flat, *divmod(flat, mask.shape[1]))


def _pair_sums(n: int, rows: np.ndarray, weight: np.ndarray,
               vectors: np.ndarray) -> np.ndarray:
    """sum of weight * vectors over the pairs of each row, as (n, 3) rows:
    each pair's product is added to its row from +0.0 in list order."""
    out = np.empty((n, 3))
    for k in range(3):
        out[:, k] = np.bincount(rows, weights=weight * vectors[:, k],
                                minlength=n)
    return out


def _cell_pairs(positions: np.ndarray, alive: np.ndarray, p: ControlGains):
    """The pairs (i, j) of a cell i and an alive cell j other than i within
    r of it, in row-major order, as rows i and columns j, with each pair's
    sigma-gradient toward j as (pairs, 3) rows, its distance, its
    sigma-norm and its window bump(sigma-norm / r_sig, 0.2), which f reads
    in the pair potential and g as its consensus weight.

    The candidates are the pairs whose horizontal squared distance is
    within r and a margin no rounding crosses; only their offsets are
    built, and the range test reads the norm _sigma_grads returns, so a
    pair at exactly r is in range as in the (cells, cells, 3) form.
    """
    x, y = positions[:, 0], positions[:, 1]
    sq = np.subtract.outer(x, x)
    sq *= sq
    dy = np.subtract.outer(y, y)
    dy *= dy
    sq += dy
    near = sq <= (p.r * (1.0 + 1e-9)) ** 2
    near &= alive
    near.reshape(-1)[::len(x) + 1] = False      # the diagonal
    _, i, j = _pair_indices(near)
    grads, dist = _sigma_grads(
        positions.take(j, axis=0) - positions.take(i, axis=0), p.eps)
    keep = dist <= p.r
    if not keep.all():
        i, j, grads, dist = i[keep], j[keep], grads[keep], dist[keep]
    sig = sigma_norm_scalar(dist, p.eps)
    return i, j, grads, dist, sig, bump(sig / p.r_sig, 0.2)


def f_term(positions: np.ndarray, loads: np.ndarray, p: ControlGains,
           pairs) -> np.ndarray:
    """Inter-UAV spacing force on every cell, as (cells, 3) rows.

    For each alive neighbor within range r: pair potential of the
    sigma-distance plus a crowding penalty a * (1 - bump(...)) of the
    neighbor's load past n_max, both along the sigma-gradient toward the
    neighbor.  The penalty is +0.0 for a load at or below n_max, which
    association never exceeds, so in a run it never acts; it is computed
    only when some load is past n_max.  Coincident neighbors (distance 0)
    exert nothing.  ``pairs`` is _cell_pairs(positions, alive, p), shared
    with g_term and left unchanged.
    """
    i, j, grads, dist, sig, window = pairs
    potential = _pair_potential(sig, window, p)
    if (loads > p.n_max).any():
        overload = np.maximum(loads - p.n_max, 0)
        crowd = p.a * (1.0 - bump(
            sigma_norm_scalar(overload, p.eps) / p.n_max_sig, 0.0))
        weight = potential + crowd[j]
    else:
        weight = potential + 0.0    # a zero penalty's bits: -0.0 is +0.0
    return _pair_sums(len(positions), i, np.where(dist > 0.0, weight, 0.0),
                      grads)


def g_term(positions: np.ndarray, velocities: np.ndarray, p: ControlGains,
           pairs) -> np.ndarray:
    """Velocity consensus force on every cell over its alive neighbors
    within r, as (cells, 3) rows.

    The weight of a neighbor is the window of its sigma-distance,
    bump(sigma-norm / r_sig, 0.2).  Coincident neighbors count, with full
    weight.  ``pairs`` is as in f_term.
    """
    i, j, _, _, _, window = pairs
    return _pair_sums(len(positions), i, window, velocities.take(j, axis=0)
                      - velocities.take(i, axis=0))


def h_term(positions: np.ndarray, serving: np.ndarray, user_pos: np.ndarray,
           rates: np.ndarray, targets: np.ndarray, premium: np.ndarray,
           p: ControlGains, links) -> np.ndarray:
    """User-coupling force on every cell, as (cells, 3) rows.

    `serving` holds each user's serving cell id, -1 while unserved, and a
    served user is within r of its cell.  Users not connected to a cell,
    within its range r and short of their target repel it in
    proportion to the relative deficit; its connected users pull (or push)
    it along the line of sight through an odd sigmoid of the deficit in
    Mbit/s, with class-specific gain, gated to zero once the rate reaches
    beta * target.  Both per-user weights are the same for every cell.
    Range is read from ``links``, the tick's in-range list that
    association read too, as flat indices into (cells, users), cells and
    users, so a user at exactly r is in range for both; it is left
    unchanged.
    """
    _, cell, user = links
    rel = user_pos.take(user, axis=0) - positions.take(cell, axis=0)
    grads = _sigma_grads(rel, p.eps, out=rel)[0]
    gain = np.where(premium, p.c2_prem, p.c2_reg)
    gate = bump(rates / (p.beta * targets), 0.0)
    pull = gain * gate * phi_sigmoid((targets - rates) / 1e6, p)
    # repulsion runs along the negated sigma-gradient of rel
    push = -p.c1 * (np.maximum(targets - rates, 0.0) / targets)
    weight = np.where(serving.take(user) == cell, pull.take(user),
                      push.take(user))
    return _pair_sums(len(positions), cell, weight, grads)


def flocking_goal_term(positions: np.ndarray, user_pos: np.ndarray,
                       p: ControlGains, centroid: np.ndarray) -> np.ndarray:
    """Baseline navigation force on every cell: pull toward the user
    centroid, as (cells, 3) rows.  ``centroid`` is user_pos.mean(axis=0),
    which a world whose users never move takes once; with no users the
    force is zero."""
    if len(user_pos) == 0:
        return np.zeros_like(positions)
    return p.c1 * _sigma_grads(centroid - positions, p.eps)[0]


def control_input(positions: np.ndarray, velocities: np.ndarray,
                  loads: np.ndarray, alive: np.ndarray,
                  serving: np.ndarray, user_pos: np.ndarray,
                  rates: np.ndarray, targets: np.ndarray,
                  premium: np.ndarray, p: ControlGains, mode: str, pairs,
                  links, centroid: np.ndarray) -> np.ndarray:
    """Control inputs for every cell as (cells, 3) rows: z zeroed, each row
    clamped to p.u_max, dead cells zero.  ``pairs`` is as in f_term,
    ``serving`` and ``links`` are as in h_term and read in QoS mode only,
    ``centroid`` is as in flocking_goal_term and read in flocking mode
    only."""
    u = f_term(positions, loads, p, pairs) + \
        g_term(positions, velocities, p, pairs)
    if mode == QOS_MODE:
        u += h_term(positions, serving, user_pos, rates, targets, premium, p,
                    links)
    elif mode == FLOCKING_MODE:
        u += flocking_goal_term(positions, user_pos, p, centroid)
    else:
        raise ValueError(f"unknown controller mode {mode!r}")
    u[:, 2] = 0.0
    norm = np.sqrt(np.einsum("ij,ij->i", u, u))
    over = norm > p.u_max
    if over.any():
        u[over] *= (p.u_max / norm[over])[:, None]
    if not alive.all():
        u[~alive] = 0.0
    return u
