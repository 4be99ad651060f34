"""Potential-field kernels and the three-term swarm controller.

The controller output for UAV i is u_i = f_i + g_i + h_i:

* f: pairwise cohesion/separation between UAVs, shaped by a smooth pair
  potential with its zero at the desired spacing, plus a crowding penalty
  that ramps up as a neighbor's serving load approaches capacity;
* g: velocity consensus with neighbors, weighted by a bump of distance;
* h: user coupling.  Non-connected in-range users with unmet targets repel
  (pushing the UAV off station toward coverage gaps is handled by sign:
  the gradient points away from the user, freeing crowded spots); connected
  users attract or repel through an odd sigmoid of their rate deficit,
  gated off once the trailing rate clears beta times the target.

All kernels are built on the sigma-norm, a smooth everywhere-differentiable
surrogate for the Euclidean norm.  They take the scenario's ControlGains
directly; the sigma-norm images of r, d and n_max and the sigmoid shift are
read-only properties on it.

The terms follow Olfati-Saber's flocking construction, which is defined over
neighbor sets, so each term is evaluated for the whole fleet at once and
returns one (cells, 3) row per cell: f and g are masked (cells, cells)
reductions over the alive cells within r of each cell, sharing one build
of the cell pairs per control pass, h is one masked (cells, users)
reduction whose per-user weights are computed once, and the flocking goal
computes the user centroid once.  The per-pair weights are
contracted with the stacked sigma-gradients in one batched matmul, so each
row sums in BLAS order rather than neighbor order; results agree with a per-neighbor loop
to rounding, within 1e-12 relative.
"""

from __future__ import annotations

import numpy as np

from .model import ControlGains, FLOCKING_MODE, QOS_MODE


def bump(z, gamma: float):
    """Smooth cutoff: 1 on [0, gamma), cosine taper to 0 on [gamma, 1).

    Negative arguments clamp to 1; arguments at or past 1 give 0.
    """
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    out[z < gamma] = 1.0
    mid = (z >= gamma) & (z < 1.0)
    if gamma < 1.0:
        out[mid] = 0.5 * (1.0 + np.cos(np.pi * (z[mid] - gamma) / (1.0 - gamma)))
    if out.ndim == 0:
        return float(out)
    return out


def sigma_norm_scalar(x, eps: float):
    """Sigma-norm of a non-negative magnitude: ((1 + eps x^2)^0.5 - 1)/eps."""
    x = np.asarray(x, dtype=float)
    val = (np.sqrt(1.0 + eps * x * x) - 1.0) / eps
    if val.ndim == 0:
        return float(val)
    return val


def phi_sigmoid(z, p: ControlGains):
    """Uneven sigmoid through the origin with limits -b and a.

    phi(z) = 0.5 * [(a + b) * s(z + c) + (a - b)], s(y) = y / sqrt(1 + y^2).
    With a = b the shift c is 0 and phi is odd.
    """
    z = np.asarray(z, dtype=float)
    y = z + p.c_sig
    s = y / np.sqrt(1.0 + y * y)
    val = 0.5 * ((p.a + p.b) * s + (p.a - p.b))
    if val.ndim == 0:
        return float(val)
    return val


def pair_potential(z_sig, p: ControlGains):
    """Action function for UAV pairs: bump-windowed sigmoid of spacing error.

    Zero crossing at the sigma-image of the desired spacing d; support ends
    at the sigma-image of the communication range r.
    """
    z_sig = np.asarray(z_sig, dtype=float)
    val = bump(z_sig / p.r_sig, 0.2) * phi_sigmoid(z_sig - p.d_sig, p)
    if np.ndim(val) == 0:
        return float(val)
    return val


def _sigma_grads(rel: np.ndarray, eps: float,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sigma-gradients of (..., 3) offsets along the last axis, in ``out``
    when given (which may be ``rel``), and their Euclidean norms."""
    sq = np.einsum("...k,...k->...", rel, rel)
    return (np.divide(rel, np.sqrt(1.0 + eps * sq)[..., None], out=out),
            np.sqrt(sq))


def _row_sums(weight: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """sum_j weight[i, j] * vectors[i, j] for each i: (n, k) weights with
    (n, k, 3) vectors give (n, 3) rows, as one batched matmul."""
    return np.matmul(weight[:, None, :], vectors)[:, 0, :]


def _cell_pairs(positions: np.ndarray, alive: np.ndarray, p: ControlGains):
    """Offsets q_j - q_i, their norms, and which alive j other than i lie
    within r of cell i, as (cells, cells[, 3]) arrays."""
    rel = positions[None, :, :] - positions[:, None, :]
    grads, dist = _sigma_grads(rel, p.eps)
    near = alive[None, :] & (dist <= p.r)
    np.fill_diagonal(near, False)
    return grads, dist, near


def f_term(positions: np.ndarray, loads: np.ndarray, alive: np.ndarray,
           p: ControlGains, pairs=None) -> np.ndarray:
    """Inter-UAV spacing force on every cell, as (cells, 3) rows.

    For each alive neighbor within range r: pair potential of the
    sigma-distance plus a crowding penalty a * (1 - bump(...)) that turns on
    as the neighbor's load approaches n_max, both along the sigma-gradient
    toward the neighbor.  Coincident neighbors (distance 0) exert nothing.
    ``pairs``, when given, is _cell_pairs(positions, alive, p), shared with
    g_term and left unchanged.
    """
    grads, dist, near = pairs or _cell_pairs(positions, alive, p)
    near = near & (dist > 0.0)
    overload = np.maximum(loads - p.n_max, 0)
    crowd = p.a * (1.0 - bump(
        sigma_norm_scalar(overload, p.eps) / p.n_max_sig, 0.0))
    weight = pair_potential(sigma_norm_scalar(dist, p.eps), p) + crowd
    return _row_sums(np.where(near, weight, 0.0), grads)


def g_term(positions: np.ndarray, velocities: np.ndarray, alive: np.ndarray,
           p: ControlGains, pairs=None) -> np.ndarray:
    """Velocity consensus force on every cell over its alive neighbors
    within r, as (cells, 3) rows.

    Coincident neighbors count, with full weight.  ``pairs`` is as in
    f_term.
    """
    _, dist, near = pairs or _cell_pairs(positions, alive, p)
    weight = np.where(near, bump(sigma_norm_scalar(dist, p.eps) / p.r_sig,
                                 0.2), 0.0)
    return _row_sums(weight, velocities[None, :, :] - velocities[:, None, :])


def h_term(positions: np.ndarray, connected: np.ndarray, user_pos: np.ndarray,
           dist: np.ndarray, rates: np.ndarray, targets: np.ndarray,
           premium: np.ndarray, p: ControlGains) -> np.ndarray:
    """User-coupling force on every cell, as (cells, 3) rows.

    `connected` is the (cells, users) serving matrix.  Users not connected
    to a cell, within its range r and short of their target repel it in
    proportion to the relative deficit; its connected users pull (or push)
    it along the line of sight through an odd sigmoid of the deficit in
    Mbit/s, with class-specific gain, gated to zero once the rate reaches
    beta * target.  Both per-user weights are the same for every cell.
    Range is read from `dist`, the tick geometry's (cells, users) distances
    that association read, so a user at exactly r is in range for both.
    """
    rel = user_pos[None, :, :] - positions[:, None, :]
    grads, weight = _sigma_grads(rel, p.eps, out=rel)
    gain = np.where(premium, p.c2_prem, p.c2_reg)
    gate = bump(rates / (p.beta * targets), 0.0)
    pull = gain * gate * phi_sigmoid((targets - rates) / 1e6, p)
    # repulsion runs along the negated sigma-gradient of rel
    push = -p.c1 * (np.maximum(targets - rates, 0.0) / targets)
    # the weights overwrite the norms: pull where connected, else push
    # within r, else 0
    in_range = dist <= p.r
    weight.fill(0.0)
    np.copyto(weight, push, where=in_range)
    np.copyto(weight, pull, where=connected)
    return _row_sums(weight, grads)


def flocking_goal_term(positions: np.ndarray, user_pos: np.ndarray,
                       p: ControlGains) -> np.ndarray:
    """Baseline navigation force on every cell: pull toward the user
    centroid, as (cells, 3) rows."""
    if len(user_pos) == 0:
        return np.zeros_like(positions)
    centroid = user_pos.mean(axis=0)
    return p.c1 * _sigma_grads(centroid - positions, p.eps)[0]


def control_input(positions: np.ndarray, velocities: np.ndarray,
                  loads: np.ndarray, alive: np.ndarray,
                  connected: np.ndarray, user_pos: np.ndarray,
                  dist: np.ndarray, rates: np.ndarray, targets: np.ndarray,
                  premium: np.ndarray, p: ControlGains,
                  mode: str = QOS_MODE) -> np.ndarray:
    """Control inputs for every cell as (cells, 3) rows: z zeroed, each row
    clamped to p.u_max, dead cells zero.  ``dist`` is as in h_term."""
    pairs = _cell_pairs(positions, alive, p)
    u = f_term(positions, loads, alive, p, pairs=pairs) + \
        g_term(positions, velocities, alive, p, pairs=pairs)
    if mode == QOS_MODE:
        u += h_term(positions, connected, user_pos, dist, rates, targets,
                    premium, p)
    elif mode == FLOCKING_MODE:
        u += flocking_goal_term(positions, user_pos, p)
    else:
        raise ValueError(f"unknown controller mode {mode!r}")
    u[:, 2] = 0.0
    norm = np.sqrt(np.einsum("ij,ij->i", u, u))
    over = norm > p.u_max
    u[over] *= (p.u_max / norm[over])[:, None]
    u[~alive] = 0.0
    return u
