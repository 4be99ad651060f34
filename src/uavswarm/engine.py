"""Discrete-time world state and the per-tick orchestration loop.

A tick evaluates, then integrates.  Evaluate, on frozen positions: (1) due
failure events fire, (2) users associate to UAVs, (3) link rates and rate
windows update, (4) UAVs may switch channels (QoS mode only), (5) metrics
are recorded, invariants checked and spacing violations logged.
Integrate: (6) one control pass for the whole fleet, then one step.

step() runs both halves, run() the same two but skips the last integration;
the world keeps the failure and spacing logs.  Time advances as tick * dt
from an integer tick counter, never by accumulation.

The world's state is WorldState's arrays, one row per cell or per user, and
every phase reads and writes them whole; world.uavs and world.users are
read-only views of their rows.  Only the rate windows and the switching pass
still go one user or one cell at a time.

Positions do not change between the failure phase and the step, so the
geometry (radio.geometry: slant distance and elevation) is built once per
tick, right after (1), over every cell and the users some cell can reach:
the near set, the users within r + _SKIN of some cell, dead or alive,
where the cells were when the set was taken, or every user when it would
leave out fewer than _NARROW_LINKS links.  The world's first tick takes
the set, and so does each tick after some cell has moved more than _SKIN
since, until a set is every user, which is kept; such a tick covers every
user.  Users never move, so by the triangle inequality every pair within
r is among the set's columns.  With
the geometry comes the tick's list of the cell-user pairs within r
(tick_geometry, a row-major list of flat indices into (cells, users),
cells and users), which radio builds block by block as it writes the
distances: association takes each user's eligible cells from it and
h_term its pairs, and association and the invariant check read the
geometry's distances, so every range test sees the very values
association saw.  update_rates hands the geometry to
radio.received_power_field, which writes the power field over the
elevations, their one reader; the field and the channel sums cover the
geometry's columns, and rates, switching and the invariant check take a
user's column from the workspace.  The tick makes each of those two radio
calls once, from its own thread; on a field of at least
radio._SPLIT_LINKS links radio computes blocks of cell rows on a thread
pool inside the call, with the same bits on any CPU count.  Each cell's
alive neighbors within r (kernels._cell_pairs) are listed once too, right
after the geometry, for the spacing log and for f and g; h reads the
users' serving ids, the one association record.

The world's cell and user counts are fixed (dead cells keep their rows),
so a tick's arrays are two float (cells, users) buffers that the world
builds on first use (world.workspace, with the near set) and the tick
writes in place with out=: the distances, and the elevations, which
become the power field; a tick over the near set writes (cells, near)
views of their first elements.  Radio's other steps take temporaries of
at most radio._CHUNK elements in all, however many blocks run at once.
The distances tick_geometry returns stay valid until the next
tick_geometry on that world, its elevations until update_rates (the power
field then holds until the next tick_geometry); nothing reads either
after its tick.  run() drops the workspace and its near set when it
returns, and a later step() builds both again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import _cell_pairs, _pair_indices, control_input
from .metrics import TickMetrics, compute_metrics
from .model import (
    L0,
    PREMIUM,
    QOS_MODE,
    REGULAR,
    TARGET_RATE,
    ControlGains,
    RadioParams,
    ScenarioConfig,
    UavState,
    UserState,
    check_seed,
    read_value,
    round_half_up,
)
from .radio import (Geometry, data_rate, dbm_to_mw, geometry_in_range,
                    received_power_field)


# A tick computes the radio field over the users within r + _SKIN of some
# cell, dead or alive, at the last rebuild, and rebuilds once a cell has
# moved more than _SKIN since: by the triangle inequality every pair within
# r is still among them (users never move).  Cells move at most v_max * dt
# = 2.0 m a tick (1.59 m on average on field_flock).  A wider skin covers
# more users, a narrower one rebuilds more often, and a rebuild tick covers
# every user: field_flock's near set holds 68.3% / 73.8% / 82.4% of its
# users at 25 / 50 / 100 m, and the sweep's 6- and 11-cell runs 18% / 33%
# at 25 m.  A field_flock run (in-process, median of 6) took 317 ms at
# 25 m, 318-325 ms at 5-15 m, 334-355 ms at 40-100 m, and 361 ms with a
# rebuild every tick.
_SKIN = 25.0

# A near set that leaves out fewer links than this is taken as every user:
# a tick over it would save less radio work than its column lookups cost.
# Same-process pairs (16 each, 2-vCPU x86-64 KVM guest) read -1.7% and
# -3.8% for sweep's 6- and 11-cell runs (2,952 and 4,400 links left out)
# and +2.2% for fig5 (300) when they all narrowed, and +4.6% / +3.7% for
# the 16- and 21-cell runs, whose set holds every user.
_NARROW_LINKS = 2_000


@dataclass(eq=False)
class Workspace:
    """The tick's (cells, users) geometry buffers and the near set
    (tick_geometry): ``anchor``, the cells' positions when it was taken,
    ``near``, its users' ascending ids, None while it is every user,
    ``near_pos``, their positions, and ``column``, each user's index in
    ``near`` (len(near) outside it).  A tick between rebuilds writes its
    (cells, len(near)) arrays into the first cells x len(near) elements of
    the buffers, as contiguous views."""
    buffers: Geometry
    anchor: Optional[np.ndarray] = None
    near: Optional[np.ndarray] = None
    near_pos: Optional[np.ndarray] = None
    column: Optional[np.ndarray] = None


@dataclass(eq=False)
class WorldState:
    """The world's state as arrays indexed by cell and user id.  Phases
    write them in place, never rebind them, so the views stay current."""
    time: float
    tick: int
    uav_pos: np.ndarray             # (cells, 3) m, z pinned to the height
    uav_vel: np.ndarray             # (cells, 3) m/s, z always 0
    alive: np.ndarray               # (cells,) bool
    channel: np.ndarray             # (cells,) int
    last_switch: np.ndarray         # (cells,) s, time of the last switch
    user_pos: np.ndarray            # (users, 3) m, z = 0
    premium: np.ndarray             # (users,) bool, else regular
    target: np.ndarray              # (users,) bits/s
    serving: np.ndarray             # (users,) cell id, -1 while unserved
    rate: np.ndarray                # (users,) bits/s, 0.0 while unserved
    user_centroid: np.ndarray       # (3,) user_pos.mean(axis=0), 0 if none
    failure_rng: np.random.Generator
    fired: set[int] = field(default_factory=set)   # failure_events indices
    failures: list[tuple[float, list[int]]] = field(default_factory=list)
    # (time, uav_id, uav_id, distance) per alive pair closer than gains.d
    min_distance_violations: list[tuple] = field(default_factory=list)
    # the tick's geometry buffers and near set, built on first use
    workspace: Optional[Workspace] = field(default=None, repr=False)
    uavs: list[UavState] = field(init=False, repr=False)
    users: list[UserState] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arrays = {k: v for k, v in vars(self).items()
                  if isinstance(v, np.ndarray)}
        self.uavs = [UavState(n, arrays) for n in range(len(self.alive))]
        self.users = [UserState(m, arrays) for m in range(len(self.serving))]


@dataclass
class SwitchEvent:
    time: float
    uav_id: int
    old_channel: int
    new_channel: int
    user_ids: list[int]             # premium users retained across the switch
    sinr_before: list[float]        # linear, at frozen positions
    sinr_after: list[float]


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    metrics: list[TickMetrics]
    trace: list[tuple]              # rows of TRACE_COLUMNS
    user_trace: list[tuple]         # rows of USER_TRACE_COLUMNS
    switch_events: list[SwitchEvent]
    failures: list[tuple[float, list[int]]]
    min_distance_violations: list[tuple[float, int, int, float]]
    world: WorldState


def resolve_user_positions(config: ScenarioConfig) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """Expand user specs to arrays: each user's premium flag and its (x, y,
    0) position, one block of rows per spec, in spec order.

    Region entries draw from a stream keyed only by the scenario seed, so
    every run of a sweep sees the same user field.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    premium = np.zeros(config.n_users(), dtype=bool)
    pos = np.zeros((len(premium), 3))
    start = 0
    for spec in config.users:
        end = start + (spec.count if spec.region is not None else 1)
        if spec.region is None:
            pos[start, :2] = spec.position
        else:
            x0, y0, x1, y1 = spec.region
            pos[start:end, 0] = rng.uniform(x0, x1, size=spec.count)
            pos[start:end, 1] = rng.uniform(y0, y1, size=spec.count)
        premium[start:end] = spec.klass == PREMIUM
        start = end
    return premium, pos


def _seed(config: ScenarioConfig, run_seed) -> int:
    return config.seed if run_seed is None else \
        check_seed(read_value(int, run_seed, "run_seed"), "run_seed")


def make_world(config: ScenarioConfig, run_seed: Optional[int] = None) -> WorldState:
    config.validate()
    seed = _seed(config, run_seed)
    premium, user_pos = resolve_user_positions(config)
    if config.uav_count == 0:
        starts = np.zeros((0, 2))
    elif config.uav_initial_positions is not None:
        starts = np.array(config.uav_initial_positions, dtype=float)
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        x0, y0, x1, y1 = config.uav_region
        xs = rng.uniform(x0, x1, size=config.uav_count)
        ys = rng.uniform(y0, y1, size=config.uav_count)
        starts = np.column_stack([xs, ys])
    n_cells, n_users = len(starts), len(premium)
    return WorldState(
        time=0.0, tick=0,
        uav_pos=np.column_stack([starts, np.full(n_cells, float(config.H))]),
        uav_vel=np.zeros((n_cells, 3)), alive=np.ones(n_cells, dtype=bool),
        channel=np.full(n_cells, L0), last_switch=np.zeros(n_cells),
        user_pos=user_pos, premium=premium,
        target=np.where(premium, TARGET_RATE[PREMIUM], TARGET_RATE[REGULAR]),
        serving=np.full(n_users, -1), rate=np.zeros(n_users),
        # users never move, so the flocking goal's centroid is taken once
        user_centroid=user_pos.mean(axis=0) if n_users else np.zeros(3),
        failure_rng=np.random.default_rng(np.random.SeedSequence([seed, 2])))


def inject_failures(world: WorldState, fraction: float) -> list[int]:
    """Kill a round-half-up fraction of the alive UAVs, chosen uniformly.

    Their users are not released here: association, which runs next in the
    tick, resets every serving id, and the rate update rewrites every rate.
    """
    alive_ids = np.flatnonzero(world.alive)
    count = min(round_half_up(fraction * len(alive_ids)), len(alive_ids))
    if count <= 0:
        return []
    chosen = world.failure_rng.choice(alive_ids, size=count, replace=False)
    killed = sorted(chosen.tolist())
    world.alive[killed] = False
    world.uav_vel[killed] = 0.0
    return killed


def _workspace(world: WorldState) -> Workspace:
    if world.workspace is None:
        shape = (len(world.alive), len(world.serving))
        world.workspace = Workspace(Geometry(np.empty(shape),
                                             np.empty(shape)))
    return world.workspace


def _stayed_near(uav_pos: np.ndarray, anchor: np.ndarray) -> bool:
    """Whether no cell has moved more than _SKIN from ``anchor``; False
    for a position that is not finite, so that it rebuilds."""
    moved = uav_pos - anchor
    moved *= moved
    # NaN propagates through the maximum, and fails the comparison
    return bool(np.maximum.reduce(np.add.reduce(moved, axis=1), initial=0.0)
                <= _SKIN ** 2)


def tick_geometry(world: WorldState, r: float):
    """The geometry of the world's current positions, as views of the
    world's workspace buffers, and the tick's in-range list: the cell-user
    pairs within ``r`` as flat indices into (cells, users), cells and
    users in row-major order (radio.geometry_in_range).

    The geometry covers every cell and the users of the world's near set,
    in ascending id order (Workspace); the engine's readers take a user's
    column from the workspace.  A tick that rebuilds the set, the world's
    first and each one after some cell has moved more than _SKIN since the
    last build, covers every user and takes the next set from its pairs
    within r + _SKIN, or every user when the set would leave out fewer
    than _NARROW_LINKS links; a set of every user is never taken again.
    The distances hold until the next tick_geometry on that world, the
    elevations until update_rates writes the power field over them.  Code
    that keeps two geometries calls radio.geometry."""
    ws = _workspace(world)
    n_cells, n_users = ws.buffers.dist.shape
    if ws.anchor is not None and ws.near is None:
        # every pair within r is among every user's, wherever cells move
        return geometry_in_range(world.uav_pos, world.user_pos, r,
                                 out=ws.buffers)
    if ws.anchor is None or not _stayed_near(world.uav_pos, ws.anchor):
        # a margin no rounding crosses, as _cell_pairs' prefilter takes
        geom, (flat, cell, user) = geometry_in_range(
            world.uav_pos, world.user_pos, (r + _SKIN) * (1.0 + 1e-9),
            out=ws.buffers)
        reached = np.zeros(n_users, dtype=bool)
        reached[user] = True
        near = np.flatnonzero(reached)
        ws.anchor = world.uav_pos.copy()
        ws.near = None
        if n_cells * (n_users - len(near)) >= _NARROW_LINKS:
            # stored as the transpose of contiguous x, y and z rows, the
            # layout radio reads, so that no tick copies them
            ws.near, ws.near_pos = near, world.user_pos[near].T.copy().T
            ws.column = np.full(n_users, len(near))
            ws.column[near] = np.arange(len(near))
        keep = geom.dist.take(flat) <= r
        return geom, (flat[keep], cell[keep], user[keep])
    shape = (n_cells, len(ws.near))
    geom, (_, cell, col) = geometry_in_range(
        world.uav_pos, ws.near_pos, r,
        out=Geometry(*(buf.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
                       for buf in ws.buffers)))
    return geom, _as_users(world, cell, col)


def _columns(world: WorldState, field: np.ndarray, users):
    """The columns of ``users`` in ``field``, a tick array over every user
    or over the world's near set (tick_geometry); a user outside the set
    gets the field's width, which no index reaches."""
    if field.shape[1] == len(world.serving):
        return users
    return world.workspace.column[users]


def _as_users(world: WorldState, cell: np.ndarray, col: np.ndarray):
    """The in-range list of pairs of cells and near-set columns, as flat
    indices into (cells, users), cells and users; the set is ascending, so
    the list stays row-major."""
    user = world.workspace.near[col]
    return cell * len(world.serving) + user, cell, user


def _in_range(world: WorldState, dist: np.ndarray, r: float):
    """The in-range list of a tick's distances, as tick_geometry gives it."""
    flat, cell, col = _pair_indices(dist <= r)
    if dist.shape[1] == len(world.serving):
        return flat, cell, col
    return _as_users(world, cell, col)


def associate_users(world: WorldState, gains: ControlGains,
                    geom: Geometry, links=None) -> None:
    """Greedy nearest-feasible association with per-UAV capacity.

    A UAV is eligible for a user when alive, within range r, and (for
    regular users) on the default channel.  Users are processed in order of
    distance to their nearest eligible UAV; each takes the nearest eligible
    UAV with spare capacity, spilling to the next nearest when full.
    Distances come from the tick's geometry, and the eligible pairs from
    ``links``, the tick's in-range list (tick_geometry), built from the
    distances when not given.

    When no UAV is the nearest eligible one of more than n_max users, no
    user ever finds its nearest UAV full, so every user takes it; the
    greedy pass runs only when some UAV would spill.
    """
    n_cells, n_users = len(world.alive), len(world.serving)
    world.serving.fill(-1)
    if not n_cells or not n_users:
        return
    flat, cell, user = links or _in_range(world, geom.dist, gains.r)
    keep = world.alive[cell] & (world.premium[user]
                                | (world.channel[cell] == L0))
    flat, cell, user = flat[keep], cell[keep], user[keep]
    width = geom.dist.shape[1]
    if width < n_users:                     # a tick over the near set
        flat = cell * width + world.workspace.column[user]
    dist = geom.dist.take(flat)
    nearest = np.full(n_users, np.inf)
    np.minimum.at(nearest, user, dist)
    # the lowest id among equal distances, as argmin picks it
    tied = dist == nearest[user]
    closest = np.full(n_users, n_cells)
    np.minimum.at(closest, user[tied], cell[tied])
    reachable = np.isfinite(nearest)
    if np.bincount(closest[reachable], minlength=n_cells).max() <= gains.n_max:
        world.serving[reachable] = closest[reachable]
        return
    order = np.lexsort((np.arange(n_users), nearest))
    order = order[:np.count_nonzero(reachable)].tolist()
    # each user's pairs, in ascending cell order as the list runs
    by_user = np.argsort(user, kind="stable")
    counts = np.bincount(user, minlength=n_users)
    ends = np.cumsum(counts)
    starts = ends - counts
    closest = closest.tolist()
    load = [0] * n_cells
    taken, cells = [], []
    for m in order:
        n = closest[m]
        if load[n] >= gains.n_max:
            # spill: rank only this user's eligible UAVs, nearest first
            mine = by_user[starts[m]:ends[m]]
            mine = mine[np.argsort(dist[mine], kind="stable")]
            n = next((c for c in cell[mine].tolist()
                      if load[c] < gains.n_max), None)
            if n is None:
                continue
        taken.append(m)
        cells.append(n)
        load[n] += 1
    world.serving[taken] = cells


def _sinr(signal, total, noise_mw: float):
    """Linear SINR of a link whose channel carries ``total`` mW at its user,
    ``signal`` of it from the serving cell: the one SINR expression."""
    return signal / (noise_mw + (total - signal))


def _apply_rates(world: WorldState, powers: np.ndarray, chan_power: np.ndarray,
                 radio: RadioParams) -> None:
    rate, width = world.rate, powers.shape[1]
    served = np.flatnonzero(world.serving >= 0)
    cells = world.serving.take(served)
    cols = _columns(world, powers, served)
    sinr = _sinr(powers.take(cells * width + cols),
                 chan_power.take(world.channel.take(cells) * width + cols),
                 float(dbm_to_mw(radio.noise)))
    rate.fill(0.0)
    rate[served] = data_rate(sinr, radio.bandwidth)


def update_rates(world: WorldState, radio: RadioParams, gains: ControlGains,
                 geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Compute every link's achieved rate and push it into the rate windows.

    Returns the received-power matrix in mW over the tick's geometry, its
    cells and its users' columns (tick_geometry), with dead UAVs zeroed,
    written over the geometry's elevations, their one reader, so that it
    allocates no array of that shape, and the (num_channels, columns)
    per-channel power sums.  The served users are those of the tick's
    association, each in the geometry's columns.
    """
    powers = received_power_field(geom, radio, out=geom.elev)
    if not world.alive.all():
        powers[~world.alive] = 0.0
    chan_power = np.zeros((radio.num_channels, powers.shape[1]))
    cells = np.flatnonzero(world.alive)
    channels = world.channel[cells]
    if len(cells) and (channels == channels[0]).all():
        # dead rows are 0, so one channel's sums are the column sums, added
        # row after row as the loop below adds them
        np.add.reduce(powers, axis=0, out=chan_power[channels[0]])
    else:
        for n, k in zip(cells.tolist(), channels.tolist()):
            chan_power[k] += powers[n]
    _apply_rates(world, powers, chan_power, radio)
    time, tau = world.time, gains.tau
    for user, r in zip(world.users, world.rate.tolist()):
        user.record_rate(time, r, tau)
    return powers, chan_power


def _loads(world: WorldState) -> np.ndarray:
    """Each cell's load, counted from the users' serving ids."""
    serving = world.serving
    return np.bincount(serving[serving >= 0], minlength=len(world.alive))


def channel_switching(world: WorldState, powers: np.ndarray,
                      chan_power: np.ndarray, radio: RadioParams,
                      gains: ControlGains) -> list[SwitchEvent]:
    """Per-tick channel reassignment pass, ascending UAV id.

    A UAV considers switching when some served premium user is below
    target, at or below its own trailing mean, and the UAV's cooldown has
    elapsed.  The candidate channel (never the default) is the lowest-index
    free one, else the one with least co-channel power at the worst-deficit
    user.  The switch happens only if it strictly reduces interference for
    that user, each side summed exactly (math.fsum) over the other alive
    cells' powers on its channel, so a tie never switches; leaving the
    default channel releases any regular users.  Later UAVs in the same pass
    see the updated channel occupancy.  ``powers`` and ``chan_power`` are
    update_rates' arrays, over the tick's columns.
    """
    events: list[SwitchEvent] = []
    noise_mw = float(dbm_to_mw(radio.noise))
    n_channels = radio.num_channels
    channel, serving = world.channel, world.serving
    usage = np.bincount(channel[world.alive], minlength=n_channels).tolist()
    # a switch rewrites only its own cell's users, so each cell's trigger
    # user is found before the pass: the served premium user below target
    # and at or below its mean with the largest deficit, the lowest id of
    # equal ones, on an alive cell out of cooldown
    ready = world.alive & ~(world.time - world.last_switch < gains.tau)
    below = np.flatnonzero((serving >= 0) & world.premium
                           & (world.rate < world.target))
    below = below[ready[serving[below]]]
    triggers: dict[int, tuple[float, int]] = {}     # cell: (deficit, user)
    for m, n, c, t in zip(below.tolist(), serving[below].tolist(),
                          world.rate[below].tolist(),
                          world.target[below].tolist()):
        if c <= world.users[m].mean_rate and \
                t - c > triggers.get(n, (0.0,))[0]:
            triggers[n] = (t - c, m)
    premium = world.premium.tolist()
    for n in sorted(triggers):
        trig = triggers[n][1]
        current = int(channel[n])
        candidates = [k for k in range(1, n_channels) if k != current]
        if not candidates:
            continue
        col = _columns(world, powers, trig)
        free = [k for k in candidates if usage[k] == 0]
        best_k = free[0] if free else min(
            candidates, key=chan_power[:, col].__getitem__)
        # dead cells' powers are 0, so a channel's cells need no alive mask
        at_trig = powers[:, col]
        others = channel == current
        others[n] = False
        if not math.fsum(at_trig[channel == best_k]) < math.fsum(
                at_trig[others]):
            continue
        served = np.flatnonzero(serving == n).tolist()        # ascending
        released = [m for m in served if current == L0 and not premium[m]]
        retained = [m for m in served if m not in released]
        cols = _columns(world, powers, retained)
        signal = powers[n, cols]
        sinr_before = _sinr(signal, chan_power[current, cols], noise_mw)
        chan_power[current] -= powers[n]
        chan_power[best_k] += powers[n]
        sinr_after = _sinr(signal, chan_power[best_k, cols], noise_mw)
        usage[current] -= 1
        usage[best_k] += 1
        channel[n] = best_k
        world.last_switch[n] = world.time
        serving[released] = -1
        world.rate[released] = 0.0
        events.append(SwitchEvent(world.time, n, current, best_k, retained,
                                  sinr_before.tolist(), sinr_after.tolist()))
    return events


def control_all(world: WorldState, gains: ControlGains, mode: str,
                dist: np.ndarray, pairs=None, links=None) -> np.ndarray:
    """Control inputs for all UAVs from one frozen state snapshot.

    Each controller term runs once for the whole fleet, on the world's
    arrays; dead UAVs get zero rows.  ``dist`` is the tick geometry's
    distances at these positions (tick_geometry), and h reads the users'
    serving ids as they are.  ``pairs``, the tick's kernels._cell_pairs at
    these positions, and ``links``, its in-range list, h's range test, are
    built when not given.
    """
    return control_input(world.uav_pos, world.uav_vel, _loads(world),
                         world.alive, world.serving, world.user_pos, dist,
                         world.rate, world.target, world.premium, gains, mode,
                         pairs, links or _in_range(world, dist, gains.r),
                         world.user_centroid)


def advance(world: WorldState, controls: np.ndarray, gains: ControlGains,
            height: float) -> None:
    """Semi-implicit Euler step with speed clamp and fixed flight height;
    dead cells are not touched.  Each speed is the root of a stacked-matmul
    dot product, which has np.linalg.norm's bits; einsum's does not.  With
    every cell alive the step reads and writes whole arrays."""
    every = world.alive.all()
    live = slice(None) if every else np.flatnonzero(world.alive)
    vel, pos, ctrl = (a if every else a.take(live, axis=0)
                      for a in (world.uav_vel, world.uav_pos, controls))
    vel = vel + ctrl * gains.dt
    vel[:, 2] = 0.0
    speed = np.sqrt(np.matmul(vel[:, None, :], vel[:, :, None]))[:, 0, 0]
    over = speed > gains.v_max
    if over.any():
        vel[over] *= (gains.v_max / speed[over])[:, None]
    pos = pos + vel * gains.dt
    pos[:, 2] = height
    world.uav_vel[live] = vel
    world.uav_pos[live] = pos
    world.tick += 1
    world.time = world.tick * gains.dt


def _raise_first(checks) -> None:
    """Raise for the lowest index failing any of ``checks``, (mask, message
    for an index) pairs, with the message of the first check it fails."""
    if not any(mask.any() for mask, _ in checks):
        return
    masks = np.array([mask for mask, _ in checks])
    i = int(masks.any(axis=0).argmax())
    raise RuntimeError(checks[int(masks[:, i].argmax())][1](i))


def _check_invariants(world: WorldState, config: ScenarioConfig,
                      geom: Geometry) -> None:
    """Raise for the first breach, as _raise_first orders each group's
    checks.  A group passes on whole-array reductions and builds its masks
    and messages only when one of them fails."""
    pos, vel, alive, channel = (world.uav_pos, world.uav_vel, world.alive,
                                world.channel)
    serving, rate = world.serving, world.rate
    if serving.min(initial=-1) < -1 or serving.max(initial=-1) >= len(alive):
        _raise_first([((serving < -1) | (serving >= len(alive)),
                       lambda m: f"user {m} served by unknown UAV {serving[m]}")])
    loads = _loads(world)
    if (loads.max(initial=0) > config.gains.n_max
            or not np.isfinite(pos).all() or (pos[:, 2] != config.H).any()
            or vel[:, 2].any() or channel.min(initial=0) < 0
            or channel.max(initial=0) >= config.radio.num_channels
            or not np.isfinite(vel).all()):
        _raise_first([
            (loads > config.gains.n_max, lambda n: f"UAV {n} over capacity: {loads[n]}"),
            (~np.isfinite(pos).all(axis=1), lambda n: f"UAV {n} position not finite"),
            (alive & (pos[:, 2] != config.H), lambda n: f"UAV {n} off the flight plane"),
            (alive & (vel[:, 2] != 0.0), lambda n: f"UAV {n} has vertical velocity"),
            ((channel < 0) | (channel >= config.radio.num_channels),
             lambda n: f"UAV {n} on invalid channel {channel[n]}"),
            (~np.isfinite(vel).all(axis=1), lambda n: f"UAV {n} velocity not finite")])
    served = np.flatnonzero(serving >= 0)
    cells = serving.take(served)
    # the distances association read, so a user it found in range at
    # exactly r passes here too; on a tick over the near set a user
    # outside it has the field's width as its column and is beyond r
    dist, r = geom.dist, config.gains.r
    width = dist.shape[1]
    cols = _columns(world, dist, served)
    if not (alive.take(cells).all()
            and (width == len(serving) or (cols < width).all())
            and not (dist.take(cells * width + cols) > r).any()
            and (world.premium.take(served)
                 | (channel.take(cells) == L0)).all()):
        far = cols == width
        near = ~far
        far[near] = dist[cells[near], cols[near]] > r
        _raise_first([
            (~alive[cells], lambda i: f"user {served[i]} served by dead UAV {cells[i]}"),
            (far, lambda i: f"user {served[i]} served out of range"),
            (~world.premium[served] & (channel[cells] != L0),
             lambda i: f"regular user {served[i]} served off the default channel")])
    if not 0.0 <= rate.min(initial=0.0) or not rate.max(initial=0.0) < np.inf \
            or rate.any(where=serving < 0):
        _raise_first([
            (~np.isfinite(rate) | (rate < 0.0),
             lambda m: f"user {m} has invalid rate {rate[m]}"),
            ((serving < 0) & (rate != 0.0),
             lambda m: f"unserved user {m} has rate {rate[m]}")])


def _record_min_distance(world: WorldState, gains: ControlGains,
                         pairs) -> None:
    """Log each alive pair i < j closer than d < r off the tick's cell
    pairs, whose row-major order is that of a nested loop."""
    i, j, _, dist, _, _ = pairs
    close = np.flatnonzero(world.alive[i] & (i < j) & (dist < gains.d))
    world.min_distance_violations.extend(
        (world.time, *pair) for pair in zip(
            i[close].tolist(), j[close].tolist(), dist[close].tolist()))


def step(world: WorldState,
         config: ScenarioConfig) -> tuple[TickMetrics, list[SwitchEvent]]:
    """One full evaluate-and-integrate tick for callers driving a world by
    hand: the same two halves run() uses."""
    metrics, events, geom, pairs, links = _evaluate(world, config)
    _integrate(world, config, geom, pairs, links)
    return metrics, events


def _evaluate(world: WorldState, config: ScenarioConfig):
    """Phases 1-5 of a tick on frozen positions; fills the world's logs and
    returns the tick's metrics, switch events, geometry, cell pairs and
    in-range cell-user pairs."""
    for idx, ev in enumerate(config.failure_events):
        if idx in world.fired or world.time < ev.at_time:
            continue
        killed = inject_failures(world, ev.fraction)
        world.fired.add(idx)
        if killed:
            world.failures.append((world.time, killed))
    geom, links = tick_geometry(world, config.gains.r)
    pairs = _cell_pairs(world.uav_pos, world.alive, config.gains)
    associate_users(world, config.gains, geom, links)
    powers, chan_power = update_rates(world, config.radio, config.gains,
                                      geom)
    events: list[SwitchEvent] = []
    if config.controller_mode == QOS_MODE:
        events = channel_switching(world, powers, chan_power, config.radio,
                                   config.gains)
        if events:
            _apply_rates(world, powers, chan_power, config.radio)
    active = len(set(world.channel[world.alive].tolist()))
    metrics = compute_metrics(world.time, world.premium, world.serving,
                              world.rate, world.target, active)
    _check_invariants(world, config, geom)
    _record_min_distance(world, config.gains, pairs)
    return metrics, events, geom, pairs, links


def _integrate(world: WorldState, config: ScenarioConfig, geom: Geometry,
               pairs, links) -> None:
    """Phase 6: control inputs from the evaluated state, its distances, its
    cell pairs and its in-range list, then one step."""
    controls = control_all(world, config.gains, config.controller_mode,
                           geom.dist, pairs, links)
    advance(world, controls, config.gains, config.H)


# The row layouts of run(trace=True): per cell and per user, every tick
TRACE_COLUMNS = ("time", "uav_id", "x", "y", "z", "vx", "vy", "channel",
                 "alive", "load")
USER_TRACE_COLUMNS = ("time", "user_id", "serving_uav", "rate", "mean_rate")


def run(config: ScenarioConfig, run_seed: Optional[int] = None,
        trace: bool = False) -> RunResult:
    """Simulate a scenario end to end.

    Evaluates ticks 0..T inclusive and integrates between them, so a
    zero-duration scenario still yields one metrics row.  `run_seed`
    overrides the seed used for UAV placement and failure draws (user
    placement always follows the scenario seed).  With `trace`, the result
    also carries the per-cell and per-user state of every tick.
    """
    world = make_world(config, run_seed)
    ticks = config.ticks()
    metrics_rows: list[TickMetrics] = []
    cell_trace: list[tuple] = []
    user_trace: list[tuple] = []
    switch_events: list[SwitchEvent] = []
    for k in range(ticks + 1):
        metrics, events, geom, pairs, links = _evaluate(world, config)
        switch_events.extend(events)
        metrics_rows.append(metrics)
        if trace:
            t = world.time
            cell_trace.extend(
                (t, n, *p, *v, ch, a, load) for n, (p, v, ch, a, load)
                in enumerate(zip(world.uav_pos.tolist(),
                                 world.uav_vel[:, :2].tolist(),
                                 world.channel.tolist(), world.alive.tolist(),
                                 _loads(world).tolist())))
            user_trace.extend(
                (t, m, n, r, user.mean_rate) for m, (user, n, r)
                in enumerate(zip(world.users, world.serving.tolist(),
                                 world.rate.tolist())))
        if k < ticks:
            _integrate(world, config, geom, pairs, links)
    world.workspace = None      # a later step() on the world rebuilds it
    return RunResult(config=config, seed=_seed(config, run_seed),
                     metrics=metrics_rows, trace=cell_trace,
                     user_trace=user_trace, switch_events=switch_events,
                     failures=world.failures,
                     min_distance_violations=world.min_distance_violations,
                     world=world)
