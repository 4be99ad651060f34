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
views of their rows.  Only the rate windows and the switching pass still go
one user or one cell at a time.

Positions do not change between the failure phase and the step, so the
cells x users geometry (radio.geometry: slant distance and elevation) is
built once per tick, right after (1).  Association reads its distances,
update_rates hands it to radio.received_power_field, and the invariant
check reads the served pairs' distances from it: the range test sees the
very values association saw.  The tick makes each of those two radio
calls once, from its own thread; on a field of at least
radio._SPLIT_LINKS links radio computes blocks of cell rows on a thread
pool inside the call, with the same bits on any CPU count.

The world's cell and user counts are fixed (dead cells keep their rows),
so every (cells, users) array of a tick lives in one Workspace that the
world builds on first use and the tick writes in place with out=: the
geometry, association's eligibility mask and masked distances, and the
power field.  What tick_geometry returns stays valid until the next
tick_geometry on that world, and the power field until the next
update_rates; nothing reads either after its tick.  run() drops the
workspace when it returns, and a later step() builds it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernels import control_input
from .metrics import TickMetrics, compute_metrics
from .model import (
    L0,
    PREMIUM,
    QOS_MODE,
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
from .radio import (Geometry, _slant_distance, data_rate, dbm_to_mw,
                    geometry, received_power_field)


class Workspace:
    """The (cells, users) arrays of one tick, written in place tick after
    tick: the geometry's distances and elevations, the power field,
    association's eligibility mask and one float scratch array.  The
    scratch holds dz in the geometry, then association's masked distances
    (users, cells), then ln d in the power field.  It holds no reference
    to its world."""

    __slots__ = ("geom", "scratch", "powers", "eligible")

    def __init__(self, n_cells: int, n_users: int) -> None:
        shape = (n_cells, n_users)
        self.geom = Geometry(np.empty(shape), np.empty(shape))
        self.scratch = np.empty(shape)
        self.powers = np.empty(shape)
        self.eligible = np.empty(shape, dtype=bool)


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
    failure_rng: np.random.Generator
    fired: set[int] = field(default_factory=set)   # failure_events indices
    failures: list[tuple[float, list[int]]] = field(default_factory=list)
    # (time, uav_id, uav_id, distance) per alive pair closer than gains.d
    min_distance_violations: list[tuple] = field(default_factory=list)
    # the tick's (cells, users) buffers, built on first use
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


def resolve_user_positions(config: ScenarioConfig) -> list[tuple[str, float, float]]:
    """Expand user specs to (klass, x, y) triples.

    Region entries draw from a stream keyed only by the scenario seed, so
    every run of a sweep sees the same user field.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    out = []
    for spec in config.users:
        if spec.position is not None:
            xs, ys = [spec.position[0]], [spec.position[1]]
        else:
            x0, y0, x1, y1 = spec.region
            xs = rng.uniform(x0, x1, size=spec.count)
            ys = rng.uniform(y0, y1, size=spec.count)
        out.extend((spec.klass, float(x), float(y)) for x, y in zip(xs, ys))
    return out


def _seed(config: ScenarioConfig, run_seed) -> int:
    return config.seed if run_seed is None else \
        check_seed(read_value(int, run_seed, "run_seed"), "run_seed")


def make_world(config: ScenarioConfig, run_seed: Optional[int] = None) -> WorldState:
    config.validate()
    seed = _seed(config, run_seed)
    placed = resolve_user_positions(config)
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
    n_cells = len(starts)
    return WorldState(
        time=0.0, tick=0,
        uav_pos=np.column_stack([starts, np.full(n_cells, float(config.H))]),
        uav_vel=np.zeros((n_cells, 3)), alive=np.ones(n_cells, dtype=bool),
        channel=np.full(n_cells, L0), last_switch=np.zeros(n_cells),
        user_pos=np.array([(x, y, 0.0) for _, x, y in placed],
                          dtype=float).reshape(-1, 3),
        premium=np.array([k == PREMIUM for k, _, _ in placed], dtype=bool),
        target=np.array([TARGET_RATE[k] for k, _, _ in placed], dtype=float),
        serving=np.full(len(placed), -1), rate=np.zeros(len(placed)),
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
        world.workspace = Workspace(len(world.alive), len(world.serving))
    return world.workspace


def tick_geometry(world: WorldState) -> Geometry:
    """The cells x users geometry of the world's current positions, as
    views into the world's workspace: they hold until the next
    tick_geometry on that world.  Code that keeps two geometries calls
    radio.geometry."""
    ws = _workspace(world)
    return geometry(world.uav_pos, world.user_pos, out=ws.geom,
                    scratch=ws.scratch)


def associate_users(world: WorldState, gains: ControlGains,
                    geom: Geometry) -> None:
    """Greedy nearest-feasible association with per-UAV capacity.

    A UAV is eligible for a user when alive, within range r, and (for
    regular users) on the default channel.  Users are processed in order of
    distance to their nearest eligible UAV; each takes the nearest eligible
    UAV with spare capacity, spilling to the next nearest when full.
    Distances come from the tick's geometry.

    When no UAV is the nearest eligible one of more than n_max users, no
    user ever finds its nearest UAV full, so every user takes it; the
    greedy pass runs only when some UAV would spill.
    """
    n_cells, n_users = len(world.alive), len(world.serving)
    world.serving.fill(-1)
    if not n_cells or not n_users:
        return
    ws = _workspace(world)
    dist, eligible = geom.dist, ws.eligible
    np.less_equal(dist, gains.r, out=eligible)
    eligible &= world.alive[:, None]
    for n in np.flatnonzero(world.channel != L0).tolist():
        eligible[n] &= world.premium
    # one row per user, so that the argmin runs along rows, copying nothing
    masked = ws.scratch.reshape(n_users, n_cells)
    masked.fill(np.inf)
    np.copyto(masked, dist.T, where=eligible.T)
    ids = np.arange(n_users)
    closest = masked.argmin(axis=1)         # lowest id among equal distances
    nearest = masked[ids, closest]
    reachable = np.isfinite(nearest)
    if np.bincount(closest[reachable], minlength=n_cells).max() <= gains.n_max:
        world.serving[reachable] = closest[reachable]
        return
    order = np.lexsort((ids, nearest))
    order = order[:np.count_nonzero(reachable)].tolist()
    closest = closest.tolist()
    load = [0] * n_cells
    taken, cells = [], []
    for m in order:
        n = closest[m]
        if load[n] >= gains.n_max:
            # spill: rank only this user's eligible UAVs, nearest first
            candidates = np.flatnonzero(eligible[:, m])
            candidates = candidates[np.argsort(dist[candidates, m],
                                               kind="stable")]
            n = next((c for c in candidates.tolist()
                      if load[c] < gains.n_max), None)
            if n is None:
                continue
        taken.append(m)
        cells.append(n)
        load[n] += 1
    world.serving[taken] = cells


def _apply_rates(world: WorldState, powers: np.ndarray, chan_power: np.ndarray,
                 radio: RadioParams, gains: ControlGains, record: bool) -> None:
    rate = world.rate
    served = np.flatnonzero(world.serving >= 0)
    cells = world.serving[served]
    signal = powers[cells, served]
    interference = chan_power[world.channel[cells], served] - signal
    noise_mw = float(dbm_to_mw(radio.noise))
    rate.fill(0.0)
    rate[served] = data_rate(signal / (noise_mw + interference),
                             radio.bandwidth)
    if record:
        time, tau = world.time, gains.tau
        # `or 0.0`: unserved users' windows share one 0.0 object
        for user, r in zip(world.users, rate.tolist()):
            user.record_rate(time, r or 0.0, tau)


def update_rates(world: WorldState, radio: RadioParams, gains: ControlGains,
                 geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Compute every link's achieved rate and push it into the rate windows.

    Returns the (n_uavs, n_users) received-power matrix in mW over the
    tick's geometry with dead UAVs zeroed, which is the world's workspace
    and holds until the next update_rates on that world, and the
    (num_channels, n_users) per-channel power sums.
    """
    ws = _workspace(world)
    powers = received_power_field(geom, radio, out=ws.powers,
                                  scratch=ws.scratch)
    powers[~world.alive] = 0.0
    chan_power = np.zeros((radio.num_channels, len(world.serving)))
    for n, k in zip(np.flatnonzero(world.alive).tolist(),
                    world.channel[world.alive].tolist()):
        chan_power[k] += powers[n]
    _apply_rates(world, powers, chan_power, radio, gains, record=True)
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
    that user; leaving the default channel releases any regular users.
    Later UAVs in the same pass see the updated channel occupancy.
    """
    events: list[SwitchEvent] = []
    noise_mw = float(dbm_to_mw(radio.noise))
    n_channels = radio.num_channels
    channel, serving = world.channel, world.serving
    usage = np.bincount(channel[world.alive], minlength=n_channels).tolist()
    # a switch writes only its own cell's entries, which later cells never read
    alive, last_switch = world.alive.tolist(), world.last_switch.tolist()
    rate, target = world.rate.tolist(), world.target.tolist()
    premium, users = world.premium.tolist(), world.users
    for n, is_alive in enumerate(alive):
        if not is_alive or world.time - last_switch[n] < gains.tau:
            continue
        served = np.flatnonzero(serving == n).tolist()        # ascending
        trig = None
        best_deficit = 0.0
        for m in served:
            if not premium[m]:
                continue
            c = rate[m]
            if c < target[m] and c <= users[m].mean_rate:
                deficit = target[m] - c
                if deficit > best_deficit:
                    best_deficit = deficit
                    trig = m
        if trig is None:
            continue
        current = int(channel[n])
        current_interf = float(chan_power[current, trig] - powers[n, trig])
        free = [k for k in range(1, n_channels) if usage[k] == 0]
        if free:
            best_k = free[0]
            cand_interf = 0.0
        else:
            best_k = None
            cand_interf = np.inf
            for k in range(1, n_channels):
                if k == current:
                    continue
                ik = float(chan_power[k, trig])
                if ik < cand_interf:
                    cand_interf = ik
                    best_k = k
        if best_k is None or not cand_interf < current_interf:
            continue
        released = [m for m in served if current == L0 and not premium[m]]
        retained = [m for m in served if m not in released]
        sinr_before = [
            float(powers[n, m] / (noise_mw + chan_power[current, m] - powers[n, m]))
            for m in retained]
        sinr_after = [
            float(powers[n, m] / (noise_mw + chan_power[best_k, m]))
            for m in retained]
        chan_power[current] -= powers[n]
        chan_power[best_k] += powers[n]
        usage[current] -= 1
        usage[best_k] += 1
        channel[n] = best_k
        world.last_switch[n] = world.time
        serving[released] = -1
        world.rate[released] = 0.0
        events.append(SwitchEvent(world.time, n, current, best_k, retained,
                                  sinr_before, sinr_after))
    return events


def control_all(world: WorldState, gains: ControlGains,
                mode: str) -> np.ndarray:
    """Control inputs for all UAVs from one frozen state snapshot.

    Each controller term runs once for the whole fleet, on the world's
    arrays; dead UAVs get zero rows.
    """
    serving = world.serving
    served = np.flatnonzero(serving >= 0)
    connected = np.zeros((len(world.alive), len(serving)), dtype=bool)
    connected[serving[served], served] = True
    return control_input(world.uav_pos, world.uav_vel, _loads(world),
                         world.alive, connected, world.user_pos, world.rate,
                         world.target, world.premium, gains, mode)


def advance(world: WorldState, controls: np.ndarray, gains: ControlGains,
            height: float) -> None:
    """Semi-implicit Euler step with speed clamp and fixed flight height;
    dead cells are not touched.  Each speed is the root of a stacked-matmul
    dot product, which has np.linalg.norm's bits; einsum's does not."""
    live = np.flatnonzero(world.alive)
    vel = world.uav_vel[live] + controls[live] * gains.dt
    vel[:, 2] = 0.0
    speed = np.sqrt(np.matmul(vel[:, None, :], vel[:, :, None]))[:, 0, 0]
    over = speed > gains.v_max
    vel[over] *= (gains.v_max / speed[over])[:, None]
    pos = world.uav_pos[live] + vel * gains.dt
    pos[:, 2] = height
    world.uav_vel[live] = vel
    world.uav_pos[live] = pos
    world.tick += 1
    world.time = world.tick * gains.dt


def _raise_first(checks) -> None:
    """Raise for the lowest index failing any of ``checks``, (mask, message
    for an index) pairs, with the message of the first check it fails."""
    masks = np.array([mask for mask, _ in checks])
    bad = masks.any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        raise RuntimeError(checks[int(masks[:, i].argmax())][1](i))


def _check_invariants(world: WorldState, config: ScenarioConfig,
                      geom: Geometry) -> None:
    pos, vel, alive, channel = (world.uav_pos, world.uav_vel, world.alive,
                                world.channel)
    serving, rate = world.serving, world.rate
    _raise_first([((serving < -1) | (serving >= len(alive)),
                   lambda m: f"user {m} served by unknown UAV {serving[m]}")])
    loads = _loads(world)
    _raise_first([
        (loads > config.gains.n_max, lambda n: f"UAV {n} over capacity: {loads[n]}"),
        (~np.isfinite(pos).all(axis=1), lambda n: f"UAV {n} position not finite"),
        (alive & (pos[:, 2] != config.H), lambda n: f"UAV {n} off the flight plane"),
        (alive & (vel[:, 2] != 0.0), lambda n: f"UAV {n} has vertical velocity"),
        ((channel < 0) | (channel >= config.radio.num_channels),
         lambda n: f"UAV {n} on invalid channel {channel[n]}"),
        (~np.isfinite(vel).all(axis=1), lambda n: f"UAV {n} velocity not finite")])
    served = np.flatnonzero(serving >= 0)
    cells = serving[served]
    # the distances association read, so a user it found in range at
    # exactly r passes here too
    _raise_first([
        (~alive[cells], lambda i: f"user {served[i]} served by dead UAV {cells[i]}"),
        (geom.dist[cells, served] > config.gains.r,
         lambda i: f"user {served[i]} served out of range"),
        (~world.premium[served] & (channel[cells] != L0),
         lambda i: f"regular user {served[i]} served off the default channel")])
    _raise_first([
        (~np.isfinite(rate) | (rate < 0.0),
         lambda m: f"user {m} has invalid rate {rate[m]}"),
        ((serving < 0) & (rate != 0.0),
         lambda m: f"unserved user {m} has rate {rate[m]}")])


def _record_min_distance(world: WorldState, gains: ControlGains) -> None:
    ids = np.flatnonzero(world.alive).tolist()
    # geometry's distances, without the elevations this log never reads
    dist = _slant_distance(world.uav_pos[ids], world.uav_pos[ids])[0]
    # row-major order: the (i, j > i) pairs in the order of a nested loop
    for i, j in zip(*np.nonzero(np.triu(dist < gains.d, k=1))):
        world.min_distance_violations.append(
            (world.time, ids[i], ids[j], float(dist[i, j])))


def step(world: WorldState,
         config: ScenarioConfig) -> tuple[TickMetrics, list[SwitchEvent]]:
    """One full evaluate-and-integrate tick for callers driving a world by
    hand: the same two halves run() uses."""
    metrics, events = _evaluate(world, config)
    _integrate(world, config)
    return metrics, events


def _evaluate(world: WorldState, config: ScenarioConfig):
    """Phases 1-5 of a tick on frozen positions; fills the world's logs."""
    for idx, ev in enumerate(config.failure_events):
        if idx in world.fired or world.time < ev.at_time:
            continue
        killed = inject_failures(world, ev.fraction)
        world.fired.add(idx)
        if killed:
            world.failures.append((world.time, killed))
    geom = tick_geometry(world)
    associate_users(world, config.gains, geom)
    powers, chan_power = update_rates(world, config.radio, config.gains,
                                      geom)
    events: list[SwitchEvent] = []
    if config.controller_mode == QOS_MODE:
        events = channel_switching(world, powers, chan_power, config.radio,
                                   config.gains)
        if events:
            _apply_rates(world, powers, chan_power, config.radio,
                         config.gains, record=False)
    active = len(set(world.channel[world.alive].tolist()))
    metrics = compute_metrics(world.time, world.premium, world.serving,
                              world.rate, world.target, active)
    _check_invariants(world, config, geom)
    _record_min_distance(world, config.gains)
    return metrics, events


def _integrate(world: WorldState, config: ScenarioConfig) -> None:
    """Phase 6: control inputs from the evaluated state, then one step."""
    controls = control_all(world, config.gains, config.controller_mode)
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
        metrics, events = _evaluate(world, config)
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
            _integrate(world, config)
    world.workspace = None      # a later step() on the world rebuilds it
    return RunResult(config=config, seed=_seed(config, run_seed),
                     metrics=metrics_rows, trace=cell_trace,
                     user_trace=user_trace, switch_events=switch_events,
                     failures=world.failures,
                     min_distance_violations=world.min_distance_violations,
                     world=world)
