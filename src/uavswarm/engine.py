"""Discrete-time world state and the per-tick orchestration loop.

A tick evaluates, then integrates.  Evaluate, on frozen positions: (1) due
failure events fire, (2) users associate to UAVs, (3) link rates and rate
windows update, (4) UAVs may switch channels (QoS mode only), (5) metrics
are recorded, invariants checked and spacing violations logged.
Integrate: (6) one control pass for the whole fleet, then one step.

step() runs both halves, run() the same two but skips the last integration;
the world keeps the failure and spacing logs.  Time advances as tick * dt
from an integer tick counter, never by accumulation.

Positions do not change between the failure phase and the step, so the
cells x users geometry (radio.geometry: slant distance and elevation) is
built once per tick, right after (1).  Association reads its distances,
update_rates hands it to radio.received_power_field, and the invariant
check reads the served pairs' distances from it: the range test sees the
very values association saw.
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
    vec3,
)
from .radio import (Geometry, data_rate, dbm_to_mw, geometry,
                    received_power_field)


@dataclass
class WorldState:
    time: float
    tick: int
    uavs: list[UavState]
    users: list[UserState]
    failure_rng: np.random.Generator
    fired: set[int] = field(default_factory=set)   # failure_events indices
    failures: list[tuple[float, list[int]]] = field(default_factory=list)
    # (time, uav_id, uav_id, distance) per alive pair closer than gains.d
    min_distance_violations: list[tuple] = field(default_factory=list)


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
            out.append((spec.klass, float(spec.position[0]),
                        float(spec.position[1])))
        else:
            x0, y0, x1, y1 = spec.region
            xs = rng.uniform(x0, x1, size=spec.count)
            ys = rng.uniform(y0, y1, size=spec.count)
            for xx, yy in zip(xs, ys):
                out.append((spec.klass, float(xx), float(yy)))
    return out


def _seed(config: ScenarioConfig, run_seed) -> int:
    return config.seed if run_seed is None else \
        check_seed(read_value(int, run_seed, "run_seed"), "run_seed")


def make_world(config: ScenarioConfig, run_seed: Optional[int] = None) -> WorldState:
    config.validate()
    seed = _seed(config, run_seed)
    users = [
        UserState(id=m, position=vec3(x, y, 0.0), klass=klass,
                  target_rate=TARGET_RATE[klass])
        for m, (klass, x, y) in enumerate(resolve_user_positions(config))
    ]
    if config.uav_count == 0:
        starts = []
    elif config.uav_initial_positions is not None:
        starts = [(float(x), float(y)) for x, y in config.uav_initial_positions]
    else:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        x0, y0, x1, y1 = config.uav_region
        xs = rng.uniform(x0, x1, size=config.uav_count)
        ys = rng.uniform(y0, y1, size=config.uav_count)
        starts = [(float(x), float(y)) for x, y in zip(xs, ys)]
    uavs = [
        UavState(id=n, position=vec3(x, y, config.H), velocity=vec3(), channel=L0)
        for n, (x, y) in enumerate(starts)
    ]
    failure_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return WorldState(time=0.0, tick=0, uavs=uavs, users=users,
                      failure_rng=failure_rng)


def inject_failures(world: WorldState, fraction: float) -> list[int]:
    """Kill a round-half-up fraction of the alive UAVs, chosen uniformly.

    Their users are not released here: association, which runs next in the
    tick, resets every serving id, and the rate update rewrites every rate.
    """
    alive_ids = sorted(u.id for u in world.uavs if u.alive)
    count = min(round_half_up(fraction * len(alive_ids)), len(alive_ids))
    if count <= 0:
        return []
    chosen = world.failure_rng.choice(np.array(alive_ids), size=count,
                                      replace=False)
    killed = sorted(int(c) for c in chosen)
    for n in killed:
        world.uavs[n].alive = False
        world.uavs[n].velocity = vec3()
    return killed


def tick_geometry(world: WorldState) -> Geometry:
    """The cells x users geometry of the world's current positions."""
    return geometry([u.position for u in world.uavs],
                    [u.position for u in world.users])


def associate_users(world: WorldState, gains: ControlGains,
                    geom: Geometry) -> None:
    """Greedy nearest-feasible association with per-UAV capacity.

    A UAV is eligible for a user when alive, within range r, and (for
    regular users) on the default channel.  Users are processed in order of
    distance to their nearest eligible UAV; each takes the nearest eligible
    UAV with spare capacity, spilling to the next nearest when full.
    Distances come from the tick's geometry.
    """
    uavs, users = world.uavs, world.users
    for user in users:
        user.serving_uav = None
    if not uavs or not users:
        return
    dist = geom.dist
    alive = np.array([u.alive for u in uavs])
    on_default = np.array([u.channel == L0 for u in uavs])
    prem = np.array([u.klass == PREMIUM for u in users])
    eligible = alive[:, None] & (dist <= gains.r) & \
        (prem[None, :] | on_default[:, None])
    ids = np.arange(len(users))
    masked = np.where(eligible, dist, np.inf)
    closest = masked.argmin(axis=0)         # lowest id among equal distances
    nearest = masked[closest, ids]
    order = np.lexsort((ids, nearest))
    order = order[:np.count_nonzero(np.isfinite(nearest))].tolist()
    closest = closest.tolist()
    load = [0] * len(uavs)
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
        users[m].serving_uav = n
        load[n] += 1


def _apply_rates(world: WorldState, powers: np.ndarray, chan_power: np.ndarray,
                 radio: RadioParams, gains: ControlGains, record: bool) -> None:
    users = world.users
    # unserved users share one 0.0 object; rate windows hold 50 per user
    rates = [0.0] * len(users)
    served = [m for m, user in enumerate(users) if user.serving_uav is not None]
    if served:
        cells = [users[m].serving_uav for m in served]
        channels = [world.uavs[n].channel for n in cells]
        signal = powers[cells, served]
        interference = chan_power[channels, served] - signal
        noise_mw = float(dbm_to_mw(radio.noise))
        served_rates = data_rate(signal / (noise_mw + interference),
                                 radio.bandwidth)
        for m, rate in zip(served, served_rates.tolist()):
            rates[m] = rate
    for user, rate in zip(users, rates):
        user.achieved_rate = rate
        if record:
            user.record_rate(world.time, rate, gains.tau)


def update_rates(world: WorldState, radio: RadioParams, gains: ControlGains,
                 geom: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Compute every link's achieved rate and push it into the rate windows.

    Returns the (n_uavs, n_users) received-power matrix in mW over the
    tick's geometry with dead UAVs zeroed, and the (num_channels, n_users)
    per-channel power sums.
    """
    alive = np.array([u.alive for u in world.uavs], dtype=bool)
    powers = received_power_field(geom, radio)
    powers[~alive] = 0.0
    chan_power = np.zeros((radio.num_channels, len(world.users)))
    for n, uav in enumerate(world.uavs):
        if uav.alive:
            chan_power[uav.channel] += powers[n]
    _apply_rates(world, powers, chan_power, radio, gains, record=True)
    return powers, chan_power


def _association(world: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Each user's serving cell id, -1 while unserved, and each cell's load
    counted from those ids."""
    serving = np.array([-1 if u.serving_uav is None else u.serving_uav
                        for u in world.users], dtype=int)
    loads = np.bincount(serving[serving >= 0], minlength=len(world.uavs))
    return serving, loads


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
    usage = [0] * n_channels
    for uav in world.uavs:
        if uav.alive:
            usage[uav.channel] += 1
    # a switch releases only its own cell's users, so one snapshot serves
    serving = _association(world)[0]
    for uav in world.uavs:
        if not uav.alive or world.time - uav.last_switch_time < gains.tau:
            continue
        served = np.flatnonzero(serving == uav.id).tolist()   # ascending
        trig = None
        best_deficit = 0.0
        for m in served:
            user = world.users[m]
            if user.klass != PREMIUM:
                continue
            c = user.achieved_rate
            if c < user.target_rate and c <= user.mean_rate:
                deficit = user.target_rate - c
                if deficit > best_deficit:
                    best_deficit = deficit
                    trig = m
        if trig is None:
            continue
        n = uav.id
        current = uav.channel
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
        released = [m for m in served
                    if current == L0 and world.users[m].klass == REGULAR]
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
        uav.channel = best_k
        uav.last_switch_time = world.time
        for m in released:
            world.users[m].serving_uav = None
            world.users[m].achieved_rate = 0.0
        events.append(SwitchEvent(world.time, n, current, best_k, retained,
                                  sinr_before, sinr_after))
    return events


def control_all(world: WorldState, gains: ControlGains,
                mode: str) -> np.ndarray:
    """Control inputs for all UAVs from one frozen state snapshot.

    The state is gathered into arrays once and each controller term runs
    once for the whole fleet; dead UAVs get zero rows.
    """
    uavs, users = world.uavs, world.users
    if not uavs:
        return np.zeros((0, 3))
    positions = np.array([u.position for u in uavs])
    velocities = np.array([u.velocity for u in uavs])
    serving, loads = _association(world)
    alive = np.array([u.alive for u in uavs])
    user_pos = np.array([u.position for u in users]).reshape(-1, 3)
    rates = np.array([u.achieved_rate for u in users], dtype=float)
    targets = np.array([u.target_rate for u in users], dtype=float)
    premium = np.array([u.klass == PREMIUM for u in users], dtype=bool)
    served = np.flatnonzero(serving >= 0)
    connected = np.zeros((len(uavs), len(users)), dtype=bool)
    connected[serving[served], served] = True
    return control_input(positions, velocities, loads, alive, connected,
                         user_pos, rates, targets, premium, gains, mode)


def advance(world: WorldState, controls: np.ndarray, gains: ControlGains,
            height: float) -> None:
    """Semi-implicit Euler step with speed clamp and fixed flight height."""
    for i, uav in enumerate(world.uavs):
        if not uav.alive:
            continue
        uav.velocity = uav.velocity + controls[i] * gains.dt
        uav.velocity[2] = 0.0
        speed = float(np.linalg.norm(uav.velocity))
        if speed > gains.v_max:
            uav.velocity = uav.velocity * (gains.v_max / speed)
        uav.position = uav.position + uav.velocity * gains.dt
        uav.position[2] = height
    world.tick += 1
    world.time = world.tick * gains.dt


def _check_invariants(world: WorldState, config: ScenarioConfig,
                      geom: Geometry) -> None:
    positions = np.array([u.position for u in world.uavs]).reshape(-1, 3)
    finite = np.isfinite(positions).all(axis=1).tolist()
    serving, loads = _association(world)
    for uav, is_finite, load in zip(world.uavs, finite, loads.tolist()):
        if load > config.gains.n_max:
            raise RuntimeError(f"UAV {uav.id} over capacity: {load}")
        if not is_finite:
            raise RuntimeError(f"UAV {uav.id} position not finite")
        if uav.alive:
            if uav.position[2] != config.H:
                raise RuntimeError(f"UAV {uav.id} off the flight plane")
            if uav.velocity[2] != 0.0:
                raise RuntimeError(f"UAV {uav.id} has vertical velocity")
        if not 0 <= uav.channel < config.radio.num_channels:
            raise RuntimeError(f"UAV {uav.id} on invalid channel {uav.channel}")
    served = np.flatnonzero(serving >= 0)
    cells = serving[served]
    # the distances association read, so a user it found in range at
    # exactly r passes here too
    far_off = geom.dist[cells, served] > config.gains.r
    for m, n, far in zip(served.tolist(), cells.tolist(), far_off.tolist()):
        user, server = world.users[m], world.uavs[n]
        if not server.alive:
            raise RuntimeError(f"user {user.id} served by dead UAV {server.id}")
        if far:
            raise RuntimeError(f"user {user.id} served out of range")
        if user.klass == REGULAR and server.channel != L0:
            raise RuntimeError(
                f"regular user {user.id} served off the default channel")


def _record_min_distance(world: WorldState, gains: ControlGains) -> None:
    alive = [u for u in world.uavs if u.alive]
    pos = np.array([u.position for u in alive]).reshape(-1, 3)
    dist = geometry(pos, pos).dist
    # row-major order: the (i, j > i) pairs in the order of a nested loop
    for i, j in zip(*np.nonzero(np.triu(dist < gains.d, k=1))):
        world.min_distance_violations.append(
            (world.time, alive[i].id, alive[j].id, float(dist[i, j])))


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
    active = len({u.channel for u in world.uavs if u.alive})
    metrics = compute_metrics(world.time, world.users, active)
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
            serving, loads = _association(world)
            cell_trace.extend(
                (world.time, uav.id, *uav.position.tolist(),
                 *uav.velocity[:2].tolist(), uav.channel, uav.alive, load)
                for uav, load in zip(world.uavs, loads.tolist()))
            user_trace.extend(
                (world.time, user.id, n, user.achieved_rate, user.mean_rate)
                for user, n in zip(world.users, serving.tolist()))
        if k < ticks:
            _integrate(world, config)
    return RunResult(config=config, seed=_seed(config, run_seed),
                     metrics=metrics_rows, trace=cell_trace,
                     user_trace=user_trace, switch_events=switch_events,
                     failures=world.failures,
                     min_distance_violations=world.min_distance_violations,
                     world=world)
