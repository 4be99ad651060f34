"""Acceptance suite: one pass/fail line per shipped capability.

Ordered end-to-end checks over the shipped scenarios.  Heavy runs are
shared through module fixtures; each test prints exactly one ACCEPTANCE
line, on success or failure, so the terminal log doubles as a capability
report.  Wall-clock budgets are asserted alongside the behavior.
"""

import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest

from kernel_oracle import sigma_norm
from radio_oracle import (
    OVERHEAD_PL_DB,
    OVERHEAD_RATE_BPS,
    OVERHEAD_SNR_DB,
    geometries,
    oracle_link,
)
from uavswarm.engine import run
from uavswarm.harness import export_run, run_sweep
from uavswarm.kernels import (
    _sigma_grads,
    bump,
    control_input,
    pair_potential,
    phi_sigmoid,
)
from uavswarm.metrics import steady_state
from uavswarm.model import (
    FLOCKING_MODE,
    ControlGains,
    RadioParams,
    load_scenario,
)
from uavswarm.radio import geometry, link_budget

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _report(capsys, num, name, problems, wall=None, budget=None):
    """Print one ACCEPTANCE line and fail on any accumulated problem."""
    if wall is not None and budget is not None and wall >= budget:
        problems.append(f"runtime {wall:.2f}s over budget {budget:.0f}s")
    verdict = "PASS" if not problems else "FAIL"
    suffix = f" [{wall:.2f}s]" if wall is not None else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {name}: {verdict}{suffix}")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems)


# --- shared heavy runs ----------------------------------------------------


@pytest.fixture(scope="module")
def fig3_flock(fig3_config):
    return run(replace(fig3_config, controller_mode=FLOCKING_MODE))


@pytest.fixture(scope="module")
def fig5_bundle():
    config = load_scenario(SCENARIOS / "fig5_parade.yaml")
    t0 = time.perf_counter()
    result = run(config)
    return config, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_bundle():
    config = load_scenario(SCENARIOS / "sweep_base.yaml")
    counts = list(range(6, 22))
    t0 = time.perf_counter()
    sweep = run_sweep(config, counts)
    return config, sweep, time.perf_counter() - t0


# --- criteria -------------------------------------------------------------


def test_01_kernel_properties(capsys):
    """Bump endpoints and continuity, sigma-norm gradient vs finite
    differences, odd sigmoid zero, pair potential zeros."""
    problems = []
    t0 = time.perf_counter()
    p = ControlGains()

    if bump(0.0, 0.2) != 1.0 or bump(0.2, 0.2) != 1.0:
        problems.append("bump flat region broken")
    if bump(1.0, 0.2) != 0.0 or bump(2.0, 0.2) != 0.0:
        problems.append("bump cutoff broken")
    for joint in (0.2, 1.0):
        if abs(bump(joint + 1e-7, 0.2) - bump(joint - 1e-7, 0.2)) > 1e-6:
            problems.append(f"bump discontinuous at {joint}")

    rng = np.random.default_rng(42)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        z = rng.normal(scale=30.0, size=3)
        g = _sigma_grads(z, p.eps)[0]     # the gradient the controller uses
        for k in range(3):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            num = (sigma_norm(zp, p.eps) - sigma_norm(zm, p.eps)) / (2 * h)
            worst = max(worst, abs(num - g[k]))
    if worst > 1e-6:
        problems.append(f"sigma gradient off finite differences by {worst:.2e}")

    if phi_sigmoid(0.0, p) != 0.0:
        problems.append("phi(0) not exactly zero")
    if pair_potential(p.d_sig, p) != 0.0:
        problems.append("pair potential nonzero at rest spacing")
    if pair_potential(p.r_sig, p) != 0.0 or \
            pair_potential(2.0 * p.r_sig, p) != 0.0:
        problems.append("pair potential nonzero at or beyond range")

    _report(capsys, 1, "kernel properties", problems,
            time.perf_counter() - t0, 1.0)


def test_02_radio_oracle_equivalence(capsys):
    """Link budget matches the independent straight-line oracle to 1e-9 on
    100 seeded geometries; the 100 m overhead budget matches the frozen
    hand-derived chain to 0.1%."""
    problems = []
    t0 = time.perf_counter()
    params = RadioParams()
    worst = 0.0
    for uav, user in geometries(n=100):
        want = oracle_link(uav, user)
        got = link_budget(uav, user, params)
        for w, g in ((want["p_los"], got.p_los),
                     (want["pl_db"], got.path_loss_db),
                     (want["rx_mw"], got.received_mw),
                     (want["rate_bps"], got.rate_bps)):
            worst = max(worst, abs(g - w) / abs(w))
    if worst > 1e-9:
        problems.append(f"oracle disagreement {worst:.2e} relative")

    lb = link_budget((0, 0, 100), (0, 0, 0), params)
    for name, want, got in (("path loss", OVERHEAD_PL_DB, lb.path_loss_db),
                            ("snr", OVERHEAD_SNR_DB, lb.snr_db),
                            ("rate", OVERHEAD_RATE_BPS, lb.rate_bps)):
        if abs(got - want) / abs(want) > 1e-3:
            problems.append(f"overhead {name} {got:.4g} != {want:.4g}")

    _report(capsys, 2, "radio oracle equivalence", problems,
            time.perf_counter() - t0, 1.0)


def test_03_equilibrium_fixed_point(capsys):
    """Two UAVs spaced exactly at the rest distance with matched velocities
    and fully satisfied users produce a control input of exactly (0,0,0)."""
    problems = []
    gains = ControlGains()
    positions = np.array([[0.0, 0.0, 100.0], [gains.d, 0.0, 100.0]])
    velocities = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
    loads = np.array([1, 1])
    alive = np.array([True, True])
    user_pos = np.array([[10.0, 5.0, 0.0], [gains.d - 10.0, -5.0, 0.0]])
    rates = np.array([450e6, 450e6])
    targets = np.array([300e6, 300e6])
    premium = np.array([True, True])
    serving = np.array([0, 1])
    u = control_input(positions, velocities, loads, alive, serving,
                      user_pos, geometry(positions, user_pos).dist, rates,
                      targets, premium, gains)
    for i in range(2):
        if not np.array_equal(u[i], np.zeros(3)):
            problems.append(f"uav {i} control {u[i]} not exactly zero")
    _report(capsys, 3, "equilibrium fixed point", problems)


def test_04_three_user_convergence(capsys, fig3_config):
    """On the shipped three-user scenario every user settles at >= 90% of
    its target rate and the UAV pair ends inside the [d, r] spacing band."""
    problems = []
    t0 = time.perf_counter()
    result = run(fig3_config)
    wall = time.perf_counter() - t0

    if fig3_config.duration > 60.0:
        problems.append("scenario runs longer than 60 simulated seconds")
    world = result.world
    for m, frac in enumerate((world.rate / world.target).tolist()):
        if frac < 0.90:
            problems.append(f"user {m} at {frac:.1%} of target")
    a, b = world.uav_pos
    sep = float(np.linalg.norm(a - b))
    gains = fig3_config.gains
    if not gains.d <= sep <= gains.r:
        problems.append(f"final separation {sep:.1f} outside "
                        f"[{gains.d:.0f}, {gains.r:.0f}]")
    _report(capsys, 4, "three-user convergence", problems, wall, 5.0)


def test_05_flocking_baseline_contrast(capsys, fig3_config, fig3_result,
                                       fig3_flock):
    """The rate-blind flocking controller fulfils strictly fewer users at
    steady state than the rate-driven controller on the same seed."""
    problems = []
    qos = steady_state(fig3_result.metrics)["all_fulfilled_pct"]
    flock = steady_state(fig3_flock.metrics)["all_fulfilled_pct"]
    if not flock < qos:
        problems.append(f"flocking {flock:.2f}% not below qos {qos:.2f}%")
    _report(capsys, 5, "flocking baseline contrast", problems)


def test_06_failure_resilience(capsys, fig5_bundle):
    """600-user parade: premium mean rate reaches 285 Mbps before the
    failure wave at t=15 s kills 30% of the fleet, then recovers to 270
    (premium) and 70 (regular) Mbps by t=30 s."""
    config, result, wall = fig5_bundle
    problems = []

    pre = [m.premium_mean_rate for m in result.metrics if m.time < 15.0]
    if max(pre) < 285e6:
        problems.append(f"pre-failure premium peak {max(pre)/1e6:.1f} Mbps")

    if len(result.failures) != 1:
        problems.append(f"expected one failure wave, saw {result.failures}")
    else:
        t_fail, killed = result.failures[0]
        if t_fail != 15.0 or len(killed) != 5:
            problems.append(f"failure wave {t_fail}s/{len(killed)} killed")

    final = result.metrics[-1]
    if final.time != pytest.approx(30.0):
        problems.append(f"run ended at t={final.time}")
    if final.premium_mean_rate < 270e6:
        problems.append(
            f"premium mean {final.premium_mean_rate/1e6:.1f} Mbps at t=30")
    if final.regular_mean_rate < 70e6:
        problems.append(
            f"regular mean {final.regular_mean_rate/1e6:.1f} Mbps at t=30")
    _report(capsys, 6, "failure resilience", problems, wall, 60.0)


def test_07_fleet_size_sweep(capsys, sweep_bundle):
    """Counts 6..21 on the sweep base: served and fulfilled percentages
    never drop by more than 5 points per added UAV, and at 21 UAVs every
    premium user is fulfilled."""
    config, sweep, wall = sweep_bundle
    problems = []
    counts = sweep.counts
    for field in ("all_served_pct", "all_fulfilled_pct"):
        values = [sweep.steady[n][field] for n in counts]
        for (n0, v0), (n1, v1) in zip(zip(counts, values),
                                      zip(counts[1:], values[1:])):
            if v1 < v0 - 5.0:
                problems.append(
                    f"{field} drops {v0:.2f}->{v1:.2f} at {n0}->{n1}")
        if values[-1] < values[0]:
            problems.append(f"{field} ends below its start")
    top = sweep.steady[counts[-1]]["premium_fulfilled_pct"]
    if top < 100.0 - 1e-9:
        problems.append(f"premium fulfilled {top:.2f}% at count 21")
    _report(capsys, 7, "fleet-size sweep", problems, wall, 600.0)


def test_08_channel_isolation(capsys, fig3_result, fig5_bundle):
    """Every channel switch, re-evaluated at frozen positions, leaves no
    retained user with a lower SINR than before the switch."""
    problems = []
    _, fig5_result, _ = fig5_bundle
    events = fig3_result.switch_events + fig5_result.switch_events
    if not events:
        problems.append("no switch events to check")
    for ev in events:
        for uid, before, after in zip(ev.user_ids, ev.sinr_before,
                                      ev.sinr_after):
            if after < before:
                problems.append(
                    f"t={ev.time} uav={ev.uav_id} user={uid}: "
                    f"{before:.3g} -> {after:.3g}")
    _report(capsys, 8, "channel isolation", problems)


def test_09_determinism(capsys, fig3_config, fig5_bundle, tmp_path):
    """Re-running a shipped scenario with its own seed reproduces the
    exported metrics and trace files byte for byte."""
    problems = []
    t0 = time.perf_counter()
    fig5_config, _, _ = fig5_bundle

    for name, config in (("three-user", fig3_config),
                         ("parade", fig5_config)):
        dir_a = tmp_path / f"{name}-a"
        dir_b = tmp_path / f"{name}-b"
        first = run(config, trace=True)
        export_run(first, dir_a)
        export_run(run(config, trace=True), dir_b)
        for artifact in ("metrics.csv", "trace.csv"):
            if (dir_a / artifact).read_bytes() != \
                    (dir_b / artifact).read_bytes():
                problems.append(f"{name} {artifact} differs between runs")
        # one row per cell per tick: an empty trace cannot pass
        rows = len((dir_a / "trace.csv").read_text().splitlines()) - 1
        if rows != len(first.metrics) * config.uav_count:
            problems.append(f"{name} trace.csv has {rows} rows")
    _report(capsys, 9, "determinism", problems, time.perf_counter() - t0)
