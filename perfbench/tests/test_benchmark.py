"""Tests of the benchmark itself: its reference check, its counts, its
host-speed probe and its refusal to run without the program.

    python3 -m pytest -q perfbench/tests

They run every workload a few times, so they take a minute or two.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import COUNT_KEYS, REL_TOL, layer_metrics, load_reference  # noqa: E402

SEED = 0
START_SHIFT_M = 1e-9


def shifted_start(name: str, config):
    """The same scenario with cell 0 starting START_SHIFT_M further east."""
    if config.uav_initial_positions is not None:
        starts = list(config.uav_initial_positions)
    else:
        world = workloads.engine.make_world(config)
        starts = [(float(u.position[0]), float(u.position[1]))
                  for u in world.uavs]
    x, y = starts[0]
    starts[0] = (x + START_SHIFT_M, y)
    return replace(config, uav_initial_positions=starts, uav_region=None)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_start_shift_passes_reference_check(name, tmp_path):
    reference = load_reference(name, SEED)
    config = shifted_start(name, workloads.build_config(name, SEED))
    result = workloads.run_op(name, config, SEED, tmp_path)
    got = workloads.digest(name, result)
    assert workloads.compare(reference, got, 0.0), "shift had no effect"
    assert workloads.compare(reference, got, REL_TOL) == []


def test_check_fails_on_dropped_switch_event():
    reference = load_reference("fig5", SEED)
    got = copy.deepcopy(reference)
    assert got["exact"]["switches"]
    del got["exact"]["switches"][len(got["exact"]["switches"]) // 2]
    assert workloads.compare(reference, got, REL_TOL) == ["switches: not equal"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_check_fails_on_shifted_steady_rate(name):
    reference = load_reference(name, SEED)
    got = copy.deepcopy(reference)
    steady = got["float"]["steady"]
    if name == "sweep":
        steady = steady[max(steady, key=int)]
    steady["premium_mean_rate"] *= 1.0 + 1e-6
    problems = workloads.compare(reference, got, REL_TOL)
    assert len(problems) == 1 and problems[0].startswith("steady off by 1e-06")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        seen = []
        for _ in range(2):
            tracer.reset()
            config = workloads.build_config(name, SEED)
            workloads.run_op(name, config, SEED, tmp_path)
            layers = layer_metrics(tracer, 0.0)
            seen.append({k: layers[k] for k in COUNT_KEYS})
    finally:
        tracer.uninstall()
    assert seen[0] == seen[1]
    assert seen[0]["engine.ticks"] > 0
    assert (seen[0]["kernels.h_pairs"] == 0) == (name == "field_flock")


def test_tracer_uninstall_restores_every_function():
    before = {id(getattr(owner, attr)) for owner, attr, _, _ in tracing.SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    after = {id(getattr(owner, attr)) for owner, attr, _, _ in tracing.SPANS}
    assert before == after


def test_host_speed_probe_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    probe.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 0.3:
        pass
    elapsed = perf_counter() - t0
    spent, mean = probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 10
    assert 0.0 < spent < 0.2 * elapsed
    assert mean > 0.0


def test_host_speed_correction_scales_by_probe_time():
    ref = hostspeed.REF_PROBE_S
    assert hostspeed.correct(2.0, 0.5, ref) == pytest.approx(1.5)
    assert hostspeed.correct(2.0, 0.5, 2 * ref) == pytest.approx(0.75)


def test_refuses_to_run_without_the_program(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "fig5", "--seed", "0", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
