"""One benchmark process: times operations of one workload and checks them.

    python3 perfbench/worker.py --workload fig5 --seed 0 --seconds 36 \
        --out .perfbench_out/fig5 [--traced]

It runs operations back to back, starting another only while it is expected
to end inside ``--seconds`` (at least one runs), and prints one JSON line.
Without ``--traced`` each operation runs under the host-speed probe of
``hostspeed.py`` and no wrapper exists in the process; with it the tracer's
wrappers are installed, no probe runs, and per-layer numbers are reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import yaml

import hostspeed
import workloads

REFERENCES = Path(__file__).resolve().parent / "references"
REL_TOL = 1e-9


def load_reference(name: str, seed: int):
    """The recorded digest for this workload and seed, or None."""
    path = REFERENCES / f"{name}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def layer_metrics(tracer, wrapper_ns: float) -> dict:
    ns, counts = tracer.self_ns, tracer.counts
    ticks = counts["engine.ticks"]
    runs = counts["harness.runs"]

    def per_tick(name):
        return ns[name] / ticks / 1e6

    out = {
        "kernels.h_ms": per_tick("kernels.h"),
        "kernels.f_ms": per_tick("kernels.f"),
        "kernels.g_ms": per_tick("kernels.g"),
        "kernels.goal_ms": per_tick("kernels.goal"),
        "engine.control_ms": per_tick("engine.control"),
        "engine.associate_ms": per_tick("engine.associate"),
        "radio.power_field_ms": per_tick("radio.power_field"),
        "model.record_rate_ms": per_tick("model.record_rate"),
        "engine.rates_ms": per_tick("engine.rates"),
        "engine.switching_ms": per_tick("engine.switching"),
        "engine.failures_ms": per_tick("engine.failures"),
        "metrics.compute_ms": per_tick("metrics.compute"),
        "engine.advance_ms": per_tick("engine.advance"),
        "engine.loop_ms": per_tick("engine.run"),
        "engine.make_world_ms": ns["engine.make_world"] / runs / 1e6,
        "model.load_ms": ns["model.load"] / 1e6,
        "harness.export_ms": ns["harness.export"] / 1e6,
        "engine.ticks": ticks,
        "radio.links": counts["radio.links"],
        "kernels.h_pairs": counts["kernels.h_pairs"],
        "kernels.fg_pairs": counts["kernels.fg_pairs"],
        "model.rate_window_reads": (counts["model.rate_window_entries"]
                                    / counts["model.record_rate_calls"]),
        "engine.served_ratio": (counts["users_served"]
                                / counts["users_attempted"]),
        "engine.switch_events": counts["engine.switch_events"],
        "harness.runs": runs,
        "trace.count_ms": per_tick("trace.count"),
        "trace.record_rate_wrapper_ms": (tracer.calls["model.record_rate"]
                                         * wrapper_ns / ticks / 1e6),
    }
    return out


COUNT_KEYS = ("engine.ticks", "radio.links", "kernels.h_pairs",
              "kernels.fg_pairs", "model.rate_window_reads",
              "engine.served_ratio", "engine.switch_events", "harness.runs")


def measure(name: str, seed: int, seconds: float, out_dir: Path,
            traced: bool) -> dict:
    tracer = None
    wrapper_ns = 0.0
    if traced:
        import tracer as tracing
        wrapper_ns = tracing.wrapper_cost_ns()
        tracer = tracing.Tracer()
        tracer.install()
    reference = load_reference(name, seed)
    config = None
    first = None
    problems: list[str] = []
    times: list[float] = []
    corrected: list[float] = []
    speeds: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        attempted += 1
        if tracer is not None:
            tracer.reset()
        if tracer is not None or config is None:
            # A traced run loads the scenario in every operation so that
            # model.load_ms is measured; an untraced one leaves it to setup_s.
            config = workloads.build_config(name, seed)
        probe = hostspeed.Probe() if tracer is None else None
        if probe is not None:
            probe.start()
        t0 = perf_counter()
        try:
            result = workloads.run_op(name, config, seed, out_dir)
        except Exception:
            result = None
            op_problems = [traceback.format_exc(limit=3).strip()]
        took = perf_counter() - t0
        if probe is None:
            times.append(took)
        else:
            spent, mean = probe.stop()
            times.append(took - spent)
            corrected.append(hostspeed.correct(took, spent, mean))
            speeds.append(hostspeed.REF_PROBE_S / mean)
        if result is not None:
            try:
                op_problems = workloads.check_outputs(name, config, result,
                                                      out_dir)
                got = workloads.digest(name, result)
            except Exception:
                result = None
                op_problems = [traceback.format_exc(limit=3).strip()]
        if result is not None:
            if first is None:
                first = got
                if reference is not None:
                    op_problems += [f"reference: {p}" for p in
                                    workloads.compare(reference, got, REL_TOL)]
            else:
                op_problems += [f"determinism: {p}" for p in
                                workloads.compare(first, got, 0.0)]
            if tracer is not None:
                layers.append(layer_metrics(tracer, wrapper_ns))
                if any(layers[-1][k] != layers[0][k] for k in COUNT_KEYS):
                    op_problems.append("trace counts differ between runs")
        del result
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        if op_problems:
            failed += 1
            problems += op_problems
        elapsed = perf_counter() - start
        if elapsed + statistics.median(times) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reference": reference is not None,
        "elapsed_s": times,
        "wall_s": corrected,
        "host_speed": speeds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"numpy": numpy.__version__, "pyyaml": yaml.__version__},
    }
    if layers:
        out["layers"] = {k: statistics.median(op[k] for op in layers)
                         for k in layers[0]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.out,
                     args.traced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
