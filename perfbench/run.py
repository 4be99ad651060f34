"""uavswarm benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload fig5 --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it prints the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` the per-layer metrics from a traced process plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times of
the end-to-end metrics are corrected for the host's speed while they ran
(``hostspeed.py``).  See perfbench/README.md for the workloads and what
each metric means.

This process only orchestrates: every measurement runs in a child process
with numpy's BLAS pool pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBE = HERE / "setup_probe.py"
OUT = ROOT / ".perfbench_out"
REQUIRED = ("BENCHMARK.json", "src/uavswarm/__init__.py",
            "scenarios/fig5_parade.yaml", "scenarios/sweep_base.yaml")
# Host speed drifts over tens of seconds, so half the set-up probes run
# before the timed operations and half after them.
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def remaining(t_start: float) -> float:
    left = DEADLINE_S - (perf_counter() - t_start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def run_worker(args: list[str], t_start: float) -> dict:
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args,
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=remaining(t_start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, t_start: float) -> list[float]:
    """Fresh interpreter to validated ScenarioConfig, timed from outside and
    corrected by the host-speed probe that ran inside it."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(SETUP_PROBE), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            took = perf_counter() - t0
            proc.communicate(timeout=remaining(t_start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("setup probe timed out") from None
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or proc.returncode != 0:
            raise BenchError("setup probe failed")
        samples.append(hostspeed.correct(took, float(fields[1]),
                                         float(fields[2])))
    return samples


def environment() -> dict:
    """What the numbers depend on, recorded with every run."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_ENV,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = perf_counter()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a uavswarm checkout, missing {missing}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(out_dir)]
    try:
        env = environment()
        if args.trace:
            plain = run_worker(common + ["--seconds", "0"], t_start)
            left = args.seconds - sum(plain["elapsed_s"])
            traced = run_worker(common + ["--seconds", str(max(left, 0.0)),
                                          "--traced"], t_start)
            parts = [plain, traced]
            values = traced["layers"]
            values["trace.overhead_s"] = (
                statistics.median(traced["elapsed_s"])
                - statistics.median(plain["elapsed_s"]))
            names = spec["per_layer"]
        else:
            setup = setup_seconds(args.workload, args.seed, t_start)
            plain = run_worker(common + ["--seconds", str(args.seconds)],
                               t_start)
            setup += setup_seconds(args.workload, args.seed, t_start)
            parts = [plain]
            values = {"wall_s": statistics.median(plain["wall_s"]),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": plain["peak_rss_mb"]}
            names = spec["end_to_end"]
            print("samples " + json.dumps({
                "wall_s": plain["wall_s"], "setup_s": setup,
                "uncorrected_wall_s": plain["elapsed_s"],
                "host_speed": plain["host_speed"]}), flush=True)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    env.update(plain["versions"])
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    for part in parts:
        for problem in part["problems"]:
            print("problem " + problem, flush=True)
    repeats = sum(p["attempted"] for p in parts) - len(parts)
    if plain["reference"]:
        print(f"check: compared with the recorded reference for seed "
              f"{args.seed} (relative tolerance 1e-9), plus invariants and "
              f"determinism over {repeats} repeat(s)", flush=True)
    else:
        print(f"check: no reference recorded for seed {args.seed}; checked "
              f"invariants and determinism over {repeats} repeat(s) only",
              flush=True)
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
