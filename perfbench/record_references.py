"""Record the reference digests that every timed operation is checked against.

    python3 perfbench/record_references.py [--workload fig5] [--seeds 0-19]

Writes perfbench/references/<workload>.json from the code in the checkout.
Re-record only from a commit whose outputs are known good, and say in the
change that re-records them why the outputs moved.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from worker import REFERENCES

# Seeds 0..19 for every workload, plus the fig5 scenario's own seed.
DEFAULT_SEEDS = {name: list(range(20)) for name in workloads.WORKLOADS}
DEFAULT_SEEDS["fig5"].append(169)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seeds: list[int]) -> Path:
    path = REFERENCES / f"{name}.json"
    data = {"seeds": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    out_dir = workloads.ROOT / ".perfbench_out" / "record"
    try:
        for seed in seeds:
            config = workloads.build_config(name, seed)
            result = workloads.run_op(name, config, seed, out_dir)
            problems = workloads.check_outputs(name, config, result, out_dir)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            data["seeds"][str(seed)] = workloads.digest(name, result)
            print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.is_dir() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()
    REFERENCES.mkdir(exist_ok=True)
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=seed_list,
                        help="an inclusive range such as 0-19")
    args = parser.parse_args(argv)
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        record(name, args.seeds or DEFAULT_SEEDS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
