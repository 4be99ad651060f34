"""Same-process parent/change pairs of one benchmark workload's operation.

    python3 tools/ab_inprocess.py PARENT --workload sweep --runs 30 \\
        [--seed 0]

PARENT is a git revision of this repository.  Its committed tree is
extracted with ``git archive`` (tools/bench_pairs.py's ``extract``), and its
``src/uavswarm`` is imported under the top-level name ``uavswarm_parent``
beside the working tree's ``uavswarm``; the package's imports are relative,
so the copy runs its own modules.  Each side builds the workload's config
and runs its operation with perfbench/workloads.py's ``build_config`` and
``run_op`` bound to that side's modules, so both run what
``perfbench/run.py`` times.

One operation per side runs first, and the tool exits non-zero unless both
give identical outputs: the digest, every exported file byte for byte and,
for a single run, the final cell positions and velocities.  It then times
``--runs`` operations per side with ``perf_counter``, alternating which side
goes first in each pair (parent, change, change, parent, ...), and prints
each side's median, the median ratio change / parent and the pairs the
change won.  Both sides share the process and so the host's speed drift;
no host-speed correction is applied, so read the ratio, not the times.
The temporary tree is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PARENT_PACKAGE = "uavswarm_parent"


def summary(times: dict[str, list[float]]) -> dict:
    """Each side's median time, the change's median over the parent's, and
    the pairs (the k-th run of each side) in which the change took less
    time; a tie counts for neither side."""
    medians = {side: statistics.median(times[side]) for side in SIDES}
    return {"parent_median": medians["parent"],
            "change_median": medians["change"],
            "ratio": medians["change"] / medians["parent"],
            "won": sum(c < p for p, c in zip(times["parent"],
                                             times["change"])),
            "pairs": len(times["parent"])}


def bind(workloads, package: str) -> types.SimpleNamespace:
    """workloads' build_config, run_op and digest, reading the package
    named ``package`` where they read uavswarm."""
    names = dict(vars(workloads), uavswarm=importlib.import_module(package))
    for module in ("engine", "harness", "model"):
        names[module] = importlib.import_module(f"{package}.{module}")
    return types.SimpleNamespace(**{
        name: types.FunctionType(getattr(workloads, name).__code__, names)
        for name in ("build_config", "run_op", "digest")})


def outputs(side, workload: str, config, seed: int, out_dir: Path) -> dict:
    """One operation's digest, exported files and, for a run, final cell
    states, as comparable values."""
    result = side.run_op(workload, config, seed, out_dir)
    out = {"digest": json.dumps(side.digest(workload, result)),
           "files": {p.name: p.read_bytes() for p in out_dir.iterdir()}}
    if workload != "sweep":
        out["cells"] = (result.world.uav_pos.tobytes(),
                        result.world.uav_vel.tobytes())
    shutil.rmtree(out_dir)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads                    # imports the working tree's uavswarm
    from bench_pairs import extract

    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        tmp = Path(tmp)
        sha = extract(args.parent, tmp / "tree")
        (tmp / "pkg").mkdir()
        shutil.copytree(tmp / "tree" / "src" / "uavswarm",
                        tmp / "pkg" / PARENT_PACKAGE)
        sys.path.insert(0, str(tmp / "pkg"))
        sides = {"parent": bind(workloads, PARENT_PACKAGE),
                 "change": bind(workloads, "uavswarm")}
        configs = {name: side.build_config(args.workload, args.seed)
                   for name, side in sides.items()}
        out_dir = tmp / "out"
        got = {name: outputs(side, args.workload, configs[name], args.seed,
                             out_dir) for name, side in sides.items()}
        if got["parent"] != got["change"]:
            differ = [k for k in got["parent"]
                      if got["parent"][k] != got["change"][k]]
            print(f"ab_inprocess: outputs differ from {args.parent} "
                  f"({sha}) in {differ}", file=sys.stderr)
            return 1
        times: dict[str, list[float]] = {side: [] for side in SIDES}
        for k in range(args.runs):
            for name in SIDES if k % 2 == 0 else SIDES[::-1]:
                t0 = perf_counter()
                sides[name].run_op(args.workload, configs[name], args.seed,
                                   out_dir)
                times[name].append(perf_counter() - t0)
                shutil.rmtree(out_dir)
                gc.collect()
    result = summary(times)
    print(f"{args.workload} seed {args.seed}, {args.runs} pairs against "
          f"{args.parent} ({sha[:12]}): parent "
          f"{result['parent_median'] * 1e3:.2f} ms, change "
          f"{result['change_median'] * 1e3:.2f} ms, ratio "
          f"{result['ratio']:.4f}, change won {result['won']}/"
          f"{result['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
