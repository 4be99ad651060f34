"""Interleaved parent/change pairs of the benchmark's end-to-end metrics.

    python3 tools/bench_pairs.py PARENT --workload fig5 --pairs 10 \\
        --seconds 36 --seed 5 [--out FILE]

PARENT is a git revision of this repository.  Its committed tree is
extracted with ``git archive`` into a temporary directory, and
``perfbench/run.py --trace 0`` runs from that tree and from the working
tree in turn, one run per side in each pair, alternating which side goes
first.  The values are run.py's own, corrected for the host's speed.

The result is printed and written to FILE (default
``bench_pairs-<workload>-<seed>.json``) as one JSON object: ``parent``
names the revision, and ``trace0`` has the layout of a ``BENCH_<pr>.json``
trace0 entry, so records of several workloads merge by updating one dict.
For each end-to-end metric of BENCHMARK.json it holds each side's runs,
median and quartiles (``statistics.quantiles(n=4, method="inclusive")``),
the pairs in which the change reads better and worse, and the relative
change of the medians.  The temporary tree is removed on exit, and every
run has ended by then.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return sha


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run from ``tree``: its last line
    of output, the JSON result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run.py in {tree} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summary(results: dict, metrics: list[dict]) -> dict:
    """The trace0 entry of one workload from each side's run results."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(runs["parent"], runs["change"]))
        worse = sum((c > p) if lower else (c < p)
                    for p, c in zip(runs["parent"], runs["change"]))
        entry = {side: spread(runs[side]) for side in SIDES}
        entry.update(change_better_pairs=better, change_worse_pairs=worse,
                     median_change_rel=entry["change"]["median"]
                     / entry["parent"]["median"] - 1.0)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    out = args.out or Path(f"bench_pairs-{args.workload}-{args.seed}.json")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sha = extract(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                result = bench(trees[side], args.workload, args.seed,
                               args.seconds)
                results[side].append(result)
                values = " ".join(f"{name}={m['value']:.6g}" for name, m
                                  in result["metrics"].items())
                print(f"pair {k + 1}/{args.pairs} {side}: {values}",
                      file=sys.stderr, flush=True)

    entry = {
        "seed": args.seed, "pairs": args.pairs,
        "all_correct": all(r["correct"] for side in SIDES
                           for r in results[side]),
        "attempted": {side: sum(r["attempted"] for r in results[side])
                      for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side])
                   for side in SIDES},
        "first_in_pair": first,
        **summary(results, metrics),
    }
    record = {"parent": {"rev": args.parent, "git_sha": sha},
              "trace0": {"seconds": args.seconds, args.workload: entry}}
    text = json.dumps(record, indent=1)
    out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
