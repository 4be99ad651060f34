"""Command-line front end.

Subcommands:

* ``run``      simulate one scenario and write metrics.csv / summary.json
* ``sweep``    repeat a scenario over a range of fleet sizes
* ``validate`` parse and check a scenario file without running it

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for I/O
failures.  The output directory comes from --out, else the UAVSWARM_OUT
environment variable, else ./out.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .engine import run
from .harness import export_run, export_sweep_csv, run_sweep
from .model import FLOCKING_MODE, QOS_MODE, ScenarioError, load_scenario

_MODE_BY_FLAG = {"qos": QOS_MODE, "flocking": FLOCKING_MODE}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_uav_range(text: str) -> list[int]:
    """Accept 'A..B' (inclusive) or a single integer."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A..B or a single integer, got {text!r}") from None


def _out_dir(args) -> str:
    if args.out is not None:
        return args.out
    return os.environ.get("UAVSWARM_OUT", "out")


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.mode is not None:
        config = replace(config, controller_mode=_MODE_BY_FLAG[args.mode])
    result = run(config, trace=args.trace)
    written = export_run(result, _out_dir(args))
    last = result.metrics[-1]
    print(f"ran {args.scenario}: mode={result.config.controller_mode} "
          f"seed={result.seed} ticks={len(result.metrics)} "
          f"switches={len(result.switch_events)}")
    print(f"final: premium fulfilled {last.premium_fulfilled_pct:.1f}% "
          f"regular fulfilled {last.regular_fulfilled_pct:.1f}% "
          f"served {last.all_served_pct:.1f}%")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    sweep = run_sweep(config, args.uavs)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "sweep.csv")
    export_sweep_csv(sweep, path)
    print(f"swept {args.scenario}: counts {sweep.counts[0]}..{sweep.counts[-1]}")
    for n in sweep.counts:
        s = sweep.steady[n]
        print(f"  uavs={n:3d} served={s['all_served_pct']:6.2f}% "
              f"fulfilled={s['all_fulfilled_pct']:6.2f}% "
              f"premium_fulfilled={s['premium_fulfilled_pct']:6.2f}%")
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario)
    print(f"ok: {args.scenario}: {config.n_users()} users, "
          f"{config.uav_count} uavs, duration {config.duration:g}s, "
          f"mode {config.controller_mode}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="uavswarm",
                     description="UAV small-cell swarm QoS simulator")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("--scenario", required=True, help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default=None,
                       help="override the controller mode")
    p_run.add_argument("--trace", action="store_true",
                       help="also write per-UAV and per-user traces")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run over a range of fleet sizes")
    p_sweep.add_argument("--scenario", required=True, help="scenario YAML file")
    p_sweep.add_argument("--uavs", required=True, type=_parse_uav_range,
                         help="fleet sizes, A..B inclusive or a single count")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True, help="scenario YAML file")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
