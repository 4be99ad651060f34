"""Per-layer spans and counts, recorded by wrapping the simulator's public
functions from outside the package.

Each wrapper keeps its elapsed time and charges it to the enclosing span as
child time, so a span's self time is its elapsed time minus its children's.
Counting work done inside a wrapper is charged to ``trace.count`` instead of
any layer.  Only a traced worker process installs the wrappers.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

import workloads  # noqa: F401  (puts the checkout's src first on sys.path)
from uavswarm import engine, harness, kernels, metrics, model, radio


def _served(counts, args, result):
    users = args[0].users
    counts["users_attempted"] += len(users)
    counts["users_served"] += sum(1 for u in users if u.serving_uav is not None)


def _links(counts, args, result):
    counts["radio.links"] += result.shape[0] * result.shape[1]


def _window(counts, args, result):
    counts["model.record_rate_calls"] += 1
    counts["model.rate_window_entries"] += len(args[0].rate_window)


def _fg(counts, args, result):
    counts["kernels.fg_pairs"] += len(args[1]) - 1


def _h(counts, args, result):
    counts["kernels.h_pairs"] += len(args[2])


def _switches(counts, args, result):
    counts["engine.switch_events"] += len(result)


def _tick(counts, args, result):
    counts["engine.ticks"] += 1


def _run(counts, args, result):
    counts["harness.runs"] += 1


# (module, attribute, span name, counter).  Every module of the package
# that bound the same function object under that name is patched too, so
# that ``harness.run`` and ``engine.run`` are one span.
SPANS = [
    (model, "load_scenario", "model.load", None),
    (harness, "generate_scenario", "model.load", None),
    (engine, "run", "engine.run", _run),
    (engine, "make_world", "engine.make_world", None),
    (engine, "inject_failures", "engine.failures", None),
    (engine, "associate_users", "engine.associate", _served),
    (engine, "update_rates", "engine.rates", None),
    (radio, "received_power_field", "radio.power_field", _links),
    (model.UserState, "record_rate", "model.record_rate", _window),
    (engine, "channel_switching", "engine.switching", _switches),
    (metrics, "compute_metrics", "metrics.compute", _tick),
    (engine, "control_all", "engine.control", None),
    (kernels, "f_term", "kernels.f", _fg),
    (kernels, "g_term", "kernels.g", _fg),
    (kernels, "h_term", "kernels.h", _h),
    (kernels, "flocking_goal_term", "kernels.goal", None),
    (engine, "advance", "engine.advance", None),
    (harness, "export_run", "harness.export", None),
    (harness, "export_sweep_csv", "harness.export", None),
]


class Tracer:
    """Installs the wrappers in ``SPANS`` and accumulates their numbers."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, count=None):
        stack, self_ns, calls, counts = (self._stack, self.self_ns,
                                         self.calls, self.counts)

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[name] += elapsed - stack.pop()
                calls[name] += 1
            if count is not None:
                c0 = perf_counter_ns()
                count(counts, args, result)
                c1 = perf_counter_ns()
                self_ns["trace.count"] += c1 - c0
                elapsed += c1 - c0
            if stack:
                stack[-1] += elapsed
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "uavswarm" or n.startswith("uavswarm.")]
        for owner, attr, name, count in SPANS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                if getattr(target, attr, None) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Measured cost of one wrapped call over a bare call, in ns."""
    def bare(x):
        return x

    tracer = Tracer()
    wrapped = tracer.wrap("probe", bare)
    samples = []
    for _ in range(5):
        t0 = perf_counter_ns()
        for i in range(calls):
            bare(i)
        t1 = perf_counter_ns()
        for i in range(calls):
            wrapped(i)
        t2 = perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    samples.sort()
    return samples[len(samples) // 2]
