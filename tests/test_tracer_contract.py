"""The benchmark's tracer wraps public functions by name from outside the
package; this holds the package to the names and call counts it relies on.

perfbench/tracer.py is imported, never edited: a rename here that breaks
``perfbench/run.py --trace 1`` fails this test instead.
"""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from uavswarm import engine, radio
from uavswarm.harness import generate_scenario
from uavswarm.model import FLOCKING_MODE

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def _links_per_tick(result):
    """The links each tick's power field covers, cells x columns, replayed
    from the traced cell positions: every user on the first tick and on
    each tick on which some cell is more than engine._SKIN from where it
    was at the last such tick, else the users within (r + _SKIN) * (1 +
    1e-9) of some cell there, dead cells included, or every user when
    those leave out fewer than engine._NARROW_LINKS links; once that is
    every user, every later tick covers every user too."""
    world, r = result.world, result.config.gains.r
    cells, users = len(world.alive), len(world.serving)
    positions: dict[float, list] = {}
    for time, _, *xyz in (row[:5] for row in result.trace):
        positions.setdefault(time, []).append(xyz)
    links, anchor, every = [], None, False
    for pos in map(np.array, positions.values()):
        if not every and (anchor is None or (
                np.linalg.norm(pos - anchor, axis=1) > engine._SKIN).any()):
            anchor = pos
            dist = np.linalg.norm(pos[:, None, :] - world.user_pos[None],
                                  axis=2)
            near = np.count_nonzero(
                (dist <= (r + engine._SKIN) * (1.0 + 1e-9)).any(axis=0))
            if cells * (users - near) < engine._NARROW_LINKS:
                near, every = users, True
            links.append(cells * users)
        else:
            links.append(cells * near)
    return links


def test_every_span_names_an_existing_function(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.SPANS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_traced_ticks_count_one_rate_record_per_user(tracer, fig3_config):
    config = replace(fig3_config, duration=0.5)
    ticks = int(round(config.duration / config.gains.dt)) + 1
    traced = tracer.Tracer()
    traced.install()
    try:
        result = engine.run(config, trace=True)
    finally:
        traced.uninstall()
    users = len(result.world.users)
    assert traced.calls["model.record_rate"] == users * ticks
    assert traced.counts["model.record_rate_calls"] == users * ticks
    assert traced.calls["metrics.compute"] == ticks
    # association and the power field run once per evaluated tick, behind
    # their public names, so inlining either cannot silently zero its span
    # or radio.links, which counts the cells and columns each field covers
    assert traced.calls["engine.associate"] == ticks
    assert traced.calls["radio.power_field"] == ticks
    assert traced.counts["radio.links"] == sum(_links_per_tick(result))
    # the control phase runs between ticks, each term once for the fleet,
    # and every integration goes through engine.advance, so folding it into
    # the shared tick cannot silently drop the span
    for span in ("engine.control", "kernels.f", "kernels.g", "kernels.h",
                 "engine.advance"):
        assert traced.calls[span] == ticks - 1, span
    # the tracer counts h_term's third argument, the user positions, so a
    # reordered signature fails here rather than miscounting in --trace 1
    assert traced.counts["kernels.h_pairs"] == users * (ticks - 1)


def test_traced_flocking_run_counts_each_term_once_per_pass(tracer):
    # f and g share one build of the cell pairs, but each still runs behind
    # its public name once per control pass, and the power field covers
    # every cell and the near set's users on every tick
    config = generate_scenario(
        120, 0.25, (0.0, 0.0, 900.0, 300.0), (0.0, 0.0, 300.0, 300.0), 9,
        duration=0.5, seed=4, controller_mode=FLOCKING_MODE)
    ticks = config.ticks() + 1
    traced = tracer.Tracer()
    traced.install()
    try:
        result = engine.run(config, trace=True)
    finally:
        traced.uninstall()
    cells = len(result.world.alive)
    for span in ("kernels.f", "kernels.g", "kernels.goal", "engine.control"):
        assert traced.calls[span] == ticks - 1, span
    assert traced.calls["kernels.h"] == 0
    assert traced.counts["kernels.fg_pairs"] == 2 * (ticks - 1) * (cells - 1)
    assert traced.calls["radio.power_field"] == ticks
    links = _links_per_tick(result)
    assert len(links) == ticks and traced.counts["radio.links"] == sum(links)


def test_traced_split_field_counts_one_call_per_tick(tracer, cpus):
    # above radio._SPLIT_LINKS the field is computed in cell-row blocks on
    # a thread pool; the workers call only private helpers, so the traced
    # span still counts one field per tick, on the main thread, and
    # radio.links still counts the cells and columns each field covers.
    # The first tick covers all 104,000 links and splits; the near set's
    # later ticks fall below the line
    config = generate_scenario(
        2600, 0.25, (0.0, 0.0, 4000.0, 1500.0), (0.0, 0.0, 1200.0, 1500.0),
        40, duration=0.2, seed=6, controller_mode=FLOCKING_MODE)
    ticks = config.ticks() + 1
    cpus(2)
    traced = tracer.Tracer()
    traced.install()
    try:
        result = engine.run(config, trace=True)
    finally:
        traced.uninstall()
    cells, users = len(result.world.alive), len(result.world.serving)
    links = _links_per_tick(result)
    assert links[0] == cells * users >= radio._SPLIT_LINKS
    assert radio._pool is not None          # built by a split
    assert min(links) < radio._SPLIT_LINKS
    assert traced.calls["radio.power_field"] == ticks
    assert traced.counts["radio.links"] == sum(links)
    assert traced.calls["engine.associate"] == ticks


@pytest.mark.parametrize("name, seed", [("fig5", 169), ("field_flock", 0)])
def test_benchmark_digest_matches_its_reference(monkeypatch, tmp_path, name,
                                                seed):
    # the digest reads world.users[i].klass and world.uavs[i].id / .alive,
    # so a view that breaks them fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from worker import REL_TOL, load_reference

    config = workloads.build_config(name, seed)
    result = workloads.run_op(name, config, seed, tmp_path)
    assert workloads.check_outputs(name, config, result, tmp_path) == []
    assert workloads.compare(load_reference(name, seed),
                             workloads.digest(name, result), REL_TOL) == []
