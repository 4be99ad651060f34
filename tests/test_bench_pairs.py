"""tools/bench_pairs.py's summary of parent/change pairs."""

import importlib.util
import pathlib
import statistics

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"},
           {"name": "served", "better": "higher"}]


def _result(wall, served):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "served": {"value": served, "unit": "ratio"}}}


def test_summary_counts_pairs_by_each_metrics_direction():
    results = {
        "parent": [_result(w, s) for w, s in
                   [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5), (4.0, 0.5)]],
        "change": [_result(w, s) for w, s in
                   [(0.5, 0.6), (2.0, 0.4), (2.5, 0.5), (5.0, 0.6)]],
    }
    got = bench_pairs.summary(results, METRICS)
    wall = got["wall_s"]
    # pair 2 ties: neither better nor worse
    assert (wall["change_better_pairs"], wall["change_worse_pairs"]) == (2, 1)
    assert wall["parent"]["runs"] == [1.0, 2.0, 3.0, 4.0]
    q1, median, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4,
                                          method="inclusive")
    assert (wall["parent"]["q1"], wall["parent"]["median"],
            wall["parent"]["q3"]) == (q1, median, q3)
    assert wall["parent"]["iqr"] == q3 - q1
    assert wall["median_change_rel"] == wall["change"]["median"] / median - 1
    served = got["served"]
    assert (served["change_better_pairs"],
            served["change_worse_pairs"]) == (2, 1)
