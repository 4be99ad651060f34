"""tools/ab_inprocess.py's summary of same-process parent/change pairs."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "ab_inprocess.py"
spec = importlib.util.spec_from_file_location("ab_inprocess", TOOL)
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)


def test_summary_takes_medians_ratio_and_pairs_won():
    times = {"parent": [1.0, 4.0, 3.0, 2.0, 5.0],
             "change": [0.5, 4.0, 3.5, 1.0, 2.0]}
    got = ab_inprocess.summary(times)
    assert got["parent_median"] == 3.0 and got["change_median"] == 2.0
    assert got["ratio"] == 2.0 / 3.0
    # pair 2 ties and counts for neither side; pair 3 the parent won
    assert (got["won"], got["pairs"]) == (3, 5)


def test_summary_of_even_runs_takes_the_middle_mean():
    got = ab_inprocess.summary({"parent": [2.0, 4.0], "change": [3.0, 5.0]})
    assert (got["parent_median"], got["change_median"]) == (3.0, 4.0)
    assert got["won"] == 0
