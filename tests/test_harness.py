"""Scenario generation, sweeps, and the deterministic exporters."""

import csv
import json
import math
import re
from dataclasses import fields

import pytest

from uavswarm.engine import run
from uavswarm.harness import (
    export_run,
    export_sweep_csv,
    generate_scenario,
    run_sweep,
    summary_dict,
)
from uavswarm.metrics import TickMetrics, steady_state
from uavswarm.model import ScenarioConfig, ScenarioError


class TestGenerateScenario:
    def test_two_zone_layout(self):
        cfg = generate_scenario(
            n_users=45, premium_fraction=0.33,
            area=(0.0, 0.0, 1000.0, 500.0),
            premium_area=(0.0, 0.0, 300.0, 500.0),
            uav_count=5, seed=7)
        prem, reg = cfg.users
        assert prem.klass == "premium" and prem.count == 15  # 14.85 -> 15
        assert reg.klass == "regular" and reg.count == 30
        assert prem.region == (0.0, 0.0, 300.0, 500.0)
        assert reg.region == (300.0, 0.0, 1000.0, 500.0)
        assert cfg.uav_region == (0.0, 0.0, 1000.0, 500.0)
        cfg.validate()

    def test_premium_slice_must_fit(self):
        with pytest.raises(ScenarioError, match="left slice"):
            generate_scenario(
                n_users=10, premium_fraction=0.5,
                area=(0.0, 0.0, 1000.0, 500.0),
                premium_area=(0.0, 0.0, 300.0, 400.0),  # wrong y extent
                uav_count=2)

    def test_classes_must_be_nonempty(self):
        for frac in (0.0, 1.0):
            with pytest.raises(ScenarioError, match="non-empty"):
                generate_scenario(
                    n_users=10, premium_fraction=frac,
                    area=(0.0, 0.0, 1000.0, 500.0),
                    premium_area=(0.0, 0.0, 300.0, 500.0),
                    uav_count=2)

    @pytest.mark.parametrize("name, value", [
        ("premium_fraction", math.nan),
        ("premium_fraction", math.inf),
        ("premium_fraction", "0.2"),
        ("premium_fraction", 1.5),
        ("n_users", True),
        ("n_users", 100.5),
        ("n_users", 0),
        ("area", (0.0, math.nan, 1000.0, 500.0)),
        ("area", (0.0, 0.0, 1000.0)),
        ("premium_area", (0.0, 0.0, math.inf, 500.0)),
        ("premium_area", None),
    ])
    def test_bad_argument_named_before_any_arithmetic(self, name, value):
        args = dict(n_users=100, premium_fraction=0.2,
                    area=(0.0, 0.0, 1000.0, 500.0),
                    premium_area=(0.0, 0.0, 300.0, 500.0), uav_count=2)
        with pytest.raises(ScenarioError) as err:
            generate_scenario(**{**args, name: value})
        assert re.match(rf"{name}[:\[]", str(err.value)), str(err.value)


class TestRunSweep:
    def test_single_count_matches_plain_run(self, fig3_config):
        from dataclasses import replace
        base = replace(fig3_config, duration=2.0)
        sweep = run_sweep(base, [2])
        direct = run(base, run_seed=base.seed + 2)
        assert sweep.counts == [2]
        assert sweep.seeds == {2: base.seed + 2}
        assert sweep.steady[2] == steady_state(direct.metrics)

    def test_prefix_of_start_list(self, fig3_config):
        from dataclasses import replace
        base = replace(fig3_config, duration=1.0)
        sweep = run_sweep(base, [1, 2])
        # one UAV cannot serve the far pocket, two can reach everyone
        assert sweep.steady[1]["all_served_pct"] <= \
            sweep.steady[2]["all_served_pct"]

    def test_counts_validation(self, fig3_config):
        for bad in ([], [0], [2, 1], [1, 1]):
            with pytest.raises(ScenarioError):
                run_sweep(fig3_config, bad)

    def test_fractional_count_rejected_not_truncated(self, fig3_config):
        with pytest.raises(ScenarioError, match=r"counts\[1\]"):
            run_sweep(fig3_config, [1, 1.7])

    def test_start_list_must_cover_largest_count(self, fig3_config):
        with pytest.raises(ScenarioError, match="cover the largest"):
            run_sweep(fig3_config, [3])

    def test_region_base_needs_region_or_positions(self, fig3_config):
        from dataclasses import replace
        base = replace(fig3_config, uav_initial_positions=None,
                       uav_region=None, uav_count=0)
        with pytest.raises(ScenarioError):
            run_sweep(base, [1])

    @pytest.mark.parametrize("seed", [2**63 - 2, 2**63 - 1])
    def test_seed_plus_largest_count_checked_before_any_run(
            self, fig3_config, monkeypatch, seed):
        from dataclasses import replace
        import uavswarm.harness as harness

        def no_run(*args, **kwargs):
            raise AssertionError("run_sweep ran a count before failing")

        monkeypatch.setattr(harness, "run", no_run)
        with pytest.raises(ScenarioError,
                           match=r"^seed \+ the largest count 2 must be"):
            run_sweep(replace(fig3_config, seed=seed), [1, 2])


class TestExporters:
    def test_export_run_files_and_determinism(self, fig3_config, fig3_result,
                                              tmp_path):
        plain = export_run(fig3_result, tmp_path / "plain")
        assert sorted(p.name for p in plain) == ["metrics.csv", "summary.json"]
        once = tmp_path / "a"
        again = tmp_path / "b"
        traced = run(fig3_config, trace=True)
        files = export_run(traced, once)
        export_run(traced, again)
        names = sorted(p.name for p in files)
        assert names == ["metrics.csv", "summary.json", "trace.csv",
                         "user_trace.csv"]
        for name in names:
            assert (once / name).read_bytes() == (again / name).read_bytes()

    def test_metrics_csv_shape(self, fig3_result, tmp_path):
        export_run(fig3_result, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time"
        assert "premium_fulfilled_pct" in header
        assert "p0_objective_mbps" in header
        assert len(lines) == 1 + len(fig3_result.metrics)
        first = dict(zip(header, lines[1].split(",")))
        assert first["time"] == "0.000"
        assert first["active_channels"] == "1"

    def test_metrics_csv_without_users_prints_floats(self, tmp_path):
        # no users: the objective is the float 0.0, printed like every
        # other float column, not the int 0
        config = ScenarioConfig(
            users=[], uav_count=2,
            uav_initial_positions=[(0.0, 0.0), (400.0, 0.0)], duration=0.2)
        export_run(run(config), tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert row["p0_objective_mbps"] == "0.000"
            assert row["all_mean_rate_mbps"] == "0.000"

    def test_summary_fields(self, fig3_result, tmp_path):
        export_run(fig3_result, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "qos_driven"
        assert summary["uav_count"] == 2
        assert summary["n_users"] == 3
        assert summary["channel_switches"] == len(fig3_result.switch_events)
        assert summary["steady_state"]["premium_mean_rate_mbps"] > 0
        assert summary == summary_dict(fig3_result)

    def test_sweep_csv_round(self, fig3_config, tmp_path):
        from dataclasses import replace
        base = replace(fig3_config, duration=1.0)
        sweep = run_sweep(base, [1, 2])
        path_a = tmp_path / "sweep_a.csv"
        path_b = tmp_path / "sweep_b.csv"
        export_sweep_csv(sweep, path_a)
        export_sweep_csv(run_sweep(base, [1, 2]), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        lines = path_a.read_text().splitlines()
        assert lines[0].startswith("uav_count,seed,premium_served_pct")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "1"
        assert lines[2].split(",")[0] == "2"

    def test_every_metric_is_reported_everywhere(self, fig3_config,
                                                 fig3_result, tmp_path):
        # a rate or P0, in bits/s, is reported in Mbit/s under an _mbps name
        def reported(name):
            if name.endswith("rate") or name == "p0_objective":
                return name + "_mbps"
            return name

        names = [reported(f.name) for f in fields(TickMetrics)]
        export_run(fig3_result, tmp_path)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert next(csv.reader(fh)) == names
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert sorted(summary["steady_state"]) == sorted(names)
        from dataclasses import replace
        sweep = run_sweep(replace(fig3_config, duration=0.5), [1, 2])
        export_sweep_csv(sweep, tmp_path / "sweep.csv")
        with open(tmp_path / "sweep.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["uav_count", "seed", *names[1:]]

    def test_user_trace_written_when_collected(self, fig3_config, tmp_path):
        from dataclasses import replace
        cfg = replace(fig3_config, duration=0.5)
        result = run(cfg, trace=True)
        export_run(result, tmp_path)
        lines = (tmp_path / "user_trace.csv").read_text().splitlines()
        assert lines[0] == "time,user_id,serving_uav,rate_mbps,mean_rate_mbps"
        assert len(lines) == 1 + len(result.user_trace)
