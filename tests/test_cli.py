"""End-to-end CLI behavior through main(argv)."""

import json

import pytest

from uavswarm.cli import _parse_uav_range, main

FIG3 = "scenarios/fig3_three_users.yaml"


@pytest.fixture()
def fig3_path(fig3_config, tmp_path):
    """A short-duration copy of the three-user scenario."""
    from dataclasses import replace
    from uavswarm.model import save_scenario
    path = tmp_path / "fig3_short.yaml"
    save_scenario(replace(fig3_config, duration=2.0), path)
    return str(path)


class TestParseRange:
    def test_forms(self):
        assert _parse_uav_range("3") == [3]
        assert _parse_uav_range("2..5") == [2, 3, 4, 5]
        assert _parse_uav_range("4..4") == [4]

    def test_rejects_garbage(self):
        import argparse
        for bad in ("x", "5..2", "1..y"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_uav_range(bad)


class TestValidate:
    def test_shipped_scenarios_validate(self, capsys):
        for name in ("fig3_three_users", "fig5_parade", "sweep_base"):
            code = main(["validate", "--scenario", f"scenarios/{name}.yaml"])
            assert code == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 3

    def test_missing_file_is_io_error(self, capsys):
        assert main(["validate", "--scenario", "no/such/file.yaml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        # a bad field; bytes that are not UTF-8
        for text, named in ((b"users: []\nuav_count: -3\n", "uav_count"),
                            (b"users: [\xff\xfe]\n", "not valid YAML")):
            path.write_bytes(text)
            assert main(["validate", "--scenario", str(path)]) == 1
            err = capsys.readouterr().err
            assert named in err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["run", "--scenario", FIG3, "--warp", "9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["sweep", "--scenario", FIG3]) == 1


class TestRunCommand:
    def test_writes_outputs(self, fig3_path, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", "--scenario", fig3_path, "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        stdout = capsys.readouterr().out
        assert "mode=qos_driven" in stdout
        assert "wrote" in stdout

    def test_trace_flag_adds_traces(self, fig3_path, tmp_path):
        out = tmp_path / "traced"
        assert main(["run", "--scenario", fig3_path, "--out", str(out),
                     "--trace"]) == 0
        assert (out / "trace.csv").exists()
        assert (out / "user_trace.csv").exists()

    def test_mode_flag(self, fig3_path, tmp_path, capsys):
        out = tmp_path / "flock"
        assert main(["run", "--scenario", fig3_path, "--out", str(out),
                     "--mode", "flocking"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "flocking_baseline"
        assert summary["channel_switches"] == 0

    def test_seed_override_recorded(self, fig3_path, tmp_path):
        out = tmp_path / "seeded"
        assert main(["run", "--scenario", fig3_path, "--out", str(out),
                     "--seed", "77"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 77

    def test_out_env_fallback(self, fig3_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("UAVSWARM_OUT", str(target))
        assert main(["run", "--scenario", fig3_path]) == 0
        assert (target / "metrics.csv").exists()


class TestSweepCommand:
    def test_range_and_csv(self, fig3_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep", "--scenario", fig3_path, "--uavs", "1..2",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        stdout = capsys.readouterr().out
        assert "uavs=  1" in stdout and "uavs=  2" in stdout

    def test_count_beyond_start_list(self, fig3_path, capsys):
        assert main(["sweep", "--scenario", fig3_path, "--uavs", "3"]) == 1
        assert "cover the largest" in capsys.readouterr().err
