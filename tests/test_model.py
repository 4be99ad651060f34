"""Scenario model: parameter defaults, validation, file round trips."""

import math
import pathlib
import random
import re
from dataclasses import is_dataclass, replace
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
import yaml

from uavswarm import engine
from uavswarm.model import (
    MAX_TICKS,
    PREMIUM,
    ControlGains,
    FailureEvent,
    RadioParams,
    ScenarioConfig,
    ScenarioError,
    UserSpec,
    UserState,
    load_scenario,
    round_half_up,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    vec3,
)
from uavswarm.radio import link_budget
from worlds import world_of

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = ["fig3_three_users.yaml", "fig5_parade.yaml", "sweep_base.yaml"]


def _minimal_config(**overrides):
    base = dict(
        users=[UserSpec(klass="premium", position=(0.0, 0.0))],
        uav_count=1,
        uav_initial_positions=[(10.0, 10.0)],
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRoundHalfUp:
    def test_ties_go_up(self):
        assert round_half_up(4.5) == 5
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2

    def test_plain_rounding(self):
        assert round_half_up(4.4) == 4
        assert round_half_up(4.6) == 5
        assert round_half_up(0.0) == 0


class TestElevation:
    def test_overhead_is_right_angle(self):
        lb = link_budget(vec3(5, 5, 100), vec3(5, 5, 0), RadioParams())
        assert lb.elevation_rad == math.pi / 2

    def test_forty_five_degrees(self):
        lb = link_budget(vec3(100, 0, 100), vec3(0, 0, 0), RadioParams())
        assert lb.elevation_rad == pytest.approx(math.pi / 4)


class TestGains:
    def test_premium_gain_defaults_to_ratio(self):
        g = ControlGains(c2_reg=4.0)
        assert g.c2_prem == 6.0
        g2 = ControlGains(c2_reg=10.0)
        assert g2.c2_prem == 15.0

    def test_premium_gain_key_rejected_at_load(self, tmp_path):
        data = scenario_to_dict(_minimal_config())
        data["gains"]["c2_prem"] = 6.0
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioError, match="c2_prem"):
            load_scenario(path)

    def test_spacing_ordering_enforced(self):
        with pytest.raises(ScenarioError):
            _minimal_config(gains=ControlGains(d=300.0, r=300.0)).validate()
        with pytest.raises(ScenarioError):
            _minimal_config(gains=ControlGains(d=0.0)).validate()


class TestScenarioValidation:
    def test_minimal_valid(self):
        _minimal_config().validate()

    def test_user_needs_exactly_one_placement(self):
        both = UserSpec(klass="premium", position=(0.0, 0.0),
                        region=(0.0, 0.0, 1.0, 1.0))
        neither = UserSpec(klass="premium")
        for bad in (both, neither):
            with pytest.raises(ScenarioError, match="exactly one"):
                _minimal_config(users=[bad]).validate()

    def test_count_requires_region(self):
        bad = UserSpec(klass="regular", position=(0.0, 0.0), count=5)
        with pytest.raises(ScenarioError, match="count requires a region"):
            _minimal_config(users=[bad]).validate()

    def test_region_extent(self):
        bad = UserSpec(klass="regular", region=(10.0, 0.0, 10.0, 5.0), count=2)
        with pytest.raises(ScenarioError, match="positive extent"):
            _minimal_config(users=[bad]).validate()

    def test_wrong_length_point_or_region_named(self):
        for bad, name in (
                (UserSpec(klass="premium", position=(0.0, 0.0, 0.0)),
                 "users[0].position"),
                (UserSpec(klass="regular", region=(0.0, 0.0, 1.0), count=2),
                 "users[0].region")):
            with pytest.raises(ScenarioError, match=re.escape(name)):
                _minimal_config(users=[bad]).validate()

    def test_unknown_class(self):
        bad = UserSpec(klass="gold", position=(0.0, 0.0))
        with pytest.raises(ScenarioError, match="klass"):
            _minimal_config(users=[bad]).validate()

    def test_uav_placement_exclusive(self):
        with pytest.raises(ScenarioError):
            _minimal_config(uav_region=(0.0, 0.0, 1.0, 1.0)).validate()
        with pytest.raises(ScenarioError):
            _minimal_config(uav_initial_positions=None).validate()

    def test_position_list_length(self):
        with pytest.raises(ScenarioError, match="length"):
            _minimal_config(uav_count=3).validate()

    def test_position_list_length_checked_without_cells(self, fig3_config):
        # starts that no cell takes are rejected, not silently dropped
        with pytest.raises(ScenarioError, match="length"):
            replace(fig3_config, uav_count=0).validate()
        replace(fig3_config, uav_count=0, uav_initial_positions=[]).validate()

    def test_seed_range(self):
        with pytest.raises(ScenarioError):
            _minimal_config(seed=-1).validate()
        with pytest.raises(ScenarioError):
            _minimal_config(seed=2**63).validate()
        _minimal_config(seed=2**63 - 1).validate()

    def test_failure_event_bounds(self):
        with pytest.raises(ScenarioError):
            _minimal_config(
                failure_events=[FailureEvent(-1.0, 0.3)]).validate()
        with pytest.raises(ScenarioError):
            _minimal_config(
                failure_events=[FailureEvent(5.0, 1.5)]).validate()

    def test_height_above_range_rejected(self):
        # range is slant distance, so above r no user is ever in range
        with pytest.raises(ScenarioError, match="H must not exceed gains.r"):
            _minimal_config(H=400.0).validate()
        _minimal_config(H=300.0).validate()   # a user at exactly r is served

    def test_tick_longer_than_window_rejected(self):
        with pytest.raises(ScenarioError, match="gains.dt must not exceed"):
            _minimal_config(gains=ControlGains(dt=6.0, tau=5.0)).validate()
        _minimal_config(gains=ControlGains(dt=5.0, tau=5.0)).validate()

    def test_mode_checked(self):
        with pytest.raises(ScenarioError, match="controller_mode"):
            _minimal_config(controller_mode="hover").validate()

    def test_n_users_counts_regions(self):
        cfg = _minimal_config(users=[
            UserSpec(klass="premium", position=(0.0, 0.0)),
            UserSpec(klass="regular", region=(0.0, 0.0, 50.0, 50.0), count=7),
        ])
        assert cfg.n_users() == 8


class TestDictFormat:
    def test_unknown_keys_rejected_everywhere(self):
        good = scenario_to_dict(_minimal_config())
        for poison in (
            {"warp_drive": 1},
            {"radio": {"f_c": 2e9, "warp": 1}},
            {"gains": {"c1": 6.0, "warp": 1}},
            {"users": [{"klass": "premium", "position": [0, 0], "warp": 1}]},
            {"failure_events": [{"at_time": 1.0, "fraction": 0.1, "warp": 1}]},
        ):
            data = dict(good)
            data.update(poison)
            with pytest.raises(ScenarioError, match="unknown keys|warp"):
                scenario_from_dict(data)

    def test_requires_users_and_count(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"users": []})
        with pytest.raises(ScenarioError):
            scenario_from_dict({"uav_count": 1})

    def test_round_trip_preserves_everything(self):
        cfg = _minimal_config(
            users=[
                UserSpec(klass="premium", position=(-5.0, 12.5)),
                UserSpec(klass="regular", region=(0.0, 0.0, 80.0, 40.0),
                         count=9),
            ],
            seed=42,
            duration=12.5,
            failure_events=[FailureEvent(6.0, 0.25)],
            radio=RadioParams(delta=1.43, plos_form="standard",
                              num_channels=24),
            gains=ControlGains(v_max=8.0),
        )
        back = scenario_from_dict(scenario_to_dict(cfg))
        assert back == cfg


class TestFiles:
    def test_yaml_round_trip(self, tmp_path):
        cfg = _minimal_config(seed=9, radio=RadioParams(num_channels=24))
        path = tmp_path / "scenario.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg

    def test_bad_yaml_raises_scenario_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("users: [unclosed\n")
        with pytest.raises(ScenarioError, match="YAML"):
            load_scenario(path)
        with pytest.raises(ScenarioError, match=re.escape(f"{path}: ")):
            load_scenario(path)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenario_reads_as_pure_python_parser_does(self, name):
        # the loader takes libyaml's parser when PyYAML has it, and its
        # exponent resolver moves no value of a shipped file
        text = (SCENARIOS / name).read_text(encoding="utf-8")
        config = scenario_from_dict(yaml.load(text, Loader=yaml.SafeLoader))
        config.validate()
        assert load_scenario(SCENARIOS / name) == config

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario(path)

    def test_invalid_content_rejected_on_load(self, tmp_path):
        cfg = _minimal_config()
        cfg.users[0].klass = "gold"
        path = tmp_path / "bad.yaml"
        save_scenario(cfg, path)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_shipped_scenarios_load(self):
        names = sorted(p.name for p in SCENARIOS.glob("*.yaml"))
        assert names == SHIPPED
        for name in names:
            load_scenario(SCENARIOS / name)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_shipped_scenario_round_trips(self, name, tmp_path):
        cfg = load_scenario(SCENARIOS / name)
        save_scenario(cfg, tmp_path / name)
        assert load_scenario(tmp_path / name) == cfg


def _loadable_dict():
    return {
        "users": [{"klass": "premium", "position": [0.0, 0.0]},
                  {"klass": "regular", "region": [0.0, 0.0, 50.0, 50.0],
                   "count": 3}],
        "uav_count": 2,
        "uav_region": [0.0, 0.0, 100.0, 100.0],
        "radio": {},
        "gains": {},
    }


# (path into the scenario mapping, bad value, field the error must name)
BAD_VALUES = [
    (("radio", "f_c"), float("nan"), "radio.f_c"),
    (("radio", "noise"), float("inf"), "radio.noise"),
    (("duration",), float("nan"), "duration"),
    (("users", 0, "position"), [float("nan"), 0.0], "users[0].position"),
    (("seed",), 1.7, "seed"),
    (("users", 1, "count"), 2.9, "users[1].count"),
    (("gains", "n_max"), 80.5, "gains.n_max"),
    (("radio", "num_channels"), 2.5, "radio.num_channels"),
    (("uav_count",), 2.5, "uav_count"),
]


@pytest.mark.parametrize("path, value, name", BAD_VALUES,
                         ids=[case[2] for case in BAD_VALUES])
def test_non_finite_or_non_integral_value_rejected_at_load(path, value, name,
                                                          tmp_path):
    data = _loadable_dict()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "bad.yaml"
    file.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError, match=re.escape(name)):
        load_scenario(file)


def _scenario_text(f_c: str) -> str:
    data = _loadable_dict()
    data["radio"] = {"f_c": "F_C"}
    return yaml.safe_dump(data).replace("F_C", f_c)


@pytest.mark.parametrize("text, value", [
    ("2e9", 2.0e9), ("2E+9", 2.0e9), ("2.0e9", 2.0e9), ("25e-1", 2.5),
    (".5e1", 5.0), ("2_000e6", 2.0e9),
])
def test_exponent_without_dot_or_sign_loads_as_float(text, value, tmp_path):
    file = tmp_path / "scenario.yaml"
    file.write_text(_scenario_text(text))
    f_c = load_scenario(file).radio.f_c
    assert type(f_c) is float and f_c == value


@pytest.mark.parametrize("text", ['"2e9"', "'2.0e9'", '"2000000000.0"'])
def test_quoted_number_rejected_naming_field(text, tmp_path):
    file = tmp_path / "scenario.yaml"
    file.write_text(_scenario_text(text))
    with pytest.raises(ScenarioError,
                       match=r"^radio\.f_c: expected a finite number"):
        load_scenario(file)


# (field the error must name, the bad config built in code from fig3)
BAD_CONFIGS = [
    ("duration", lambda c: replace(c, duration=math.nan)),
    ("duration must span at most", lambda c: replace(c, duration=1e300)),
    ("H", lambda c: replace(c, H=math.inf)),
    ("radio.noise", lambda c: replace(c, radio=replace(c.radio, noise=math.nan))),
    ("gains.n_max", lambda c: replace(c, gains=replace(c.gains, n_max=80.5))),
    ("radio.num_channels",
     lambda c: replace(c, radio=replace(c.radio, num_channels=2.5))),
    ("users[0].position",
     lambda c: replace(c, users=[replace(c.users[0], position=(math.nan, 0.0)),
                                 *c.users[1:]])),
]


@pytest.mark.parametrize("name, make", BAD_CONFIGS,
                         ids=[case[0] for case in BAD_CONFIGS])
def test_bad_value_in_code_built_config_rejected_before_any_tick(
        name, make, fig3_config, monkeypatch):
    config = make(fig3_config)
    named = "^" + re.escape(name)
    with pytest.raises(ScenarioError, match=named):
        config.validate()

    def tick(*args):
        raise AssertionError("a tick ran")

    monkeypatch.setattr(engine, "_evaluate", tick)
    with pytest.raises(ScenarioError, match=named):
        engine.run(config)


def test_run_too_long_to_end_rejected_at_load(tmp_path):
    data = _loadable_dict()
    file = tmp_path / "long.yaml"
    data["duration"] = MAX_TICKS * 0.1        # the default dt
    file.write_text(yaml.safe_dump(data))
    assert load_scenario(file).ticks() == MAX_TICKS
    for duration in ((MAX_TICKS + 1) * 0.1, 1e300):
        data["duration"] = duration
        file.write_text(yaml.safe_dump(data))
        with pytest.raises(ScenarioError, match="^duration must span at most"):
            load_scenario(file)


# (path into the scenario mapping, a bool in place of its number, field the
# error must name): YAML's true and false are not 1 and 0
BOOL_VALUES = [
    (("duration",), True, "duration"),
    (("seed",), False, "seed"),
    (("gains", "n_max"), True, "gains.n_max"),
    (("radio", "f_c"), False, "radio.f_c"),
    (("users", 1, "count"), True, "users[1].count"),
    (("users", 0, "position"), [True, 0.0], "users[0].position[0]"),
]


@pytest.mark.parametrize("path, value, name", BOOL_VALUES,
                         ids=[case[2] for case in BOOL_VALUES])
def test_bool_in_number_field_rejected_at_load(path, value, name, tmp_path):
    data = _loadable_dict()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "bad.yaml"
    file.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError, match=re.escape(f"{name}: expected")):
        load_scenario(file)


@pytest.mark.parametrize("name, make", [
    ("duration", lambda c: replace(c, duration=True)),
    ("gains.n_max", lambda c: replace(c, gains=replace(c.gains, n_max=True))),
], ids=["duration", "gains.n_max"])
def test_bool_in_code_built_config_rejected(name, make, fig3_config):
    with pytest.raises(ScenarioError, match="^" + re.escape(f"{name}: expected")):
        make(fig3_config).validate()


@pytest.mark.parametrize("name, make", [
    ("seed", lambda c: replace(c, seed=3.0)),
    ("radio.num_channels",
     lambda c: replace(c, radio=replace(c.radio, num_channels=8.0))),
], ids=["seed", "radio.num_channels"])
def test_integral_float_in_code_built_int_field_rejected(name, make,
                                                         fig3_config):
    # a file's 8.0 is read as 8, but an instance keeps what it holds, and a
    # float seed or channel count would fail mid-run
    config = make(fig3_config)
    named = "^" + re.escape(f"{name}: expected an integer, got ")
    with pytest.raises(ScenarioError, match=named):
        config.validate()
    with pytest.raises(ScenarioError, match=named):
        engine.run(config)
    read = scenario_from_dict(scenario_to_dict(config))
    assert type(read.seed) is int and type(read.radio.num_channels) is int


@pytest.mark.parametrize("value", [0, False, ""])
@pytest.mark.parametrize("key", ["radio", "gains", "failure_events"])
def test_falsy_non_section_rejected_at_load(key, value, tmp_path):
    data = _loadable_dict()
    data[key] = value
    file = tmp_path / "bad.yaml"
    file.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError, match="^" + re.escape(f"{key}: expected")):
        load_scenario(file)


@pytest.mark.parametrize("value", [None, {}, []])
@pytest.mark.parametrize("key", ["radio", "gains", "failure_events"])
def test_empty_section_keeps_default(key, value):
    data = _loadable_dict()
    data[key] = value
    assert getattr(scenario_from_dict(data), key) == \
        getattr(scenario_from_dict({**data, key: None}), key) == \
        getattr(ScenarioConfig(users=[], uav_count=0), key)


def _declared_bounds(cls=ScenarioConfig, path=()):
    """(path, field type, bound) for every bound the schema declares; a
    list's item fields are reached through its first item."""
    for name, tp in get_type_hints(cls, include_extras=True).items():
        where = path + (name,)
        if get_origin(tp) is list:
            tp, where = get_args(tp)[0], where + (0,)
        if is_dataclass(tp):
            yield from _declared_bounds(tp, where)
        elif get_origin(tp) is Annotated:
            base, *bounds = get_args(tp)
            for bound in bounds:
                yield where, base, bound


def _dotted(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


DECLARED_BOUNDS = list(_declared_bounds())


def test_schema_declares_each_single_field_bound():
    assert sorted({_dotted(path) for path, _, _ in DECLARED_BOUNDS}) == sorted([
        "users[0].count", "uav_count", "H", "duration",
        "failure_events[0].at_time", "failure_events[0].fraction",
        "radio.f_c", "radio.delta", "radio.bandwidth", "radio.c_light",
        "radio.num_channels", "gains.eps", "gains.a", "gains.b", "gains.c1",
        "gains.c2_reg", "gains.beta", "gains.n_max", "gains.tau", "gains.dt",
        "gains.v_max", "gains.u_max"])


def _config_with(path, value) -> ScenarioConfig:
    """A valid config reaching every bounded field, with ``value`` at
    ``path``."""
    config = _minimal_config(
        users=[UserSpec(klass="regular", region=(0.0, 0.0, 50.0, 50.0),
                        count=2)],
        uav_initial_positions=None, uav_region=(0.0, 0.0, 50.0, 50.0),
        failure_events=[FailureEvent(1.0, 0.5)])
    target = config
    for key in path[:-1]:
        target = target[key] if isinstance(key, int) else getattr(target, key)
    setattr(target, path[-1], value)
    return config


@pytest.mark.parametrize(
    "path, base, bound", DECLARED_BOUNDS,
    ids=[f"{_dotted(path)} {op} {limit}" for path, _, (op, limit) in
         DECLARED_BOUNDS])
def test_declared_bound_holds_at_its_edge(path, base, bound):
    name, (op, limit) = _dotted(path), bound
    below = op in (">", ">=")
    past = [math.nextafter(limit, -math.inf if below else math.inf)]
    if base is int:
        past.append(limit - 1 if below else limit + 1)
    named = "^" + re.escape(f"{name}: ")
    for check in (lambda c: c.validate(),
                  lambda c: scenario_from_dict(scenario_to_dict(c))):
        on_edge = _config_with(path, base(limit))
        if op == ">":
            with pytest.raises(ScenarioError, match=named):
                check(on_edge)
        else:
            check(on_edge)
        for value in past:
            with pytest.raises(ScenarioError, match=named) as caught:
                check(_config_with(path, value))
            if type(value) is base:
                assert str(caught.value) == f"{name}: must be {op} {limit}"


def _user() -> UserState:
    return world_of([], [(PREMIUM, 0.0, 0.0)]).users[0]


@pytest.mark.parametrize("dt, tau", [(0.1, 5.0), (0.1, 0.3), (0.3, 0.9),
                                     (1 / 3, 1.0), (0.05, 0.15)])
def test_mean_rate_is_the_window_mean_after_every_record(dt, tau):
    rng = random.Random(repr((dt, tau)))
    user = _user()
    for k in range(300):
        # magnitudes far apart, so a stale or re-ordered sum shows in the bits
        rate = rng.choice([0.0, 1e-3, 1.0, 1e8]) * rng.uniform(0.5, 3.0)
        user.record_rate(k * dt, rate, tau)
        window = user.rate_window
        assert user.mean_rate == sum(window) / len(window), k


def test_mean_rate_reads_zero_when_fresh_and_cannot_be_stored():
    user = _user()
    assert user.mean_rate == 0.0
    with pytest.raises(AttributeError):
        user.mean_rate = 1.0
