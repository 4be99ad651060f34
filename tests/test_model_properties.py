"""Property tests for the scenario schema: round trips and bad leaves."""

import math
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavswarm.model import (
    MODES,
    PLOS_FORMS,
    USER_CLASSES,
    ControlGains,
    FailureEvent,
    RadioParams,
    ScenarioConfig,
    ScenarioError,
    UserSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

PROPERTY = settings(max_examples=60, deadline=None)

coords = st.floats(-1e4, 1e4)
positive = st.floats(1e-3, 1e3)
points = st.tuples(coords, coords)


@st.composite
def regions(draw):
    x0, y0 = draw(coords), draw(coords)
    return (x0, y0, x0 + draw(st.floats(1.0, 1e3)),
            y0 + draw(st.floats(1.0, 1e3)))


user_specs = st.one_of(
    st.builds(UserSpec, klass=st.sampled_from(USER_CLASSES), position=points),
    st.builds(UserSpec, klass=st.sampled_from(USER_CLASSES),
              region=regions(), count=st.integers(1, 50)))

radios = st.builds(
    RadioParams, f_c=st.floats(1e8, 1e10), delta=st.floats(0.5, 4.0),
    eta_los=st.floats(0.0, 10.0), eta_nlos=st.floats(0.0, 40.0),
    theta_env=positive, xi_env=positive, p_t=st.floats(-10.0, 60.0),
    bandwidth=st.floats(1e5, 1e8), noise=st.floats(-130.0, -50.0),
    num_channels=st.integers(1, 32),
    plos_form=st.sampled_from(PLOS_FORMS))


@st.composite
def configs(draw):
    r = draw(st.floats(10.0, 1e3))
    tau = draw(positive)
    gains = ControlGains(
        eps=draw(positive), a=draw(positive), b=draw(positive),
        c1=draw(st.floats(0.0, 50.0)), c2_reg=draw(st.floats(0.0, 50.0)),
        beta=draw(positive), n_max=draw(st.integers(1, 200)), r=r,
        d=draw(st.floats(1.0, r, exclude_max=True)), tau=tau,
        dt=draw(st.floats(1e-3, tau)), v_max=draw(positive),
        u_max=draw(positive))
    uav_count = draw(st.integers(0, 6))
    placement = {}
    if uav_count and draw(st.booleans()):
        placement["uav_initial_positions"] = draw(
            st.lists(points, min_size=uav_count, max_size=uav_count))
    elif uav_count:
        placement["uav_region"] = draw(regions())
    return ScenarioConfig(
        users=draw(st.lists(user_specs, max_size=4)), uav_count=uav_count,
        H=draw(st.floats(1.0, r)), duration=draw(st.floats(0.0, 1e4)),
        seed=draw(st.integers(0, 2**63 - 1)),
        failure_events=draw(st.lists(st.builds(
            FailureEvent, at_time=st.floats(0.0, 1e4),
            fraction=st.floats(0.0, 1.0)), max_size=3)),
        controller_mode=draw(st.sampled_from(MODES)),
        radio=draw(radios), gains=gains, **placement)


@PROPERTY
@given(configs())
def test_valid_config_round_trips(tmp_path_factory, config):
    config.validate()
    assert scenario_from_dict(scenario_to_dict(config)) == config
    path = tmp_path_factory.mktemp("scenario") / "config.yaml"
    save_scenario(config, path)
    assert load_scenario(path) == config


def _numeric_leaves(value, path=()):
    """(path, value) for every int or float leaf, path as names and indices."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _numeric_leaves(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _numeric_leaves(item, path + (i,))
    elif isinstance(value, (int, float)):
        yield path, value


def _with_leaf(value, path, leaf):
    """A copy of ``value`` with the leaf at ``path`` replaced."""
    if not path:
        return leaf
    key, rest = path[0], path[1:]
    if is_dataclass(value):
        return replace(value, **{key: _with_leaf(getattr(value, key), rest,
                                                 leaf)})
    items = list(value)
    items[key] = _with_leaf(items[key], rest, leaf)
    return type(value)(items)


def _path_name(path) -> str:
    name = ""
    for key in path:
        if isinstance(key, int):
            name += f"[{key}]"
        else:
            name += f".{key}" if name else key
    return name


@PROPERTY
@given(configs(), st.data())
def test_one_bad_leaf_is_named_by_validate(config, data):
    path, value = data.draw(st.sampled_from(list(_numeric_leaves(config))))
    # a number written as a string is not a number either
    bad = [math.nan, math.inf, -math.inf, True, False, str(value)]
    if isinstance(value, int) and abs(value) < 2**52:
        bad.append(value + 0.5)     # still non-integral as a float
    bad_config = _with_leaf(config, path, data.draw(st.sampled_from(bad)))
    with pytest.raises(ScenarioError) as caught:
        bad_config.validate()
    assert str(caught.value).startswith(f"{_path_name(path)}: ")
