"""Core domain types and scenario configuration.

Everything internal is SI (m, s, Hz, bits/s).  Transmit and noise powers are
carried in dBm at the configuration boundary and converted to mW exactly once,
inside the radio module.  UAVs fly at a fixed height with zero vertical
velocity; ground users sit at z = 0 and do not move.

A world's state is a set of arrays on engine.WorldState, one row per cell
or user.  UavState and UserState are views of one row, with a named
attribute per array; a user's view also keeps its rate window, one entry
per tick, whose trailing mean is computed only when read.
The users' serving ids are the one association record: a cell's users and
its load are counted from them, never stored on the cell.

Values the model fixes are derived, not configured: ControlGains computes
the premium gain and the sigma-norm images the kernels need.  Distances
are radio.geometry's, the one Euclidean distance code.

The dataclass field types are the scenario schema, and validate() checks a
config against them before its range checks: a file at load and a config
built in code fail alike, with the field named, on a non-finite number, a
fractional integer or a list of the wrong length.  A run may span at most
MAX_TICKS ticks, so every valid scenario ends.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import deque
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

PREMIUM = "premium"
REGULAR = "regular"
USER_CLASSES = (PREMIUM, REGULAR)

# Per-class downlink rate targets, bits/s.
TARGET_RATE = {PREMIUM: 300e6, REGULAR: 100e6}

# Default channel.  Regular users can only be served on it.
L0 = 0

QOS_MODE = "qos_driven"
FLOCKING_MODE = "flocking_baseline"
MODES = (QOS_MODE, FLOCKING_MODE)

PLOS_AS_WRITTEN = "as_written"
PLOS_STANDARD = "standard"
PLOS_FORMS = (PLOS_AS_WRITTEN, PLOS_STANDARD)

# Longest run validate() accepts, in ticks (11.6 days at the default dt)
MAX_TICKS = 10_000_000


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario configurations."""


def vec3(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> np.ndarray:
    return np.array([float(x), float(y), float(z)])


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up (4.5 -> 5)."""
    return int(math.floor(x + 0.5))


class _Item:
    """A view's attribute: entry ``id`` of one of its world's arrays, passed
    through ``read``.  Read-only; _Settable writes the entry in place."""

    def __init__(self, array: str, read=None):
        self.array, self.read = array, read

    def __get__(self, view, owner=None):
        if view is None:
            return self
        value = view._arrays[self.array][view.id]
        return value if self.read is None else self.read(value)


class _Settable(_Item):
    def __set__(self, view, value) -> None:
        view._arrays[self.array][view.id] = value


class UavState:
    """Cell ``id``, a view of a world's arrays.  ``position`` and
    ``velocity`` are row views that write through; z is pinned to the
    height and vz is always 0.  ``_arrays`` maps the world's array names to
    its arrays and never holds the world, so no view keeps a finished world
    alive."""

    __slots__ = ("id", "_arrays")

    def __init__(self, id: int, arrays) -> None:
        self.id, self._arrays = id, arrays

    position = _Settable("uav_pos")                 # (3,) m
    velocity = _Settable("uav_vel")                 # (3,) m/s
    alive = _Settable("alive", bool)
    channel = _Settable("channel", int)
    last_switch_time = _Item("last_switch", float)


class UserState:
    """Ground user ``id`` at z = 0, a view of a world's arrays as UavState
    is, and its trailing rate window."""

    __slots__ = ("id", "_arrays", "rate_window", "rate_times")
    position = _Item("user_pos")                    # (3,) m
    klass = _Item("premium", lambda p: PREMIUM if p else REGULAR)
    target_rate = _Item("target", float)            # bits/s
    serving_uav = _Item("serving", lambda n: None if n < 0 else int(n))
    achieved_rate = _Item("rate", float)            # bits/s, 0 while unserved

    def __init__(self, id: int, arrays) -> None:
        self.id, self._arrays = id, arrays
        self.rate_window: deque = deque()   # trailing rates
        self.rate_times: deque = deque()    # and their times

    @property
    def mean_rate(self) -> float:
        """Arithmetic mean over the trailing window, 0.0 while it is empty.

        Re-summed over the window on each read, not kept as a running sum,
        so it has the same bits whatever came before: the switch trigger
        compares against it.  The sum is a plain loop, left to right, as
        metrics.seq_sum adds: Python's sum() is compensated from CPython
        3.12 on, and the loop costs less than converting the window.
        """
        window = self.rate_window
        if not window:
            return 0.0
        total = 0.0
        for rate in window:
            total += rate
        return total / len(window)

    def record_rate(self, time: float, rate: float, tau: float) -> None:
        """Append this tick's rate and its time to the trailing window.

        Entries at or before time - tau drop out.  Nothing is summed here:
        the mean is computed only when `mean_rate` is read.
        """
        window, times = self.rate_window, self.rate_times
        window.append(rate)
        times.append(time)
        edge = time - tau
        while times and times[0] <= edge:
            times.popleft()
            window.popleft()


@dataclass
class RadioParams:
    """Air-to-ground link parameters.  Powers in dBm, frequencies in Hz."""

    f_c: float = 2e9                # carrier frequency
    delta: float = 2.0              # path-loss exponent
    eta_los: float = 0.1            # excess LoS loss, dB
    eta_nlos: float = 21.0          # excess NLoS loss, dB
    theta_env: float = 4.88         # environment constant (dimensionless)
    xi_env: float = 0.43            # environment constant (1/deg)
    p_t: float = 37.0               # transmit power, dBm
    bandwidth: float = 15e6         # per-link bandwidth, Hz
    noise: float = -80.0            # thermal noise power, dBm
    c_light: float = 3e8            # propagation speed, m/s
    num_channels: int = 8           # channels 0 .. num_channels - 1
    plos_form: str = PLOS_AS_WRITTEN

    def validate(self) -> None:
        if self.f_c <= 0:
            raise ScenarioError("radio.f_c must be positive")
        if self.delta <= 0:
            raise ScenarioError("radio.delta must be positive")
        if self.bandwidth <= 0:
            raise ScenarioError("radio.bandwidth must be positive")
        if self.c_light <= 0:
            raise ScenarioError("radio.c_light must be positive")
        if self.num_channels < 1:
            raise ScenarioError("radio.num_channels must be >= 1")
        if self.plos_form not in PLOS_FORMS:
            raise ScenarioError(f"radio.plos_form must be one of {PLOS_FORMS}")


@dataclass
class ControlGains:
    """Controller gains, spacing constraints, and integration settings."""

    eps: float = 0.1                # sigma-norm curvature
    a: float = 5.0                  # sigmoid ceiling / crowding gain
    b: float = 5.0                  # sigmoid floor
    c1: float = 6.0                 # repulsion / navigation gain
    c2_reg: float = 4.0             # attraction gain, regular users
    beta: float = 1.5               # satisfaction ceiling factor
    n_max: int = 80                 # per-UAV serving capacity
    r: float = 300.0                # communication range, m
    d: float = 100.0                # minimum separation, m
    tau: float = 5.0                # rate window span / switch cooldown, s
    dt: float = 0.1                 # tick length, s
    v_max: float = 20.0             # speed clamp, m/s
    u_max: float = 10.0             # control clamp, m/s^2

    @property
    def c2_prem(self) -> float:
        """Attraction gain for premium users, fixed at 1.5 x the regular one."""
        return 1.5 * self.c2_reg

    # Sigma-norm images used by the kernels: sigma(x) = (sqrt(1 + eps x^2)
    # - 1) / eps, the same bits as kernels.sigma_norm_scalar.
    def _sigma(self, x: float) -> float:
        return (math.sqrt(1.0 + self.eps * x * x) - 1.0) / self.eps

    @property
    def c_sig(self) -> float:
        """Shift of the uneven sigmoid, |a - b| / sqrt(4ab)."""
        return abs(self.a - self.b) / math.sqrt(4.0 * self.a * self.b)

    @property
    def r_sig(self) -> float:
        return self._sigma(self.r)

    @property
    def d_sig(self) -> float:
        return self._sigma(self.d)

    @property
    def n_max_sig(self) -> float:
        return self._sigma(float(self.n_max))

    def validate(self) -> None:
        if self.eps <= 0:
            raise ScenarioError("gains.eps must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ScenarioError("gains.a and gains.b must be positive")
        if self.c1 < 0 or self.c2_reg < 0:
            raise ScenarioError("gains.c1 and gains.c2_reg must be non-negative")
        if self.beta <= 0:
            raise ScenarioError("gains.beta must be positive")
        if self.n_max < 1:
            raise ScenarioError("gains.n_max must be >= 1")
        if not 0 < self.d < self.r:
            raise ScenarioError("gains must satisfy 0 < d < r")
        if self.tau <= 0:
            raise ScenarioError("gains.tau must be positive")
        if self.dt <= 0:
            raise ScenarioError("gains.dt must be positive")
        if self.dt > self.tau:
            raise ScenarioError("gains.dt must not exceed gains.tau")
        if self.v_max <= 0 or self.u_max <= 0:
            raise ScenarioError("gains.v_max and gains.u_max must be positive")


@dataclass
class UserSpec:
    """One entry of a scenario's user list.

    Either a single user at an explicit (x, y) position, or `count` users
    sampled uniformly in a rectangular region (x0, y0, x1, y1).
    """

    klass: str
    position: tuple[float, float] | None = None
    region: tuple[float, float, float, float] | None = None
    count: int = 1


@dataclass
class FailureEvent:
    at_time: float                  # s; fires at the first tick at or past this
    fraction: float                 # fraction of currently alive UAVs to kill


@dataclass
class ScenarioConfig:
    users: list[UserSpec]
    uav_count: int
    uav_initial_positions: list[tuple[float, float]] | None = None
    uav_region: tuple[float, float, float, float] | None = None
    H: float = 100.0                # flight height, m
    duration: float = 30.0          # s
    seed: int = 0
    failure_events: list[FailureEvent] = field(default_factory=list)
    controller_mode: str = QOS_MODE
    radio: RadioParams = field(default_factory=RadioParams)
    gains: ControlGains = field(default_factory=ControlGains)

    def n_users(self) -> int:
        return sum(s.count if s.region is not None else 1 for s in self.users)

    def ticks(self) -> int:
        """Integration steps in a run: duration / dt, rounded."""
        return int(round(self.duration / self.gains.dt))

    def validate(self) -> None:
        read_value(ScenarioConfig, self, "")
        for i, spec in enumerate(self.users):
            where = f"users[{i}]"
            if spec.klass not in USER_CLASSES:
                raise ScenarioError(f"{where}: klass must be one of {USER_CLASSES}")
            if (spec.position is None) == (spec.region is None):
                raise ScenarioError(f"{where}: exactly one of position/region required")
            if spec.region is not None:
                _check_region(spec.region, where)
                if spec.count < 1:
                    raise ScenarioError(f"{where}: count must be >= 1")
            elif spec.count != 1:
                raise ScenarioError(f"{where}: count requires a region")
        if self.uav_count < 0:
            raise ScenarioError("uav_count must be >= 0")
        if self.uav_count > 0:
            has_pos = self.uav_initial_positions is not None
            has_reg = self.uav_region is not None
            if has_pos == has_reg:
                raise ScenarioError(
                    "exactly one of uav_initial_positions/uav_region required")
            if has_pos and len(self.uav_initial_positions) != self.uav_count:
                raise ScenarioError(
                    "uav_initial_positions length must equal uav_count")
            if has_reg:
                _check_region(self.uav_region, "uav_region")
        if self.H <= 0:
            raise ScenarioError("H must be positive")
        # range is slant distance: above r no user is ever in range
        if self.H > self.gains.r:
            raise ScenarioError("H must not exceed gains.r")
        if self.duration < 0:
            raise ScenarioError("duration must be >= 0")
        check_seed(self.seed, "seed")
        for i, ev in enumerate(self.failure_events):
            if ev.at_time < 0:
                raise ScenarioError(f"failure_events[{i}]: at_time must be >= 0")
            if not 0 <= ev.fraction <= 1:
                raise ScenarioError(f"failure_events[{i}]: fraction must be in [0, 1]")
        if self.controller_mode not in MODES:
            raise ScenarioError(f"controller_mode must be one of {MODES}")
        self.radio.validate()
        self.gains.validate()
        if self.ticks() > MAX_TICKS:
            raise ScenarioError(
                f"duration must span at most {MAX_TICKS} ticks of gains.dt")


def check_seed(seed: int, where: str) -> int:
    """``seed``, else a ScenarioError naming ``where``."""
    if not 0 <= seed < 2**63:
        raise ScenarioError(f"{where} must be a non-negative 63-bit integer")
    return seed


def _check_region(region, where: str) -> None:
    x0, y0, x1, y1 = region
    if not (x1 > x0 and y1 > y0):
        raise ScenarioError(f"{where}: region must have positive extent")


# --- scenario file format -------------------------------------------------
#
# One YAML document per scenario, keys mirroring ScenarioConfig field names.
# The dataclass field types are the schema: read_value walks them to read a
# file's mapping and to check a config built in code, by the same rules.

_LEAF_KINDS = {float: "a finite number", int: "an integer", str: "a string"}


@functools.cache
def _schema(cls) -> tuple[tuple[str, object, bool, bool], ...]:
    """(name, type, required, null keeps default) per field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING,
                  f.default_factory is not MISSING) for f in fields(cls))


def read_value(tp, value, where: str):
    """``value`` read as type ``tp``, else a ScenarioError naming ``where``.

    ``tp`` is a dataclass, ``list[...]``, fixed-length ``tuple[...]``,
    ``X | None``, int, float or str.  A dataclass is read from a mapping,
    whose unknown and missing keys are rejected and where a null, an empty
    list or an empty mapping for a list or section keeps its default, or
    checked in place when given an instance.
    A float must be finite; an int accepts an integral float and never
    truncates one.  A bool or a string is neither: YAML's true is not the
    number 1, and a quoted "2e9" is text.
    """
    kind = _LEAF_KINDS.get(tp)
    if kind is not None:
        try:
            if isinstance(value, (bool, np.bool_, str)) and tp is not str:
                raise TypeError("a bool or a string is not a number")
            if tp is float and math.isfinite(float(value)):
                return float(value)
            if tp is int:
                if isinstance(value, float) and value.is_integer():
                    return int(value)
                return operator.index(value)
            if tp is str and isinstance(value, str):
                return value
        except (TypeError, ValueError, OverflowError):
            pass
        raise ScenarioError(f"{where}: expected {kind}, got {value!r}")
    if is_dataclass(tp):
        return _read_dataclass(tp, value, where)
    args = get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return read_value(tp, value, where)
    origin = get_origin(tp)
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{where}: expected a list, got {value!r}")
    if origin is tuple and len(value) != len(args):
        raise ScenarioError(f"{where}: expected {len(args)} values")
    items = [read_value(args[0] if origin is list else args[i], item,
                        f"{where}[{i}]") for i, item in enumerate(value)]
    return items if origin is list else tuple(items)


def _read_dataclass(cls, value, where: str):
    prefix = f"{where}." if where else ""
    schema = _schema(cls)
    if isinstance(value, cls):
        for name, tp, _, _ in schema:
            read_value(tp, getattr(value, name), prefix + name)
        return value
    where = where or "scenario"
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    unknown = set(value) - {name for name, *_ in schema}
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    kwargs = {}
    for name, tp, required, null_keeps_default in schema:
        item = value.get(name)
        empty = item is None or (isinstance(item, (dict, list)) and not item)
        if name not in value or (empty and null_keeps_default):
            if required:
                raise ScenarioError(f"{prefix}{name}: required")
            continue
        kwargs[name] = read_value(tp, item, prefix + name)
    return cls(**kwargs)


def _plain(value):
    """A config as nested dicts, lists and scalars, field by field."""
    if is_dataclass(value):
        return {name: _plain(getattr(value, name))
                for name, *_ in _schema(type(value))}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def scenario_from_dict(data: dict) -> ScenarioConfig:
    return read_value(ScenarioConfig, data, "")


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return _plain(config)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's where PyYAML has it), reading an exponent
    without a dot or a sign, such as 2e9, as YAML 1.2 does: as a float."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)"
               r"[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_scenario(path) -> ScenarioConfig:
    """Load, parse, and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc
    config = scenario_from_dict(data)
    config.validate()
    return config


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(config), fh, sort_keys=False)
