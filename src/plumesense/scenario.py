"""Scenario configuration: schema, validation, defaults, canonical form.

Scenario files are JSON with fixed CGS units (cm, s).  Top-level keys are
``channel``, ``sources``, ``receiver``, ``noise``, ``experiment``, ``output``
and ``seed``; unknown keys anywhere are rejected with the offending path.
Omitted channel and receiver fields fall back to the standard indoor
defaults (wind 140 cm/s, source height 180 cm, diffusivity 0.242 cm^2/s,
receiver radius 2 cm).

Parsing produces a fully resolved canonical dictionary: every default is
materialized, so the config hash covers the effective configuration and a
serialize/parse round trip is the identity.  Each key is described once, in
a field table that both the parser and ``scenario_schema()`` read; the table
checks each key's type and range.  A rule that spans keys lives in the typed
object the section builds (``SourceSpec``, ``StochasticGrid``,
``MultiUserScenario``, ``ReceiverSpec``), which names the field it blames;
the parser builds each object once and prefixes that field with the
section's path.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .channel import (
    ChannelParams,
    DiffusivityProfile,
    MultiUserScenario,
    SourceSpec,
    StochasticGrid,
)
from .errors import DomainError, GeometryError, ScenarioError
from .receiver import DEFAULT_QUADRATURE_ORDERS, ReceiverSpec

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario",
    "scenario_schema",
    "EXPERIMENT_KINDS",
]

# ---------------------------------------------------------------------------
# low-level validators (every error carries the config path)
# ---------------------------------------------------------------------------


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the range of doubles
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(path, "must be finite")
    if positive and value <= 0.0:
        raise ScenarioError(path, f"must be > 0, got {value}")
    if nonnegative and value < 0.0:
        raise ScenarioError(path, f"must be >= 0, got {value}")
    return value


def _expect_int(value, path, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {value}")
    return value


# the largest size numpy can give an array on this platform
_MAX_COUNT = int(np.iinfo(np.intp).max)
# the most points of one range, and of the field's x * y * z grid: 16 times
# the largest grid the benchmark evaluates (16 x 128 x 128)
_MAX_POINTS = 2**22
# the most Monte Carlo detection trials, drawn 2^15 at a time
_MAX_TRIALS = 10**8
# the most volume-integral samples, all held in one array (80 MB)
_MAX_SAMPLES = 10**7


def _expect_count(value, path, minimum, maximum=_MAX_COUNT):
    """An integer from ``minimum`` to ``maximum``: a size or a loop count."""
    count = _expect_int(value, path, minimum=minimum)
    if count > maximum:
        raise ScenarioError(path, f"must be at most {maximum}")
    return count


def _expect_bool(value, path):
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected true/false, got {value!r}")
    return value


def _expect_fraction(value, path, closed_top=True):
    v = _expect_number(value, path)
    hi_ok = v <= 1.0 if closed_top else v < 1.0
    if not (0.0 < v and hi_ok):
        raise ScenarioError(path, f"must lie in (0, 1{']' if closed_top else ')'}, got {v}")
    return v


def _expect_choice(value, path, options):
    if value not in options:
        raise ScenarioError(path, f"must be one of {', '.join(map(repr, options))}, "
                                  f"got {value!r}")
    return value


def _expect_trials(value, path):
    trials = _expect_count(value, path, minimum=0, maximum=_MAX_TRIALS)
    if 0 < trials < 10_000:
        raise ScenarioError(path, "must be 0 (no Monte Carlo) or at least 10000")
    return trials


def _reject_unknown(mapping, allowed, path):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(path, f"unknown key(s): {', '.join(sorted(unknown))}")


def _expect_triple(value, path):
    seq = _expect_list(value, path)
    if len(seq) != 3:
        raise ScenarioError(path, f"expected [x, y, z], got {len(seq)} entries")
    return [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(seq)]


def _expect_sweep(value, path, positive=False):
    """Nonempty, strictly increasing list of numbers >= 0 (> 0 if ``positive``)."""
    seq = _expect_list(value, path)
    if not seq:
        raise ScenarioError(path, "sweep must be nonempty")
    vals = [_expect_number(v, f"{path}[{i}]", positive=positive, nonnegative=True)
            for i, v in enumerate(seq)]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ScenarioError(path, "sweep values must be strictly increasing")
    return vals


def _expect_range(value, path, default, positive=False):
    """{"start", "stop", "num"} with stop > start and num >= 2; a key left out
    takes its value from ``default``."""
    obj = {**default, **_expect_mapping(value, path)}
    _reject_unknown(obj, default, path)
    start = _expect_number(obj["start"], f"{path}.start", positive=positive)
    stop = _expect_number(obj["stop"], f"{path}.stop", positive=positive)
    num = _expect_count(obj["num"], f"{path}.num", minimum=2, maximum=_MAX_POINTS)
    if stop <= start:
        raise ScenarioError(f"{path}.stop", "must exceed start")
    if not math.isfinite(stop - start):
        raise ScenarioError(path, "stop - start must be finite")
    return {"start": start, "stop": stop, "num": num}


def _expect_orders(value, path):
    seq = _expect_list(value, path)
    if len(seq) != 4:
        raise ScenarioError(path, "quadrature orders are [axial, radial, azimuthal, time]")
    return [_expect_count(v, f"{path}[{i}]", minimum=1) for i, v in enumerate(seq)]


def _optional(check):
    """``check`` for a key that may also be null."""
    return lambda value, path: None if value is None else check(value, path)


def _list_of(check):
    return lambda value, path: [check(v, f"{path}[{i}]")
                                for i, v in enumerate(_expect_list(value, path))]


# ---------------------------------------------------------------------------
# field tables: one entry per scenario key, read by the parser and the schema
# ---------------------------------------------------------------------------

_REQUIRED = object()  # default of a key that must be given


class _Field(NamedTuple):
    """One scenario key.  ``check(value, path)`` validates a given value and
    returns its canonical form; an absent key takes ``default`` through the
    same check.  ``type``, ``unit`` and ``doc`` are what the schema shows; the
    ``type`` of a nested object is its own table's schema."""

    check: Callable
    default: object
    type: object
    unit: Optional[str] = None
    doc: Optional[str] = None

    def schema(self):
        shown = (("type", self.type), ("unit", self.unit), ("default", self.default),
                 ("doc", self.doc))
        return {name: copy.deepcopy(value) for name, value in shown
                if value is not _REQUIRED and (value is not None or name == "default")}


def _number(default, unit, doc=None):
    return _Field(partial(_expect_number, positive=True), default, "number > 0", unit, doc)


def _count(default, minimum, doc=None, maximum=_MAX_COUNT):
    shown = f"int >= {minimum}" if maximum == _MAX_COUNT else f"int from {minimum} to {maximum}"
    return _Field(partial(_expect_count, minimum=minimum, maximum=maximum), default, shown,
                  doc=doc)


def _choice(default, options, doc=None):
    return _Field(partial(_expect_choice, options=options), default,
                  f"one of {', '.join(map(repr, options))}", doc=doc)


def _sweep(default, unit, doc=None, positive=True):
    return _Field(partial(_expect_sweep, positive=positive), default,
                  f"strictly increasing list of numbers {'> 0' if positive else '>= 0'}",
                  unit, doc)


def _range(default, unit, doc=None, positive=False):
    return _Field(partial(_expect_range, default=default, positive=positive), default,
                  f"range {{start, stop, num}}: {'numbers > 0, ' if positive else ''}"
                  f"stop > start, num from 2 to {_MAX_POINTS}", unit, doc)


def _resolve_fields(fields, raw, path):
    """Validate the object ``raw`` against a field table: unknown keys are
    rejected and every key of the table is resolved."""
    raw = _expect_mapping(raw, path)
    _reject_unknown(raw, fields, path)
    out = {}
    for key, field in fields.items():
        if field.default is _REQUIRED and key not in raw:
            raise ScenarioError(f"{path}.{key}", "required field is missing")
        out[key] = field.check(raw.get(key, field.default), f"{path}.{key}")
    return out


def _section(fields):
    """The schema's view of a field table."""
    return {key: field.schema() for key, field in fields.items()}


_CHANNEL_FIELDS = {
    "wind_speed": _number(140.0, "cm/s"),
    "diffusivity": _number(0.242, "cm^2/s"),
    "source_height": _number(180.0, "cm"),
    "x_min": _number(1.0, "cm", "smallest downwind distance for closed forms"),
}
_JET_FIELDS = {
    "time": _Field(_expect_number, 0.0, "number >= entry_time", "s"),
    "mass": _number(_REQUIRED, "units"),
}
_USER_FIELDS = {
    "location": _Field(_optional(_expect_triple), None, "[x, y, z] with z > 0, or null", "cm",
                       "null places the user at [0, 0, channel.source_height]"),
    "breath_rate": _Field(partial(_expect_number, nonnegative=True), 0.0, "number >= 0",
                          "units/s"),
    "jets": _Field(_list_of(partial(_resolve_fields, _JET_FIELDS)), [],
                   [_section(_JET_FIELDS)]),
    "entry_time": _Field(_expect_number, 0.0, "number", "s"),
}
_STOCHASTIC_FIELDS = {
    "interval": _number(_REQUIRED, "s"),
    "horizon": _number(_REQUIRED, "s"),
    "probabilities": _Field(
        _expect_list, _REQUIRED,
        "ceil(horizon/interval) rows of one [0,1] value per user",
        doc="row i, entry j: chance that user j releases its jet at i*interval; timeseries "
            "adds the expected concentration as column 'expected' (the grid is rejected "
            "for every other kind)"),
    "jet_masses": _Field(_optional(_list_of(partial(_expect_number, positive=True))), None,
                         "one number > 0 per user, or null", "units"),
}
_SOURCES_FIELDS = {
    "users": _Field(_list_of(partial(_resolve_fields, _USER_FIELDS)), [{"breath_rate": 1.0}],
                    [_section(_USER_FIELDS)], doc="nonempty; null or absent: one unit breather"),
    "stochastic": _Field(_optional(partial(_resolve_fields, _STOCHASTIC_FIELDS)), None,
                         _section(_STOCHASTIC_FIELDS)),
}
_RECEIVER_FIELDS = {
    "center": _Field(_optional(_expect_triple), None, "[x, y, z] or null", "cm",
                     "mutually exclusive with distance; null places it by distance"),
    "distance": _number(100.0, "cm", "center becomes [distance, 0, source_height]"),
    "radius": _number(2.0, "cm"),
    "sampling_window": _number(3.0, "s"),
    "sampler_efficiency": _Field(_expect_fraction, 0.85, "fraction in (0, 1]"),
    "binding_fraction": _Field(_expect_fraction, 0.5, "fraction in (0, 1]"),
}
_NOISE_FIELDS = {
    "variance": _Field(_optional(partial(_expect_number, positive=True)), None,
                       "number > 0 or null", "(units*s/cm^3 * cm^3 * s)^2",
                       "mutually exclusive with snr_calibration"),
    "snr_calibration": _number(1.96e4, None,
                               "gain*breath_rate/(8*sigma^2); sigma solved from it"),
}
_NEAR_DISTANCES = _sweep([50.0 + 50.0 * i for i in range(10)], "cm")
_WIND_SPEEDS = _sweep([70.0, 140.0, 280.0], "cm/s")
_GRID_POINTS = f"x.num * y.num * z.num must be at most {_MAX_POINTS}"
_ORDERS = _Field(_expect_orders, list(DEFAULT_QUADRATURE_ORDERS),
                 "[axial, radial, azimuthal, time], ints >= 1")
_EXPERIMENT_FIELDS = {
    "field": {
        "x": _range({"start": 50.0, "stop": 500.0, "num": 10}, "cm", _GRID_POINTS,
                    positive=True),
        "y": _range({"start": -10.0, "stop": 10.0, "num": 21}, "cm", _GRID_POINTS),
        "z": _range({"start": 170.0, "stop": 190.0, "num": 21}, "cm",
                    f"start >= 0 (ground); {_GRID_POINTS}"),
    },
    "timeseries": {
        "times": _range({"start": 0.0, "stop": 10.0, "num": 201}, "s"),
        "point": _Field(_optional(_expect_triple), None, "[x, y, z] with z >= 0, or null",
                        "cm", "null: the receiver center"),
    },
    "freq": {
        "omega": _range({"start": 0.0, "stop": 400.0, "num": 81}, "rad/s"),
        "unwrap": _Field(_expect_bool, False, "bool", doc="phase unwrapped, not in (-pi, pi]"),
    },
    "delay": {
        "distances": _NEAR_DISTANCES,
        "wind_speeds": _WIND_SPEEDS,
        "fraction": _Field(partial(_expect_fraction, closed_top=False), 0.01,
                           "fraction in (0, 1)", doc="target fraction of the steady value"),
        "rel_tol": _number(1e-6, None, "accepted but unused: the delay is the exact "
                                       "closed-form inverse"),
    },
    "conc_vs_distance": {
        "distances": _NEAR_DISTANCES,
        "wind_speeds": _WIND_SPEEDS,
        "mode": _choice("center", ("center", "collected"),
                        "'center' (point value) or 'collected' (normalized sphere integral)"),
        "quadrature_orders": _ORDERS,
    },
    "pmd": {
        "distances": _sweep([2500.0 * (i + 1) for i in range(12)], "cm"),
        "quadrature_orders": _ORDERS,
        "empirical_trials": _Field(_expect_trials, 0, f"int: 0 or 10000 to {_MAX_TRIALS}",
                                   doc="0 disables the Monte Carlo columns"),
        "empirical_count": _count(3, 1, "how many of the largest distances get Monte Carlo"),
    },
    "mc_pmd": {
        "snr_arguments": _sweep([0.5, 1.0, 1.5, 2.0, 2.5], None,
                                "detection arguments gain*C/(2*sigma)", positive=False),
        "trials": _count(1_000_000, 10_000, maximum=_MAX_TRIALS),
    },
    "validate_oracles": {
        "trials": _count(200_000, 10_000, "Monte Carlo detection trials", _MAX_TRIALS),
        "mc_samples": _count(200_000, 100_000, "volume-integral samples", _MAX_SAMPLES),
    },
}
EXPERIMENT_KINDS = tuple(_EXPERIMENT_FIELDS)
_KIND = _choice("field", EXPERIMENT_KINDS, "selects the key table of that name below")
_OUTPUT_FIELDS = {"format": _choice("csv", ("csv", "json"))}
_SEED = _Field(_optional(partial(_expect_int, minimum=0)), None, "int >= 0 or null",
               doc="fully determines stochastic outputs; null lets the CLI pick one for "
                   "stochastic runs and records none otherwise")


# ---------------------------------------------------------------------------
# section validators: a table pass, then the typed objects, which own the
# rules that span several keys
# ---------------------------------------------------------------------------


def _typed(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a typed object built from the section at
    ``path``; a rule it breaks is named at ``path`` plus the field it gives.
    The receiver's ground rule is a :class:`GeometryError` of the section."""
    try:
        return build(*args, **kwargs)
    except (DomainError, GeometryError) as exc:
        field = getattr(exc, "field", None)
        raise ScenarioError(f"{path}.{field}" if field else path, str(exc)) from exc


def _source_spec(user: dict) -> SourceSpec:
    return SourceSpec(**{**user, "jets": tuple((j["time"], j["mass"]) for j in user["jets"])})


def _resolve_sources(raw, source_height):
    # null users count as absent
    raw = {key: value for key, value in _expect_mapping(raw, "sources").items()
           if value is not None or key != "users"}
    out = _resolve_fields(_SOURCES_FIELDS, raw, "sources")
    users, sto = out["users"], out["stochastic"]
    for user in users:
        if user["location"] is None:
            user["location"] = [0.0, 0.0, source_height]
    specs = [_typed(f"sources.users[{i}]", _source_spec, user) for i, user in enumerate(users)]
    grid = None if sto is None else _typed("sources.stochastic", StochasticGrid, **sto)
    _typed("sources", MultiUserScenario, specs, grid)
    if grid is not None:
        sto["probabilities"] = [list(row) for row in grid.probabilities]
    return out


def _resolve_receiver(raw, source_height):
    raw = _expect_mapping(raw, "receiver")
    if raw.get("center") is not None:
        if raw.get("distance") is not None:
            raise ScenarioError("receiver", "give either center or distance, not both")
        raw = {key: value for key, value in raw.items() if key != "distance"}
    out = _resolve_fields(_RECEIVER_FIELDS, raw, "receiver")
    distance = out.pop("distance")
    if out["center"] is None:
        out["center"] = [distance, 0.0, source_height]
    _typed("receiver", ReceiverSpec, **out)
    return out


def _resolve_noise(raw):
    # null counts as absent for both keys
    raw = {key: value for key, value in _expect_mapping(raw, "noise").items()
           if value is not None or key not in _NOISE_FIELDS}
    if "variance" in raw and "snr_calibration" in raw:
        raise ScenarioError("noise", "give either variance or snr_calibration, not both")
    out = _resolve_fields(_NOISE_FIELDS, raw, "noise")
    if out["variance"] is not None:
        out["snr_calibration"] = None
    return out


def _resolve_experiment(raw):
    raw = _expect_mapping(raw, "experiment")
    kind = _KIND.check(raw.get("kind", _KIND.default), "experiment.kind")
    fields = {key: value for key, value in raw.items() if key != "kind"}
    out = {"kind": kind, **_resolve_fields(_EXPERIMENT_FIELDS[kind], fields, "experiment")}
    if kind == "field":
        if out["z"]["start"] < 0.0:
            raise ScenarioError("experiment.z.start", "must be >= 0 (ground)")
        points = math.prod(out[axis]["num"] for axis in "xyz")
        if points > _MAX_POINTS:
            raise ScenarioError("experiment", f"the grid's {_GRID_POINTS}, got {points}")
    if kind == "timeseries" and out["point"] is not None and out["point"][2] < 0.0:
        raise ScenarioError("experiment.point", "z must be >= 0 (ground)")
    return out


# ---------------------------------------------------------------------------
# the config object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: every default materialized, every invariant
    checked.  ``resolved`` is the canonical dictionary; two configs are equal
    iff their canonical dictionaries are."""

    resolved: dict

    # -- canonical form ----------------------------------------------------

    def to_json(self) -> str:
        """The one canonical serialisation: compact, keys sorted."""
        return json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    # -- typed accessors ----------------------------------------------------

    @property
    def source_height(self) -> float:
        return self.resolved["channel"]["source_height"]

    @property
    def seed(self) -> Optional[int]:
        return self.resolved["seed"]

    @property
    def experiment(self) -> dict:
        return self.resolved["experiment"]

    @property
    def output_format(self) -> str:
        return self.resolved["output"]["format"]

    def channel_params(self, wind_speed: Optional[float] = None) -> ChannelParams:
        ch = self.resolved["channel"]
        return ChannelParams(
            wind_speed=wind_speed if wind_speed is not None else ch["wind_speed"],
            diffusivity=DiffusivityProfile.constant(ch["diffusivity"]),
            x_min=ch["x_min"],
        )

    def users(self) -> Tuple[SourceSpec, ...]:
        return tuple(map(_source_spec, self.resolved["sources"]["users"]))

    def multi_user_scenario(self) -> MultiUserScenario:
        sto = self.resolved["sources"]["stochastic"]
        return MultiUserScenario(users=self.users(),
                                 stochastic=None if sto is None else StochasticGrid(**sto))

    def receiver_spec(self, distance: Optional[float] = None,
                      volume_factor: float = 1.0) -> ReceiverSpec:
        """Receiver from the config, optionally recentered at ``distance``
        downwind (in line with the source height) or volume-scaled."""
        r = self.resolved["receiver"]
        center = r["center"] if distance is None else (distance, 0.0, self.source_height)
        return ReceiverSpec(**{**r, "center": center,
                               "radius": r["radius"] * volume_factor ** (1.0 / 3.0)})

    @property
    def reference_rate(self) -> float:
        """Breath rate of the first breathing user (the paper's single-emitter
        experiments); a scenario in which no user breathes has none, and
        raises :class:`ScenarioError` naming ``sources.users``."""
        rate = next((user.breath_rate for user in self.users() if user.breath_rate > 0.0),
                    None)
        if rate is None:
            raise ScenarioError("sources.users",
                                f"{self.experiment['kind']} experiment needs a breathing user")
        return rate

    @property
    def noise_sigma(self) -> float:
        """Noise standard deviation: direct from variance, or solved from the
        calibration constant gain*rate/(8*sigma^2) at the reference rate."""
        noise = self.resolved["noise"]
        if noise["variance"] is not None:
            return math.sqrt(noise["variance"])
        gain = self.receiver_spec().capture_gain
        return math.sqrt(gain * self.reference_rate / (8.0 * noise["snr_calibration"]))


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dictionary and resolve all defaults."""
    raw = _expect_mapping(raw, "<scenario>")
    _reject_unknown(
        raw,
        ("channel", "sources", "receiver", "noise", "experiment", "output", "seed"),
        "<scenario>",
    )
    channel = _resolve_fields(_CHANNEL_FIELDS, raw.get("channel", {}), "channel")
    height = channel["source_height"]
    resolved = {
        "channel": channel,
        "sources": _resolve_sources(raw.get("sources", {}), height),
        "receiver": _resolve_receiver(raw.get("receiver", {}), height),
        "noise": _resolve_noise(raw.get("noise", {})),
        "experiment": _resolve_experiment(raw.get("experiment", {})),
        "output": _resolve_fields(_OUTPUT_FIELDS, raw.get("output", {}), "output"),
        "seed": _SEED.check(raw.get("seed"), "seed"),
    }
    kind = resolved["experiment"]["kind"]
    if resolved["sources"]["stochastic"] is not None and kind != "timeseries":
        raise ScenarioError("sources.stochastic",
                            f"only the timeseries experiment reads a release grid, not {kind}")
    return ScenarioConfig(resolved=resolved)


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario file (JSON syntax)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(str(path), f"not valid JSON: {exc}") from exc
    return parse_scenario(raw)


def scenario_schema() -> dict:
    """Machine-readable description of the scenario file: keys, types, units,
    defaults.  Shipped verbatim as ``docs/scenario-schema.json``."""
    return {
        "format": "JSON object; unknown keys rejected; units fixed to cm and s; a range "
                  "{start, stop, num} that leaves a key out takes it from the field's "
                  "default",
        "channel": _section(_CHANNEL_FIELDS),
        "sources": _section(_SOURCES_FIELDS),
        "receiver": _section(_RECEIVER_FIELDS),
        "noise": _section(_NOISE_FIELDS),
        "experiment": {"kind": _KIND.schema(),
                       **{kind: _section(fields) for kind, fields in _EXPERIMENT_FIELDS.items()}},
        "output": _section(_OUTPUT_FIELDS),
        "seed": _SEED.schema(),
    }
