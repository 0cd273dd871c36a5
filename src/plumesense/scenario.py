"""Scenario configuration: schema, validation, defaults, canonical form.

Scenario files are JSON with fixed CGS units (cm, s).  Top-level keys are
``channel``, ``sources``, ``receiver``, ``noise``, ``experiment``, ``output``
and ``seed``; unknown keys anywhere are rejected with the offending path.
Omitted channel and receiver fields fall back to the standard indoor
defaults (wind 140 cm/s, source height 180 cm, diffusivity 0.242 cm^2/s,
receiver radius 2 cm).

Parsing produces a fully resolved canonical dictionary: every default is
materialized, so the config hash covers the effective configuration and a
serialize/parse round trip is the identity.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .channel import (
    ChannelParams,
    DiffusivityProfile,
    MultiUserScenario,
    SourceSpec,
    StochasticGrid,
)
from .errors import DomainError, ScenarioError
from .receiver import ReceiverSpec

__all__ = [
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario",
    "scenario_schema",
    "EXPERIMENT_KINDS",
]

_CHANNEL_DEFAULTS = {
    "wind_speed": 140.0,
    "diffusivity": 0.242,
    "source_height": 180.0,
    "x_min": 1.0,
}

_RECEIVER_DEFAULTS = {
    "radius": 2.0,
    "sampling_window": 3.0,
    "sampler_efficiency": 0.85,
    "binding_fraction": 0.5,
}
_DEFAULT_RECEIVER_DISTANCE = 100.0
_DEFAULT_SNR_CALIBRATION = 1.96e4

_DEFAULT_DISTANCES_NEAR = [50.0 + 50.0 * i for i in range(10)]  # 50..500 cm
_DEFAULT_DISTANCES_FAR = [2500.0 * (i + 1) for i in range(12)]  # 2.5 km of cm.. 30 m
_DEFAULT_WIND_SPEEDS = [70.0, 140.0, 280.0]
_DEFAULT_ORDERS = [32, 16, 32, 4]

EXPERIMENT_KINDS = (
    "field",
    "timeseries",
    "freq",
    "delay",
    "conc_vs_distance",
    "pmd",
    "mc_pmd",
    "validate_oracles",
)


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
    value = float(value)
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
    """Nonempty, strictly increasing list of numbers."""
    seq = _expect_list(value, path)
    if not seq:
        raise ScenarioError(path, "sweep must be nonempty")
    vals = [_expect_number(v, f"{path}[{i}]", positive=positive) for i, v in enumerate(seq)]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ScenarioError(path, "sweep values must be strictly increasing")
    return vals


def _expect_range(value, path, positive=False):
    """{"start", "stop", "num"} with stop > start and num >= 2."""
    obj = _expect_mapping(value, path)
    _reject_unknown(obj, ("start", "stop", "num"), path)
    start = _expect_number(obj.get("start", 0.0), f"{path}.start", positive=positive)
    stop = _expect_number(obj.get("stop", 1.0), f"{path}.stop", positive=positive)
    num = _expect_int(obj.get("num", 2), f"{path}.num", minimum=2)
    if stop <= start:
        raise ScenarioError(f"{path}.stop", "must exceed start")
    if not math.isfinite(stop - start):
        raise ScenarioError(path, "stop - start must be finite")
    return {"start": start, "stop": stop, "num": num}


def _expect_orders(value, path):
    seq = _expect_list(value, path)
    if len(seq) != 4:
        raise ScenarioError(path, "quadrature orders are [radial, polar, azimuthal, time]")
    return [_expect_int(v, f"{path}[{i}]", minimum=1) for i, v in enumerate(seq)]


# ---------------------------------------------------------------------------
# section validators
# ---------------------------------------------------------------------------


def _resolve_channel(raw):
    raw = _expect_mapping(raw, "channel")
    _reject_unknown(raw, _CHANNEL_DEFAULTS, "channel")
    out = {}
    out["wind_speed"] = _expect_number(
        raw.get("wind_speed", _CHANNEL_DEFAULTS["wind_speed"]), "channel.wind_speed",
        positive=True,
    )
    out["diffusivity"] = _expect_number(
        raw.get("diffusivity", _CHANNEL_DEFAULTS["diffusivity"]), "channel.diffusivity",
        positive=True,
    )
    out["source_height"] = _expect_number(
        raw.get("source_height", _CHANNEL_DEFAULTS["source_height"]),
        "channel.source_height", positive=True,
    )
    out["x_min"] = _expect_number(
        raw.get("x_min", _CHANNEL_DEFAULTS["x_min"]), "channel.x_min", positive=True
    )
    return out


def _resolve_user(raw, path, source_height):
    raw = _expect_mapping(raw, path)
    _reject_unknown(raw, ("location", "breath_rate", "jets", "entry_time"), path)
    if "location" in raw and raw["location"] is not None:
        location = _expect_triple(raw["location"], f"{path}.location")
        if location[2] <= 0.0:
            raise ScenarioError(f"{path}.location", "source height must be > 0")
    else:
        location = [0.0, 0.0, source_height]
    entry_time = _expect_number(raw.get("entry_time", 0.0), f"{path}.entry_time")
    jets = []
    for i, jet in enumerate(_expect_list(raw.get("jets", []), f"{path}.jets")):
        jet = _expect_mapping(jet, f"{path}.jets[{i}]")
        _reject_unknown(jet, ("time", "mass"), f"{path}.jets[{i}]")
        t = _expect_number(jet.get("time", 0.0), f"{path}.jets[{i}].time")
        m = _expect_number(jet.get("mass"), f"{path}.jets[{i}].mass", positive=True) \
            if "mass" in jet else _scenario_missing(f"{path}.jets[{i}].mass")
        if t < entry_time:
            raise ScenarioError(f"{path}.jets[{i}].time", "must not precede entry_time")
        jets.append({"time": t, "mass": m})
    return {
        "location": location,
        "breath_rate": _expect_number(
            raw.get("breath_rate", 0.0), f"{path}.breath_rate", nonnegative=True
        ),
        "jets": jets,
        "entry_time": entry_time,
    }


def _scenario_missing(path):
    raise ScenarioError(path, "required field is missing")


def _resolve_sources(raw, source_height):
    raw = _expect_mapping(raw, "sources")
    _reject_unknown(raw, ("users", "stochastic"), "sources")
    users_raw = raw.get("users")
    if users_raw is None:
        users = [
            {
                "location": [0.0, 0.0, source_height],
                "breath_rate": 1.0,
                "jets": [],
                "entry_time": 0.0,
            }
        ]
    else:
        users_list = _expect_list(users_raw, "sources.users")
        if not users_list:
            raise ScenarioError("sources.users", "need at least one user")
        users = [
            _resolve_user(u, f"sources.users[{i}]", source_height)
            for i, u in enumerate(users_list)
        ]
    out = {"users": users, "stochastic": None}
    sto = raw.get("stochastic")
    if sto is not None:
        sto = _expect_mapping(sto, "sources.stochastic")
        _reject_unknown(
            sto, ("interval", "horizon", "probabilities", "jet_masses"), "sources.stochastic"
        )
        interval = _expect_number(sto.get("interval"), "sources.stochastic.interval",
                                  positive=True) if "interval" in sto else \
            _scenario_missing("sources.stochastic.interval")
        horizon = _expect_number(sto.get("horizon"), "sources.stochastic.horizon",
                                 positive=True) if "horizon" in sto else \
            _scenario_missing("sources.stochastic.horizon")
        probs_raw = sto.get("probabilities")
        if probs_raw is None:
            _scenario_missing("sources.stochastic.probabilities")
        n_intervals = int(math.ceil(horizon / interval))
        probs = []
        rows = _expect_list(probs_raw, "sources.stochastic.probabilities")
        if len(rows) != n_intervals:
            raise ScenarioError(
                "sources.stochastic.probabilities",
                f"need ceil(horizon/interval) = {n_intervals} rows, got {len(rows)}",
            )
        for i, row in enumerate(rows):
            row = _expect_list(row, f"sources.stochastic.probabilities[{i}]")
            if len(row) != len(users):
                raise ScenarioError(
                    f"sources.stochastic.probabilities[{i}]",
                    f"need one probability per user ({len(users)})",
                )
            probs.append(
                [
                    _expect_number(p, f"sources.stochastic.probabilities[{i}][{j}]")
                    for j, p in enumerate(row)
                ]
            )
            for j, p in enumerate(probs[-1]):
                if not (0.0 <= p <= 1.0):
                    raise ScenarioError(
                        f"sources.stochastic.probabilities[{i}][{j}]", "must lie in [0, 1]"
                    )
        masses = sto.get("jet_masses")
        if masses is not None:
            masses = [
                _expect_number(m, f"sources.stochastic.jet_masses[{j}]", positive=True)
                for j, m in enumerate(_expect_list(masses, "sources.stochastic.jet_masses"))
            ]
            if len(masses) != len(users):
                raise ScenarioError("sources.stochastic.jet_masses", "need one mass per user")
        out["stochastic"] = {
            "interval": interval,
            "horizon": horizon,
            "probabilities": probs,
            "jet_masses": masses,
        }
    return out


def _resolve_receiver(raw, source_height):
    raw = _expect_mapping(raw, "receiver")
    allowed = ("center", "distance") + tuple(_RECEIVER_DEFAULTS)
    _reject_unknown(raw, allowed, "receiver")
    if raw.get("center") is not None and raw.get("distance") is not None:
        raise ScenarioError("receiver", "give either center or distance, not both")
    radius = _expect_number(
        raw.get("radius", _RECEIVER_DEFAULTS["radius"]), "receiver.radius", positive=True
    )
    if raw.get("center") is not None:
        center = _expect_triple(raw["center"], "receiver.center")
    else:
        distance = _expect_number(
            raw.get("distance", _DEFAULT_RECEIVER_DISTANCE), "receiver.distance", positive=True
        )
        center = [distance, 0.0, source_height]
    if center[2] - radius <= 0.0:
        raise ScenarioError("receiver", "sphere must lie strictly above the ground")
    return {
        "center": center,
        "radius": radius,
        "sampling_window": _expect_number(
            raw.get("sampling_window", _RECEIVER_DEFAULTS["sampling_window"]),
            "receiver.sampling_window", positive=True,
        ),
        "sampler_efficiency": _expect_fraction(
            raw.get("sampler_efficiency", _RECEIVER_DEFAULTS["sampler_efficiency"]),
            "receiver.sampler_efficiency",
        ),
        "binding_fraction": _expect_fraction(
            raw.get("binding_fraction", _RECEIVER_DEFAULTS["binding_fraction"]),
            "receiver.binding_fraction",
        ),
    }


def _resolve_noise(raw):
    raw = _expect_mapping(raw, "noise")
    _reject_unknown(raw, ("variance", "snr_calibration"), "noise")
    variance = raw.get("variance")
    calibration = raw.get("snr_calibration")
    if variance is not None and calibration is not None:
        raise ScenarioError("noise", "give either variance or snr_calibration, not both")
    if variance is not None:
        return {"variance": _expect_number(variance, "noise.variance", positive=True),
                "snr_calibration": None}
    if calibration is None:
        calibration = _DEFAULT_SNR_CALIBRATION
    return {
        "variance": None,
        "snr_calibration": _expect_number(
            calibration, "noise.snr_calibration", positive=True
        ),
    }


def _resolve_experiment(raw):
    raw = _expect_mapping(raw, "experiment")
    kind = raw.get("kind", "field")
    if kind not in EXPERIMENT_KINDS:
        raise ScenarioError(
            "experiment.kind", f"unknown kind {kind!r}; expected one of {EXPERIMENT_KINDS}"
        )
    out = {"kind": kind}
    path = "experiment"
    if kind == "field":
        _reject_unknown(raw, ("kind", "x", "y", "z"), path)
        out["x"] = _expect_range(raw.get("x", {"start": 50.0, "stop": 500.0, "num": 10}),
                                 f"{path}.x", positive=True)
        out["y"] = _expect_range(raw.get("y", {"start": -10.0, "stop": 10.0, "num": 21}),
                                 f"{path}.y")
        out["z"] = _expect_range(raw.get("z", {"start": 170.0, "stop": 190.0, "num": 21}),
                                 f"{path}.z")
        if out["z"]["start"] < 0.0:
            raise ScenarioError(f"{path}.z.start", "must be >= 0 (ground)")
    elif kind == "timeseries":
        _reject_unknown(raw, ("kind", "times", "point"), path)
        out["times"] = _expect_range(
            raw.get("times", {"start": 0.0, "stop": 10.0, "num": 201}), f"{path}.times"
        )
        out["point"] = (
            _expect_triple(raw["point"], f"{path}.point")
            if raw.get("point") is not None
            else None
        )
    elif kind == "freq":
        _reject_unknown(raw, ("kind", "omega", "unwrap"), path)
        out["omega"] = _expect_range(
            raw.get("omega", {"start": 0.0, "stop": 400.0, "num": 81}), f"{path}.omega"
        )
        out["unwrap"] = _expect_bool(raw.get("unwrap", False), f"{path}.unwrap")
    elif kind == "delay":
        _reject_unknown(raw, ("kind", "distances", "wind_speeds", "fraction", "rel_tol"), path)
        out["distances"] = _expect_sweep(
            raw.get("distances", _DEFAULT_DISTANCES_NEAR), f"{path}.distances", positive=True
        )
        out["wind_speeds"] = _expect_sweep(
            raw.get("wind_speeds", _DEFAULT_WIND_SPEEDS), f"{path}.wind_speeds", positive=True
        )
        out["fraction"] = _expect_fraction(
            raw.get("fraction", 0.01), f"{path}.fraction", closed_top=False
        )
        out["rel_tol"] = _expect_number(
            raw.get("rel_tol", 1e-6), f"{path}.rel_tol", positive=True
        )
    elif kind == "conc_vs_distance":
        _reject_unknown(
            raw, ("kind", "distances", "wind_speeds", "mode", "quadrature_orders"), path
        )
        out["distances"] = _expect_sweep(
            raw.get("distances", _DEFAULT_DISTANCES_NEAR), f"{path}.distances", positive=True
        )
        out["wind_speeds"] = _expect_sweep(
            raw.get("wind_speeds", _DEFAULT_WIND_SPEEDS), f"{path}.wind_speeds", positive=True
        )
        mode = raw.get("mode", "center")
        if mode not in ("center", "collected"):
            raise ScenarioError(f"{path}.mode", "must be 'center' or 'collected'")
        out["mode"] = mode
        out["quadrature_orders"] = _expect_orders(
            raw.get("quadrature_orders", _DEFAULT_ORDERS), f"{path}.quadrature_orders"
        )
    elif kind == "pmd":
        _reject_unknown(
            raw,
            ("kind", "distances", "quadrature_orders", "empirical_trials", "empirical_count"),
            path,
        )
        out["distances"] = _expect_sweep(
            raw.get("distances", _DEFAULT_DISTANCES_FAR), f"{path}.distances", positive=True
        )
        out["quadrature_orders"] = _expect_orders(
            raw.get("quadrature_orders", _DEFAULT_ORDERS), f"{path}.quadrature_orders"
        )
        out["empirical_trials"] = _expect_int(
            raw.get("empirical_trials", 0), f"{path}.empirical_trials", minimum=0
        )
        if 0 < out["empirical_trials"] < 10_000:
            raise ScenarioError(f"{path}.empirical_trials",
                                "must be 0 (no Monte Carlo) or at least 10000")
        out["empirical_count"] = _expect_int(
            raw.get("empirical_count", 3), f"{path}.empirical_count", minimum=1
        )
    elif kind == "mc_pmd":
        _reject_unknown(raw, ("kind", "snr_arguments", "trials"), path)
        out["snr_arguments"] = _expect_sweep(
            raw.get("snr_arguments", [0.5, 1.0, 1.5, 2.0, 2.5]), f"{path}.snr_arguments"
        )
        out["trials"] = _expect_int(raw.get("trials", 1_000_000), f"{path}.trials",
                                    minimum=10_000)
    elif kind == "validate_oracles":
        _reject_unknown(
            raw, ("kind", "steady_resolution", "transient", "trials", "mc_samples"), path
        )
        out["steady_resolution"] = _expect_number(
            raw.get("steady_resolution", 0.2), f"{path}.steady_resolution", positive=True
        )
        out["transient"] = _expect_bool(raw.get("transient", True), f"{path}.transient")
        out["trials"] = _expect_int(raw.get("trials", 200_000), f"{path}.trials",
                                    minimum=10_000)
        out["mc_samples"] = _expect_int(raw.get("mc_samples", 200_000), f"{path}.mc_samples",
                                        minimum=100_000)
    return out


def _resolve_output(raw):
    raw = _expect_mapping(raw, "output")
    _reject_unknown(raw, ("format",), "output")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ScenarioError("output.format", "must be 'csv' or 'json'")
    return {"format": fmt}


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

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.resolved, indent=indent, sort_keys=True)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

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
        return tuple(
            SourceSpec(
                location=tuple(u["location"]),
                breath_rate=u["breath_rate"],
                jets=tuple((j["time"], j["mass"]) for j in u["jets"]),
                entry_time=u["entry_time"],
            )
            for u in self.resolved["sources"]["users"]
        )

    def multi_user_scenario(self) -> MultiUserScenario:
        sto = self.resolved["sources"]["stochastic"]
        grid = None
        if sto is not None:
            grid = StochasticGrid(
                interval=sto["interval"],
                horizon=sto["horizon"],
                probabilities=tuple(tuple(row) for row in sto["probabilities"]),
                jet_masses=tuple(sto["jet_masses"]) if sto["jet_masses"] else None,
            )
        return MultiUserScenario(users=self.users(), stochastic=grid)

    def receiver_spec(self, distance: Optional[float] = None,
                      volume_factor: float = 1.0) -> ReceiverSpec:
        """Receiver from the config, optionally recentered at ``distance``
        downwind (in line with the source height) or volume-scaled."""
        r = self.resolved["receiver"]
        center = tuple(r["center"])
        if distance is not None:
            center = (distance, 0.0, self.source_height)
        return ReceiverSpec(
            center=center,
            radius=r["radius"] * volume_factor ** (1.0 / 3.0),
            sampling_window=r["sampling_window"],
            sampler_efficiency=r["sampler_efficiency"],
            binding_fraction=r["binding_fraction"],
        )

    def noise_sigma(self, reference_rate: float) -> float:
        """Noise standard deviation: direct from variance, or solved from the
        calibration constant gain*rate/(8*sigma^2)."""
        noise = self.resolved["noise"]
        if noise["variance"] is not None:
            return math.sqrt(noise["variance"])
        recv = self.resolved["receiver"]
        gain = recv["sampler_efficiency"] * recv["binding_fraction"]
        if reference_rate <= 0.0:
            raise ScenarioError(
                "noise.snr_calibration", "calibration needs a positive breath rate"
            )
        return math.sqrt(gain * reference_rate / (8.0 * noise["snr_calibration"]))


def parse_scenario(raw: dict) -> ScenarioConfig:
    """Validate a raw scenario dictionary and resolve all defaults."""
    raw = _expect_mapping(raw, "<scenario>")
    _reject_unknown(
        raw,
        ("channel", "sources", "receiver", "noise", "experiment", "output", "seed"),
        "<scenario>",
    )
    channel = _resolve_channel(raw.get("channel", {}))
    height = channel["source_height"]
    resolved = {
        "channel": channel,
        "sources": _resolve_sources(raw.get("sources", {}), height),
        "receiver": _resolve_receiver(raw.get("receiver", {}), height),
        "noise": _resolve_noise(raw.get("noise", {})),
        "experiment": _resolve_experiment(raw.get("experiment", {})),
        "output": _resolve_output(raw.get("output", {})),
        "seed": None if raw.get("seed") is None else _expect_int(raw["seed"], "seed",
                                                                 minimum=0),
    }
    kind = resolved["experiment"]["kind"]
    if resolved["sources"]["stochastic"] is not None and kind != "timeseries":
        raise ScenarioError("sources.stochastic",
                            f"only the timeseries experiment reads a release grid, not {kind}")
    config = ScenarioConfig(resolved=resolved)
    # constructing the typed objects re-checks every cross-field invariant
    try:
        config.channel_params()
        config.multi_user_scenario()
        config.receiver_spec()
    except DomainError as exc:
        raise ScenarioError("<scenario>", str(exc)) from exc
    return config


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
    channel, receiver = _CHANNEL_DEFAULTS, _RECEIVER_DEFAULTS
    return {
        "format": "JSON object; unknown keys rejected; units fixed to cm and s",
        "channel": {
            "wind_speed": {"type": "number > 0", "unit": "cm/s",
                           "default": channel["wind_speed"]},
            "diffusivity": {"type": "number > 0", "unit": "cm^2/s",
                            "default": channel["diffusivity"]},
            "source_height": {"type": "number > 0", "unit": "cm",
                              "default": channel["source_height"]},
            "x_min": {"type": "number > 0", "unit": "cm", "default": channel["x_min"],
                      "doc": "smallest downwind distance for closed forms"},
        },
        "sources": {
            "users": [
                {
                    "location": {"type": "[x, y, z] or null", "unit": "cm",
                                 "default": "[0, 0, channel.source_height]"},
                    "breath_rate": {"type": "number >= 0", "unit": "units/s",
                                    "default": 0.0},
                    "jets": [{"time": {"type": "number >= entry_time", "unit": "s"},
                              "mass": {"type": "number > 0", "unit": "units"}}],
                    "entry_time": {"type": "number", "unit": "s", "default": 0.0},
                }
            ],
            "stochastic": {
                "interval": {"type": "number > 0", "unit": "s"},
                "horizon": {"type": "number > 0", "unit": "s"},
                "probabilities": {"type": "ceil(horizon/interval) rows of one [0,1] "
                                          "value per user",
                                  "doc": "row i, entry j: chance that user j releases "
                                         "its jet at i*interval; timeseries adds the "
                                         "expected concentration as column 'expected' "
                                         "(the grid is rejected for every other kind)"},
                "jet_masses": {"type": "one number > 0 per user, or null", "unit": "units"},
            },
        },
        "receiver": {
            "center": {"type": "[x, y, z] or null", "unit": "cm",
                       "doc": "mutually exclusive with distance"},
            "distance": {"type": "number > 0", "unit": "cm",
                         "default": _DEFAULT_RECEIVER_DISTANCE,
                         "doc": "center becomes [distance, 0, source_height]"},
            "radius": {"type": "number > 0", "unit": "cm", "default": receiver["radius"]},
            "sampling_window": {"type": "number > 0", "unit": "s",
                                "default": receiver["sampling_window"]},
            "sampler_efficiency": {"type": "fraction in (0, 1]",
                                   "default": receiver["sampler_efficiency"]},
            "binding_fraction": {"type": "fraction in (0, 1]",
                                 "default": receiver["binding_fraction"]},
        },
        "noise": {
            "variance": {"type": "number > 0 or null", "unit": "(units*s/cm^3 * cm^3 * s)^2",
                         "doc": "mutually exclusive with snr_calibration"},
            "snr_calibration": {"type": "number > 0", "default": _DEFAULT_SNR_CALIBRATION,
                                "doc": "gain*breath_rate/(8*sigma^2); sigma solved from it"},
        },
        "experiment": {
            "kind": {"type": f"one of {list(EXPERIMENT_KINDS)}", "default": "field"},
            "field": {"x/y/z": "ranges {start, stop, num}"},
            "timeseries": {"times": "range {start, stop, num}",
                           "point": "[x, y, z] or null (receiver center)"},
            "freq": {"omega": "range {start, stop, num} in rad/s",
                     "unwrap": "bool, default false"},
            "delay": {"distances": "strictly increasing list of numbers > 0, cm",
                      "wind_speeds": "strictly increasing list of numbers > 0, cm/s",
                      "fraction": "target fraction in (0, 1), default 0.01",
                      "rel_tol": "number > 0, default 1e-6; accepted but unused: the "
                                 "delay is the exact closed-form inverse"},
            "conc_vs_distance": {"distances": "list of numbers > 0, cm",
                                 "wind_speeds": "list of numbers > 0, cm/s",
                                 "mode": "'center' (point value) or 'collected' "
                                         "(normalized sphere integral)",
                                 "quadrature_orders": "[radial, polar, azimuthal, time]"},
            "pmd": {"distances": "list of numbers > 0, cm",
                    "quadrature_orders": "[radial, polar, azimuthal, time]",
                    "empirical_trials": "int >= 0 (0 disables Monte Carlo columns)",
                    "empirical_count": "how many of the largest distances get Monte Carlo"},
            "mc_pmd": {"snr_arguments": "list of detection arguments gain*C/(2*sigma)",
                       "trials": "int >= 1e4, default 1e6"},
            "validate_oracles": {"steady_resolution": "cm, default 0.2",
                                 "transient": "bool, default true",
                                 "trials": "Monte Carlo detection trials, default 2e5",
                                 "mc_samples": "volume-integral samples, default 2e5"},
        },
        "output": {"format": {"type": "'csv' or 'json'", "default": "csv"}},
        "seed": {"type": "int >= 0 or null",
                 "doc": "fully determines stochastic outputs; null lets the CLI pick one "
                        "for stochastic runs and records none otherwise"},
    }
