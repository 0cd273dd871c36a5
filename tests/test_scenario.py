"""Scenario ingestion: defaults, field-level rejection, canonical round trip."""

import copy
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plumesense.errors import DomainError, ScenarioError
from plumesense.receiver import DEFAULT_QUADRATURE_ORDERS
from plumesense.scenario import (
    EXPERIMENT_KINDS,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    scenario_schema,
)

from conftest import DIFFUSIVITY, HEIGHT, RADIUS, WIND


class TestDefaults:
    def test_empty_scenario_gets_standard_parameters(self):
        config = parse_scenario({})
        ch = config.resolved["channel"]
        assert ch["wind_speed"] == WIND
        assert ch["diffusivity"] == DIFFUSIVITY
        assert ch["source_height"] == HEIGHT
        assert config.resolved["receiver"]["radius"] == RADIUS
        assert config.resolved["receiver"]["center"] == [100.0, 0.0, HEIGHT]
        assert config.resolved["noise"]["snr_calibration"] == 1.96e4

    def test_empty_channel_block_equivalent(self):
        assert parse_scenario({"channel": {}}) == parse_scenario({})

    def test_default_source_is_unit_breather_at_origin(self):
        users = parse_scenario({}).users()
        assert len(users) == 1
        assert users[0].location == (0.0, 0.0, HEIGHT)
        assert users[0].breath_rate == 1.0

    def test_source_height_flows_into_user_and_receiver(self):
        config = parse_scenario({"channel": {"source_height": 150.0}})
        assert config.users()[0].height == 150.0
        assert config.receiver_spec().center[2] == 150.0


class TestRejections:
    @pytest.mark.parametrize(
        "raw, path_fragment",
        [
            ({"channel": {"wind_speed": -140.0}}, "channel.wind_speed"),
            ({"channel": {"wind_speed": "fast"}}, "channel.wind_speed"),
            ({"channel": {"diffusivity": 0.0}}, "channel.diffusivity"),
            ({"receiver": {"radius": -1.0}}, "receiver.radius"),
            ({"receiver": {"sampler_efficiency": 0.0}}, "receiver.sampler_efficiency"),
            ({"receiver": {"center": [100.0, 0.0, 1.0]}}, "receiver"),
            ({"receiver": {"center": [1, 2, 3], "distance": 4}}, "receiver"),
            ({"noise": {"variance": 1.0, "snr_calibration": 1.0}}, "noise"),
            ({"unknown_section": {}}, "<scenario>"),
            ({"channel": {"mystery": 1}}, "channel"),
            ({"experiment": {"kind": "bogus"}}, "experiment.kind"),
            ({"experiment": {"kind": "delay", "fraction": 1.0}}, "experiment.fraction"),
            ({"experiment": {"kind": "delay", "distances": []}}, "experiment.distances"),
            ({"experiment": {"kind": "delay", "distances": [5.0, 5.0]}},
             "experiment.distances"),
            ({"sources": {"users": []}}, "sources.users"),
            ({"sources": {"users": [{"jets": [{"time": -1.0, "mass": 2.0}]}]}},
             "jets[0].time"),
            ({"sources": {"users": [{"jets": [{"time": 1.0}]}]}}, "jets[0].mass"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"experiment": {"kind": "delay", "distances": [-10.0, 50.0]}},
             "experiment.distances[0]"),
            ({"experiment": {"kind": "delay", "distances": [10.0, 0.0]}},
             "experiment.distances[1]"),
            ({"experiment": {"kind": "delay", "wind_speeds": [0.0, 140.0]}},
             "experiment.wind_speeds[0]"),
            ({"receiver": {"prior_infected": 0.1}}, "receiver"),
            ({"sources": {"users": [{"jets": [{"time": 0.0, "mass": 2.0}]}],
                          "stochastic": {"interval": 5.0, "horizon": 5.0,
                                         "probabilities": [[0.5]]}},
              "experiment": {"kind": "pmd"}}, "sources.stochastic"),
            ({"experiment": {"kind": "conc_vs_distance", "distances": [0.0, 50.0]}},
             "experiment.distances[0]"),
            ({"experiment": {"kind": "pmd", "distances": [-10.0, 50.0]}},
             "experiment.distances[0]"),
            ({"experiment": {"kind": "pmd", "empirical_trials": 9999}},
             "experiment.empirical_trials"),
            ({"experiment": {"kind": "field", "z": {"start": -1.0, "stop": 1.0, "num": 3}}},
             "experiment.z.start"),
            ({"sources": {"users": [{"location": [0.0, 0.0, 0.0]}]}},
             "sources.users[0].location"),
            ({"sources": {"users": [{}], "stochastic": {"interval": 1.0, "horizon": 1.0,
                                                        "probabilities": [[0.5]],
                                                        "jet_masses": [-1.0]}},
              "experiment": {"kind": "timeseries"}}, "sources.stochastic.jet_masses[0]"),
            ({"sources": {"users": [{}], "stochastic": {"interval": 1e-308, "horizon": 1e308,
                                                        "probabilities": []}},
              "experiment": {"kind": "timeseries"}}, "sources.stochastic.interval"),
            ({"experiment": {"kind": "validate_oracles", "steady_resolution": 0.2}},
             "unknown key(s): steady_resolution"),
            # without jet_masses each release takes the user's first jet mass
            ({"sources": {"users": [{"jets": [{"time": 0.0, "mass": 2.0}]}, {}],
                          "stochastic": {"interval": 1.0, "horizon": 1.0,
                                         "probabilities": [[0.5, 0.5]]}},
              "experiment": {"kind": "timeseries"}}, "sources.stochastic.jet_masses: user 1"),
            ({"experiment": {"kind": "timeseries", "point": [100.0, 0.0, -5.0]}},
             "experiment.point: z must be >= 0"),
            # a fault that only the release grid's own rules see is named at
            # its field, never at <scenario>
            ({"sources": {"users": [{}], "stochastic": {"interval": 1e308, "horizon": 1e-308,
                                                        "probabilities": [],
                                                        "jet_masses": [1.0]}},
              "experiment": {"kind": "timeseries"}},
             "sources.stochastic.interval: horizon / interval underflows"),
        ],
    )
    def test_named_field_diagnostics(self, raw, path_fragment):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(raw)
        assert path_fragment in str(excinfo.value)

    def test_stochastic_shape_mismatches(self):
        base = {
            "sources": {
                "users": [{"breath_rate": 1.0, "jets": [{"time": 0.0, "mass": 1.0}]}],
                "stochastic": {"interval": 5.0, "horizon": 12.0,
                               "probabilities": [[0.5]]},
            }
        }
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(base)
        assert "probabilities" in str(excinfo.value)
        base["sources"]["stochastic"]["probabilities"] = [[0.5], [0.5], [1.5]]
        with pytest.raises(ScenarioError):
            parse_scenario(base)
        base["sources"]["stochastic"]["probabilities"] = [[0.5]] * 4
        with pytest.raises(ScenarioError, match=r"probabilities: need .* 3 rows, got 4"):
            parse_scenario(base)


class TestCountMaxima:
    """Counts that would allocate past memory or run for hours are named
    while the scenario is parsed."""

    @pytest.mark.parametrize("experiment, path, maximum", [
        ({"kind": "field", "x": {"num": 2**62}}, "experiment.x.num", 2**22),
        ({"kind": "field", "y": {"num": 2**22 + 1}}, "experiment.y.num", 2**22),
        ({"kind": "timeseries", "times": {"num": 2**22 + 1}}, "experiment.times.num", 2**22),
        ({"kind": "freq", "omega": {"num": 10**400}}, "experiment.omega.num", 2**22),
        ({"kind": "validate_oracles", "trials": 10**15}, "experiment.trials", 10**8),
        ({"kind": "validate_oracles", "mc_samples": 10**7 + 1}, "experiment.mc_samples",
         10**7),
        ({"kind": "mc_pmd", "trials": 10**8 + 1}, "experiment.trials", 10**8),
        ({"kind": "pmd", "empirical_trials": 10**9}, "experiment.empirical_trials", 10**8),
    ])
    def test_count_past_its_maximum_named(self, experiment, path, maximum):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario({"experiment": experiment})
        assert str(excinfo.value) == f"{path}: must be at most {maximum}"

    @pytest.mark.parametrize("experiment", [
        {"kind": "field", "x": {"num": 2**20}, "y": {"num": 2}, "z": {"num": 2}},
        {"kind": "timeseries", "times": {"num": 2**22}},
        {"kind": "validate_oracles", "trials": 10**8, "mc_samples": 10**7},
        {"kind": "mc_pmd", "trials": 10**8},
        {"kind": "pmd", "empirical_trials": 10**8},
    ])
    def test_count_at_its_maximum_accepted(self, experiment):
        def counts(exp):
            return {key: exp[key]["num"] if isinstance(exp[key], dict) else exp[key]
                    for key in experiment}

        assert counts(parse_scenario({"experiment": experiment}).experiment) == counts(experiment)

    @pytest.mark.parametrize("nums", [(2**20 + 1, 2, 2), (100_000, 100_000, 21)])
    def test_field_grid_past_the_maximum_named(self, nums):
        """Each range is within its maximum, but the grid they span is not."""
        experiment = {"kind": "field", **{axis: {"num": num} for axis, num in zip("xyz", nums)}}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario({"experiment": experiment})
        assert str(excinfo.value) == ("experiment: the grid's x.num * y.num * z.num must be at "
                                      f"most {2**22}, got {math.prod(nums)}")

    def test_schema_states_the_maxima(self):
        schema = scenario_schema()["experiment"]
        for kind, key in (("field", "x"), ("field", "y"), ("field", "z"),
                          ("timeseries", "times"), ("freq", "omega")):
            assert schema[kind][key]["type"].endswith(f"num from 2 to {2**22}"), (kind, key)
        for key in ("x", "y", "z"):
            assert f"x.num * y.num * z.num must be at most {2**22}" in schema["field"][key]["doc"]
        assert schema["validate_oracles"]["trials"]["type"] == f"int from 10000 to {10**8}"
        assert schema["validate_oracles"]["mc_samples"]["type"] == f"int from 100000 to {10**7}"
        assert schema["mc_pmd"]["trials"]["type"] == f"int from 10000 to {10**8}"
        assert schema["pmd"]["empirical_trials"]["type"] == f"int: 0 or 10000 to {10**8}"


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        raw = {
            "channel": {"wind_speed": 70.0},
            "sources": {"users": [{"breath_rate": 2.0,
                                   "jets": [{"time": 1.0, "mass": 9.0}]}]},
            "receiver": {"distance": 250.0},
            "experiment": {"kind": "delay", "distances": [50.0, 100.0]},
            "seed": 42,
        }
        config = parse_scenario(raw)
        again = parse_scenario(json.loads(config.to_json()))
        assert config == again
        assert config.config_hash == again.config_hash

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 3}))
        config = load_scenario(path)
        assert config.seed == 3

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as excinfo:
            load_scenario(path)
        assert "broken.json" in str(excinfo.value)


class TestTypedAccessors:
    def test_receiver_variants(self):
        config = parse_scenario({})
        moved = config.receiver_spec(distance=321.0)
        assert moved.center == (321.0, 0.0, HEIGHT)
        halved = config.receiver_spec(volume_factor=0.5)
        assert halved.radius == pytest.approx(RADIUS * 0.5 ** (1.0 / 3.0), rel=1e-15)
        assert halved.volume == pytest.approx(
            0.5 * config.receiver_spec().volume, rel=1e-12
        )

    def test_noise_sigma_from_calibration(self):
        config = parse_scenario({})
        gain = 0.85 * 0.5
        expected = math.sqrt(gain * 1.0 / (8.0 * 1.96e4))
        assert config.noise_sigma == pytest.approx(expected, rel=1e-15)

    def test_noise_sigma_from_variance(self):
        config = parse_scenario({"noise": {"variance": 0.09}})
        assert config.noise_sigma == pytest.approx(0.3, rel=1e-15)

    @pytest.mark.parametrize("rates, expected", [([1.0], 1.0), ([0.0, 0.37, 2.0], 0.37)])
    def test_reference_rate_is_the_first_breathing_users(self, rates, expected):
        config = parse_scenario({"sources": {"users": [{"breath_rate": r} for r in rates]}})
        assert config.reference_rate == expected

    @pytest.mark.parametrize("rates", [[0.0], [0.0, 0.0]])
    def test_no_breathing_user_has_no_reference_rate(self, rates):
        config = parse_scenario({"sources": {"users": [{"breath_rate": r} for r in rates]},
                                 "experiment": {"kind": "pmd"}})
        with pytest.raises(ScenarioError, match="pmd experiment needs a breathing user") as exc:
            config.reference_rate
        assert exc.value.path == "sources.users"
        with pytest.raises(ScenarioError):
            config.noise_sigma

    def test_stochastic_scenario_built(self):
        config = parse_scenario(
            {
                "sources": {
                    "users": [{"jets": [{"time": 0.0, "mass": 2.0}]}],
                    "stochastic": {"interval": 5.0, "horizon": 9.0,
                                   "probabilities": [[0.25], [0.5]]},
                },
                "experiment": {"kind": "timeseries"},
            }
        )
        scenario = config.multi_user_scenario()
        assert scenario.stochastic.num_intervals == 2
        assert scenario.stochastic_jet_mass(0) == 2.0


class TestSchema:
    def test_shipped_schema_file_matches(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.json"
                ).read_text()
        assert json.loads(text) == scenario_schema()
        # the bytes `plumesense schema` writes, so regenerating changes nothing
        assert text == json.dumps(scenario_schema(), indent=2) + "\n"

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_schema_defaults_and_keys_match_the_parser(self, kind):
        """Each listed key, given the schema's default, resolves as if left
        out; each resolved key holds that default; the listed keys are the
        resolved ones, and any other key is rejected."""
        schema = scenario_schema()
        resolved = parse_scenario({"experiment": {"kind": kind}}).resolved
        sections = {
            "channel": schema["channel"],
            "receiver": schema["receiver"],
            "noise": schema["noise"],
            "output": schema["output"],
            "experiment": schema["experiment"][kind],
        }
        for name, listed in sections.items():
            for key, entry in listed.items():
                raw = {"experiment": {"kind": kind}}
                raw.setdefault(name, {})[key] = entry["default"]
                assert parse_scenario(raw).resolved == resolved, f"{name}.{key}"
                if key in resolved[name]:
                    assert resolved[name][key] == entry["default"] or (
                        name, key) == ("receiver", "center")
            # receiver.distance places the center; experiment.kind picks the table
            assert set(resolved[name]) - {"kind"} == set(listed) - {"distance"}, name
            with pytest.raises(ScenarioError, match=f"^{name}: unknown key"):
                parse_scenario({"experiment": {"kind": kind},
                                name: {**resolved.get(name, {}), "not_a_key": 1}})
        assert parse_scenario({}).experiment["kind"] == schema["experiment"]["kind"]["default"]
        assert resolved["receiver"]["center"] == [
            schema["receiver"]["distance"]["default"], 0.0,
            schema["channel"]["source_height"]["default"]]
        assert resolved["seed"] == schema["seed"]["default"]
        assert resolved["sources"]["stochastic"] == schema["sources"]["stochastic"]["default"]
        assert parse_scenario({"experiment": {"kind": kind}, "sources": {
            "users": schema["sources"]["users"]["default"]}}).resolved == resolved

    @pytest.mark.parametrize("kind", ["conc_vs_distance", "pmd"])
    def test_quadrature_orders_default_is_the_receivers(self, kind):
        entry = scenario_schema()["experiment"][kind]["quadrature_orders"]
        assert entry["default"] == list(DEFAULT_QUADRATURE_ORDERS)
        assert entry["type"].startswith("[axial, radial, azimuthal, time]")

    def test_schema_covers_top_level_keys(self):
        schema = scenario_schema()
        for key in ("channel", "sources", "receiver", "noise", "experiment",
                    "output", "seed"):
            assert key in schema


class TestPartialRanges:
    def test_missing_keys_take_the_fields_default(self):
        omega = parse_scenario({"experiment": {"kind": "freq", "omega": {"stop": 800.0}}})
        assert omega.experiment["omega"] == {"start": 0.0, "stop": 800.0, "num": 81}
        x = parse_scenario({"experiment": {"kind": "field", "x": {"num": 5}}})
        assert x.experiment["x"] == {"start": 50.0, "stop": 500.0, "num": 5}

    def test_filled_range_is_still_checked(self):
        with pytest.raises(ScenarioError, match=r"^experiment\.x\.stop: must exceed start"):
            parse_scenario({"experiment": {"kind": "field", "x": {"stop": 20.0}}})


# ---------------------------------------------------------------------------
# the field tables against the resolvers they replaced
# ---------------------------------------------------------------------------

_BAD_VALUES = [
    "x", None, True, -1, 0, 0.5, 3, 25_000, 1e308, -1e308, float("inf"), float("nan"),
    [], [1.0], [-1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], {"start": 1.0, "stop": 0.5, "num": 2},
    {"start": -1.0, "stop": 1.0, "num": 3},
]


def _floats(lo, hi):
    return st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))


def _sweeps(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4, unique=True).map(sorted)


def _ranges(lo, hi):
    return st.builds(lambda start, span, num: {"start": start, "stop": start + span, "num": num},
                     st.floats(lo, hi), st.floats(0.1, 100.0), st.integers(2, 50))


_TRIPLES = st.lists(_floats(-50.0, 300.0), min_size=3, max_size=3)
_ORDERS = st.lists(st.integers(1, 40), min_size=4, max_size=4)
_EXPERIMENTS = {
    "field": {"x": _ranges(0.5, 400.0), "y": _ranges(-20.0, 20.0), "z": _ranges(-5.0, 300.0)},
    "timeseries": {"times": _ranges(-5.0, 10.0), "point": st.none() | _TRIPLES},
    "freq": {"omega": _ranges(-10.0, 500.0), "unwrap": st.booleans()},
    "delay": {"distances": _sweeps(1.0, 500.0), "wind_speeds": _sweeps(10.0, 300.0),
              "fraction": st.floats(0.001, 0.99), "rel_tol": st.floats(1e-9, 1e-3)},
    "conc_vs_distance": {"distances": _sweeps(1.0, 500.0),
                         "wind_speeds": _sweeps(10.0, 300.0),
                         "mode": st.sampled_from(["center", "collected"]),
                         "quadrature_orders": _ORDERS},
    "pmd": {"distances": _sweeps(1.0, 5e4), "quadrature_orders": _ORDERS,
            "empirical_trials": st.sampled_from([0, 10_000, 20_000]),
            "empirical_count": st.integers(1, 5)},
    "mc_pmd": {"snr_arguments": _sweeps(0.0, 3.0), "trials": st.integers(10_000, 10**6)},
    "validate_oracles": {"trials": st.integers(10_000, 10**6),
                         "mc_samples": st.integers(100_000, 10**6)},
}


@st.composite
def _scenarios(draw):
    """A raw scenario over every section and kind, complete or absent ranges,
    mostly valid; several keys may be wrong at once."""
    raw = {}
    for name, optional in (
        ("channel", {"wind_speed": _floats(1.0, 500.0), "diffusivity": st.floats(0.01, 1.0),
                     "source_height": _floats(1.0, 300.0), "x_min": st.floats(0.1, 5.0)}),
        ("receiver", {"center": st.none() | st.tuples(_floats(1.0, 500.0), _floats(-5.0, 5.0),
                                                      _floats(10.0, 300.0)).map(list),
                      "distance": st.none() | _floats(1.0, 500.0),
                      "radius": st.floats(0.1, 5.0), "sampling_window": _floats(0.5, 10.0),
                      "sampler_efficiency": st.floats(0.01, 1.0),
                      "binding_fraction": st.floats(0.01, 1.0)}),
        ("noise", {"variance": st.none() | st.floats(1e-6, 1.0),
                   "snr_calibration": st.none() | _floats(1.0, 1e5)}),
        ("output", {"format": st.sampled_from(["csv", "json"])}),
    ):
        if draw(st.booleans()):
            raw[name] = draw(st.fixed_dictionaries({}, optional=optional))
    # a release grid is valid on timeseries only
    stochastic = draw(st.integers(0, 3)) == 0
    kinds = ("timeseries",) * 3 + EXPERIMENT_KINDS if stochastic else EXPERIMENT_KINDS
    kind = draw(st.sampled_from(kinds))
    experiment = draw(st.fixed_dictionaries({}, optional=_EXPERIMENTS[kind]))
    if kind != "field" or draw(st.booleans()):
        experiment["kind"] = kind
    raw["experiment"] = experiment
    n_users = draw(st.integers(1, 2))
    user = st.fixed_dictionaries({}, optional={
        "location": st.none() | _TRIPLES, "breath_rate": _floats(0.0, 5.0),
        "entry_time": _floats(-2.0, 5.0),
        "jets": st.lists(st.fixed_dictionaries({"mass": st.floats(0.1, 10.0)},
                                                optional={"time": _floats(-2.0, 10.0)}),
                         max_size=2)})
    sources = {}
    if stochastic or draw(st.booleans()):
        sources["users"] = draw(st.lists(user, min_size=n_users, max_size=n_users))
    if stochastic:
        interval = draw(st.floats(0.5, 5.0))
        rows = draw(st.integers(1, 3))
        sources["stochastic"] = {
            "interval": interval,
            "horizon": interval * (rows - draw(st.sampled_from([0.0, 0.5]))),
            "probabilities": draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n_users,
                                                    max_size=n_users),
                                           min_size=rows, max_size=rows)),
        }
        # without them every user needs a jet
        sources["stochastic"]["jet_masses"] = draw(
            st.lists(st.floats(0.1, 10.0), min_size=n_users, max_size=n_users))
    if sources or draw(st.booleans()):
        raw["sources"] = sources
    if draw(st.booleans()):
        raw["seed"] = draw(st.none() | st.integers(0, 2**32))
    return raw


def _corruption_sites(raw):
    """(object, key) pairs that one bad value can replace, with the keys the
    schema lists for each object."""
    schema = scenario_schema()
    experiment = raw["experiment"]
    kind = experiment.get("kind", "field")
    sites = [(raw.setdefault(name, {}), key)
             for name in ("channel", "receiver", "noise", "output") for key in schema[name]]
    sites += [(experiment, key) for key in ("kind", *schema["experiment"][kind])]
    sources = raw.setdefault("sources", {})
    users = sources.get("users") or []
    sites += [(users[0], key) for key in schema["sources"]["users"]["type"][0]] if users else []
    if sources.get("stochastic"):
        sites += [(sources["stochastic"], key) for key in schema["sources"]["stochastic"]["type"]]
    return sites + [(sources, key) for key in schema["sources"]] + [(raw, "seed")]


# where the reference's ceil(horizon/interval) overflows, the parser must name
# the interval
_OVERFLOWED = ("rejected", "sources.stochastic.interval")


def _outcome(parse, raw):
    try:
        config = parse(copy.deepcopy(raw))
    except ScenarioError as exc:
        return ("rejected", exc.path)
    except OverflowError:
        if parse is not reference_parse_scenario:
            raise
        return _OVERFLOWED
    return ("accepted", config.resolved, config.config_hash)


class TestAgainstReference:
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_scenarios(), seed=st.integers(0, 2**64))
    def test_parser_matches_reference(self, raw, seed):
        """The table-driven parser accepts exactly the scenarios the reference
        accepts, with the same resolved dict and config hash; one bad value in
        a scenario the reference accepts is named at the same path by both."""
        expected = _outcome(reference_parse_scenario, raw)
        got = _outcome(parse_scenario, raw)
        # several wrong keys may be named in another order
        assert got == expected or (got[0] == expected[0] == "rejected"
                                   and expected != _OVERFLOWED)
        if expected[0] != "accepted":
            return
        rng = random.Random(seed)
        for site in range(len(_corruption_sites(copy.deepcopy(raw)))):
            broken = copy.deepcopy(raw)
            node, key = _corruption_sites(broken)[site]
            node[key] = bad = rng.choice(_BAD_VALUES)
            assert _outcome(parse_scenario, broken) == _outcome(
                reference_parse_scenario, broken), (key, bad)

    def test_overflowing_release_grid_named_at_interval(self):
        """ceil(horizon/interval) is inf: the reference overflows, and the
        parser names the interval."""
        raw = {"sources": {"users": [{"jets": [{"time": 0.0, "mass": 1.0}]}],
                           "stochastic": {"interval": 1e-308, "horizon": 1e308,
                                          "probabilities": []}},
               "experiment": {"kind": "timeseries"}}
        with pytest.raises(OverflowError):
            reference_parse_scenario(copy.deepcopy(raw))
        assert _outcome(parse_scenario, raw) == _outcome(reference_parse_scenario, raw) \
            == _OVERFLOWED


# ---------------------------------------------------------------------------
# reference: the scenario parser before its field tables
# ---------------------------------------------------------------------------

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
_DEFAULT_ORDERS = [16, 16, 16, 8]

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


def _expect_sweep(value, path, positive=False, nonnegative=False):
    """Nonempty, strictly increasing list of numbers."""
    seq = _expect_list(value, path)
    if not seq:
        raise ScenarioError(path, "sweep must be nonempty")
    vals = [_expect_number(v, f"{path}[{i}]", positive=positive, nonnegative=nonnegative)
            for i, v in enumerate(seq)]
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
        raise ScenarioError(path, "quadrature orders are [axial, radial, azimuthal, time]")
    return [_expect_int(v, f"{path}[{i}]", minimum=1) for i, v in enumerate(seq)]


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
        else:
            for j, user in enumerate(users):
                if not user["jets"]:
                    raise ScenarioError("sources.stochastic.jet_masses",
                                        f"user {j} has no jets to take a mass from; need one "
                                        "mass per user")
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
        if out["point"] is not None and out["point"][2] < 0.0:
            raise ScenarioError(f"{path}.point", "z must be >= 0 (ground)")
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
            raw.get("snr_arguments", [0.5, 1.0, 1.5, 2.0, 2.5]), f"{path}.snr_arguments",
            nonnegative=True,
        )
        out["trials"] = _expect_int(raw.get("trials", 1_000_000), f"{path}.trials",
                                    minimum=10_000)
    elif kind == "validate_oracles":
        _reject_unknown(raw, ("kind", "trials", "mc_samples"), path)
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


def reference_parse_scenario(raw):
    """The scenario parser before its field tables, kept as the reference: a
    resolver per section and per experiment kind, defaults as constants."""
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
