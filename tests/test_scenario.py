"""Scenario ingestion: defaults, field-level rejection, canonical round trip."""

import json
import math
from pathlib import Path

import pytest

from plumesense.errors import ScenarioError
from plumesense.scenario import (
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
        assert config.noise_sigma(1.0) == pytest.approx(expected, rel=1e-15)

    def test_noise_sigma_from_variance(self):
        config = parse_scenario({"noise": {"variance": 0.09}})
        assert config.noise_sigma(1.0) == pytest.approx(0.3, rel=1e-15)

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

    def test_schema_covers_top_level_keys(self):
        schema = scenario_schema()
        for key in ("channel", "sources", "receiver", "noise", "experiment",
                    "output", "seed"):
            assert key in schema
