"""Command-line front end: exit codes, overrides, seeding, output files."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import plumesense
from plumesense import cli
from plumesense.oracles import ORACLE_CHECKS, OracleCheck
from plumesense.runners import ResultTable, read_results
from plumesense.scenario import scenario_schema


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "experiment": {"kind": "conc_vs_distance",
                       "distances": [50.0, 100.0, 200.0],
                       "wind_speeds": [140.0]},
        "seed": 8,
    }))
    return path


class TestHappyPath:
    def test_field_writes_csv(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "experiment": {"kind": "field",
                           "x": {"start": 50.0, "stop": 100.0, "num": 3},
                           "y": {"start": -2.0, "stop": 2.0, "num": 5},
                           "z": {"start": 178.0, "stop": 182.0, "num": 5}},
        }))
        out = tmp_path / "grid.csv"
        code = cli.dispatch(["field", "--scenario", str(scenario), "--out", str(out)])
        assert code == cli.EXIT_OK
        table = read_results(out)
        assert table.columns == ("x", "y", "z", "concentration")
        assert len(table.rows) == 75

    def test_stdout_when_no_out(self, scenario_file, capsys):
        code = cli.dispatch(["conc-vs-dist", "--scenario", str(scenario_file)])
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "ratio" in captured.out
        assert "3 rows" in captured.err

    def test_dash_out_means_stdout(self, scenario_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = cli.dispatch(["conc-vs-dist", "--scenario", str(scenario_file), "--out", "-"])
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "ratio" in captured.out
        assert "-> stdout" in captured.err
        assert not (tmp_path / "-").exists()

    def test_json_format_flag(self, scenario_file, tmp_path):
        out = tmp_path / "t.json"
        code = cli.dispatch(["conc-vs-dist", "--scenario", str(scenario_file),
                             "--out", str(out), "--format", "json"])
        assert code == cli.EXIT_OK
        record = json.loads(out.read_text())
        assert record["columns"] == ["wind_speed", "distance", "ratio"]


class TestConfigErrors:
    def test_invalid_override_value_reports_field(self, scenario_file, capsys):
        code = cli.dispatch([
            "conc-vs-dist", "--scenario", str(scenario_file),
            "--set", "receiver.radius=-1",
        ])
        assert code == cli.EXIT_CONFIG
        assert "receiver.radius" in capsys.readouterr().err

    def test_unknown_override_field_rejected(self, scenario_file, capsys):
        code = cli.dispatch([
            "conc-vs-dist", "--scenario", str(scenario_file),
            "--set", "receiver.bogus=1",
        ])
        assert code == cli.EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_kind_mismatch(self, scenario_file, capsys):
        code = cli.dispatch(["pmd", "--scenario", str(scenario_file)])
        assert code == cli.EXIT_CONFIG
        assert "conc_vs_distance" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path):
        code = cli.dispatch(["field", "--scenario", str(tmp_path / "none.json")])
        assert code == cli.EXIT_CONFIG

    def test_unknown_subcommand(self):
        assert cli.dispatch(["explode"]) == cli.EXIT_CONFIG

    def test_override_cannot_create_list_entries(self, scenario_file, capsys):
        code = cli.dispatch([
            "conc-vs-dist", "--scenario", str(scenario_file),
            "--set", "sources.users.0.breath_rate=2",
        ])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: sources.users.0.breath_rate: ")
        assert "cannot create list entries" in err

    def test_nonpositive_delay_distance_named(self, tmp_path, capsys):
        scenario = tmp_path / "delay.json"
        scenario.write_text(json.dumps({"experiment": {"kind": "delay"}}))
        for distances, index in (("[-10.0,50.0]", 0), ("[10.0,0]", 1)):
            code = cli.dispatch(["delay", "--scenario", str(scenario), "--out", "-",
                                 "--set", f"experiment.distances={distances}"])
            assert code == cli.EXIT_CONFIG
            assert f"experiment.distances[{index}]" in capsys.readouterr().err

    def test_io_error(self, scenario_file):
        code = cli.dispatch(["conc-vs-dist", "--scenario", str(scenario_file),
                             "--out", "/nonexistent-dir/x.csv"])
        assert code == cli.EXIT_IO


# keys of each scenario section, of a user, a jet, a stochastic grid and a
# range, plus one unknown key; random dicts and override paths draw from these
_SECTION_KEYS = {
    "channel": ["wind_speed", "diffusivity", "source_height", "x_min"],
    "sources": ["users", "stochastic"],
    "receiver": ["center", "distance", "radius", "sampling_window",
                 "sampler_efficiency", "binding_fraction"],
    "noise": ["variance", "snr_calibration"],
    "experiment": ["kind", "x", "y", "z", "times", "point", "omega", "unwrap",
                   "distances", "wind_speeds", "fraction", "rel_tol", "mode",
                   "quadrature_orders", "empirical_trials", "empirical_count",
                   "snr_arguments", "trials"],
    "output": ["format"],
}
_USER_KEYS = ["location", "breath_rate", "jets", "entry_time"]
_NESTED_KEYS = ["time", "mass", "interval", "horizon", "probabilities", "jet_masses",
                "start", "stop", "num"]
_ALL_KEYS = sorted({k for keys in _SECTION_KEYS.values() for k in keys}
                   | set(_SECTION_KEYS) | set(_USER_KEYS) | set(_NESTED_KEYS)
                   | {"seed", "bogus"})

# the subcommands whose runs take milliseconds; a drawn experiment.kind may
# name another kind, which the subcommand then rejects
_FAST_COMMANDS = ("field", "timeseries", "freq", "delay")
# the experiment each subcommand's overrides start from: the slow kinds on
# tiny grids, so that a run takes milliseconds too
_BASE_EXPERIMENTS = {
    **{command: {"kind": command} for command in _FAST_COMMANDS},
    "conc-vs-dist": {"kind": "conc_vs_distance", "distances": [50.0, 100.0],
                     "wind_speeds": [140.0], "quadrature_orders": [2, 2, 2, 2]},
    "pmd": {"kind": "pmd", "distances": [2500.0, 5000.0], "quadrature_orders": [2, 2, 2, 2],
            "empirical_trials": 10_000, "empirical_count": 1},
    "mc-pmd": {"kind": "mc_pmd", "snr_arguments": [0.5, 2.0], "trials": 10_000},
}

# integers stay small so that a valid grid or time range stays small
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
              st.sampled_from(["", "x", "csv", "json", "center", "collected",
                               "field", "timeseries", "freq", "delay", "pmd"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(_ALL_KEYS), inner, max_size=4)),
    max_leaves=8,
)
_user = st.dictionaries(st.sampled_from(_USER_KEYS + ["bogus"]), _json_values, max_size=4)
_scenarios = st.fixed_dictionaries({}, optional={
    **{name: st.dictionaries(st.sampled_from(keys + ["bogus"]), _json_values, max_size=5)
       for name, keys in _SECTION_KEYS.items() if name != "sources"},
    "sources": st.fixed_dictionaries({}, optional={
        "users": st.one_of(st.lists(_user, max_size=3), _json_values),
        "stochastic": _json_values,
    }),
    "seed": _json_values,
    "bogus": _json_values,
})
# dotted paths of real fields (sections, ranges, the first user) or of junk
_REAL_PATHS = sorted(
    {f"{section}.{key}" for section, keys in _SECTION_KEYS.items() for key in keys}
    | {f"experiment.{axis}.{part}" for axis in ("x", "y", "z", "times", "omega")
       for part in ("start", "stop", "num")}
    | {f"sources.users.0.{key}" for key in _USER_KEYS}
    | {f"sources.stochastic.{key}" for key in _NESTED_KEYS[2:6]}
    | set(_SECTION_KEYS) | {"seed", "sources.users.0", "sources.users.0.jets.0.mass"})
_override_paths = st.one_of(
    st.sampled_from(_REAL_PATHS),
    st.lists(st.one_of(st.sampled_from(_ALL_KEYS), st.sampled_from(["0", "1", "-1", "x", ""])),
             min_size=1, max_size=4).map(".".join),
)
_override_values = st.one_of(
    _json_values.map(json.dumps),
    st.sampled_from(["", "abc", "[", "{", "NaN", "Infinity", "-Infinity", "1e400", "=1"]),
)

# "configuration error: <path>: <message>", the path rooted in a scenario
# section (or naming an override's own path)
_NAMED_PATH = re.compile(
    r"configuration error: (<scenario>|(?:channel|sources|receiver|noise|experiment"
    r"|output|seed)(?:[.\[][^:]*)?): ")


def _dispatch_quietly(argv):
    """Exit code and standard error of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, err.getvalue()


# pmd's Monte Carlo columns hold NaN at the distances left unsampled
_UNSAMPLED_NAN = ("pmd_empirical", "pmd_ci_lower", "pmd_ci_upper")


class TestMalformedInput:
    """Random scenarios and overrides end in success or exit code 2 with a
    message naming a scenario path; never a traceback, never an inf or a nan."""

    def check(self, code, err, out, override_paths=()):
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
        if code == cli.EXIT_CONFIG:
            assert _NAMED_PATH.match(err) or any(
                err.startswith(f"configuration error: {path}: ") for path in override_paths
            ), err
        else:
            table = read_results(out)
            for name in table.columns:
                values = table.column(name)
                if name in _UNSAMPLED_NAN:
                    values = values[~np.isnan(values)]
                assert np.all(np.isfinite(values)), name

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_scenarios, command=st.sampled_from(_FAST_COMMANDS))
    def test_random_scenario_dicts(self, raw, command, tmp_path_factory):
        folder = tmp_path_factory.mktemp("scenario")
        (folder / "s.json").write_text(json.dumps(raw))
        out = folder / "out.csv"
        code, err = _dispatch_quietly([command, "--scenario", str(folder / "s.json"),
                                       "--out", str(out)])
        self.check(code, err, out)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(sorted(_BASE_EXPERIMENTS)),
           overrides=st.lists(st.tuples(_override_paths, _override_values),
                              min_size=1, max_size=3))
    # a word as a list index, a list entry on a scenario without the list, a
    # fraction the rise never reaches in floating point, x_min past the
    # receiver, a time range whose span overflows, a wind so slow that
    # u * u underflows, and too few Monte Carlo trials for an interval
    @example(command="field",
             overrides=[("sources.users", "[{}]"), ("sources.users.x.breath_rate", "1")])
    @example(command="freq", overrides=[("sources.users.0.breath_rate", "2")])
    @example(command="delay", overrides=[("experiment.fraction", "0.9999999999999999")])
    @example(command="timeseries", overrides=[("channel.x_min", "1e300")])
    @example(command="timeseries", overrides=[("experiment.times.start", "-1.7e308"),
                                              ("experiment.times.stop", "1.7e308")])
    @example(command="freq", overrides=[("channel.wind_speed", "1e-300")])
    @example(command="pmd", overrides=[("experiment.empirical_trials", "5")])
    def test_random_overrides_name_their_path(self, command, overrides, tmp_path_factory):
        folder = tmp_path_factory.mktemp("override")
        (folder / "s.json").write_text(json.dumps({"experiment": _BASE_EXPERIMENTS[command],
                                                   "seed": 3}))
        out = folder / "out.csv"
        argv = [command, "--scenario", str(folder / "s.json"), "--out", str(out)]
        # one argument each, so that argparse takes a path like "-1" as a value
        argv += [f"--set={path}={value}" for path, value in overrides]
        code, err = _dispatch_quietly(argv)
        self.check(code, err, out, [path for path, _ in overrides])


class TestSeeding:
    def test_seed_flag_overrides_scenario(self, tmp_path):
        scenario = tmp_path / "mc.json"
        scenario.write_text(json.dumps({
            "experiment": {"kind": "mc_pmd", "trials": 20000,
                           "snr_arguments": [1.0]},
            "seed": 1,
        }))
        outs = []
        for name, seed in (("a.csv", "5"), ("b.csv", "5"), ("c.csv", "6")):
            out = tmp_path / name
            code = cli.dispatch(["mc-pmd", "--scenario", str(scenario),
                                 "--seed", seed, "--out", str(out)])
            assert code == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_missing_seed_draws_one(self, tmp_path):
        scenario = tmp_path / "mc.json"
        scenario.write_text(json.dumps({
            "experiment": {"kind": "mc_pmd", "trials": 20000,
                           "snr_arguments": [1.0]},
        }))
        out = tmp_path / "r.csv"
        code = cli.dispatch(["mc-pmd", "--scenario", str(scenario),
                             "--out", str(out)])
        assert code == cli.EXIT_OK
        seed_line = [l for l in out.read_text().splitlines()
                     if l.startswith("# seed")][0]
        assert seed_line.split(":")[1].strip() != "none"


    def test_seedless_deterministic_runs_write_identical_bytes(self, tmp_path):
        scenario = tmp_path / "delay.json"
        scenario.write_text(json.dumps({
            "experiment": {"kind": "delay", "distances": [50.0, 100.0],
                           "wind_speeds": [140.0]},
        }))
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli.dispatch(["delay", "--scenario", str(scenario), "--out", str(out)])
            assert code == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"# seed: none\n" in outs[0]


class TestEnvScenarioDir:
    def test_bare_name_resolved_from_env(self, scenario_file, tmp_path, monkeypatch):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        monkeypatch.setenv("PLUMESENSE_SCENARIO_DIR", str(scenario_file.parent))
        out = tmp_path / "o.csv"
        code = cli.dispatch(["conc-vs-dist", "--scenario", scenario_file.name,
                             "--out", str(out)])
        assert code == cli.EXIT_OK


class TestValidateOraclesExit:
    def test_budget_violation_maps_to_numeric_exit(self, scenario_file, monkeypatch,
                                                   capsys):
        failing = ResultTable(
            columns=("check", "value", "budget", "passed"),
            units=("id", "1", "1", "bool"),
            rows=[(0.0, 0.5, 0.02, 0.0)],
            metadata={"version": "0", "config_hash": "x", "seed": "1"},
        )
        monkeypatch.setitem(cli.RUNNERS, "validate_oracles",
                            lambda config: failing)
        code = cli.dispatch(["validate-oracles", "--scenario", str(scenario_file),
                             "--set", "experiment={\"kind\": \"validate_oracles\"}"])
        assert code == cli.EXIT_NUMERIC
        assert "steady_l2" in capsys.readouterr().err

    def test_crosswind_breach_fails_only_its_own_row(self, scenario_file, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setitem(ORACLE_CHECKS, "steady_crosswind", OracleCheck(0.0, "lt"))
        out = tmp_path / "validate.csv"
        code = cli.dispatch([
            "validate-oracles", "--scenario", str(scenario_file), "--out", str(out),
            "--set", "experiment={\"kind\": \"validate_oracles\", \"trials\": 10000, "
                     "\"mc_samples\": 100000}"])
        assert code == cli.EXIT_NUMERIC
        names = list(ORACLE_CHECKS)
        rows = read_results(out).rows
        assert [names[int(row[0])] for row in rows if row[3] == 0.0] == ["steady_crosswind"]
        l2 = rows[rows[:, 0] == names.index("steady_l2")][0]
        assert l2[1] < l2[2]
        named = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("oracle budget exceeded")]
        assert len(named) == 1 and "exceeded: steady_crosswind " in named[0]


class TestSchema:
    def test_schema_prints_json(self, capsys):
        assert cli.dispatch(["schema"]) == cli.EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed == scenario_schema()

    def test_schema_dash_out_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.dispatch(["schema", "--out", "-"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == scenario_schema()
        assert not (tmp_path / "-").exists()

    def test_schema_out_file(self, tmp_path):
        out = tmp_path / "schema.json"
        assert cli.dispatch(["schema", "--out", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text()) == scenario_schema()


def _fresh_process(code, *args, cwd=None):
    """``code`` run with ``args`` in a fresh interpreter on this checkout,
    within 60 s."""
    src = os.path.dirname(os.path.dirname(plumesense.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=60, cwd=cwd)


def _fresh_python(code, *args):
    """Standard output of ``code`` run with ``args`` in a fresh interpreter on
    this checkout; it must exit 0 within 60 s."""
    result = _fresh_process(code, *args)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_readme_library_sketch_runs(tmp_path):
    """README's python block runs as written, so a name it uses cannot leave
    the package unnoticed."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    (tmp_path / "scenarios").mkdir()
    shutil.copy(root / "scenarios" / "field.json", tmp_path / "scenarios")
    result = _fresh_process(blocks[0], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "field.csv").is_file()


def test_import_leaves_solver_modules_unloaded(tmp_path):
    """Every subcommand runs on numpy alone: with scipy made unimportable, the
    eight commands of README on the shipped scenarios still succeed."""
    run = "import sys\nsys.modules['scipy'] = None\nfrom plumesense.cli import main\nmain()\n"
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    commands = {
        "field": ("field", "field.json"),
        "timeseries": ("timeseries", "timeseries.json"),
        "freq": ("freq", "freq.json"),
        "conc-vs-dist": ("conc-vs-dist", "concentration.json"),
        "delay": ("delay", "delay.json"),
        "pmd": ("pmd", "pmd.json"),
        "mc-pmd": ("mc-pmd", "pmd.json", "--set", 'experiment={"kind":"mc_pmd"}', "--seed", "1"),
        "validate-oracles": ("validate-oracles", "validate.json"),
    }
    for name, (command, scenario, *extra) in commands.items():
        out = tmp_path / f"{name}.csv"
        _fresh_python(run, command, "--scenario", str(scenarios / scenario), *extra,
                      "--out", str(out))
        assert out.is_file(), name


def test_variable_diffusivity_exposure_leaves_quadrature_unloaded():
    """Variable-K diffusion_scale integrates without scipy.integrate."""
    code = (
        "import sys\n"
        "from plumesense.channel import ChannelParams, DiffusivityProfile, steady_field\n"
        "from plumesense.receiver import ReceiverSpec, receiver_exposure\n"
        "profile = DiffusivityProfile.from_function(lambda x: 0.242 * (1.0 + x / 150.0))\n"
        "params = ChannelParams(140.0, profile)\n"
        "recv = ReceiverSpec(center=(100.0, 0.0, 180.0), radius=2.0, sampling_window=3.0,\n"
        "                    sampler_efficiency=0.85, binding_fraction=0.5)\n"
        "value = receiver_exposure(recv, steady_field(1.0, params, 180.0), 0.0, (4, 4, 4, 2))\n"
        "print(value > 0.0, 'scipy.integrate' in sys.modules)\n"
    )
    assert _fresh_python(code) == "True False"


def test_import_leaves_statistics_unloaded():
    """Only the delay runner needs the standard library's normal quantile, so
    importing the CLI leaves statistics (and its fractions and decimal)
    unloaded for every other subcommand."""
    assert _fresh_python("import sys\nimport plumesense.cli\n"
                         "print('statistics' in sys.modules)\n") == "False"


def test_library_runs_on_numpy_alone():
    """With scipy made unimportable, the library's numerical routes run under
    a variable K = k0 (1 + x/L): the diffusion scale against its closed form,
    the steady oracle from march to report, and the step convolution against
    the breath response."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from plumesense import (ChannelParams, DiffusivityProfile, breath_response,\n"
        "                        diffusion_scale)\n"
        "from plumesense.oracles import (march_steady_plume, steady_oracle_report,\n"
        "                                step_convolution)\n"
        "profile = DiffusivityProfile.from_function(lambda x: 0.242 * (1.0 + x / 150.0))\n"
        "params = ChannelParams(140.0, profile)\n"
        "scale = diffusion_scale(250.0, params)\n"
        "exact = 0.242 * (250.0 + 250.0 ** 2 / 300.0) / 140.0\n"
        "report = steady_oracle_report(march_steady_plume(params, 180.0, 50.0, 250.0, 0.2),\n"
        "                              params, 180.0)\n"
        "point = (100.0, 0.5, 180.5, 2.0)\n"
        "numeric = step_convolution(point, params, 180.0)\n"
        "closed = breath_response(1.0, 0.0, point, params, 180.0)\n"
        "print(abs(scale / exact - 1.0) < 1e-12, report.passed,\n"
        "      abs(numeric / closed - 1.0) < 1e-6)\n"
    )
    assert _fresh_python(code) == "True True True"


@pytest.mark.parametrize("command, scenario, override, path", [
    ("field", "field.json", "channel.wind_speed={}", "channel.wind_speed"),
    ("field", "field.json", "experiment.x.stop={}", "experiment.x.stop"),
    ("conc-vs-dist", "concentration.json", "experiment.distances=[50, {}]",
     "experiment.distances[1]"),
])
def test_integer_beyond_doubles_named(tmp_path, command, scenario, override, path):
    """An integer too large for a double is not finite: the run names its
    path and exits 2, without an OverflowError traceback."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    result = _fresh_process("from plumesense.cli import main; main()", command,
                            "--scenario", str(scenarios / scenario),
                            "--out", str(tmp_path / "out.csv"),
                            "--set", override.format("1" + "0" * 400))
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr == f"configuration error: {path}: must be finite\n"


def test_delay_returns_for_any_rel_tol(tmp_path):
    """A tolerance below the spacing of doubles cannot stall the delay: the
    closed form does not iterate, so the rows equal those at 1e-6."""
    scenario = tmp_path / "delay.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "delay"}}))
    rows = []
    for rel_tol in ("1e-6", "1e-17"):
        out = tmp_path / f"{rel_tol}.csv"
        _fresh_python("from plumesense.cli import main; main()", "delay",
                      "--scenario", str(scenario), "--out", str(out),
                      "--set", f"experiment.rel_tol={rel_tol}")
        rows.append([line for line in out.read_text().splitlines()
                     if not line.startswith("#")])
    assert len(rows[0]) == 31
    assert rows[0] == rows[1]


def test_slow_wind_freq_named_without_warnings(tmp_path):
    """At 1e-300 cm/s u * u underflows to 0: the run names the wind speed
    and prints no numpy warning."""
    scenario = tmp_path / "freq.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "freq"}}))
    result = _fresh_process("from plumesense.cli import main; main()", "freq",
                            "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                            "--set", "channel.wind_speed=1e-300")
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.startswith("configuration error: channel.wind_speed: ")
    assert "Warning" not in result.stderr


@pytest.mark.parametrize("command, override", [
    ("pmd", "experiment.distances=[1e308]"),
    ("timeseries", "receiver.distance=1e308"),
])
def test_far_downwind_receiver_runs_without_warnings(tmp_path, command, override):
    """Far downwind the closed forms return their limit 0 without numpy
    overflow warnings."""
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"experiment": {"kind": command}}))
    result = _fresh_process("from plumesense.cli import main; main()", command,
                            "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                            "--set", override)
    assert result.returncode == cli.EXIT_OK, result.stderr
    assert "Warning" not in result.stderr


def test_overflowing_release_grid_named(tmp_path):
    """ceil(horizon/interval) is inf: the run names the interval and exits 2
    without a traceback."""
    scenario = tmp_path / "series.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "timeseries"}}))
    result = _fresh_process("from plumesense.cli import main; main()", "timeseries",
                            "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                            "--set", 'sources.stochastic={"interval": 1e-308, '
                                     '"horizon": 1e308, "probabilities": []}')
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.startswith("configuration error: sources.stochastic.interval: ")
    assert "Traceback" not in result.stderr


def test_vanishing_jet_spread_named_without_warnings(tmp_path):
    """At K = 1e-250 cm^2/s a jet's 8 (pi s)^1.5 underflows to 0: timeseries
    names the diffusivity and exits 2, with no NaN rows and no numpy warning."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    result = _fresh_process("from plumesense.cli import main; main()", "timeseries",
                            "--scenario", str(scenarios / "timeseries.json"),
                            "--out", str(out), "--set", "channel.diffusivity=1e-250")
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr.startswith("configuration error: channel.diffusivity: ")
    assert "Warning" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, scenario", [
    ("field", "field.json"), ("conc-vs-dist", "concentration.json"), ("pmd", "pmd.json"),
    ("freq", "freq.json"),
])
def test_vanishing_diffusivity_named_without_warnings(tmp_path, command, scenario):
    """At K = 1e-320 cm^2/s the steady plume's rate / (4 u pi s), and the
    transfer function's 1 / (4 u pi s), leave the doubles: the run names the
    diffusivity and exits 2, with no NaN rows, no file and no numpy warning."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    result = _fresh_process("from plumesense.cli import main; main()", command,
                            "--scenario", str(scenarios / scenario),
                            "--out", str(out), "--set", "channel.diffusivity=1e-320")
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr.startswith("configuration error: channel.diffusivity: ")
    assert "Warning" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, scenario, kind", [("field", "field.json", "field"),
                                                     ("pmd", "pmd.json", "pmd")])
def test_no_breathing_user_named(tmp_path, command, scenario, kind, capsys):
    """field and pmd evaluate the breath plume of a breathing user: when no
    user breathes, the run names sources.users and exits 2 without a file,
    instead of writing the rows of a rate-1 emitter."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch([command, "--scenario", str(scenarios / scenario), "--out", str(out),
                         "--set", 'sources.users=[{"breath_rate": 0}]'])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: sources.users: "
                                       f"{kind} experiment needs a breathing user\n")
    assert not out.exists()


@pytest.mark.parametrize("diffusivity", ["5e-324", "1e-300"])
def test_vanishing_diffusivity_names_the_channel_in_validate_oracles(tmp_path, diffusivity):
    """At K = 5e-324 cm^2/s the diffusion scale at 50 cm underflows to 0, and
    at 1e-300 the steady plume peaks near 1e297: validate-oracles names the
    diffusivity and exits 2, with numpy's warnings raised as errors."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    result = _fresh_process("import warnings; warnings.simplefilter('error', RuntimeWarning); "
                            "from plumesense.cli import main; main()", "validate-oracles",
                            "--scenario", str(scenarios / "validate.json"),
                            "--out", str(out), "--set", f"channel.diffusivity={diffusivity}")
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr.startswith("configuration error: channel.diffusivity: ")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diffusivity", [1e-7, 1e-9])
def test_unresolvable_channel_named_in_validate_oracles(tmp_path, diffusivity, capsys):
    """validate-oracles takes its grids from the channel, up to stated caps:
    at K = 1e-7 cm^2/s no spectrum window of 2^20 samples spans twice the
    pulse's delay, and at 1e-9 the transient oracle would need more than 2^20
    probe times.  The run names the channel and exits 2 without a file."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch(["validate-oracles", "--scenario", str(scenarios / "validate.json"),
                         "--out", str(out), "--set", f"channel.diffusivity={diffusivity}"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: channel: ")
    assert not out.exists()


def test_retired_transient_key_named(tmp_path, capsys):
    """experiment.transient, which once skipped the jet oracle, is an
    unknown key: the run names it and exits 2 without a file."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch(["validate-oracles", "--scenario", str(scenarios / "validate.json"),
                         "--out", str(out), "--set", "experiment.transient=false"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: experiment: unknown key(s): "
                                       "transient\n")
    assert not out.exists()


def test_overflowing_phase_named_without_warnings(tmp_path):
    """omega x / u overflows at 1.7e308 rad/s: the run names experiment.omega
    and prints no numpy warning."""
    scenario = tmp_path / "freq.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "freq"}}))
    result = _fresh_process("from plumesense.cli import main; main()", "freq",
                            "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                            "--set", "experiment.omega.stop=1.7e308")
    assert result.returncode == cli.EXIT_CONFIG
    assert result.stderr.startswith("configuration error: experiment.omega: ")
    assert "Warning" not in result.stderr


@pytest.mark.parametrize("overrides, path", [
    (("experiment.snr_arguments=[-1.0, 0.5]",), "experiment.snr_arguments[0]"),
])
def test_impossible_detection_arguments_named(tmp_path, overrides, path):
    """gain x exposure / (2 sigma) is >= 0: mc-pmd names a negative argument
    and exits 2, with warnings as errors."""
    scenario = tmp_path / "mc.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "mc_pmd", "trials": 10_000}}))
    sets = [arg for override in overrides for arg in ("--set", override)]
    result = _fresh_process("import warnings; warnings.simplefilter('error'); "
                            "from plumesense.cli import main; main()", "mc-pmd",
                            "--scenario", str(scenario), "--out", str(tmp_path / "out.csv"),
                            "--seed", "1", *sets)
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr.startswith(f"configuration error: {path}: ")
    assert "Traceback" not in result.stderr


def test_huge_detection_argument_runs_without_warnings(tmp_path):
    """mc-pmd runs at sigma = 1/2, where the noiseless reading is the
    argument itself, so no reading overflows at any noise level: an argument
    of 1e308 under a variance of 1e300 exits 0, with warnings as errors, and
    writes Q = 0 for it."""
    scenario = tmp_path / "mc.json"
    scenario.write_text(json.dumps({"experiment": {"kind": "mc_pmd", "trials": 10_000}}))
    out = tmp_path / "out.csv"
    result = _fresh_process("import warnings; warnings.simplefilter('error'); "
                            "from plumesense.cli import main; main()", "mc-pmd",
                            "--scenario", str(scenario), "--out", str(out), "--seed", "1",
                            "--set", "experiment.snr_arguments=[0.5, 1e308]",
                            "--set", "noise.variance=1e300")
    assert result.returncode == 0, result.stderr
    table = read_results(out)
    assert table.column("argument").tolist() == [0.5, 1e308]
    assert table.column("pmd_analytic")[1] == 0.0
    assert table.column("pmd_empirical")[1] == 0.0


def test_retired_steady_resolution_key_named(tmp_path, capsys):
    """experiment.steady_resolution, which once set the steady march's step,
    is an unknown key: the steady steps come from the channel.  The run names
    it and exits 2 without a file."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch(["validate-oracles", "--scenario", str(scenarios / "validate.json"),
                         "--out", str(out), "--set", "experiment.steady_resolution=0.2"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: experiment: unknown key(s): "
                                       "steady_resolution\n")
    assert not out.exists()


def test_count_beyond_array_sizes_named(tmp_path):
    """A grid count past the largest numpy array size, and so past the
    stated maximum of a range's points, names its path and exits 2, without
    numpy's size traceback."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    result = _fresh_process("from plumesense.cli import main; main()", "field",
                            "--scenario", str(scenarios / "field.json"),
                            "--out", str(tmp_path / "out.csv"),
                            "--set", "experiment.x.num=1" + "0" * 400)
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr == "configuration error: experiment.x.num: must be at most 4194304\n"


def test_trials_beyond_array_sizes_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    """A trial count past the largest numpy array size, and so past the
    stated maximum of trials, is rejected while the scenario is parsed:
    neither the runner nor the Monte Carlo starts."""
    from plumesense import runners

    def never(*args, **kwargs):
        raise AssertionError("the oracle suite started")

    monkeypatch.setitem(runners.RUNNERS, "validate_oracles", never)
    monkeypatch.setattr(runners, "empirical_pmd", never)
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    code = cli.dispatch(["validate-oracles", "--scenario", str(scenarios / "validate.json"),
                         "--out", str(tmp_path / "out.csv"),
                         "--set", "experiment.trials=1" + "0" * 400])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: experiment.trials: must be at "
                                       "most 100000000\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("override, wind", [("channel.diffusivity=1e308", "140"),
                                            ("channel.wind_speed=1e-308", "1e-308")])
def test_diffusion_scale_overflow_names_the_channel(tmp_path, override, wind):
    """K x / u past the range of doubles is the channel's fault, not the
    steady march's: validate-oracles names the diffusivity, exits 2 and
    prints no numpy warning."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    result = _fresh_process("from plumesense.cli import main; main()", "validate-oracles",
                            "--scenario", str(scenarios / "validate.json"),
                            "--out", str(tmp_path / "out.csv"), "--set", override)
    assert result.returncode == cli.EXIT_CONFIG, result.stderr
    assert result.stderr == ("configuration error: channel.diffusivity: the diffusion scale "
                             "K x / u at 250 cm leaves the range of doubles at wind speed "
                             f"{wind} cm/s\n")


@pytest.mark.parametrize("flags, level", [([], "WARNING"), (["-v"], "INFO"),
                                          (["-vv"], "DEBUG"), (["-vvv"], "DEBUG")])
def test_verbosity_sets_the_log_level(scenario_file, tmp_path, flags, level):
    """-v logs each run at INFO on standard error and -vv opens DEBUG; with
    neither, only warnings are logged."""
    result = _fresh_process("import logging, sys; from plumesense.cli import dispatch; "
                            "code = dispatch(sys.argv[1:]); "
                            "print(logging.getLevelName(logging.getLogger().level)); "
                            "sys.exit(code)",
                            "conc-vs-dist", "--scenario", str(scenario_file),
                            "--out", str(tmp_path / "out.csv"), *flags)
    assert result.returncode == cli.EXIT_OK, result.stderr
    assert result.stdout.splitlines()[-1] == level
    logged = "INFO plumesense: running conc_vs_distance (config " in result.stderr
    assert logged == bool(flags)


def test_quadrature_failure_in_a_runner_exits_3(tmp_path, monkeypatch, capsys):
    """A QuadratureError raised inside a runner is a numeric failure: exit 3,
    named on standard error, with no file written."""
    from plumesense import runners
    from plumesense.errors import QuadratureError

    def unreachable(*args, **kwargs):
        raise QuadratureError("tolerance not reached")

    monkeypatch.setattr(runners, "step_convolution", unreachable)
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch(["validate-oracles", "--scenario", str(scenarios / "validate.json"),
                         "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric failure: tolerance not reached\n"
    assert not out.exists()


def test_delay_overflow_names_the_wind(tmp_path, capsys):
    """At 1e-300 cm/s the delay d/u leaves the doubles: delay names the wind
    speed, exits 2 and writes no file."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    out = tmp_path / "out.csv"
    code = cli.dispatch(["delay", "--scenario", str(scenarios / "delay.json"),
                         "--out", str(out), "--set", "experiment.wind_speeds=[1e-300]"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: experiment.wind_speeds: the delay "
                                       "at 1e-300 cm/s overflows; the wind is too slow\n")
    assert not out.exists()
