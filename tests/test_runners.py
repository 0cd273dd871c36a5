"""Experiment runners: table mechanics, persistence, determinism, and the
physical trends each figure-style experiment must reproduce."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plumesense.channel import (
    breath_response,
    diffusion_scale,
    steady_field,
    steady_state_concentration,
    stochastic_expected_response,
)
from plumesense.errors import DomainError, EvaluationDomainError, ScenarioError
from plumesense import runners
from plumesense.oracles import ORACLE_CHECKS, McExposureEstimate, empirical_pmd
from plumesense.receiver import pmd_conservative, pmd_exact, receiver_exposure
from plumesense.runners import (
    _FILE_METADATA_KEYS,
    RUNNERS,
    _metadata,
    _primary_rate,
    ResultTable,
    read_results,
    run_concentration_vs_distance,
    run_delay_to_fraction,
    run_field_grid,
    run_frequency_sweep,
    run_mc_pmd,
    run_pmd_vs_distance,
    run_timeseries,
    run_validate_oracles,
    write_results,
)
from plumesense.scenario import load_scenario, parse_scenario

from conftest import HEIGHT, WIND

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# the per-row serialisers the block formatters replaced; their bytes are the
# file format
def reference_csv_text(table):
    lines = []
    for key in _FILE_METADATA_KEYS:
        if key in table.metadata:
            lines.append(f"# {key}: {table.metadata[key]}")
    lines.append(",".join(f"{c} [{u}]" for c, u in zip(table.columns, table.units)))
    for row in table.rows.tolist():
        lines.append(",".join(f"{v:.8e}" for v in row))
    return "\n".join(lines) + "\n"


def reference_json_text(table):
    record = {
        "metadata": {k: table.metadata[k] for k in _FILE_METADATA_KEYS
                     if k in table.metadata},
        "columns": list(table.columns),
        "units": list(table.units),
        "rows": [list(row) for row in table.rows.tolist()],
    }
    return json.dumps(record, indent=1) + "\n"


def first_difference(text, reference):
    """None when the texts are equal, else both texts around the first
    differing character (a short failure report for multi-megabyte texts)."""
    if text == reference:
        return None
    i = next((k for k, (a, b) in enumerate(zip(text, reference)) if a != b),
             min(len(text), len(reference)))
    return text[max(0, i - 60):i + 60], reference[max(0, i - 60):i + 60]


_SPECIAL_VALUES = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                   2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308)

# bit patterns of a small pool: both zeros, NaNs with different signs and
# payloads (quiet and signalling), both infinities and two ordinary values
_POOL_BITS = np.array([0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000,
                       0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                       0x7FF0000000000000, 0xFFF0000000000000, 0x3FF0000000000000,
                       0x0000000000000001], dtype=np.uint64)


def _column_bits(kind, n_rows, rng):
    """A column's bit patterns: ``pool`` cycles through the pool in random
    order; ``half`` has exactly n_rows // 2 distinct values (the largest
    count the formatters deduplicate) and ``half+1`` one more."""
    if kind == "pool":
        return rng.permutation(np.resize(_POOL_BITS, n_rows))
    m = max(n_rows // 2 + (kind == "half+1"), 1)
    distinct = np.unique(rng.integers(0, 2**64, size=m + 8, dtype=np.uint64,
                                      endpoint=False))[:m]
    return rng.permutation(np.resize(distinct, n_rows))


@st.composite
def result_tables(draw):
    """Tables of 0, 1, 4095, 4096 or 4097 rows (around the 4096-row format
    block) and 1 to 7 columns.  One column cycles a small pool of values and
    another (if any) has n_rows // 2 distinct values; the rest have special
    values over random bit patterns, or are of either kind, or have
    n_rows // 2 + 1 distinct values.  Rows are in C or Fortran order."""
    n_rows = draw(st.sampled_from([0, 1, 4095, 4096, 4097]))
    n_cols = draw(st.integers(1, 7))
    cells = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(width=64))
    rows = draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=cells))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, size=rows.shape, dtype=np.uint64, endpoint=False)
    mask = rng.random(rows.shape) < 0.5
    rows[mask] = bits.view(np.float64)[mask]
    kinds = ["pool", "half"] + draw(st.lists(
        st.sampled_from(["special", "pool", "half", "half+1"]),
        min_size=max(n_cols - 2, 0), max_size=max(n_cols - 2, 0)))
    order = draw(st.permutations(range(n_cols)))
    for j, kind in zip(order, kinds):
        if kind != "special":
            rows[:, j] = _column_bits(kind, n_rows, rng).view(np.float64)
    if draw(st.booleans()):
        rows = np.asfortranarray(rows)  # ResultTable keeps the memory order
    return ResultTable(
        columns=tuple(f"c{i}" for i in range(n_cols)),
        units=("1",) * n_cols,
        rows=rows,
        metadata={"version": "0.1.0", "config_hash": "deadbeef", "seed": "none"},
    )


class TestResultTable:
    def make(self):
        return ResultTable(
            columns=("a", "b"),
            units=("cm", "s"),
            rows=[(1.0, 2.0), (3.0, 4.5)],
            metadata={"version": "0.1.0", "config_hash": "deadbeef", "seed": "7"},
        )

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            ResultTable(columns=("a", "b"), units=("cm",), rows=[])
        with pytest.raises(DomainError):
            ResultTable(columns=("a",), units=("cm",), rows=[(1.0, 2.0)])
        with pytest.raises(DomainError):
            ResultTable(columns=("a", "b"), units=("cm", "s"), rows=[(1.0, 2.0), (3.0,)])
        with pytest.raises(DomainError):
            ResultTable(columns=("a", "b"), units=("cm", "s"), rows=[1.0, 2.0])
        empty = ResultTable(columns=("a", "b"), units=("cm", "s"), rows=[])
        assert empty.rows.shape == (0, 2)

    def test_float_array_rows_kept_not_copied(self):
        rows = np.column_stack([np.arange(3.0), np.ones(3)])
        assert ResultTable(columns=("a", "b"), units=("cm", "s"), rows=rows).rows is rows
        converted = ResultTable(columns=("a", "b"), units=("cm", "s"),
                                rows=[(1, 2), (3, 4)]).rows
        assert isinstance(converted, np.ndarray) and converted.dtype == np.float64
        assert np.array_equal(converted, [[1.0, 2.0], [3.0, 4.0]])
        ints = np.array([[1, 2]])
        kept = ResultTable(columns=("a", "b"), units=("cm", "s"), rows=ints).rows
        assert kept is not ints and kept.dtype == np.float64

    def test_column_lookup(self):
        table = self.make()
        assert np.array_equal(table.column("b"), [2.0, 4.5])
        with pytest.raises(DomainError):
            table.column("missing")

    def test_csv_layout(self):
        text = self.make().to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "# version: 0.1.0"
        assert lines[1] == "# config_hash: deadbeef"
        assert lines[2] == "# seed: 7"
        assert lines[3] == "a [cm],b [s]"
        assert lines[4] == "1.00000000e+00,2.00000000e+00"

    def test_every_column_carries_a_unit(self):
        table = self.make()
        header = table.to_csv_text().splitlines()[3]
        assert all("[" in cell and cell.endswith("]") for cell in header.split(","))

    def test_csv_round_trip_is_stable(self, tmp_path):
        table = self.make()
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_results(table, first, "csv")
        write_results(read_results(first), second, "csv")
        assert first.read_bytes() == second.read_bytes()

    def test_json_round_trip_is_exact(self, tmp_path):
        table = self.make()
        path = tmp_path / "table.json"
        write_results(table, path, "json")
        back = read_results(path)
        assert back.columns == table.columns
        assert back.units == table.units
        assert np.array_equal(back.rows, table.rows)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
    @given(table=result_tables())
    def test_block_formatters_match_per_row_reference(self, table):
        assert first_difference(table.to_csv_text(), reference_csv_text(table)) is None
        assert first_difference(table.to_json_text(), reference_json_text(table)) is None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
    @given(table=result_tables())
    def test_write_read_round_trip(self, table, tmp_path_factory):
        """JSON gives back every bit and CSV 9 significant digits.  NaN comes
        back as NaN (its sign and payload are not written); infinities and
        the sign of zero are kept."""
        folder = tmp_path_factory.mktemp("round_trip")
        rows = table.rows
        nan = np.isnan(rows)
        finite = np.isfinite(rows)
        for fmt in ("json", "csv"):
            back = read_results(write_results(table, folder / f"table.{fmt}", fmt))
            assert (back.columns, back.units) == (table.columns, table.units)
            assert back.metadata == table.metadata
            assert np.array_equal(np.isnan(back.rows), nan)
            if fmt == "json":
                assert np.array_equal(back.rows.view(np.uint64)[~nan],
                                      rows.view(np.uint64)[~nan])
                continue
            assert np.array_equal(np.signbit(back.rows[~nan]), np.signbit(rows[~nan]))
            assert np.array_equal(back.rows[~nan & ~finite], rows[~nan & ~finite])
            # "%.8e" rounds to half a unit in the 9th digit, and parsing the
            # text back adds at most one unit in the last place (2**-52
            # relative, or the smallest subnormal)
            exact, read = rows[finite], back.rows[finite]
            assert np.all(np.abs(read - exact)
                          <= (5e-9 + 2.0**-52) * np.abs(exact) + 5e-324)

    # validate.json is left out: its oracle suite is the slowest runner, and
    # its 11-row table adds no case the others lack
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")
                                            if p.name != "validate.json"))
    def test_shipped_scenarios_match_per_row_reference(self, name):
        config = load_scenario(SCENARIOS / name)
        table = RUNNERS[config.experiment["kind"]](config)
        assert first_difference(table.to_csv_text(), reference_csv_text(table)) is None
        assert first_difference(table.to_json_text(), reference_json_text(table)) is None

    def test_unwritable_path_raises_with_context(self, tmp_path):
        table = self.make()
        target = tmp_path / "nope" / "table.csv"
        with pytest.raises(OSError) as excinfo:
            write_results(table, target, "csv")
        assert "table.csv" in str(excinfo.value)


class TestDeterminism:
    def test_same_config_and_seed_byte_identical(self, tmp_path):
        raw = {"experiment": {"kind": "mc_pmd", "trials": 20000,
                              "snr_arguments": [0.5, 1.0]}, "seed": 99}
        paths = []
        for name in ("one.csv", "two.csv"):
            config = parse_scenario(raw)
            table = run_mc_pmd(config)
            path = tmp_path / name
            write_results(table, path, "csv")
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_runner_does_not_mutate_config(self):
        config = parse_scenario({"experiment": {"kind": "pmd"}, "seed": 1})
        before = config.config_hash
        run_pmd_vs_distance(config)
        assert config.config_hash == before

    def test_missing_seed_rejected_for_stochastic_runner(self):
        config = parse_scenario({"experiment": {"kind": "mc_pmd", "trials": 20000}})
        with pytest.raises(ScenarioError):
            run_mc_pmd(config)


# the per-case runners the columnar ones replaced: one closure call per
# (wind, distance) or (distance, variant), and the half-rate variant
# integrates its own sphere at half the rate
def reference_concentration_vs_distance(config):
    exp = config.experiment
    height = config.source_height
    rate = _primary_rate(config)
    mode = exp["mode"]
    orders = tuple(exp["quadrature_orders"])

    def one(case):
        u, d = case
        params = config.channel_params(wind_speed=u)
        if mode == "center":
            value = steady_state_concentration(rate, (d, 0.0, height), params, height)
        else:
            recv = config.receiver_spec(distance=d)
            value = receiver_exposure(recv, steady_field(rate, params, height), orders=orders)
            value /= recv.volume * recv.sampling_window
        return (u, d, value / rate)

    cases = [(u, d) for u in exp["wind_speeds"] for d in exp["distances"]]
    return ResultTable(
        columns=("wind_speed", "distance", "ratio"),
        units=("cm/s", "cm", "1/cm^3 per unit/s"),
        rows=[one(case) for case in cases],
        metadata=_metadata(config),
    )


def reference_pmd_vs_distance(config):
    exp = config.experiment
    height = config.source_height
    params = config.channel_params()
    base_rate = _primary_rate(config)
    sigma = config.noise_sigma(base_rate)
    orders = tuple(exp["quadrature_orders"])
    trials = exp["empirical_trials"]
    recv0 = config.receiver_spec()
    distances = exp["distances"]
    sampled = set(distances[-exp["empirical_count"]:]) if trials > 0 else set()

    def one(case):
        d, (variant, rate_factor, volume_factor) = case
        recv = config.receiver_spec(distance=d, volume_factor=volume_factor)
        exposure = receiver_exposure(
            recv, steady_field(base_rate * rate_factor, params, height), orders=orders
        )
        signal = recv0.sampler_efficiency * recv0.binding_fraction * exposure
        row = [d, float(variant), pmd_conservative(signal, sigma), pmd_exact(signal, sigma)]
        if trials > 0:
            if d in sampled:
                est = empirical_pmd(
                    signal, sigma, trials,
                    np.random.SeedSequence(entropy=config.seed,
                                           spawn_key=(variant, distances.index(d))),
                )
                row += [est.estimate, est.lower, est.upper]
            else:
                row += [math.nan, math.nan, math.nan]
        return tuple(row)

    variants = ((0, 1.0, 1.0), (1, 0.5, 1.0), (2, 1.0, 0.5))
    columns = ["distance", "variant", "pmd_conservative", "pmd_exact"]
    units = ["cm", "0=base;1=half-rate;2=half-volume", "1", "1"]
    if trials > 0:
        columns += ["pmd_empirical", "pmd_ci_lower", "pmd_ci_upper"]
        units += ["1", "1", "1"]
    return ResultTable(columns=tuple(columns), units=tuple(units),
                       rows=[one((d, v)) for d in distances for v in variants],
                       metadata=_metadata(config))


_SWEEP_REFERENCES = {"conc_vs_distance": reference_concentration_vs_distance,
                     "pmd": reference_pmd_vs_distance}


def assert_same_text(config):
    """The runner and its per-case reference write the same CSV and JSON."""
    table = RUNNERS[config.experiment["kind"]](config)
    reference = _SWEEP_REFERENCES[config.experiment["kind"]](config)
    assert first_difference(table.to_csv_text(), reference.to_csv_text()) is None
    assert first_difference(table.to_json_text(), reference.to_json_text()) is None


@st.composite
def tiny_sweeps(draw):
    """conc-vs-dist and pmd scenarios of at most 4 distances, 3 wind speeds
    and quadrature orders up to 4, with a breath rate other than 1.  The
    wind, diffusivity and distances stay at the paper's scale, where no
    integrand value is subnormal, so halving the base exposure is exactly
    the half-rate integral."""
    kind = draw(st.sampled_from(sorted(_SWEEP_REFERENCES)))
    distances = draw(st.lists(st.floats(10.0, 3e4), min_size=1, max_size=4, unique=True))
    experiment = {"kind": kind, "distances": sorted(distances),
                  "quadrature_orders": draw(st.lists(st.integers(1, 4), min_size=4,
                                                     max_size=4))}
    if kind == "pmd":
        experiment["empirical_trials"] = draw(st.sampled_from([0, 10_000]))
        experiment["empirical_count"] = draw(st.integers(1, 6))
    else:
        winds = draw(st.lists(st.floats(70.0, 280.0), min_size=1, max_size=3, unique=True))
        experiment["wind_speeds"] = sorted(winds)
        experiment["mode"] = draw(st.sampled_from(["center", "collected"]))
    return parse_scenario({
        "channel": {"wind_speed": draw(st.floats(70.0, 280.0)),
                    "diffusivity": draw(st.floats(0.2, 0.3))},
        "sources": {"users": [{"breath_rate": draw(st.floats(0.1, 10.0).filter(
            lambda rate: rate != 1.0))}]},
        "experiment": experiment,
        "seed": draw(st.integers(0, 2**32 - 1)),
    })


class TestSweepsMatchPerCaseReference:
    @pytest.mark.parametrize("name, experiment", [
        ("concentration.json", {}),
        ("concentration.json", {"mode": "center"}),
        ("pmd.json", {}),  # with its Monte Carlo columns
    ])
    def test_shipped_scenarios(self, name, experiment):
        raw = json.loads((SCENARIOS / name).read_text())
        raw["experiment"].update(experiment)
        assert_same_text(parse_scenario(raw))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(config=tiny_sweeps())
    # more Monte Carlo distances than distances, at a rate other than 1
    @example(config=parse_scenario({
        "sources": {"users": [{"breath_rate": 0.37}]},
        "experiment": {"kind": "pmd", "distances": [40.0, 900.0],
                       "quadrature_orders": [4, 3, 4, 2], "empirical_trials": 10_000,
                       "empirical_count": 5},
        "seed": 11}))
    def test_tiny_sweeps(self, config):
        assert_same_text(config)


class TestConcentrationVsDistance:
    def test_center_mode_monotone_in_distance(self):
        config = parse_scenario({"experiment": {"kind": "conc_vs_distance"}})
        table = run_concentration_vs_distance(config)
        for u in (70.0, 140.0, 280.0):
            ratios = table.column("ratio")[table.column("wind_speed") == u]
            assert np.all(np.diff(ratios) < 0.0)

    def test_collected_mode_wind_ordering(self):
        config = parse_scenario(
            {"experiment": {"kind": "conc_vs_distance", "mode": "collected"}}
        )
        table = run_concentration_vs_distance(config)
        d = table.column("distance")
        u = table.column("wind_speed")
        r = table.column("ratio")
        for dist in np.unique(d):
            ordered = [float(r[(d == dist) & (u == w)][0]) for w in (70.0, 140.0, 280.0)]
            assert ordered[0] > ordered[1] > ordered[2]

    def test_ratio_invariant_under_rate_doubling(self):
        base = parse_scenario({"experiment": {"kind": "conc_vs_distance"}})
        doubled = parse_scenario(
            {
                "experiment": {"kind": "conc_vs_distance"},
                "sources": {"users": [{"breath_rate": 2.0}]},
            }
        )
        a = run_concentration_vs_distance(base)
        b = run_concentration_vs_distance(doubled)
        assert np.array_equal(a.rows, b.rows)


@pytest.fixture(scope="module")
def delay_table():
    config = parse_scenario({"experiment": {"kind": "delay"}})
    return run_delay_to_fraction(config)


def reference_delay(params, height, distance, fraction, rel_tol=1e-6):
    """First time the on-axis breath response reaches ``fraction`` of the
    steady plume, by bisection on its monotone rise: the runner's former
    method.  The returned upper end lies within ``rel_tol`` above the root."""
    point = (distance, 0.0, height)
    target = fraction * steady_state_concentration(1.0, point, params, height)

    def reached(t):
        return breath_response(1.0, 0.0, (*point, t), params, height) >= target

    lo = 0.0
    hi = distance / params.wind_speed
    while not reached(hi):
        lo, hi = hi, hi * 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestDelayToFraction:
    def test_monotone_in_distance(self, delay_table):
        for u in (70.0, 140.0, 280.0):
            delays = delay_table.column("delay")[delay_table.column("wind_speed") == u]
            assert np.all(np.diff(delays) > 0.0)

    def test_doubling_wind_halves_delay(self, delay_table):
        d = delay_table.column("distance")
        u = delay_table.column("wind_speed")
        t = delay_table.column("delay")
        for dist in np.unique(d):
            slow = t[(u == 70.0) & (d == dist)][0]
            fast = t[(u == 140.0) & (d == dist)][0]
            faster = t[(u == 280.0) & (d == dist)][0]
            assert fast / slow == pytest.approx(0.5, rel=0.1)
            assert faster / fast == pytest.approx(0.5, rel=0.1)

    # at 50 cm^2/s the erfc(d/r) term is not negligible near the source
    @pytest.mark.parametrize("fraction, diffusivity",
                             [(f, 0.242) for f in (0.001, 0.01, 0.5, 0.99)]
                             + [(f, 50.0) for f in (0.001, 0.01, 0.5)])
    def test_closed_form_within_bisection_tolerance(self, fraction, diffusivity):
        config = parse_scenario(
            {"channel": {"diffusivity": diffusivity},
             "experiment": {"kind": "delay", "fraction": fraction,
                            "wind_speeds": [70.0, 140.0, 280.0],
                            "distances": [1.5, 10.0, 50.0, 500.0, 5000.0]}}
        )
        table = run_delay_to_fraction(config)
        assert len(table.rows) == 15
        for u, d, delay in table.rows:
            reference = reference_delay(config.channel_params(wind_speed=u), HEIGHT, d,
                                        fraction)
            # the bisection stops within 1e-6 above the root, never below it
            assert -1e-12 <= (reference - delay) / delay <= 1e-6 + 1e-12

    def test_delay_matches_dense_scan(self):
        config = parse_scenario(
            {"experiment": {"kind": "delay", "distances": [100.0],
                            "wind_speeds": [140.0]}}
        )
        table = run_delay_to_fraction(config)
        delay = table.column("delay")[0]
        # brute-force time scan at fine resolution
        params = config.channel_params()
        steady = steady_state_concentration(1.0, (100.0, 0.0, HEIGHT), params, HEIGHT)
        step = 1e-4
        times = np.arange(0.0, 2.0, step)
        values = breath_response(1.0, 0.0, (100.0, 0.0, HEIGHT, times), params, HEIGHT)
        scan = times[np.argmax(values >= 0.01 * steady)]
        assert abs(delay - scan) <= step

    def test_unreachable_fraction_names_fraction(self):
        config = parse_scenario(
            {"experiment": {"kind": "delay", "fraction": 0.99, "distances": [1.5],
                            "wind_speeds": [140.0]},
             "channel": {"diffusivity": 1e3}}
        )
        with pytest.raises(ScenarioError) as excinfo:
            run_delay_to_fraction(config)
        assert excinfo.value.path == "experiment.fraction"

    def test_distance_below_x_min_raises(self):
        config = parse_scenario(
            {"experiment": {"kind": "delay", "distances": [0.5, 50.0]}}
        )
        with pytest.raises(EvaluationDomainError):
            run_delay_to_fraction(config)


@pytest.fixture(scope="module")
def pmd_table():
    config = parse_scenario(
        {"experiment": {"kind": "pmd", "empirical_trials": 100000}, "seed": 5}
    )
    return run_pmd_vs_distance(config)


class TestPmdVsDistance:
    def test_monotone_in_distance_for_every_variant(self, pmd_table):
        v = pmd_table.column("variant")
        for variant in (0.0, 1.0, 2.0):
            for col in ("pmd_exact", "pmd_conservative"):
                values = pmd_table.column(col)[v == variant]
                assert np.all(np.diff(values) > 0.0)

    def test_halving_rate_strictly_increases_pmd(self, pmd_table):
        v = pmd_table.column("variant")
        base = pmd_table.column("pmd_exact")[v == 0.0]
        half = pmd_table.column("pmd_exact")[v == 1.0]
        assert np.all(half > base)

    def test_empirical_matches_analytic_at_sampled_distances(self, pmd_table):
        emp = pmd_table.column("pmd_empirical")
        sampled = ~np.isnan(emp)
        assert sampled.sum() == 9  # 3 distances x 3 variants
        lo = pmd_table.column("pmd_ci_lower")[sampled]
        hi = pmd_table.column("pmd_ci_upper")[sampled]
        analytic = pmd_table.column("pmd_exact")[sampled]
        assert np.all((analytic >= lo) & (analytic <= hi))

    def test_conservative_never_below_exact(self, pmd_table):
        assert np.all(pmd_table.column("pmd_conservative") >= pmd_table.column("pmd_exact"))


@pytest.fixture(scope="module")
def field_table():
    config = parse_scenario(
        {
            "experiment": {
                "kind": "field",
                "x": {"start": 50.0, "stop": 200.0, "num": 4},
                "y": {"start": -6.0, "stop": 6.0, "num": 121},
                "z": {"start": HEIGHT - 6.0, "stop": HEIGHT + 6.0, "num": 121},
            }
        }
    )
    return run_field_grid(config)


class TestFieldGrid:
    def test_peak_sits_at_plume_center(self, field_table):
        x = field_table.column("x")
        for xv in np.unique(x):
            mask = x == xv
            idx = np.argmax(field_table.column("concentration")[mask])
            assert field_table.column("y")[mask][idx] == 0.0
            assert field_table.column("z")[mask][idx] == HEIGHT

    def test_concentrations_nonnegative_and_finite(self, field_table):
        c = field_table.column("concentration")
        assert np.all(c >= 0.0) and np.all(np.isfinite(c))

    def test_crosswind_second_moment_is_twice_scale(self, field_table, params):
        x = field_table.column("x")
        y = field_table.column("y")
        z = field_table.column("z")
        c = field_table.column("concentration")
        for xv in np.unique(x):
            line = (x == xv) & (z == HEIGHT)
            variance = float(np.sum(y[line] ** 2 * c[line]) / np.sum(c[line]))
            assert variance == pytest.approx(2.0 * diffusion_scale(xv, params),
                                             rel=1e-3)

    def test_slice_integrals_conserve_flux(self, field_table, params):
        x = field_table.column("x")
        y = field_table.column("y")
        z = field_table.column("z")
        c = field_table.column("concentration")
        ys = np.unique(y)
        zs = np.unique(z)
        for xv in np.unique(x):
            grid = c[x == xv].reshape(ys.size, zs.size)
            integral = np.trapezoid(np.trapezoid(grid, zs, axis=1), ys)
            assert integral == pytest.approx(1.0 / WIND, rel=1e-4)


class TestSmallRunners:
    def test_timeseries_rises_to_steady(self):
        config = parse_scenario(
            {"experiment": {"kind": "timeseries",
                            "times": {"start": 0.0, "stop": 10.0, "num": 51}}}
        )
        table = run_timeseries(config)
        values = table.column("concentration")
        assert values[0] == 0.0
        assert np.all(np.diff(values) >= 0.0)
        assert np.all(values >= 0.0) and np.all(np.isfinite(values))

    def test_timeseries_expected_column_with_stochastic_grid(self):
        raw = {
            "sources": {
                "users": [{"breath_rate": 1.0},
                          {"location": [-20.0, 1.0, HEIGHT], "breath_rate": 0.0}],
                "stochastic": {"interval": 1.0, "horizon": 3.0,
                               "probabilities": [[0.5, 0.2], [0.0, 1.0], [0.3, 0.0]],
                               "jet_masses": [100.0, 50.0]},
            },
            "experiment": {"kind": "timeseries",
                           "times": {"start": 0.0, "stop": 6.0, "num": 61}},
        }
        config = parse_scenario(raw)
        table = run_timeseries(config)
        assert table.columns == ("time", "concentration", "expected")
        assert table.units == ("s", "1/cm^3", "1/cm^3")
        center = config.receiver_spec().center
        direct = stochastic_expected_response(
            config.multi_user_scenario(), (*center, table.column("time")),
            config.channel_params())
        assert np.array_equal(table.column("expected"), direct)
        assert table.column("expected").max() > 0.0
        del raw["sources"]["stochastic"]
        plain = run_timeseries(parse_scenario(raw))
        assert plain.columns == ("time", "concentration")
        assert np.array_equal(plain.rows, table.rows[:, :2])

    def test_shipped_timeseries_bytes_unchanged(self):
        # digest of the CSV before the expected column existed, with the
        # config_hash of the schema without receiver.prior_infected; a
        # scenario without a stochastic grid keeps its two columns and its bytes
        table = run_timeseries(load_scenario(SCENARIOS / "timeseries.json"))
        text = table.to_csv_text()
        # the one row that moved with the package's erfc: libm's rule keeps
        # erfc's subnormal tail past x = 26.55, which scipy's flushed to 0
        moved = "\n5.55000000e-01,1.53071171e-317\n"
        assert text.count(moved) == 1
        before = text.replace(moved, "\n5.55000000e-01,0.00000000e+00\n")
        digest = hashlib.sha256(before.encode()).hexdigest()
        assert digest == "de7c25c5864b89f238e8b25b4cbca363fd9a6e728c5ebd6f171983dd0d98d7aa"

    def test_shipped_detection_bytes_unchanged(self):
        # digests of the published pmd and mc-pmd CSVs: README's commands on
        # scenarios/pmd.json, the latter with --seed 1
        pmd = run_pmd_vs_distance(load_scenario(SCENARIOS / "pmd.json")).to_csv_text()
        assert hashlib.sha256(pmd.encode()).hexdigest() == (
            "277abeb74aed2fcf98b267338275591144f63845c5402dbb0ad8fb90fbb787b4")
        raw = json.loads((SCENARIOS / "pmd.json").read_text())
        raw.update(experiment={"kind": "mc_pmd"}, seed=1)
        mc = run_mc_pmd(parse_scenario(raw)).to_csv_text()
        assert hashlib.sha256(mc.encode()).hexdigest() == (
            "c82e01a5bb899e17f779ccbf7cdaf439bc3fb2433444bfedde4eddf5b8f8ee27")

    def test_frequency_sweep_shape(self):
        config = parse_scenario({"experiment": {"kind": "freq"}})
        table = run_frequency_sweep(config)
        mags = table.column("magnitude")
        assert np.all(np.diff(mags) < 0.0)
        assert table.column("phase")[0] == 0.0

    def test_mc_pmd_matches_analytic(self):
        config = parse_scenario(
            {"experiment": {"kind": "mc_pmd", "trials": 50000}, "seed": 21}
        )
        table = run_mc_pmd(config)
        lo = table.column("ci_lower")
        hi = table.column("ci_upper")
        analytic = table.column("pmd_analytic")
        assert np.all((analytic >= lo) & (analytic <= hi))


def tiny_validate_config(seed, resolution=0.5):
    """validate-oracles without the transient march, at the minimum trials
    and samples."""
    return parse_scenario(
        {"experiment": {"kind": "validate_oracles", "steady_resolution": resolution,
                        "transient": False, "trials": 10_000, "mc_samples": 100_000},
         "seed": seed}
    )


class TestValidateOracles:
    def test_full_suite_passes(self):
        config = parse_scenario(
            {"experiment": {"kind": "validate_oracles", "steady_resolution": 0.3,
                            "transient": False}, "seed": 17}
        )
        table = run_validate_oracles(config)
        assert np.all(table.column("passed") == 1.0)

    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**63), resolution=st.floats(0.3, 0.5))
    def test_rows_follow_the_check_table(self, seed, resolution):
        # each report names its checks' values; the rows carry them unchanged
        reports = []

        def recording(report):
            def record(*args, **kwargs):
                reports.append(report(*args, **kwargs))
                return reports[-1]
            return record

        with pytest.MonkeyPatch.context() as mp:
            for name in ("steady_oracle_report", "spectrum_oracle_report"):
                mp.setattr(runners, name, recording(getattr(runners, name)))
            table = run_validate_oracles(tiny_validate_config(seed, resolution))
        names = list(ORACLE_CHECKS)
        assert table.column("check").tolist() == [
            float(i) for i, name in enumerate(names) if not name.startswith("transient_")]
        rows = {names[int(row[0])]: row for row in table.rows.tolist()}
        for report in reports:
            assert report.passed == all(ORACLE_CHECKS[name].passes(value)
                                        for name, value in report.checks.items())
            for name, value in report.checks.items():
                assert rows[name][1] == value
        assert {name for report in reports for name in report.checks} == {
            "steady_l2", "steady_crosswind", "steady_refinement_factor",
            "spectrum_magnitude", "spectrum_phase_slope", "spectrum_constant_variation"}
        for check, value, budget, passed in table.rows.tolist():
            entry = ORACLE_CHECKS[names[int(check)]]
            assert budget == entry.budget
            assert passed == float(entry.passes(value))

    def test_mc_row_fails_at_zero_standard_error_with_unequal_values(self, monkeypatch):
        monkeypatch.setattr(runners, "mc_receiver_exposure",
                            lambda recv, field, samples, seed: McExposureEstimate(
                                value=1.0, standard_error=0.0, samples=samples))
        table = run_validate_oracles(tiny_validate_config(5))
        mc_id = list(ORACLE_CHECKS).index("mc_exposure_sigmas")
        failed = table.rows[table.column("passed") == 0.0]
        assert failed[:, 0].tolist() == [mc_id]
        assert failed[0, 1] == math.inf
