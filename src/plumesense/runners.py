"""Experiment runners and tabular result persistence.

Every runner maps a validated :class:`~plumesense.scenario.ScenarioConfig` to
a :class:`ResultTable` without mutating the config; given the same config and
seed the output file is byte-identical across runs.  CSV files carry
``#``-prefixed metadata lines (tool version, config hash, seed), one
``name [unit]`` header row, and values in scientific notation with 9
significant digits.  The JSON format stores the same table as one structured
record at full float precision.

A closed form that fails on a channel or experiment quantity raises a
``DomainError`` naming it in ``field``; the runners pass it on, and the CLI
maps it onto its scenario path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import __version__
from .channel import (
    _check_downwind_band,
    _erfc,
    breath_response,
    diffusion_scale,
    frequency_response,
    multi_user_response,
    steady_state_concentration,
    steady_field,
    stochastic_expected_response,
)
from .errors import DomainError, GridError, ScenarioError
from .oracles import (
    ORACLE_CHECKS,
    TransientGrid,
    empirical_pmd,
    march_steady_plume,
    march_transient_jet,
    mc_receiver_exposure,
    sampled_transfer_function,
    spectrum_oracle_report,
    steady_oracle_report,
    step_convolution,
    transient_oracle_report,
)
from .receiver import pmd_conservative, pmd_exact, q_function, receiver_exposure
from .scenario import ScenarioConfig

__all__ = [
    "ResultTable",
    "write_results",
    "read_results",
    "run_concentration_vs_distance",
    "run_delay_to_fraction",
    "run_pmd_vs_distance",
    "run_field_grid",
    "run_timeseries",
    "run_frequency_sweep",
    "run_mc_pmd",
    "run_validate_oracles",
    "RUNNERS",
]

_FILE_METADATA_KEYS = ("version", "config_hash", "seed")

# rows formatted per C-level string operation; bounds the serialisers'
# transient token lists while keeping per-block overhead negligible
_FORMAT_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ResultTable:
    """Rectangular numeric table; every column carries a unit annotation.

    ``rows`` is any rectangular sequence of numbers on input and an
    ``(n_rows, n_columns)`` float64 array afterwards; a float64 array handed
    in is kept, not copied, so the table and its caller share it.  Tables
    compare by identity; compare ``rows`` with ``np.array_equal``.
    ``metadata`` holds strings; only version, config_hash and seed are
    persisted, so files are bit-stable for a fixed config and seed.
    """

    columns: Tuple[str, ...]
    units: Tuple[str, ...]
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.units = tuple(self.units)
        if len(self.columns) != len(self.units):
            raise DomainError("each column needs a unit annotation")
        try:
            rows = np.asarray(self.rows, dtype=float)
        except ValueError as exc:
            raise DomainError(f"table must be rectangular ({exc})") from exc
        if rows.ndim == 1 and rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise DomainError("table must be rectangular")
        self.rows = rows
        self.metadata = {str(k): str(v) for k, v in self.metadata.items()}

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise DomainError(f"no column named {name!r}") from None
        return self.rows[:, idx].copy()

    def _cell_blocks(self, tokens, tokenise_rest):
        """Which columns are deduplicated, and the row count and row-major
        cells of each block of rows.

        A column whose distinct bit patterns (so -0.0 and 0.0, and NaN
        payloads, stay apart) number at most half its rows is deduplicated:
        ``tokens`` (a list of floats to a list of strings, one C-level
        operation) formats each distinct value once, and each block gathers
        its cells through its inverse index, found by binary search in the
        sorted distinct patterns.  The other columns' cells are their
        floats, or ``tokens`` of them per block if ``tokenise_rest``.
        """
        n_rows, n_cols = self.rows.shape
        bits = self.rows.view(np.uint64)
        distinct = {}
        for j in range(n_cols):
            # np.sort, not np.unique: a quarter of the time on a
            # mostly-distinct column, and no whole-column inverse is kept
            ordered = np.sort(bits[:, j])
            first = np.ones(n_rows, dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            patterns = ordered[first]
            if 2 * patterns.size <= n_rows:
                distinct[j] = (
                    patterns,
                    np.array(tokens(patterns.view(np.float64).tolist()), dtype=object),
                )
        rest = [j for j in range(n_cols) if j not in distinct]

        def blocks():
            for start in range(0, n_rows, _FORMAT_BLOCK_ROWS):
                stop = min(start + _FORMAT_BLOCK_ROWS, n_rows)
                cells = np.empty((stop - start, n_cols), dtype=object)
                for j, (patterns, column_tokens) in distinct.items():
                    cells[:, j] = column_tokens[np.searchsorted(patterns, bits[start:stop, j])]
                if rest:
                    values = self.rows[start:stop, rest]
                    if tokenise_rest:
                        values = np.array(tokens(values.ravel().tolist()),
                                          dtype=object).reshape(values.shape)
                    cells[:, rest] = values
                yield stop - start, tuple(cells.ravel().tolist())

        return [j in distinct for j in range(n_cols)], blocks()

    def to_csv_text(self) -> str:
        lines = []
        for key in _FILE_METADATA_KEYS:
            if key in self.metadata:
                lines.append(f"# {key}: {self.metadata[key]}")
        lines.append(",".join(f"{c} [{u}]" for c, u in zip(self.columns, self.units)))
        # "%.8e" % v is the same text as f"{v:.8e}", nan, inf and -0.0 included
        deduplicated, blocks = self._cell_blocks(
            lambda values: (("%.8e\n" * len(values)) % tuple(values)).split("\n")[:-1],
            tokenise_rest=False)
        row_fmt = ",".join("%s" if d else "%.8e" for d in deduplicated) + "\n"
        # one join over header and blocks: the text is copied once
        return "".join(["\n".join(lines) + "\n"]
                       + [(row_fmt * n) % values for n, values in blocks])

    def to_json_text(self) -> str:
        """The text ``json.dumps(record, indent=1)`` gives, without its
        pure-Python encoder: the C encoder writes the numbers (``NaN`` and
        ``Infinity`` included) and they are spliced into the ``indent=1``
        row layout."""
        record = {
            "metadata": {k: self.metadata[k] for k in _FILE_METADATA_KEYS
                         if k in self.metadata},
            "columns": list(self.columns),
            "units": list(self.units),
            "rows": [],
        }
        head = json.dumps(record, indent=1)
        if not len(self.rows):
            return head + "\n"
        _, blocks = self._cell_blocks(lambda values: json.dumps(values)[1:-1].split(", "),
                                      tokenise_rest=True)
        cells = ",\n   ".join(["%s"] * len(self.columns))
        row_fmt = "  [\n   " + cells + "\n  ]" if self.columns else "  []"
        body = [",\n".join([row_fmt] * n) % values for n, values in blocks]
        # head ends with the empty rows list: '"rows": []\n}'; the ends go
        # into the first and last blocks, so the text is copied once
        body[0] = head[:-len("[]\n}")] + "[\n" + body[0]
        body[-1] += "\n ]\n}\n"
        return ",\n".join(body)


def write_results(table: ResultTable, path, fmt: str = "csv"):
    """Persist the table; bit-stable for identical config and seed."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown output format {fmt!r}")
    text = table.to_csv_text() if fmt == "csv" else table.to_json_text()
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    return path


def read_results(path) -> ResultTable:
    """Read back a persisted table (either format, sniffed from content)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        record = json.loads(text)
        return ResultTable(
            columns=tuple(record["columns"]),
            units=tuple(record["units"]),
            rows=record["rows"],
            metadata=record.get("metadata", {}),
        )
    metadata = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(tuple(float(v) for v in line.split(",")))
    if header is None:
        raise DomainError(f"no header row in {path}")
    columns, units = [], []
    for cell in header:
        name, _, unit = cell.partition(" [")
        columns.append(name)
        units.append(unit.rstrip("]"))
    return ResultTable(columns=tuple(columns), units=tuple(units), rows=rows,
                       metadata=metadata)


# ---------------------------------------------------------------------------
# shared runner helpers
# ---------------------------------------------------------------------------


def _metadata(config: ScenarioConfig) -> dict:
    return {
        "version": __version__,
        "config_hash": config.config_hash,
        "seed": "none" if config.seed is None else str(config.seed),
    }


def needs_seed(config: ScenarioConfig) -> bool:
    """Whether the experiment draws random numbers, so its output depends on
    the seed: Monte Carlo detection, the oracle suite, and pmd with
    empirical trials."""
    exp = config.experiment
    return exp["kind"] in ("mc_pmd", "validate_oracles") or exp.get("empirical_trials", 0) > 0


def _require_seed(config: ScenarioConfig) -> int:
    if config.seed is None:
        raise ScenarioError("seed", "stochastic experiments need a seed")
    return config.seed


def _primary_rate(config: ScenarioConfig) -> float:
    """Breath rate of the first emitting user (the paper's single-emitter
    experiments); falls back to 1.0 so ratios stay well defined."""
    for user in config.users():
        if user.breath_rate > 0.0:
            return user.breath_rate
    return 1.0


def _linspace(rng: dict) -> np.ndarray:
    return np.linspace(rng["start"], rng["stop"], rng["num"])


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def run_concentration_vs_distance(config: ScenarioConfig) -> ResultTable:
    """Steady received-concentration ratio versus downwind distance.

    Mode "center" reports the plume value at the receiver center per unit
    emission rate; mode "collected" reports the sphere-and-window integral
    over volume * window (the mean concentration) per unit rate, which is
    the quantity that actually drops when the wind speeds up (the on-axis
    point value is wind-invariant because the crosswind spread shrinks in
    exact proportion).
    """
    exp = config.experiment
    height = config.source_height
    rate = _primary_rate(config)
    orders = tuple(exp["quadrature_orders"])
    distances = np.asarray(exp["distances"])
    receivers = [config.receiver_spec(distance=d) for d in exp["distances"]]
    blocks = []
    for u in exp["wind_speeds"]:
        params = config.channel_params(wind_speed=u)
        if exp["mode"] == "center":
            value = steady_state_concentration(rate, (distances, 0.0, height), params, height)
        else:
            field = steady_field(rate, params, height)
            value = np.array([receiver_exposure(recv, field, 0.0, orders)
                              for recv in receivers])
            value /= receivers[0].volume * receivers[0].sampling_window
        blocks.append(np.column_stack([np.full(distances.shape, u), distances, value / rate]))
    return ResultTable(
        columns=("wind_speed", "distance", "ratio"),
        units=("cm/s", "cm", "1/cm^3 per unit/s"),
        rows=np.concatenate(blocks),
        metadata=_metadata(config),
    )


def run_delay_to_fraction(config: ScenarioConfig) -> ResultTable:
    """Propagation delay until the breath response on the source axis
    reaches ``experiment.fraction`` of its steady value, for each wind speed
    and distance.

    On the axis the breath response over the steady plume is the erfc front
    (erfc((d - u t)/r) - erfc(d/r))/2 with r = 2 sqrt(diffusion_scale(d)), so
    the delay is its exact inverse t = (d - r erfcinv(2f + erfc(d/r)))/u,
    with the package's own erfc (fdlibm's rule), and erfcinv(y) =
    -ndtri(y/2)/sqrt(2) per distance by the stdlib's AS 241 quantile
    ``NormalDist().inv_cdf``.  ``experiment.rel_tol`` is accepted but not used.
    """
    from statistics import NormalDist  # not at the top: it loads fractions and decimal, ~5 ms
    exp = config.experiment
    fraction = exp["fraction"]
    distances = np.asarray(exp["distances"])
    _check_downwind_band(distances, config.channel_params())
    blocks = []
    for u in exp["wind_speeds"]:
        root = 2.0 * np.sqrt(diffusion_scale(distances, config.channel_params(wind_speed=u)))
        front = 2.0 * fraction + _erfc(distances / root)
        # erfc stays below 2, so the rise never reaches the target there
        unreached = front >= 2.0
        if unreached.any():
            raise ScenarioError(
                "experiment.fraction",
                f"the breath response at {distances[unreached][0]} cm does not reach "
                f"{fraction} of its steady value",
            )
        with np.errstate(over="ignore"):
            erfcinv = np.array([-NormalDist().inv_cdf(p) for p in 0.5 * front]) / math.sqrt(2.0)
            delay = (distances - root * erfcinv) / u
        if not np.all(np.isfinite(delay)):
            raise ScenarioError("experiment.wind_speeds",
                                f"the delay at {u} cm/s overflows; the wind is too slow")
        blocks.append(np.column_stack([np.full(distances.shape, u), distances, delay]))
    return ResultTable(
        columns=("wind_speed", "distance", "delay"),
        units=("cm/s", "cm", "s"),
        rows=np.concatenate(blocks),
        metadata=_metadata(config),
    )


def run_pmd_vs_distance(config: ScenarioConfig) -> ResultTable:
    """Analytic missed-detection probability versus distance for the three
    variants (0 base, 1 half emission rate, 2 half receiver volume).

    The steady plume is linear in the rate, so the half-rate exposure is
    half the base one: halving is exact in binary floating point, and the
    product equals integrating the half-rate plume unless a value is
    subnormal.  The noise level is solved once from the calibration
    constant at the base rate, then shared by all variants.  Optional Monte
    Carlo columns validate the threshold-consistent probability at the
    largest distances (NaN elsewhere).
    """
    exp = config.experiment
    rate = _primary_rate(config)
    sigma = config.noise_sigma(rate)
    trials = exp["empirical_trials"]
    if trials > 0:
        seed = _require_seed(config)
    field = steady_field(rate, config.channel_params(), config.source_height)
    orders = tuple(exp["quadrature_orders"])

    distances = np.asarray(exp["distances"])
    n = distances.size
    # one row per (distance, variant), variants innermost
    exposure = np.empty((n, 3))
    for i, d in enumerate(exp["distances"]):
        exposure[i, 0] = receiver_exposure(config.receiver_spec(distance=d), field, 0.0, orders)
        exposure[i, 2] = receiver_exposure(config.receiver_spec(distance=d, volume_factor=0.5),
                                           field, 0.0, orders)
    exposure[:, 1] = 0.5 * exposure[:, 0]
    signal = config.receiver_spec().capture_gain * exposure.ravel()
    columns = [np.repeat(distances, 3), np.tile([0.0, 1.0, 2.0], n),
               pmd_conservative(signal, sigma), pmd_exact(signal, sigma)]
    names = ["distance", "variant", "pmd_conservative", "pmd_exact"]
    units = ["cm", "0=base;1=half-rate;2=half-volume", "1", "1"]
    if trials > 0:
        empirical = np.full((3 * n, 3), math.nan)
        for row in range(3 * max(n - exp["empirical_count"], 0), 3 * n):
            i, variant = divmod(row, 3)
            est = empirical_pmd(
                signal[row], sigma, trials,
                np.random.SeedSequence(entropy=seed, spawn_key=(variant, i)),
            )
            empirical[row] = (est.estimate, est.lower, est.upper)
        columns += list(empirical.T)
        names += ["pmd_empirical", "pmd_ci_lower", "pmd_ci_upper"]
        units += ["1", "1", "1"]
    return ResultTable(columns=tuple(names), units=tuple(units),
                       rows=np.column_stack(columns), metadata=_metadata(config))


def run_field_grid(config: ScenarioConfig) -> ResultTable:
    """Steady plume samples (x, y, z, concentration) for contour plotting,
    superposing every user's breath plume."""
    exp = config.experiment
    params = config.channel_params()
    users = [u for u in config.users() if u.breath_rate > 0.0]
    if not users:
        raise ScenarioError("sources.users", "field experiment needs a breathing user")
    xs = _linspace(exp["x"])
    ys = _linspace(exp["y"])
    zs = _linspace(exp["z"])
    x, y, z = xs[:, None, None], ys[None, :, None], zs[None, None, :]
    total = np.zeros((xs.size, ys.size, zs.size))
    for user in users:
        total += steady_state_concentration(user.breath_rate, (x - user.x, y - user.y, z),
                                            params, user.height)
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    return ResultTable(
        columns=("x", "y", "z", "concentration"),
        units=("cm", "cm", "cm", "1/cm^3"),
        rows=np.column_stack([X.ravel(), Y.ravel(), Z.ravel(), total.ravel()]),
        metadata=_metadata(config),
    )


def run_timeseries(config: ScenarioConfig) -> ResultTable:
    """Concentration versus time at a fixed observation point (receiver
    center unless the experiment names one).  With a stochastic release
    grid, an ``expected`` column adds the expected concentration of the
    grid's jets."""
    exp = config.experiment
    scenario = config.multi_user_scenario()
    params = config.channel_params()
    point = exp["point"] if exp["point"] is not None else list(config.receiver_spec().center)
    times = _linspace(exp["times"])
    where = (point[0], point[1], point[2], times)
    names, units = ["time", "concentration"], ["s", "1/cm^3"]
    columns = [times, np.asarray(multi_user_response(scenario, where, params))]
    if scenario.stochastic is not None:
        columns.append(np.asarray(stochastic_expected_response(scenario, where, params)))
        names.append("expected")
        units.append("1/cm^3")
    return ResultTable(
        columns=tuple(names),
        units=tuple(units),
        rows=np.column_stack(columns),
        metadata=_metadata(config),
    )


def run_frequency_sweep(config: ScenarioConfig) -> ResultTable:
    """Closed-form transfer function (magnitude, phase) between the first
    user's position and the receiver center."""
    exp = config.experiment
    params = config.channel_params()
    user = config.users()[0]
    center = config.receiver_spec().center
    point = (center[0] - user.x, center[1] - user.y, center[2])
    omegas = _linspace(exp["omega"])
    response = frequency_response(point, omegas, params, user.height, unwrap_phase=exp["unwrap"])
    return ResultTable(
        columns=("omega", "magnitude", "phase"),
        units=("rad/s", "s/cm^3", "rad"),
        rows=np.column_stack([omegas, response.magnitude, response.phase]),
        metadata=_metadata(config),
    )


def run_mc_pmd(config: ScenarioConfig) -> ResultTable:
    """Monte Carlo missed-detection estimates against the analytic value at
    configured detection arguments signal/(2*sigma), each run at the
    noiseless reading signal = 2 * sigma * argument."""
    exp = config.experiment
    seed = _require_seed(config)
    sigma = config.noise_sigma(_primary_rate(config))
    trials = exp["trials"]
    arguments = np.asarray(exp["snr_arguments"])
    with np.errstate(over="ignore"):
        signals = 2.0 * sigma * arguments
    empirical = np.empty((arguments.size, 3))
    for index, signal in enumerate(signals):
        if not np.isfinite(signal):
            raise ScenarioError(f"experiment.snr_arguments[{index}]",
                                f"the reading 2 sigma x argument overflows at sigma = {sigma}")
        est = empirical_pmd(signal, sigma, trials,
                            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        empirical[index] = (est.estimate, est.lower, est.upper)
    return ResultTable(
        columns=("argument", "pmd_analytic", "pmd_empirical", "ci_lower", "ci_upper",
                 "trials"),
        units=("1", "1", "1", "1", "1", "count"),
        rows=np.column_stack([arguments, q_function(arguments), empirical,
                              np.full(arguments.shape, float(trials))]),
        metadata=_metadata(config),
    )


# ---------------------------------------------------------------------------
# oracle validation runner
# ---------------------------------------------------------------------------


def run_validate_oracles(config: ScenarioConfig) -> ResultTable:
    """Run the full oracle suite at desk scale and report value-vs-budget per
    check.  Rows: (check id, value, budget, passed), the id and passed taken
    from :data:`~plumesense.oracles.ORACLE_CHECKS`.  A failed row means an
    oracle disagreed beyond budget."""
    params = config.channel_params()
    height = config.source_height
    exp = config.experiment
    seed = _require_seed(config)
    values = {}

    # steady-plume march against the closed form, plus refinement gain; no
    # name holds the marches, so their fields are freed before the jet march
    resolution = exp["steady_resolution"]
    try:
        values.update(steady_oracle_report(
            march_steady_plume(params, height, 50.0, 250.0, resolution / 2), params, height,
            coarse=march_steady_plume(params, height, 50.0, 250.0, resolution)).checks)
    except GridError as exc:
        raise ScenarioError("experiment.steady_resolution", str(exc)) from exc

    # transient jet march at a mid-field probe.  This box and the spectrum's
    # sampling below are fixed, sized for the shipped channel: a wind or a
    # diffusivity they cannot resolve is named at the channel
    if exp["transient"]:
        tgrid = TransientGrid(
            x_span=(4.0, 60.0), y_half=2.4, z_span=(height - 2.4, height + 2.4),
            step_x=0.08, step_y=0.08, step_z=0.08, t_start=0.10, t_end=0.35,
        )
        try:
            tres = march_transient_jet(params, height, tgrid, probes=[(30.0, 0.0, height)])
            values.update(transient_oracle_report(tres, params, height).checks)
        except GridError as exc:
            raise ScenarioError("channel", str(exc)) from exc

    # breath response against the numeric step convolution
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(20.0, 300.0)
        y = rng.uniform(-1.5, 1.5)
        z = height + rng.uniform(-1.5, 1.5)
        t = x / params.wind_speed * rng.uniform(0.9, 3.0) + rng.uniform(0.0, 5.0)
        reference = breath_response(1.0, 0.0, (x, y, z, t), params, height)
        if reference <= 0.0:
            continue
        worst = max(worst, abs(step_convolution((x, y, z, t), params, height) - reference)
                    / reference)
    values["convolution"] = worst

    # frequency-domain shape against the DFT of the sampled pulse
    try:
        spectrum = sampled_transfer_function(
            (100.0, 0.0, height), params, height, sample_interval=5e-4, n_samples=4096
        )
    except GridError as exc:
        raise ScenarioError("channel", str(exc)) from exc
    values.update(spectrum_oracle_report(spectrum, params, height).checks)

    # detection statistics against the closed form
    sigma = config.noise_sigma(_primary_rate(config))
    hits = 0
    for i, argument in enumerate((0.5, 1.0, 2.0)):
        est = empirical_pmd(
            2.0 * sigma * argument, sigma, exp["trials"],
            np.random.SeedSequence(entropy=seed, spawn_key=(100 + i,)),
        )
        hits += est.contains(q_function(argument))
    values["pmd_within_ci"] = hits

    # receiver integral: Monte Carlo against Gauss-Legendre
    recv = config.receiver_spec()
    fld = steady_field(_primary_rate(config), params, height)
    mc = mc_receiver_exposure(recv, fld, exp["mc_samples"], seed + 1)
    values["mc_exposure_sigmas"] = mc.distance_sigmas(receiver_exposure(recv, fld))

    return ResultTable(
        columns=("check", "value", "budget", "passed"),
        units=("id", "1", "1", "bool"),
        rows=[(float(i), float(values[name]), check.budget, float(check.passes(values[name])))
              for i, (name, check) in enumerate(ORACLE_CHECKS.items()) if name in values],
        metadata=_metadata(config),
    )


RUNNERS = {
    "field": run_field_grid,
    "timeseries": run_timeseries,
    "freq": run_frequency_sweep,
    "delay": run_delay_to_fraction,
    "conc_vs_distance": run_concentration_vs_distance,
    "pmd": run_pmd_vs_distance,
    "mc_pmd": run_mc_pmd,
    "validate_oracles": run_validate_oracles,
}
