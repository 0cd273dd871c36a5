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
# what follows a JSON row's last cell: the row's close and the next's open
_JSON_ROW_END = "\n  ],\n  [\n   "


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
        if not self.columns:
            raise DomainError("table needs at least one column")
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

    def _token_blocks(self, cell, sep, row_end):
        """Each block of rows as its end row and a list of tokens: texts
        that end in their last cell's separator (``sep``, or ``row_end``
        after the last column), so the block's text is their join.

        ``cell`` is a %-format that writes one float.  A column whose
        distinct bit patterns (so -0.0 and 0.0, and NaN payloads, stay
        apart) number at most three fifths of its rows is gathered: one
        C-level operation formats each distinct value once, with its
        separator, and each block takes its tokens through the inverse index
        from one argsort.  Three fifths takes in a field mirrored about the
        source plane, just over half distinct.  One operation per block
        formats the other columns' cells in row order.  Each run of such
        columns is one token per row, and the whole block is one token when
        no column is gathered.
        """
        n_rows, n_cols = self.rows.shape
        seps = [sep] * (n_cols - 1) + [row_end]
        bits = self.rows.view(np.uint64)
        gathered = {}
        for j in range(n_cols):
            # np.sort counts the distinct patterns in a third of argsort's
            # time; only a gathered column pays for the argsort
            ordered = np.sort(bits[:, j])
            first = np.ones(n_rows, dtype=bool)
            first[1:] = ordered[1:] != ordered[:-1]
            n_distinct = np.count_nonzero(first)
            if 5 * n_distinct <= 3 * n_rows:
                text = ((cell + seps[j] + "\0") * n_distinct) % tuple(
                    ordered[first].view(np.float64).tolist())
                # kept for every block, so in the narrowest type that
                # indexes the distinct values
                inverse = np.empty(n_rows, dtype=np.min_scalar_type(n_distinct))
                inverse[np.argsort(bits[:, j])] = np.cumsum(first, dtype=inverse.dtype) - 1
                gathered[j] = (inverse, np.array(text.split("\0")[:-1], dtype=object))
        formatted = [j for j in range(n_cols) if j not in gathered]
        # a "\0" ends a run of formatted columns before a gathered token
        run_ends = [j for j in formatted if gathered and j + 1 not in formatted]
        row_format = "".join(cell + seps[j] + "\0" * (j in run_ends) for j in formatted)
        # a row's tokens in order: a gathered column's, or (None) the next run's
        slots = [gathered.get(j) for j in range(n_cols)
                 if j in gathered or j - 1 not in formatted]

        for start in range(0, n_rows, _FORMAT_BLOCK_ROWS):
            stop = min(start + _FORMAT_BLOCK_ROWS, n_rows)
            text = (row_format * (stop - start)) % tuple(
                self.rows[start:stop, formatted].ravel().tolist())
            if not gathered:
                yield stop, [text]
                continue
            runs = text.split("\0")
            runs.pop()  # the empty text after the last "\0"
            tokens = [None] * ((stop - start) * len(slots))
            run = 0
            for position, slot in enumerate(slots):
                if slot is None:
                    tokens[position::len(slots)] = runs[run::len(run_ends)]
                    run += 1
                else:
                    inverse, column_tokens = slot
                    tokens[position::len(slots)] = column_tokens[inverse[start:stop]].tolist()
            yield stop, tokens

    def to_csv_text(self) -> str:
        lines = []
        for key in _FILE_METADATA_KEYS:
            if key in self.metadata:
                lines.append(f"# {key}: {self.metadata[key]}")
        lines.append(",".join(f"{c} [{u}]" for c, u in zip(self.columns, self.units)))
        # "%.8e" % v is the same text as f"{v:.8e}", nan, inf and -0.0 included
        return "".join(["\n".join(lines) + "\n"]
                       + ["".join(tokens) for _, tokens in self._token_blocks("%.8e", ",", "\n")])

    def to_json_text(self) -> str:
        """The text ``json.dumps(record, indent=1)`` gives, without its
        pure-Python encoder: ``%r`` writes each finite number as the C
        encoder does, and the numbers are joined in the ``indent=1`` row
        layout."""
        record = {
            "metadata": {k: self.metadata[k] for k in _FILE_METADATA_KEYS
                         if k in self.metadata},
            "columns": list(self.columns),
            "units": list(self.units),
            "rows": [],
        }
        head = json.dumps(record, indent=1)
        n_rows = len(self.rows)
        if not n_rows:
            return head + "\n"
        # "%r" names a non-finite float nan, inf or -inf, and JSON NaN,
        # Infinity or -Infinity; no other cell text holds a letter but "e"
        rename = not np.isfinite(self.rows).all()
        # head ends with the empty rows list: '"rows": []\n}'
        texts = [head[:-len("[]\n}")] + "[\n  [\n   "]
        for stop, tokens in self._token_blocks("%r", ",\n   ", _JSON_ROW_END):
            if stop == n_rows:
                tokens[-1] = tokens[-1][:-len(_JSON_ROW_END)] + "\n  ]\n ]\n}\n"
            text = "".join(tokens)
            texts.append(text.replace("nan", "NaN").replace("inf", "Infinity") if rename
                         else text)
        return "".join(texts)


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


def _linspace(rng: dict) -> np.ndarray:
    return np.linspace(rng["start"], rng["stop"], rng["num"])


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def run_concentration_vs_distance(config: ScenarioConfig) -> ResultTable:
    """Steady received-concentration ratio versus downwind distance, per
    unit emission rate: the plume is evaluated at rate 1, so ``sources`` is
    not read.

    Mode "center" reports the plume value at the receiver center; mode
    "collected" reports the sphere-and-window integral over volume * window
    (the mean concentration), which is the quantity that actually drops when
    the wind speeds up (the on-axis point value is wind-invariant because
    the crosswind spread shrinks in exact proportion).
    """
    exp = config.experiment
    height = config.source_height
    orders = tuple(exp["quadrature_orders"])
    distances = np.asarray(exp["distances"])
    receivers = [config.receiver_spec(distance=d) for d in exp["distances"]]
    blocks = []
    for u in exp["wind_speeds"]:
        params = config.channel_params(wind_speed=u)
        if exp["mode"] == "center":
            value = steady_state_concentration(1.0, (distances, 0.0, height), params, height)
        else:
            field = steady_field(1.0, params, height)
            value = np.array([receiver_exposure(recv, field, 0.0, orders)
                              for recv in receivers])
            value /= receivers[0].volume * receivers[0].sampling_window
        blocks.append(np.column_stack([np.full(distances.shape, u), distances, value]))
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
    with libm's erfc (``math.erfc``), and erfcinv(y) =
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
    subnormal.  The plume is evaluated at
    :attr:`~plumesense.scenario.ScenarioConfig.reference_rate`, the first
    breathing user's rate (a scenario in which no user breathes is
    rejected there, as in :func:`run_field_grid`), and the noise level,
    solved once from the calibration constant at that rate, is shared by
    all variants.  Optional Monte Carlo columns validate the
    threshold-consistent probability at the largest distances (NaN
    elsewhere).
    """
    rate = config.reference_rate
    exp = config.experiment
    sigma = config.noise_sigma
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
    configured detection arguments signal/(2*sigma).  The miss count depends
    on the reading only through that argument, so each runs at sigma = 1/2,
    where the noiseless reading is the argument itself; ``channel``,
    ``receiver``, ``noise`` and ``sources`` are not read."""
    exp = config.experiment
    seed = _require_seed(config)
    trials = exp["trials"]
    arguments = np.asarray(exp["snr_arguments"])
    empirical = np.empty((arguments.size, 3))
    for index, argument in enumerate(arguments):
        est = empirical_pmd(argument, 0.5, trials,
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

    # the oracles take their grids from the channel, and a channel they
    # cannot resolve is named there.  The steady march against the closed
    # form, plus refinement gain: steps of half and a quarter of the plume's
    # spread sqrt(2 s) at 50 cm.  No name holds the marches, so their fields
    # are freed before the jet oracle
    u = params.wind_speed
    spread = math.sqrt(2.0 * diffusion_scale(50.0, params))
    try:
        values.update(steady_oracle_report(
            march_steady_plume(params, height, 50.0, 250.0, spread / 4), params, height,
            coarse=march_steady_plume(params, height, 50.0, 250.0, spread / 2)).checks)
        # the jet oracle at a mid-field probe, while the pulse centre travels
        # from 14 to 49 cm
        tres = march_transient_jet(params, height, TransientGrid(14.0 / u, 49.0 / u),
                                   probes=[(30.0, 0.0, height)])
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
        spectrum = sampled_transfer_function((100.0, 0.0, height), params, height)
    except GridError as exc:
        raise ScenarioError("channel", str(exc)) from exc
    values.update(spectrum_oracle_report(spectrum, params, height).checks)

    # detection statistics against the closed form, at sigma = 1/2, where
    # the noiseless reading is the argument signal/(2 sigma) itself
    hits = 0
    for i, argument in enumerate((0.5, 1.0, 2.0)):
        est = empirical_pmd(
            argument, 0.5, exp["trials"],
            np.random.SeedSequence(entropy=seed, spawn_key=(100 + i,)),
        )
        hits += est.contains(q_function(argument))
    values["pmd_within_ci"] = hits

    # receiver integral: Monte Carlo against Gauss-Legendre, per unit rate
    recv = config.receiver_spec()
    fld = steady_field(1.0, params, height)
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
