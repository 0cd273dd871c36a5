"""Command-line front end: one subcommand per experiment or oracle family.

Usage::

    plumesense <subcommand> --scenario s.json [--out table.csv]
               [--set dotted.path=value ...] [--seed N] [--format csv|json]

Subcommands: ``field``, ``timeseries``, ``freq``, ``delay``, ``conc-vs-dist``,
``pmd``, ``mc-pmd``, ``validate-oracles``, ``schema``.

Exit codes: 0 success; 2 usage or configuration error; 3 numeric failure
(quadrature breakdown or an oracle budget exceeded); 4 I/O error.

If ``--scenario`` names a file that does not exist, the directory in the
``PLUMESENSE_SCENARIO_DIR`` environment variable is tried next.  ``--seed``
overrides the scenario's seed.  When neither is given, a run that consumes
randomness (``mc-pmd``, ``validate-oracles``, and ``pmd`` with empirical
trials) draws a random seed and logs it, so the run stays reproducible after
the fact; every other run records ``seed: none`` and writes the same bytes
each time.  ``--out -`` (or no ``--out``) writes to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, PlumesenseError, QuadratureError, ScenarioError
from .oracles import ORACLE_CHECKS
from .runners import RUNNERS, needs_seed, write_results
from .scenario import parse_scenario, scenario_schema

logger = logging.getLogger("plumesense")

_SUBCOMMAND_KINDS = {
    "field": "field",
    "timeseries": "timeseries",
    "freq": "freq",
    "delay": "delay",
    "conc-vs-dist": "conc_vs_distance",
    "pmd": "pmd",
    "mc-pmd": "mc_pmd",
    "validate-oracles": "validate_oracles",
}

# the scenario path of the quantity a closed form blames in a run (its
# DomainError.field); x_min is the near-source band's
_FIELD_PATHS = {"x_min": "channel.x_min", "wind_speed": "channel.wind_speed",
                "diffusivity": "channel.diffusivity", "omega": "experiment.omega"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumesense",
        description="Aerosol plume channel experiments and oracle validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMAND_KINDS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output file (stdout if omitted or -)")
        p.add_argument(
            "--set", action="append", default=[], metavar="PATH=VALUE", dest="overrides",
            help="override a scenario field, e.g. --set channel.wind_speed=70",
        )
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: scenario output.format)")
        p.add_argument("-v", "--verbose", action="count", default=0)
    schema = sub.add_parser("schema", help="print the scenario file schema")
    schema.add_argument("--out", default=None,
                        help="write the schema here instead (- for stdout)")
    schema.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def _configure_logging(verbosity: int):
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _resolve_scenario_path(raw_path: str) -> Path:
    path = Path(raw_path)
    if path.exists():
        return path
    env_dir = os.environ.get("PLUMESENSE_SCENARIO_DIR")
    if env_dir:
        candidate = Path(env_dir) / raw_path
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"scenario file not found: {raw_path}")


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _is_index(part: str) -> bool:
    try:
        int(part)
    except ValueError:
        return False
    return True


def _apply_override(raw: dict, spec: str):
    """Apply one ``dotted.path=value`` assignment onto the raw scenario dict.

    Intermediate objects are created as needed; list indices are written as
    numeric path parts (``sources.users.0.breath_rate``) and must name an
    existing entry, because an override cannot create list entries.  Whether
    the final field is legal is decided by schema validation afterwards.
    """
    path, sep, value_text = spec.partition("=")
    if not sep:
        raise ScenarioError(path, "override must look like dotted.path=value")
    value = _parse_override_value(value_text)
    parts = path.split(".")
    node = raw
    for depth, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            try:
                nxt = node[int(part)]
            except (ValueError, IndexError):
                raise ScenarioError(path, f"bad list index {part!r}") from None
            if not isinstance(nxt, (dict, list)):
                raise ScenarioError(path, f"list entry {part} is not an object or a list")
        else:
            nxt = node.get(part)
            if not isinstance(nxt, (dict, list)):
                if _is_index(parts[depth + 1]):
                    raise ScenarioError(
                        path, f"{'.'.join(parts[:depth + 1])} is not a list in the scenario; "
                        "an override cannot create list entries")
                node[part] = nxt = {}
        node = nxt
    last = parts[-1]
    if isinstance(node, list):
        try:
            node[int(last)] = value
        except (ValueError, IndexError):
            raise ScenarioError(path, f"bad list index {last!r}") from None
    else:
        node[last] = value


def _draw_seed() -> int:
    return int(np.random.SeedSequence().entropy % (2**32))


def _writes_file(out) -> bool:
    """``--out`` names a file unless it is omitted or ``-`` (stdout)."""
    return out not in (None, "", "-")


def _run_experiment(args) -> int:
    kind = _SUBCOMMAND_KINDS[args.command]
    path = _resolve_scenario_path(args.scenario)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(str(path), "scenario must be a JSON object")

    for spec in args.overrides:
        _apply_override(raw, spec)

    experiment = raw.setdefault("experiment", {})
    if not isinstance(experiment, dict):
        raise ScenarioError("experiment", "must be an object")
    configured = experiment.get("kind")
    if configured is None:
        experiment["kind"] = kind
    elif configured != kind:
        raise ScenarioError(
            "experiment.kind",
            f"scenario is configured for {configured!r} but the subcommand runs {kind!r}",
        )

    if args.seed is not None:
        raw["seed"] = args.seed
    config = parse_scenario(raw)
    if config.seed is None and needs_seed(config):
        raw["seed"] = _draw_seed()
        logger.info("no seed given; drew %d", raw["seed"])
        config = parse_scenario(raw)
    logger.info("running %s (config %s, seed %s)", kind, config.config_hash, config.seed)
    try:
        table = RUNNERS[kind](config)
    except DomainError as exc:
        if exc.field not in _FIELD_PATHS:
            raise
        raise ScenarioError(_FIELD_PATHS[exc.field], str(exc)) from exc

    fmt = args.format or config.output_format
    if _writes_file(args.out):
        write_results(table, args.out, fmt)
        destination = args.out
    else:
        sys.stdout.write(table.to_csv_text() if fmt == "csv" else table.to_json_text())
        destination = "stdout"
    print(
        f"{args.command}: {len(table.rows)} rows -> {destination} "
        f"(config {config.config_hash}, seed {config.seed})",
        file=sys.stderr,
    )

    if kind == "validate_oracles":
        failed = [row for row in table.rows if row[3] == 0.0]
        for check, value, budget, _ in failed:
            print(f"oracle budget exceeded: {list(ORACLE_CHECKS)[int(check)]} value={value:.4g} "
                  f"budget={budget:.4g}", file=sys.stderr)
        if failed:
            return EXIT_NUMERIC
    return EXIT_OK


def dispatch(argv=None) -> int:
    """Parse arguments, run the selected subcommand, map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    _configure_logging(getattr(args, "verbose", 0))

    try:
        if args.command == "schema":
            text = json.dumps(scenario_schema(), indent=2) + "\n"
            if _writes_file(args.out):
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        return _run_experiment(args)
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, PlumesenseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
