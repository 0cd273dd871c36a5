"""The three workloads: their inputs, set-up and operations.

- cli-figures: every figure subcommand as a fresh ``plumesense`` process on
  the shipped scenarios, as a user regenerating the paper's tables runs it.
- oracle-validation: ``validate-oracles`` as a fresh process on the shipped
  scenarios/validate.json.
- lib-research: library calls in one process at research scale, with the
  import in set-up.

The first two run the shipped files unchanged.  Their Monte Carlo parts use
the files' own seeds: drawn from ``--seed`` instead, the 3-sigma interval
checks would fail on a few percent of seeds, which a benchmark cannot count
exactly.  There ``--seed`` orders the subcommands within each pass and seeds
the benchmark's own Monte Carlo spot checks.  lib-research draws every input
from ``--seed``, except the cough-jet sweep, whose failure is a named fault
and is kept on fixed inputs.

This module imports only the standard library at load time, so set-up time
includes the program's own imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

PROGRAM = ["-c", "from plumesense.cli import main; main()"]
SETUP_REPEATS = 3
# machine_probe()'s median over 40 calls on a shared 2-core VM (CPython
# 3.11); end-to-end times are reported at the speed at which the probe takes
# this long
PROBE_REFERENCE_S = 0.05

# values README states, used where a shipped scenario leaves a field out
README_DEFAULTS = {
    "wind_speed": 140.0, "diffusivity": 0.242, "source_height": 180.0,
    "radius": 2.0, "sampling_window": 3.0, "sampler_efficiency": 0.85,
    "binding_fraction": 0.5, "snr_calibration": 1.96e4, "receiver_distance": 100.0,
}
# resolved by the program when the shipped pmd.json and the README mc-pmd
# command leave them out (docs/scenario-schema.json gives no value)
PMD_DEFAULT_DISTANCES = [2500.0 * (i + 1) for i in range(12)]
MC_PMD_DEFAULT_ARGUMENTS = [0.5, 1.0, 1.5, 2.0, 2.5]
MC_PMD_DEFAULT_TRIALS = 1_000_000


def machine_probe():
    """Seconds for a fixed mix of interpreted Python and 96 MB of memory
    copies: the speed of the machine at this moment.

    On a shared 2-core VM the speed drifted by up to 1.8x within a minute.
    Over 35 alternating calls, the loop part tracked a CLI call best and the
    copies tracked validate-oracles best
    (validate-oracles' spread fell from 12 % to 6 % when divided by the
    copies); float formatting tracked neither and is left out.  Standard
    library only, so it can run before the program's import is timed."""
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    block = bytearray(8 << 20)
    for _ in range(6):
        block = bytearray(bytes(block))
    return time.perf_counter() - start


def timed_setup(setup):
    """(seconds, probe seconds around it) of one set-up."""
    before = machine_probe()
    start = time.perf_counter()
    setup()
    elapsed = time.perf_counter() - start
    return elapsed, 0.5 * (before + machine_probe())


def digest(data):
    return hashlib.sha256(data).hexdigest()


def data_lines(text):
    """A table without its metadata lines, for run-to-run comparison."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def deferred_check(name):
    """A check from checks.py, imported on first use: checks imports numpy,
    which must not be loaded before the program's own import is measured."""
    def check(text, params):
        import checks
        return getattr(checks, name)(text, params)
    check.__name__ = name
    return check


def run_process(argv, env, cwd, stderr_path):
    """Run one process to completion; return (exit code, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Context:
    """Paths, environment and (when traced) the in-process program."""

    def __init__(self, root, work, seed, traced):
        self.root = root
        self.work = work
        self.seed = seed
        self.traced = traced
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.modules = None

    def fresh(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.out.mkdir(parents=True)

    def import_program(self):
        """Import plumesense in this process (lib-research and traced runs)."""
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        import plumesense.channel
        import plumesense.cli
        import plumesense.receiver
        import plumesense.runners
        import plumesense.scenario
        self.modules = sys.modules["plumesense"]
        if self.tracer is not None:
            import tracing
            tracing.install(self.tracer)

    def warm_import_process(self):
        code, _ = run_process([sys.executable, "-c", "import plumesense.cli"], self.env,
                              self.work, self.work / "warmup.err")
        if code != 0:
            raise RuntimeError("plumesense.cli does not import")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Attempt:
    __slots__ = ("exit_code", "rss_kb", "error", "digest", "data_digest", "value")

    def __init__(self):
        self.exit_code = 0
        self.rss_kb = None
        self.error = None
        self.digest = None
        self.data_digest = None
        self.value = None


class FileOp:
    """An operation whose output is a table file.

    The first attempt's file is kept and checked against the references; a
    later attempt must carry the same data rows (it is digested and removed).
    With ``byte_reference`` every attempt must also equal, byte for byte, the
    output of the same subcommand in set-up (the first of its run)."""

    def __init__(self, name, metric, ext, check, params, byte_reference=False):
        self.name = name
        self.metric = metric
        self.ext = ext
        self.check = check
        self.params = params
        self.byte_reference = byte_reference
        self.reference_digest = None
        self.attempts = []

    def path(self, ctx, attempt):
        return ctx.out / f"{self.name}-{attempt}.{self.ext}"

    def observe(self, ctx, index, attempt):
        path = self.path(ctx, index)
        if path.exists():
            data = path.read_bytes()
            attempt.digest = digest(data)
            attempt.data_digest = digest(data_lines(data.decode()).encode())
            if index != 0:
                path.unlink()
        self.attempts.append(attempt)

    def remember_reference(self, ctx):
        path = self.path(ctx, "ref")
        self.reference_digest = digest(path.read_bytes()) if path.exists() else None

    def verify(self, ctx):
        from checks import FAULT, WRONG
        out = []
        first = self.attempts[0]
        for index, attempt in enumerate(self.attempts):
            problems = []
            if attempt.error:
                problems.append((FAULT, f"raised {attempt.error}"))
            if attempt.exit_code != 0:
                problems.append((FAULT, f"exit code {attempt.exit_code}"))
            if attempt.digest is None:
                problems.append((FAULT, "wrote no output"))
                out.append(problems)
                continue
            if self.byte_reference and attempt.digest != self.reference_digest:
                problems.append((FAULT, "output bytes differ from the first run of this "
                                        "subcommand (a seedless run draws a seed that "
                                        "enters config_hash)"))
            if index == 0:
                text = self.path(ctx, 0).read_text()
                problems += self.check(text, self.params)
            elif attempt.data_digest != first.data_digest:
                problems.append((WRONG, "data rows differ from the first pass"))
            out.append(problems)
        return out


class CliOp(FileOp):
    """One subcommand as a fresh process (or, traced, through dispatch)."""

    def __init__(self, name, metric, argv, check, params, byte_reference):
        super().__init__(name, metric, "csv", check, params, byte_reference)
        self.argv = argv

    def execute(self, ctx, index):
        attempt = Attempt()
        argv = self.argv + ["--out", str(self.path(ctx, index))]
        if ctx.traced:
            attempt.exit_code = ctx.modules.cli.dispatch(argv)
        else:
            attempt.exit_code, attempt.rss_kb = run_process(
                [sys.executable] + PROGRAM + argv, ctx.env, ctx.work,
                ctx.work / f"{self.name}.err")
        return attempt


class TableOp(FileOp):
    """Scenario parse, runner and write_results in this process."""

    def __init__(self, name, metric, raw, fmt, check, params):
        super().__init__(name, metric, fmt, check, params)
        self.raw = raw

    def warm(self, ctx):
        """Run the code path once on a tiny copy of the inputs."""
        TableOp(self.name, self.metric, _shrunk(self.raw), self.ext, None, None).execute(
            ctx, "warm")

    def execute(self, ctx, index):
        ps = ctx.modules
        config = ps.scenario.parse_scenario(self.raw)
        table = ps.runners.RUNNERS[self.raw["experiment"]["kind"]](config)
        ps.runners.write_results(table, self.path(ctx, index), self.ext)
        return Attempt()


class ExposureOp:
    """receiver_exposure over a distance sweep of one field, in this process."""

    def __init__(self, name, metric, params, orders, fault_kind=False):
        self.name = name
        self.metric = metric
        self.params = params
        self.orders = orders
        self.fault_kind = fault_kind
        self.attempts = []
        self.field = None
        self.receivers = None

    def prepare(self, ctx):
        ps, p = ctx.modules, self.params
        channel = ps.channel
        h = p["h"]
        if p["field"] == "vark":
            k0, length = p["k"], p["length"]
            profile = channel.DiffusivityProfile.from_function(lambda x: k0 * (1.0 + x / length))
            params = channel.ChannelParams(p["u"], profile, 1.0)
            self.field = channel.steady_field(p["rate"], params, h)
        else:
            params = channel.ChannelParams.with_constant(p["u"], p["k"])
            if p["field"] == "breath":
                rate = p["rate"]
                self.field = lambda x, y, z, t: channel.breath_response(
                    rate, 0.0, (x, y, z, t), params, h)
            else:
                mass, release = p["mass"], p["release"]
                self.field = lambda x, y, z, t: channel.jet_concentration(
                    mass, release, (x, y, z, t), params, h)
        self.receivers = [
            ps.receiver.ReceiverSpec(center=(d, 0.0, h), radius=p["radius"],
                                     sampling_window=p["window"], sampler_efficiency=0.85,
                                     binding_fraction=0.5)
            for d in p["distances"]]

    def warm(self, ctx):
        """Build the field and receivers, then one exposure at tiny orders."""
        self.prepare(ctx)
        ctx.modules.receiver.receiver_exposure(self.receivers[0], self.field,
                                               self.params["t_starts"][0], (2, 2, 2, 2))

    def execute(self, ctx, index):
        exposure = ctx.modules.receiver.receiver_exposure
        attempt = Attempt()
        attempt.value = [exposure(recv, self.field, t0, self.orders)
                         for recv, t0 in zip(self.receivers, self.params["t_starts"])]
        return attempt

    def observe(self, ctx, index, attempt):
        self.attempts.append(attempt)

    def verify(self, ctx):
        import checks
        kind = checks.FAULT if self.fault_kind else checks.WRONG
        reference = checks.exposure_reference(self.params)
        out = []
        for index, attempt in enumerate(self.attempts):
            if attempt.error:
                out.append([(checks.FAULT, f"raised {attempt.error}")])
                continue
            problems = checks.check_exposures(attempt.value, reference, self.params, kind)
            if index == 0:
                problems += checks.check_exposures_mc(attempt.value, self.params,
                                                      ctx.seed + 17, kind)
            out.append(problems)
        return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops = []

    def setup(self):
        """One complete set-up; returns nothing.  Repeated SETUP_REPEATS times."""
        raise NotImplementedError

    def repeat_setup(self):
        """A set-up whose time counts towards setup_s but whose state is
        discarded; returns (seconds, probe seconds around it)."""
        return timed_setup(self.setup)


def _scenario(ctx, name):
    return json.loads((ctx.inputs / name).read_text())


def _get(raw, section, key):
    return raw.get(section, {}).get(key, README_DEFAULTS[key])


def _range(spec):
    return (spec["start"], spec["stop"], spec["num"])


def cli_descriptions(ctx):
    """(name, argv, check name, check params) of each figure subcommand,
    read from the shipped scenarios with README's defaults filled in."""
    def args(sub, name, *extra):
        return [sub, "--scenario", str(ctx.inputs / name), *extra]

    out = []
    raw = _scenario(ctx, "field.json")
    exp = raw["experiment"]
    out.append(("field", args("field", "field.json"), "check_field", {
        "u": _get(raw, "channel", "wind_speed"), "k": _get(raw, "channel", "diffusivity"),
        "h": _get(raw, "channel", "source_height"),
        "users": [(0.0, 0.0, user["breath_rate"]) for user in raw["sources"]["users"]],
        "x": _range(exp["x"]), "y": _range(exp["y"]), "z": _range(exp["z"])}))

    raw = _scenario(ctx, "timeseries.json")
    h = _get(raw, "channel", "source_height")
    distance = raw["receiver"].get("distance", README_DEFAULTS["receiver_distance"])
    out.append(("timeseries", args("timeseries", "timeseries.json"), "check_timeseries", {
        "u": _get(raw, "channel", "wind_speed"), "k": _get(raw, "channel", "diffusivity"),
        "point": (distance, 0.0, h), "times": _range(raw["experiment"]["times"]),
        "users": [{"x0": 0.0, "y0": 0.0, "h": h, "rate": user.get("breath_rate", 0.0),
                   "entry": user.get("entry_time", 0.0),
                   "jets": [(j["time"], j["mass"]) for j in user.get("jets", [])]}
                  for user in raw["sources"]["users"]]}))

    raw = _scenario(ctx, "freq.json")
    out.append(("freq", args("freq", "freq.json"), "check_freq", {
        "u": _get(raw, "channel", "wind_speed"), "k": _get(raw, "channel", "diffusivity"),
        "x": raw["receiver"]["distance"], "omega": _range(raw["experiment"]["omega"])}))

    raw = _scenario(ctx, "concentration.json")
    exp = raw["experiment"]
    out.append(("conc_vs_dist", args("conc-vs-dist", "concentration.json"), "check_conc", {
        "k": _get(raw, "channel", "diffusivity"), "h": _get(raw, "channel", "source_height"),
        "winds": exp["wind_speeds"], "distances": exp["distances"],
        "radius": _get(raw, "receiver", "radius"), "mc_seed": ctx.seed}))

    raw = _scenario(ctx, "delay.json")
    exp = raw["experiment"]
    out.append(("delay", args("delay", "delay.json"), "check_delay", {
        "k": _get(raw, "channel", "diffusivity"), "winds": exp["wind_speeds"],
        "distances": exp["distances"], "fraction": exp["fraction"],
        "rel_tol": exp.get("rel_tol", 1e-6)}))

    raw = _scenario(ctx, "pmd.json")
    exp = raw["experiment"]
    out.append(("pmd", args("pmd", "pmd.json"), "check_pmd", {
        "u": _get(raw, "channel", "wind_speed"), "k": _get(raw, "channel", "diffusivity"),
        "h": _get(raw, "channel", "source_height"),
        "rate": raw["sources"]["users"][0]["breath_rate"],
        "calibration": _get(raw, "noise", "snr_calibration"),
        "gain": _get(raw, "receiver", "sampler_efficiency")
        * _get(raw, "receiver", "binding_fraction"),
        "radius": _get(raw, "receiver", "radius"),
        "window": _get(raw, "receiver", "sampling_window"),
        "distances": exp.get("distances", PMD_DEFAULT_DISTANCES),
        "trials": exp.get("empirical_trials", 0), "mc_count": exp.get("empirical_count", 3)}))
    # the README's mc-pmd command
    out.append(("mc_pmd", args("mc-pmd", "pmd.json", "--set", 'experiment={"kind":"mc_pmd"}',
                               "--seed", "1"), "check_mc_pmd",
                {"arguments": MC_PMD_DEFAULT_ARGUMENTS, "trials": MC_PMD_DEFAULT_TRIALS}))
    return out


class CliFigures(Workload):
    name = "cli-figures"

    def setup(self):
        ctx = self.ctx
        ctx.fresh()
        for path in sorted((ctx.root / "scenarios").glob("*.json")):
            shutil.copy(path, ctx.inputs / path.name)
        ops = [CliOp(name, name, argv, deferred_check(check), params, byte_reference=True)
               for name, argv, check, params in cli_descriptions(ctx)]
        random.Random(ctx.seed).shuffle(ops)
        if ctx.traced:
            ctx.import_program()
        else:
            ctx.warm_import_process()
        # the first run of each subcommand: warm-up and byte reference
        for op in ops:
            attempt = op.execute(ctx, "ref")
            if attempt.exit_code != 0:
                raise RuntimeError(f"{op.name} exits with {attempt.exit_code} in set-up")
            op.remember_reference(ctx)
        self.ops = ops


class OracleValidation(Workload):
    name = "oracle-validation"

    def setup(self):
        ctx = self.ctx
        ctx.fresh()
        shutil.copy(ctx.root / "scenarios" / "validate.json", ctx.inputs / "validate.json")
        if ctx.traced:
            ctx.import_program()
        else:
            ctx.warm_import_process()
        self.ops = [CliOp("validate", "validate",
                          ["validate-oracles", "--scenario", str(ctx.inputs / "validate.json")],
                          deferred_check("check_validate"), None, byte_reference=False)]


# ---------------------------------------------------------------------------
# lib-research
# ---------------------------------------------------------------------------

# sizes: one pass takes about 7 s on 2 cores; the field grid is 4x the
# shipped 65,610 points (at 10x one pass took 14 s and 625 MB)
FIELD_GRID = (16, 128, 128)
CONC_GRID = (6, 40)       # winds x distances
DELAY_GRID = (8, 30)
PMD_DISTANCES = 40
BREATH_DISTANCES = 12
VARK_DISTANCES = 3
VARK_ORDERS = (12, 12, 12, 2)     # ~1,700 adaptive quad calls per exposure
DEFAULT_ORDERS = (16, 16, 16, 8)  # receiver_exposure's defaults
RUNNER_ORDERS = (32, 16, 32, 4)   # the figure runners' defaults
# the cough jet of the named quadrature fault: fixed, not drawn from --seed
JET = {"field": "jet", "label": "cough jet", "u": 140.0, "k": 0.242, "h": 180.0,
       "mass": 100.0, "release": 2.0, "radius": 2.0, "window": 3.0,
       "distances": [40.0, 60.0, 80.0, 100.0, 120.0], "t_starts": [0.0] * 5}


def lib_inputs(seed):
    """Every lib-research input, drawn from the seed."""
    rng = random.Random(seed)

    def pick(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    def sweep(lo, hi, n):
        step = (hi - lo) / n
        return [round(lo + step * (i + rng.uniform(0.05, 0.95)), 3) for i in range(n)]

    def channel(u, k):
        return {"wind_speed": u, "diffusivity": k, "source_height": 180.0, "x_min": 1.0}

    receiver = {"radius": 2.0, "sampling_window": 3.0, "sampler_efficiency": 0.85,
                "binding_fraction": 0.5}
    paper_winds, paper_distances = (70.0, 280.0), (50.0, 500.0)

    u, k = pick(70.0, 280.0), pick(0.2, 0.3)
    rates = (pick(0.5, 2.0), pick(0.5, 2.0))
    x0, y0 = pick(-40.0, -10.0), pick(-3.0, 3.0)
    half_y, half_z = pick(6.0, 10.0), pick(6.0, 10.0)
    nx, ny, nz = FIELD_GRID
    field = {
        "channel": channel(u, k),
        "sources": {"users": [{"location": [0.0, 0.0, 180.0], "breath_rate": rates[0]},
                              {"location": [x0, y0, 180.0], "breath_rate": rates[1]}]},
        "experiment": {"kind": "field",
                       "x": {"start": pick(40.0, 60.0), "stop": pick(450.0, 550.0), "num": nx},
                       "y": {"start": -half_y, "stop": half_y, "num": ny},
                       "z": {"start": 180.0 - half_z, "stop": 180.0 + half_z, "num": nz}}}
    field_check = {"u": u, "k": k, "h": 180.0,
                   "users": [(0.0, 0.0, rates[0]), (x0, y0, rates[1])],
                   **{a: _range(field["experiment"][a]) for a in "xyz"}}

    k = pick(0.2, 0.3)
    conc = {"channel": channel(140.0, k),
            "sources": {"users": [{"breath_rate": pick(0.5, 2.0)}]}, "receiver": receiver,
            "experiment": {"kind": "conc_vs_distance", "mode": "collected",
                           "wind_speeds": sweep(*paper_winds, CONC_GRID[0]),
                           "distances": sweep(*paper_distances, CONC_GRID[1]),
                           "quadrature_orders": list(RUNNER_ORDERS)}}
    conc_check = {"k": k, "h": 180.0, "radius": 2.0, "mc_seed": seed,
                  "winds": conc["experiment"]["wind_speeds"],
                  "distances": conc["experiment"]["distances"]}

    k = pick(0.2, 0.3)
    delay = {"channel": channel(140.0, k),
             "sources": {"users": [{"breath_rate": pick(0.5, 2.0)}]},
             "experiment": {"kind": "delay", "fraction": pick(0.005, 0.5), "rel_tol": 1e-6,
                            "wind_speeds": sweep(*paper_winds, DELAY_GRID[0]),
                            "distances": sweep(*paper_distances, DELAY_GRID[1])}}
    delay_check = {"k": k, "winds": delay["experiment"]["wind_speeds"],
                   "distances": delay["experiment"]["distances"],
                   "fraction": delay["experiment"]["fraction"], "rel_tol": 1e-6}

    u, k, rate, calibration = pick(100.0, 180.0), pick(0.2, 0.3), pick(0.5, 2.0), pick(1e4, 4e4)
    pmd = {"channel": channel(u, k), "sources": {"users": [{"breath_rate": rate}]},
           "receiver": receiver, "noise": {"snr_calibration": calibration},
           "experiment": {"kind": "pmd", "distances": sweep(2500.0, 30000.0, PMD_DISTANCES),
                          "quadrature_orders": list(RUNNER_ORDERS), "empirical_trials": 0}}
    pmd_check = {"u": u, "k": k, "h": 180.0, "rate": rate, "calibration": calibration,
                 "gain": 0.85 * 0.5, "radius": 2.0, "window": 3.0,
                 "distances": pmd["experiment"]["distances"], "trials": 0, "mc_count": 0}

    # slow indoor air: the start-up front passes the receiver within the
    # window and is smooth on the scale of the default time nodes
    u = pick(8.0, 12.0)
    distances = sweep(600.0, 1400.0, BREATH_DISTANCES)
    breath = {"field": "breath", "label": "breath start-up", "u": u, "k": pick(0.2, 0.3),
              "h": 180.0, "rate": pick(0.5, 2.0), "radius": 2.0, "window": 3.0,
              "distances": distances, "t_starts": [round(d / u - 1.5, 6) for d in distances]}
    vark = {"field": "vark", "label": "variable-K plume", "u": pick(100.0, 180.0),
            "k": pick(0.2, 0.3), "length": pick(100.0, 200.0), "h": 180.0,
            "rate": pick(0.5, 2.0), "radius": 2.0, "window": 3.0,
            "distances": sweep(300.0, 600.0, VARK_DISTANCES), "t_starts": [0.0] * VARK_DISTANCES}
    return {"field": (field, field_check), "conc": (conc, conc_check),
            "delay": (delay, delay_check), "pmd": (pmd, pmd_check),
            "breath": breath, "vark": vark, "jet": JET}


def _shrunk(raw):
    """A tiny copy of a table scenario, to warm the code path in set-up."""
    small = json.loads(json.dumps(raw))
    exp = small["experiment"]
    for axis in ("x", "y", "z"):
        if axis in exp:
            exp[axis]["num"] = 2
    for key in ("wind_speeds", "distances"):
        if key in exp:
            exp[key] = exp[key][:2]
    return small


class LibResearch(Workload):
    name = "lib-research"

    def setup(self):
        ctx = self.ctx
        ctx.fresh()
        inputs = lib_inputs(ctx.seed)
        (ctx.inputs / "lib-research.json").write_text(json.dumps(inputs, indent=1))
        ctx.import_program()
        ops = [
            TableOp("field", "field", inputs["field"][0], "csv",
                    deferred_check("check_field"), inputs["field"][1]),
            TableOp("field_json", "field_json", inputs["field"][0], "json",
                    deferred_check("check_field"), inputs["field"][1]),
            TableOp("conc_vs_dist", "conc_vs_dist", inputs["conc"][0], "csv",
                    deferred_check("check_conc"), inputs["conc"][1]),
            TableOp("delay", "delay", inputs["delay"][0], "csv",
                    deferred_check("check_delay"), inputs["delay"][1]),
            TableOp("pmd", "pmd", inputs["pmd"][0], "csv",
                    deferred_check("check_pmd"), inputs["pmd"][1]),
            ExposureOp("exposure_breath", "exposure_breath", inputs["breath"], DEFAULT_ORDERS),
            ExposureOp("exposure_jet_default", "exposure_jet", inputs["jet"], DEFAULT_ORDERS,
                       fault_kind=True),
            ExposureOp("exposure_jet_runner", "exposure_jet", inputs["jet"], RUNNER_ORDERS,
                       fault_kind=True),
            ExposureOp("exposure_vark", "exposure_vark", inputs["vark"], VARK_ORDERS),
        ]
        random.Random(ctx.seed).shuffle(ops)
        for op in ops:
            op.warm(ctx)
        self.ops = ops

    def repeat_setup(self):
        """The import can be measured only once per process, so a repeated
        set-up runs in a fresh interpreter."""
        argv = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
                "--workload", self.name, "--seed", str(self.ctx.seed), "--setup-only"]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=self.ctx.root,
                              timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr[-400:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["setup_s"], result["probe_s"]


WORKLOADS = {w.name: w for w in (CliFigures, OracleValidation, LibResearch)}
