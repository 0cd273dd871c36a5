"""Checks of plumesense outputs against the independent references.

Each check returns a list of problems ``(kind, message)``.  ``FAULT``
problems are the known program faults and oracle-budget breaches: they make
the operation count as failed.  ``WRONG`` problems are outputs that disagree
with the references: they make the run incorrect.

Tolerances, and why:
- closed-form tables (field, timeseries, freq): relative 1e-7 on every
  value, down to the plume's far tails (1e-163 in the shipped field).  CSV
  cells carry 9 significant digits (rounding <= 5e-9); the rest is headroom
  for a different but exact evaluation order.  Only denormals, which carry
  no relative precision, fall under the absolute floor TINY.
- receiver integrals of the figure runners (conc-vs-dist, pmd): relative
  1e-2.  The runners' fixed (32, 16, 32, 4) orders reach 0.33 % on the
  narrowest plume of the paper's range (280 cm/s at 50 cm); 1e-2 keeps a 3x
  margin and still catches an error the size of the jet fault (9 %).
- receiver integrals of the exposure sweeps: relative 1e-3.  Their inputs
  are chosen where the requested orders resolve the field (observed errors
  below 4e-5).
- delay: the bisection stops within rel_tol (1e-6) above the root, so the
  output may exceed the closed-form inversion by that much and never fall
  below it by more than CSV rounding.
- Monte Carlo spot checks: 6 standard errors (a false alarm about once in
  5e8 comparisons).
"""

from __future__ import annotations

import json
import math

import numpy as np

import refs

FAULT = "fault"
WRONG = "wrong"

TABLE_RTOL = 1e-7
RUNNER_QUAD_RTOL = 1e-2
SWEEP_QUAD_RTOL = 1e-3
MC_SIGMAS = 6.0
CSV_RTOL = 1e-8
TINY = 1e-300


def parse_csv(text):
    """Return (column names, data array) of a plumesense CSV."""
    header, rows = None, []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if header is None:
            header = [cell.partition(" [")[0] for cell in line.split(",")]
        else:
            rows.append(line)
    if header is None:
        raise ValueError("no header row")
    data = (np.loadtxt(rows, delimiter=",", ndmin=2) if rows
            else np.empty((0, len(header))))
    if data.shape[1] != len(header):
        raise ValueError("rows do not match the header")
    return header, data


def parse_table(text):
    """CSV or JSON table -> (column names, data array)."""
    if text.lstrip().startswith("{"):
        record = json.loads(text)
        data = np.asarray(record["rows"], dtype=float).reshape(-1, len(record["columns"]))
        return list(record["columns"]), data
    return parse_csv(text)


def _columns(text, expected):
    header, data = parse_table(text)
    if header != list(expected):
        raise ValueError(f"columns {header} != {list(expected)}")
    return [data[:, i] for i in range(data.shape[1])]


def compare(problems, what, actual, expected, rtol, atol=0.0, kind=WRONG):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        problems.append((kind, f"{what}: {actual.shape[0] if actual.ndim else 1} values, "
                               f"expected {expected.shape[0] if expected.ndim else 1}"))
        return
    err = np.abs(actual - expected)
    bad = ~(err <= rtol * np.abs(expected) + atol)
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        problems.append((kind, f"{what}: {int(bad.sum())} of {bad.size} values off, first "
                               f"{actual.ravel()[i]:.9g} vs reference {expected.ravel()[i]:.9g}"))


def _grid(spec):
    start, stop, num = spec
    return np.linspace(start, stop, num)


def _safe_checked(fn):
    """Run a check; an output that cannot be parsed is itself a problem."""
    def run(*args):
        try:
            return fn(*args)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [(WRONG, f"{fn.__name__}: unreadable output ({exc})")]
    run.__name__ = fn.__name__
    return run


# ---------------------------------------------------------------------------
# closed-form tables
# ---------------------------------------------------------------------------


def _steady_sum(p, X, Y, Z):
    total = np.zeros(np.broadcast(X, Y, Z).shape)
    for x0, y0, rate in p["users"]:
        dx = X - x0
        s = refs.scale_constant(np.where(dx > 0.0, dx, 1.0), p["k"], p["u"])
        total += np.where(dx > 0.0, refs.steady(rate, Y - y0, Z, s, p["u"], p["h"]), 0.0)
    return total


@_safe_checked
def check_field(text, p):
    x, y, z, conc = _columns(text, ("x", "y", "z", "concentration"))
    X, Y, Z = (a.ravel() for a in np.meshgrid(_grid(p["x"]), _grid(p["y"]), _grid(p["z"]),
                                              indexing="ij"))
    problems = []
    for name, got, want in (("x", x, X), ("y", y, Y), ("z", z, Z)):
        compare(problems, f"field {name} grid", got, want, CSV_RTOL, 1e-9 * np.abs(want).max())
    if not problems:
        ref = _steady_sum(p, X, Y, Z)
        compare(problems, "field concentration", conc, ref, TABLE_RTOL, TINY)
    return problems


@_safe_checked
def check_timeseries(text, p):
    t, conc = _columns(text, ("time", "concentration"))
    problems = []
    times = _grid(p["times"])
    compare(problems, "timeseries times", t, times, CSV_RTOL, 1e-9 * np.abs(times).max())
    px, py, pz = p["point"]
    ref = np.zeros(times.shape)
    for user in p["users"]:
        dx = px - user["x0"]
        if dx <= 0.0:
            continue
        s = refs.scale_constant(dx, p["k"], p["u"])
        live = times >= user["entry"]
        part = refs.breath(user["rate"], times - user["entry"], dx, py - user["y0"], pz,
                           s, p["u"], user["h"])
        for jet_time, mass in user["jets"]:
            part = part + mass * refs.impulse(times - jet_time, dx, py - user["y0"], pz,
                                              s, p["u"], user["h"])
        ref += np.where(live, part, 0.0)
    compare(problems, "timeseries concentration", conc, ref, TABLE_RTOL, TINY)
    return problems


@_safe_checked
def check_freq(text, p):
    omega, magnitude, phase = _columns(text, ("omega", "magnitude", "phase"))
    problems = []
    grid = _grid(p["omega"])
    compare(problems, "freq omega", omega, grid, CSV_RTOL, 1e-9 * np.abs(grid).max())
    x = p["x"]
    s = refs.scale_constant(x, p["k"], p["u"])
    shape = np.exp(-grid * grid * s / (p["u"] * p["u"]))
    if not magnitude[0] > 0.0:
        problems.append((WRONG, "freq magnitude at omega=0 is not positive"))
        return problems
    compare(problems, "freq magnitude shape", magnitude / magnitude[0], shape, TABLE_RTOL,
            TINY)
    raw = -grid * x / p["u"]
    off = refs.wrap_phase_distance(phase, raw)
    if not np.all(off <= 5e-8):
        problems.append((WRONG, f"freq phase off -omega x/u by up to {off.max():.3g} rad"))
    if not np.all((phase > -math.pi - 5e-8) & (phase <= math.pi + 5e-8)):
        problems.append((WRONG, "freq phase outside (-pi, pi]"))
    return problems


@_safe_checked
def check_delay(text, p):
    u, d, delay = _columns(text, ("wind_speed", "distance", "delay"))
    problems = []
    U, D = (a.ravel() for a in np.meshgrid(p["winds"], p["distances"], indexing="ij"))
    compare(problems, "delay wind grid", u, U, CSV_RTOL)
    compare(problems, "delay distance grid", d, D, CSV_RTOL)
    if problems:
        return problems
    ref = refs.delay_inversion(D, U, refs.scale_constant(D, p["k"], U), p["fraction"])
    excess = (delay - ref) / ref
    if not np.all((excess >= -CSV_RTOL) & (excess <= p["rel_tol"] + CSV_RTOL)):
        i = int(np.argmax(np.abs(excess)))
        problems.append((WRONG, f"delay at u={U[i]:g}, d={D[i]:g}: {delay[i]:.9g} s vs "
                                f"closed-form inversion {ref[i]:.9g} s"))
    return problems


# ---------------------------------------------------------------------------
# receiver integrals
# ---------------------------------------------------------------------------


def steady_sphere(rate, u, k, h, centre, radius):
    """int_ball C_ss dV for a source at the origin (constant K)."""
    return refs.sphere_integral(
        lambda X, Y, Z: refs.steady(rate, Y, Z, refs.scale_constant(X, k, u), u, h),
        centre, radius)


def _mc_steady(rate, u, k, h, centre, radius, seed):
    return refs.monte_carlo_ball(
        lambda X, Y, Z: refs.steady(rate, Y, Z, refs.scale_constant(X, k, u), u, h),
        centre, radius, 400_000, seed)


def mc_spot_check(problems, what, value, estimate, kind=WRONG):
    mean, se = estimate
    if not abs(value - mean) <= MC_SIGMAS * se:
        problems.append((kind, f"{what}: {value:.9g} is {abs(value - mean) / se:.1f} standard "
                               f"errors from the Monte Carlo estimate {mean:.9g}"))


@_safe_checked
def check_conc(text, p):
    u, d, ratio = _columns(text, ("wind_speed", "distance", "ratio"))
    problems = []
    U, D = (a.ravel() for a in np.meshgrid(p["winds"], p["distances"], indexing="ij"))
    compare(problems, "conc wind grid", u, U, CSV_RTOL)
    compare(problems, "conc distance grid", d, D, CSV_RTOL)
    if problems:
        return problems
    h, radius, volume = p["h"], p["radius"], 4.0 / 3.0 * math.pi * p["radius"] ** 3
    ref = np.array([steady_sphere(1.0, ui, p["k"], h, (di, 0.0, h), radius) / volume
                    for ui, di in zip(U, D)])
    compare(problems, "conc-vs-dist collected ratio", ratio, ref, RUNNER_QUAD_RTOL)
    grid = ratio.reshape(len(p["winds"]), len(p["distances"]))
    if not np.all(np.diff(grid, axis=1) < 0.0):
        problems.append((WRONG, "concentration does not fall with distance at every wind"))
    if not np.all(np.diff(grid, axis=0) < 0.0):
        problems.append((WRONG, "concentration does not fall with wind at every distance"))
    rng = np.random.default_rng(p["mc_seed"])
    for i in rng.choice(len(ratio), size=min(3, len(ratio)), replace=False):
        est = _mc_steady(1.0, U[i], p["k"], h, (D[i], 0.0, h), radius,
                         int(rng.integers(2**32)))
        mc_spot_check(problems, f"conc ratio at u={U[i]:g}, d={D[i]:g}", ratio[i],
                      (est[0] / volume, est[1] / volume))
    return problems


def _check_interval(problems, what, estimate, lower, upper, trials, analytic):
    if not lower <= analytic <= upper:
        problems.append((WRONG, f"{what}: interval [{lower:.6g}, {upper:.6g}] misses "
                                f"the analytic {analytic:.6g}"))
    if not lower <= estimate <= upper:
        problems.append((WRONG, f"{what}: estimate {estimate:.6g} outside its interval"))
    lo, hi = refs.wilson(round(estimate * trials), int(trials))
    if not (abs(lo - lower) <= 1e-7 * max(lo, 1e-300) + 1e-12
            and abs(hi - upper) <= 1e-7 * hi + 1e-12):
        problems.append((WRONG, f"{what}: interval is not the 3-sigma Wilson interval "
                                f"[{lo:.9g}, {hi:.9g}]"))


@_safe_checked
def check_pmd(text, p):
    mc = p["trials"] > 0
    names = ["distance", "variant", "pmd_conservative", "pmd_exact"]
    if mc:
        names += ["pmd_empirical", "pmd_ci_lower", "pmd_ci_upper"]
    cols = _columns(text, names)
    d, variant, p_cons, p_exact = cols[:4]
    problems = []
    distances = np.asarray(p["distances"], dtype=float)
    compare(problems, "pmd distances", d, np.repeat(distances, 3), CSV_RTOL)
    compare(problems, "pmd variants", variant, np.tile([0.0, 1.0, 2.0], len(distances)), 0.0)
    if problems:
        return problems
    sigma = math.sqrt(p["gain"] * p["rate"] / (8.0 * p["calibration"]))
    h = p["h"]
    for i in range(len(d)):
        v = int(variant[i])
        rate = p["rate"] * (0.5 if v == 1 else 1.0)
        radius = p["radius"] * (0.5 ** (1.0 / 3.0) if v == 2 else 1.0)
        exposure = p["window"] * steady_sphere(rate, p["u"], p["k"], h, (d[i], 0.0, h), radius)
        arg_ref = p["gain"] * exposure / (2.0 * sigma)
        where = f"pmd d={d[i]:g} variant {v}"
        if p_exact[i] < 1e-300:
            if refs.q_function(arg_ref) > 1e-250:
                problems.append((WRONG, f"{where}: pmd_exact underflows but Q({arg_ref:.4g}) "
                                        "does not"))
            continue
        arg_exact = refs.q_inverse(p_exact[i])
        compare(problems, f"{where} exposure behind pmd_exact",
                2.0 * sigma * arg_exact / p["gain"], exposure, RUNNER_QUAD_RTOL)
        if arg_exact > 0.05 and p_cons[i] > 1e-300:
            compare(problems, f"{where} argument ratio exact/conservative",
                    arg_exact / refs.q_inverse(p_cons[i]), refs.SQRT2, 1e-6)
        if mc and not math.isnan(cols[4][i]):
            _check_interval(problems, where, cols[4][i], cols[5][i], cols[6][i],
                            p["trials"], p_exact[i])
    grid = p_exact.reshape(len(distances), 3)
    if not np.all(np.diff(grid, axis=0) >= 0.0):
        problems.append((WRONG, "missed detection does not rise with distance"))
    if not (np.all(grid[:, 1] >= grid[:, 0]) and np.all(grid[:, 2] >= grid[:, 0])):
        problems.append((WRONG, "half rate or half volume misses less often than the base"))
    if mc:
        sampled = np.flatnonzero(~np.isnan(cols[4]))
        want = np.arange(len(d) - 3 * p["mc_count"], len(d))
        if not np.array_equal(sampled, want):
            problems.append((WRONG, "Monte Carlo columns are not on the largest distances"))
    return problems


@_safe_checked
def check_mc_pmd(text, p):
    arg, analytic, est, lower, upper, trials = _columns(
        text, ("argument", "pmd_analytic", "pmd_empirical", "ci_lower", "ci_upper", "trials"))
    problems = []
    compare(problems, "mc-pmd arguments", arg, p["arguments"], CSV_RTOL)
    compare(problems, "mc-pmd trials", trials, np.full(len(p["arguments"]), p["trials"]), 0.0)
    if problems:
        return problems
    compare(problems, "mc-pmd analytic Q", analytic,
            [refs.q_function(a) for a in arg], CSV_RTOL)
    for i in range(len(arg)):
        _check_interval(problems, f"mc-pmd argument {arg[i]:g}", est[i], lower[i], upper[i],
                        p["trials"], refs.q_function(arg[i]))
    return problems


@_safe_checked
def check_validate(text, p=None):
    """Oracle rows against the benchmark's own budgets, by value column only."""
    check, value = _columns(text, ("check", "value", "budget", "passed"))[:2]
    problems = []
    seen = {}
    for c, v in zip(check, value):
        seen.setdefault(int(c), []).append(v)
    for cid, name, op, bound in refs.ORACLE_CHECKS:
        values = seen.pop(cid, [])
        if len(values) != 1:
            problems.append((FAULT, f"oracle check {cid} ({name}) reported {len(values)} times"))
            continue
        v = values[0]
        ok = {"lt": v < bound, "le": v <= bound, "ge": v >= bound}[op]
        if not ok:
            problems.append((FAULT, f"oracle check {name}: value {v:.6g} breaks the budget "
                                    f"{op} {bound:g}"))
    if seen:
        problems.append((FAULT, f"unknown oracle check ids {sorted(seen)}"))
    return problems


def _exposure_integrands(p):
    """Per distance, the sweep's field integrated exactly over the window."""
    u, h = p["u"], p["h"]
    for d, t0 in zip(p["distances"], p["t_starts"]):
        t1 = t0 + p["window"]
        if p["field"] == "breath":
            f = (lambda t0, t1: lambda X, Y, Z: refs.breath_window(
                p["rate"], 0.0, t0, t1, X, Y, Z, refs.scale_constant(X, p["k"], u), u, h)
                 )(t0, t1)
        elif p["field"] == "jet":
            f = (lambda t0, t1: lambda X, Y, Z: refs.jet_window(
                p["mass"], p["release"], t0, t1, X, Y, Z, refs.scale_constant(X, p["k"], u),
                u, h))(t0, t1)
        else:
            f = lambda X, Y, Z: p["window"] * refs.steady(
                p["rate"], Y, Z, refs.scale_linear(X, p["k"], p["length"], u), u, h)
        yield (d, 0.0, h), f


def exposure_reference(p):
    """Reference exposures of a sweep: exact in time, quadrature in space."""
    return np.asarray([refs.sphere_integral(f, centre, p["radius"])
                       for centre, f in _exposure_integrands(p)])


def check_exposures(values, reference, p, kind=WRONG):
    """One attempt of a distance sweep of receiver_exposure."""
    problems = []
    compare(problems, f"{p['label']} exposure", values, reference, SWEEP_QUAD_RTOL,
            kind=kind)
    return problems


def check_exposures_mc(values, p, seed, kind=WRONG):
    """Monte Carlo spot check of two distances of the sweep."""
    problems = []
    rng = np.random.default_rng(seed)
    cases = list(_exposure_integrands(p))
    for i in sorted(rng.choice(len(cases), size=min(2, len(cases)), replace=False)):
        centre, f = cases[i]
        est = refs.monte_carlo_ball(f, centre, p["radius"], 400_000, int(rng.integers(2**32)))
        mc_spot_check(problems, f"{p['label']} exposure at d={centre[0]:g}", values[i], est,
                      kind)
    return problems
