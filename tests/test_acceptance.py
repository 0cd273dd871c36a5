"""Acceptance suite: eight desk-scale criteria covering oracle equivalence,
conservation, LTI structure, spectra, detection statistics, figure trends,
and bit-level reproducibility.

Each test prints one PASS line (visible with ``pytest -s``) and enforces its
stated tolerance and runtime bound.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from plumesense import cli
from plumesense.channel import (
    MultiUserScenario,
    SourceSpec,
    breath_response,
    diffusion_scale,
    jet_concentration,
    multi_user_response,
    person_response,
    steady_state_concentration,
)
from plumesense.oracles import (
    empirical_pmd,
    march_steady_plume,
    sampled_transfer_function,
    steady_oracle_report,
    step_convolution,
)
from plumesense.receiver import q_function
from plumesense.runners import (
    run_concentration_vs_distance,
    run_delay_to_fraction,
    run_pmd_vs_distance,
)
from plumesense.scenario import parse_scenario

from conftest import HEIGHT, WIND


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_steady_plume_oracle_equivalence(params):
    """March of the transformed heat equation vs the closed form: L2 < 2%,
    refinement gain >= 3x, under 60 s."""
    start = time.perf_counter()
    coarse = steady_oracle_report(march_steady_plume(params, HEIGHT, 50.0, 250.0, 0.1),
                                  params, HEIGHT)
    fine = steady_oracle_report(march_steady_plume(params, HEIGHT, 50.0, 250.0, 0.05),
                                params, HEIGHT)
    elapsed = time.perf_counter() - start
    assert coarse.l2_rel_error < 0.02
    assert fine.l2_rel_error < 0.02
    factor = coarse.l2_rel_error / fine.l2_rel_error
    assert factor >= 3.0
    assert elapsed < 60.0
    _report(1, f"L2 {coarse.l2_rel_error:.2e} -> {fine.l2_rel_error:.2e} "
               f"(gain {factor:.2f}x) in {elapsed:.1f}s")


def test_criterion_2_mass_conservation(params):
    """Crosswind flux rate/u to 1e-6 at ten stations; jet mass recovered to
    1% once the pulse is well downwind; under 10 s."""
    start = time.perf_counter()

    def gl_axis(n, lo, hi):
        nodes, weights = leggauss(n)
        return lo + (hi - lo) / 2 * (nodes + 1), (hi - lo) / 2 * weights

    # steady: every crosswind plane integrates to rate/u
    stations = np.linspace(25.0, 480.0, 10)
    for x in stations:
        scale = diffusion_scale(x, params)
        span = 10.0 * math.sqrt(scale)
        yg, yw = gl_axis(160, -span, span)
        zg, zw = gl_axis(160, max(0.0, HEIGHT - span), HEIGHT + span)
        plane = np.asarray(
            steady_state_concentration(1.0, (x, yg[:, None], zg[None, :]), params,
                                       HEIGHT)
        )
        total = np.einsum("ij,i,j->", plane, yw, zw)
        assert total == pytest.approx(1.0 / WIND, rel=1e-6)

    # spot-check three stations with adaptive quadrature as well
    for x in stations[::4]:
        scale = diffusion_scale(x, params)
        span = 9.0 * math.sqrt(scale)

        def z_line(y):
            val, _ = quad(
                lambda z: steady_state_concentration(1.0, (x, y, z), params, HEIGHT),
                max(0.0, HEIGHT - span), HEIGHT + span, epsabs=1e-13, epsrel=1e-9,
                limit=60,
            )
            return val

        total, _ = quad(z_line, -span, span, epsabs=1e-13, epsrel=1e-8, limit=60)
        assert total == pytest.approx(1.0 / WIND, rel=1e-6)

    # transient: total mass of the drifting pulse via tensor quadrature
    for t in (1.0, 2.0):
        drift = WIND * t
        scale = diffusion_scale(drift, params)
        assert drift >= 10.0 * math.sqrt(scale)
        half = 10.0 * math.sqrt(scale)
        xg, xw = gl_axis(220, drift - 2.5 * half, drift + 2.5 * half)
        yg, yw = gl_axis(64, -half, half)
        zg, zw = gl_axis(64, HEIGHT - half, HEIGHT + half)
        field = np.asarray(
            jet_concentration(
                1.0, 0.0,
                (xg[:, None, None], yg[None, :, None], zg[None, None, :], t),
                params, HEIGHT,
            )
        )
        mass = np.einsum("ijk,i,j,k->", field, xw, yw, zw)
        assert mass == pytest.approx(1.0, rel=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"10 crosswind stations at 1e-6, jet mass to {abs(mass - 1):.1e} "
               f"in {elapsed:.1f}s")


def test_criterion_3_breath_convolution_oracle(params, rng):
    """Numeric step convolution agrees with the closed form to 1e-6 relative
    at 20 randomized space-time samples; under 30 s."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 20:
        x = rng.uniform(20.0, 300.0)
        y = rng.uniform(-1.5, 1.5)
        z = HEIGHT + rng.uniform(-1.5, 1.5)
        t = x / WIND * rng.uniform(0.9, 3.0) + rng.uniform(0.0, 5.0)
        reference = breath_response(1.0, 0.0, (x, y, z, t), params, HEIGHT)
        if reference <= 0.0:
            continue
        numeric = step_convolution((x, y, z, t), params, HEIGHT)
        worst = max(worst, abs(numeric - reference) / reference)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    _report(3, f"20 samples, worst relative error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_lti_suite(params, rng):
    """Superposition and time-shift identities over 100 randomized source
    pairs, 1e-12 relative; under 5 s."""
    start = time.perf_counter()
    for _ in range(100):
        rate1, rate2 = rng.uniform(0.1, 5.0, 2)
        mass1, mass2 = rng.uniform(0.5, 10.0, 2)
        t1, t2 = rng.uniform(0.0, 2.0, 2)
        a, b = rng.uniform(0.05, 3.0, 2)
        src1 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=rate1, jets=[(t1, mass1)])
        src2 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=rate2, jets=[(t2, mass2)])
        scaled = MultiUserScenario(users=(
            SourceSpec((0.0, 0.0, HEIGHT), breath_rate=a * rate1,
                       jets=[(t1, a * mass1)]),
            SourceSpec((0.0, 0.0, HEIGHT), breath_rate=b * rate2,
                       jets=[(t2, b * mass2)]),
        ))
        x = rng.uniform(20.0, 300.0)
        t = max(t1, t2) + x / WIND + rng.uniform(-0.004, 0.004)
        point = (x, rng.uniform(-1.0, 1.0), HEIGHT + rng.uniform(-1.0, 1.0), t)
        combined = multi_user_response(scaled, point, params)
        expected = (a * person_response(src1, point, params)
                    + b * person_response(src2, point, params))
        assert combined == pytest.approx(expected, rel=1e-12, abs=1e-300)

        # time invariance, evaluated at identical elapsed times
        shift = rng.uniform(0.0, 50.0)
        t_obs = shift + x / WIND + rng.uniform(-0.004, 0.004)
        shifted = jet_concentration(mass1, shift, (x, 0.2, HEIGHT, t_obs), params,
                                    HEIGHT)
        base = jet_concentration(mass1, 0.0, (x, 0.2, HEIGHT, t_obs - shift), params,
                                 HEIGHT)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-300)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"100 randomized pairs at 1e-12 in {elapsed:.1f}s")


def test_criterion_5_frequency_response(params):
    """DFT of the sampled impulse response: normalized magnitude within 1% up
    to u/sqrt(scale), phase slope within 1%, closed-form/DFT ratio constant to
    0.5%; under 10 s."""
    start = time.perf_counter()
    point = (100.0, 0.0, HEIGHT)
    spectrum = sampled_transfer_function(point, params, HEIGHT,
                                         sample_interval=5e-4, n_samples=4096)
    scale = diffusion_scale(100.0, params)
    omega_max = WIND / math.sqrt(scale)
    mask = spectrum.omega <= omega_max

    model = np.exp(-spectrum.omega[mask] ** 2 * scale / WIND**2)
    mag_err = float(np.max(np.abs(spectrum.normalized_magnitude[mask] / model - 1.0)))
    assert mag_err <= 0.01

    slope = spectrum.phase_slope(omega_max)
    slope_err = abs(slope - (-100.0 / WIND)) / (100.0 / WIND)
    assert slope_err <= 0.01

    from plumesense.channel import frequency_response

    closed = frequency_response(point, spectrum.omega[mask], params, HEIGHT)
    ratio = np.asarray(closed.magnitude) / spectrum.magnitude[mask]
    variation = float((ratio.max() - ratio.min()) / ratio.mean())
    assert variation < 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, f"magnitude {mag_err:.1e}, slope {slope_err:.1e}, constant ratio "
               f"{ratio.mean():.4f} varying {variation:.1e} in {elapsed:.1f}s")


def test_criterion_6_detection_consistency(rng):
    """Monte Carlo misses match the threshold-consistent probability inside
    3-sigma Wilson intervals at 5 SNR points; the alternative variant's
    argument is exactly 1/sqrt(2) of it; under 60 s."""
    start = time.perf_counter()
    for argument in (0.5, 1.0, 1.5, 2.0, 2.5):
        sigma = rng.uniform(0.2, 2.0)
        estimate = empirical_pmd(2.0 * sigma * argument, sigma, trials=10**6,
                                 seed=int(argument * 1000))
        assert estimate.contains(q_function(argument))

    from plumesense.receiver import pmd_conservative, pmd_exact

    for _ in range(50):
        c = rng.uniform(0.1, 5.0)
        sigma = rng.uniform(0.05, 2.0)
        exact_arg = 0.85 * 0.5 * c / (2.0 * sigma)
        assert pmd_exact(0.85 * 0.5 * c, sigma) == pytest.approx(
            q_function(exact_arg), rel=1e-12, abs=1e-300
        )
        assert pmd_conservative(0.85 * 0.5 * c, sigma) == pytest.approx(
            q_function(exact_arg / math.sqrt(2.0)), rel=1e-12, abs=1e-300
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"5 SNR points inside 3-sigma Wilson, argument ratio exact "
               f"in {elapsed:.1f}s")


def test_criterion_7_figure_trends():
    """(a) collected concentration falls with distance and with wind speed;
    (b) doubling the wind halves the delay within 10% over 50..500 cm;
    (c) all three missed-detection variants rise monotonically with distance
    under the stated calibration; under 120 s total."""
    start = time.perf_counter()

    # (a) concentration ratio trends, collected (sphere-integral) mode
    conc = run_concentration_vs_distance(parse_scenario(
        {"experiment": {"kind": "conc_vs_distance", "mode": "collected"}}
    ))
    d = conc.column("distance")
    u = conc.column("wind_speed")
    r = conc.column("ratio")
    for w in (70.0, 140.0, 280.0):
        assert np.all(np.diff(r[u == w]) < 0.0)
    near = d == d.min()
    by_wind = [float(r[near & (u == w)][0]) for w in (70.0, 140.0, 280.0)]
    assert by_wind[0] > by_wind[1] > by_wind[2]

    # (b) delay halving across the sweep
    delay = run_delay_to_fraction(parse_scenario({"experiment": {"kind": "delay"}}))
    dd = delay.column("distance")
    du = delay.column("wind_speed")
    dt = delay.column("delay")
    for dist in np.unique(dd):
        t70 = dt[(du == 70.0) & (dd == dist)][0]
        t140 = dt[(du == 140.0) & (dd == dist)][0]
        t280 = dt[(du == 280.0) & (dd == dist)][0]
        assert t140 / t70 == pytest.approx(0.5, rel=0.10)
        assert t280 / t140 == pytest.approx(0.5, rel=0.10)

    # (c) missed-detection curves under the calibration constant 1.96e4
    config = parse_scenario({"experiment": {"kind": "pmd"}})
    assert config.resolved["noise"]["snr_calibration"] == 1.96e4
    pmd = run_pmd_vs_distance(config)
    variant = pmd.column("variant")
    for v in (0.0, 1.0, 2.0):
        for col in ("pmd_exact", "pmd_conservative"):
            assert np.all(np.diff(pmd.column(col)[variant == v]) > 0.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"concentration, delay-halving and detection trends hold "
               f"in {elapsed:.1f}s")


def test_criterion_8_reproducibility(tmp_path):
    """Identical scenario and seed produce byte-identical CSV files across
    two full CLI runs; under 10 s."""
    start = time.perf_counter()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "experiment": {"kind": "mc_pmd", "trials": 50000,
                       "snr_arguments": [0.5, 1.5]},
        "seed": 31,
    }))
    outputs = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        code = cli.dispatch(["mc-pmd", "--scenario", str(scenario),
                             "--out", str(out)])
        assert code == cli.EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(8, f"two CLI runs byte-identical in {elapsed:.1f}s")
