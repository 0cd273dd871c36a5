"""Closed-form channel responses: values against independent routes,
boundary behavior, and the linear/time-invariant structure."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import plumesense.channel as channel
from plumesense.channel import (
    _GAUSS_WEIGHTS,
    _erfc,
    _KRONROD_NODES,
    _KRONROD_WEIGHTS,
    ChannelParams,
    DiffusivityProfile,
    MultiUserScenario,
    SourceSpec,
    StochasticGrid,
    breath_response,
    diffusion_scale,
    frequency_response,
    impulse_response,
    jet_concentration,
    multi_user_response,
    person_response,
    steady_state_concentration,
    stochastic_expected_response,
)
from plumesense.errors import DomainError, EvaluationDomainError, QuadratureError, ScenarioError

from conftest import DIFFUSIVITY, HEIGHT, WIND, simpson, traced_peak


# ---------------------------------------------------------------------------
# transformed coordinate
# ---------------------------------------------------------------------------

VARIABLE_K0 = 0.242
VARIABLE_LENGTH = 150.0
LINEAR_K_PARAMS = ChannelParams(
    WIND, DiffusivityProfile.from_function(
        lambda x: VARIABLE_K0 * (1.0 + np.asarray(x) / VARIABLE_LENGTH)))


def reference_diffusion_scale(x, params):
    """Variable-K diffusion_scale as one adaptive quad per point over [0, x]."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    vals = np.empty(flat.shape)
    for i, xi in enumerate(flat):
        if xi == 0.0:
            vals[i] = 0.0
        else:
            integral, _ = quad(
                lambda s: params.diffusivity(s), 0.0, xi, epsabs=0.0, epsrel=1e-10, limit=200
            )
            vals[i] = integral / params.wind_speed
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


class TestDiffusionScale:
    def test_zero_distance_is_zero(self, params):
        assert diffusion_scale(0.0, params) == 0.0

    def test_constant_profile_closed_form(self, params):
        # K*x/u with the standard parameters
        assert diffusion_scale(100.0, params) == pytest.approx(
            DIFFUSIVITY * 100.0 / WIND, rel=1e-15
        )
        assert diffusion_scale(100.0, params) == pytest.approx(0.17285714285714285,
                                                               rel=1e-15)

    def test_decaying_profile_against_simpson(self):
        profile = DiffusivityProfile.from_function(lambda x: math.exp(-x))
        p = ChannelParams(1.0, profile)
        expected = simpson(math.exp, -10.0, 0.0, 20000)  # = int_0^10 e^-s ds reversed
        got = diffusion_scale(10.0, p)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.9999546000702375, rel=1e-9)  # 1 - e^-10

    def test_negative_distance_rejected(self, params):
        with pytest.raises(DomainError):
            diffusion_scale(-1.0, params)

    def test_monotone_nondecreasing(self, params, rng):
        xs = np.sort(rng.uniform(0.0, 400.0, size=30))
        scales = diffusion_scale(xs, params)
        assert np.all(np.diff(scales) >= 0.0)
        wiggly = ChannelParams(
            2.0, DiffusivityProfile.from_function(lambda x: 0.5 + 0.4 * math.sin(x))
        )
        scales = diffusion_scale(xs, wiggly)
        assert np.all(np.diff(scales) >= 0.0)

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(DomainError):
            DiffusivityProfile.constant(0.0)
        broken = DiffusivityProfile.from_function(lambda x: -1.0)
        with pytest.raises(DomainError):
            broken(3.0)
        with pytest.raises(DomainError):
            diffusion_scale(3.0, ChannelParams(2.0, broken))
        # positive near the source, negative beyond x = 1
        turning = ChannelParams(2.0, DiffusivityProfile.from_function(lambda x: 1.0 - x))
        with pytest.raises(DomainError):
            diffusion_scale(np.array([0.5, 3.0]), turning)

    def test_scalar_only_profile_on_2d_input(self):
        profile = DiffusivityProfile.from_function(lambda x: math.exp(-x))
        xs = np.arange(6.0).reshape(2, 3) / 2.0
        got = profile(xs)
        assert got.shape == (2, 3)
        assert np.array_equal(got, [[math.exp(-v) for v in row] for row in xs])

    @pytest.mark.parametrize("func", [
        lambda x: VARIABLE_K0 * (1.0 + x / VARIABLE_LENGTH),
        lambda x: math.exp(-x),
        lambda x: 0.5 + 0.4 * np.sin(x),
        lambda x: 0.2 + np.sqrt(x),
        lambda x: VARIABLE_K0 * np.sqrt(x),
        lambda x: VARIABLE_K0 * x ** (4.0 / 3.0),
        lambda x: 1.0 / np.sqrt(x),
    ], ids=["linear", "exp_scalar_only", "sine", "offset_sqrt", "sqrt", "power_4_3",
            "inverse_sqrt"])
    def test_variable_profile_against_per_point_quad(self, func):
        p = ChannelParams(2.0, DiffusivityProfile.from_function(func))
        # unsorted, with duplicates and exact zeros
        grid = np.array([[75.0, 0.0, 3.3, 480.0], [1e-3, 75.0, 0.0, 12.5], [1.0, 3.3, 480.0, 0.25]])
        got = diffusion_scale(grid, p)
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, reference_diffusion_scale(grid, p), rtol=1e-10, atol=0.0)
        assert got[0, 1] == 0.0 and got[1, 2] == 0.0
        assert got[0, 0] == got[1, 1] and got[0, 2] == got[2, 1]
        scalar = diffusion_scale(42.0, p)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(reference_diffusion_scale(42.0, p), rel=1e-10)
        assert np.all(np.diff(diffusion_scale(np.unique(grid), p)) >= 0.0)

    def test_linear_profile_closed_form(self):
        p = ChannelParams(2.0, DiffusivityProfile.from_function(
            lambda x: VARIABLE_K0 * (1.0 + x / VARIABLE_LENGTH)))
        xs = np.array([480.0, 0.0, 1.0, 75.0, 1e-3, 75.0, 3000.0])
        expected = VARIABLE_K0 * (xs + xs * xs / (2.0 * VARIABLE_LENGTH)) / 2.0
        np.testing.assert_allclose(diffusion_scale(xs, p), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("func", [
        lambda x: x ** -0.9,                     # too strong a singularity at the source
        lambda x: 1.0 + 0.5 * np.sin(1e4 * x),   # far too many oscillations to resolve
    ], ids=["singular", "oscillating"])
    def test_unconverged_integral_raises(self, func):
        p = ChannelParams(1.0, DiffusivityProfile.from_function(func))
        with pytest.raises(QuadratureError, match="did not reach relative 1e-10"):
            diffusion_scale(np.array([0.5, 480.0]), p)

    def test_subinterval_cap_is_per_point(self):
        # fast oscillation beyond x = 400 only: the easy gaps below it must not
        # lend their subintervals to the one hard gap
        p = ChannelParams(1.0, DiffusivityProfile.from_function(
            lambda x: 1.0 + 0.5 * np.sin(50.0 * x) * (x > 400.0)))
        xs = np.append(np.linspace(1.0, 400.0, 1000), 480.0)
        with pytest.raises(QuadratureError, match="200 subintervals per gap"):
            diffusion_scale(xs, p)
        np.testing.assert_allclose(diffusion_scale(xs[:-1], p), xs[:-1], rtol=1e-10, atol=0.0)

    def test_failing_gap_named(self):
        # the hard point comes before an easy one: the message names the gap
        # [0, 450] that failed, not the last point of the call
        p = ChannelParams(1.0, DiffusivityProfile.from_function(
            lambda x: 1.0 + 0.5 * np.sin(50.0 * x) * ((x > 400.0) & (x < 460.0))))
        with pytest.raises(QuadratureError, match=r"over \[0, 450\] integral 449\.99"):
            diffusion_scale(np.array([1.0, 450.0, 1000.0]), p)

    def test_point_scale_independent_of_batch(self):
        # a point's scale has the same bits alone and among five other points
        rng = np.random.default_rng(20261019)
        for x in rng.uniform(1.0, 600.0, 200):
            batch = np.concatenate(([x], rng.uniform(1.0, 600.0, 5)))
            alone = diffusion_scale(np.array([x]), LINEAR_K_PARAMS)[0]
            assert diffusion_scale(batch, LINEAR_K_PARAMS)[0] == alone

    def test_nonfinite_distance_rejected_for_variable_profile(self):
        p = ChannelParams(1.0, DiffusivityProfile.from_function(lambda x: 1.0 + 0.0 * x))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                diffusion_scale(np.array([1.0, bad]), p)

    def test_kronrod_rule_constants(self):
        # the 7-point Gauss rule nested in the hard-coded 15-point Kronrod rule
        gauss = _GAUSS_WEIGHTS > 0.0
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(_KRONROD_NODES[gauss], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_GAUSS_WEIGHTS[gauss], weights, rtol=0.0, atol=1e-15)
        # Kronrod 15 is exact through degree 22, Gauss 7 through degree 13
        for k in range(23):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert _KRONROD_WEIGHTS @ _KRONROD_NODES**k == pytest.approx(exact, abs=1e-15)
            if k <= 13:
                assert _GAUSS_WEIGHTS @ _KRONROD_NODES**k == pytest.approx(exact, abs=1e-15)


# ---------------------------------------------------------------------------
# impulse response
# ---------------------------------------------------------------------------


class TestImpulseResponse:
    def test_matches_arbitrary_precision_route(self, params):
        # independent evaluation of the same closed form in 40-digit arithmetic
        from mpmath import mp, mpf
        from mpmath import exp as mpexp
        from mpmath import pi as mppi

        mp.dps = 40
        s = mpf(DIFFUSIVITY) * 100 / mpf(WIND)
        expected = (1 / (8 * (mppi * s) ** mpf("1.5"))) * (
            1 + mpexp(-((2 * mpf(HEIGHT)) ** 2) / (4 * s))
        )
        got = impulse_response((100.0, 0.0, HEIGHT, 100.0 / WIND), params, HEIGHT)
        assert got == pytest.approx(float(expected), rel=1e-12)
        assert got == pytest.approx(0.31235913285977024, rel=1e-12)

    def test_decays_to_zero_far_crosswind(self, params):
        assert impulse_response((100.0, 1e5, HEIGHT, 0.7), params, HEIGHT) == 0.0
        assert impulse_response((100.0, 0.0, 1e5, 0.7), params, HEIGHT) == 0.0

    def test_even_in_y(self, params, rng):
        for _ in range(20):
            x = rng.uniform(5.0, 300.0)
            y = rng.uniform(0.1, 3.0)
            z = HEIGHT + rng.uniform(-3.0, 3.0)
            t = x / WIND + rng.uniform(-0.01, 0.01)
            plus = impulse_response((x, y, z, t), params, HEIGHT)
            minus = impulse_response((x, -y, z, t), params, HEIGHT)
            assert plus == minus

    def test_upwind_is_zero(self, params):
        assert impulse_response((0.0, 0.0, HEIGHT, 1.0), params, HEIGHT) == 0.0
        assert impulse_response((-50.0, 0.0, HEIGHT, 1.0), params, HEIGHT) == 0.0

    def test_zero_before_release(self, params):
        """The release is at t = 0: just before it, at 1 cm, the ungated
        Gaussian is 8.2e-63, and the response is exactly 0."""
        assert impulse_response((1.0, 0.0, HEIGHT, -1e-4), params, HEIGHT) == 0.0

    def test_near_source_band_rejected(self, params):
        with pytest.raises(EvaluationDomainError):
            impulse_response((0.5 * params.x_min, 0.0, HEIGHT, 1.0), params, HEIGHT)

    def test_invalid_coordinates_rejected(self, params):
        with pytest.raises(DomainError):
            impulse_response((100.0, 0.0, -1.0, 1.0), params, HEIGHT)
        with pytest.raises(DomainError):
            impulse_response((100.0, 0.0, HEIGHT, math.inf), params, HEIGHT)
        with pytest.raises(DomainError, match="quadruple"):
            impulse_response((100.0, 0.0, HEIGHT), params, HEIGHT)

    def test_nonnegative_and_finite(self, params, rng):
        xs = rng.uniform(1.0, 500.0, 200)
        ys = rng.uniform(-5.0, 5.0, 200)
        zs = rng.uniform(0.0, 400.0, 200)
        ts = rng.uniform(0.0, 5.0, 200)
        h = impulse_response((xs, ys, zs, ts), params, HEIGHT)
        assert np.all(h >= 0.0) and np.all(np.isfinite(h))


class TestJetConcentration:
    def test_causality_before_release(self, params):
        assert jet_concentration(5.0, 10.0, (100.0, 0.0, HEIGHT, 9.99), params, HEIGHT) == 0.0
        # the release instant itself is live (about 4.8e-61 per unit mass at
        # 1 cm), the double just before it is not
        assert jet_concentration(5.0, 10.0, (1.0, 0.0, HEIGHT, 10.0), params, HEIGHT) > 0.0
        before = np.nextafter(10.0, -np.inf)
        assert jet_concentration(5.0, 10.0, (1.0, 0.0, HEIGHT, before), params, HEIGHT) == 0.0

    def test_independent_of_batch(self, params):
        """Under a constant and a linear K, the impulse, jet, breath and
        steady forms give a scalar point the same bits alone, among five
        other points, and inside an (n,1,1)·(1,m,1)·(1,1,k) grid, before and
        after a release (or an entry) at 0.5 s.  Each factor is evaluated on
        its own coordinates' shape, and on a 0-d array numpy's exp is not its
        vector exp, so the scalar path is the one this guards."""
        rng = np.random.default_rng(20261019)
        for p in (params, LINEAR_K_PARAMS):
            for call in (lambda point: impulse_response((*point[:3], point[3] - 0.5), p, HEIGHT),
                         lambda point: jet_concentration(2.0, 0.5, point, p, HEIGHT),
                         lambda point: breath_response(1.5, 0.5, point, p, HEIGHT),
                         lambda point: steady_state_concentration(1.5, point[:3], p, HEIGHT)):
                for x in rng.uniform(1.0, 600.0, 100):
                    y, z = rng.normal(0.0, 1.5), HEIGHT + rng.normal(0.0, 1.5)
                    t = float(rng.choice([x / WIND + 0.5 + rng.normal(0.0, 0.01),
                                          rng.uniform(0.0, 1.0)]))
                    alone = call((x, y, z, t))
                    assert isinstance(alone, float)
                    others = rng.uniform(1.0, 600.0, (3, 5))
                    batch = call((np.append(x, others[0]), np.append(y, others[1] - 300.0),
                                  np.append(z, others[2] / 3.0), np.append(t, others[0] / WIND)))
                    i, j, k = rng.integers(0, 6, 3)
                    grid = call((np.insert(others[0], i, x)[:, None, None],
                                 np.insert(others[1] / 100.0, j, y)[None, :, None],
                                 np.insert(HEIGHT + others[2] / 300.0, k, z)[None, None, :], t))
                    assert grid.shape == (6, 6, 6)
                    assert alone.hex() == float(batch[0]).hex() == float(grid[i, j, k]).hex()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda p: impulse_response((100.0, 0.0, HEIGHT, 100.0 / WIND), p, HEIGHT),
        lambda p: jet_concentration(1.0, 0.5, ([40.0, 100.0], 0.0, HEIGHT, 1.0), p, HEIGHT),
    ], ids=["impulse", "jet"])
    def test_vanishing_spread_named(self, call):
        # at K = 1e-250 cm^2/s, 8 (pi s)^1.5 underflows to 0: the peak is not a double
        with pytest.raises(DomainError, match="diffusion scale"):
            call(ChannelParams.with_constant(WIND, 1e-250))

    def test_time_shift_identity_exact(self, params):
        # dyadic shift keeps t - t0 exact in floating point
        t0 = 0.5
        for lag in (0.25, 0.71428, 1.5):
            shifted = jet_concentration(1.0, t0, (100.0, 0.0, HEIGHT, t0 + lag), params,
                                        HEIGHT)
            reference = jet_concentration(1.0, 0.0, (100.0, 0.0, HEIGHT, lag), params,
                                          HEIGHT)
            assert shifted == reference

    def test_mass_scaling_exact(self, params):
        point = (100.0, 0.3, HEIGHT - 0.5, 100.0 / WIND)
        one = jet_concentration(1.0, 0.0, point, params, HEIGHT)
        assert jet_concentration(2.0, 0.0, point, params, HEIGHT) == 2.0 * one

    def test_negative_mass_rejected(self, params):
        with pytest.raises(DomainError):
            jet_concentration(-1.0, 0.0, (100.0, 0.0, HEIGHT, 1.0), params, HEIGHT)

    def test_peak_memory_on_broadcast_grid_within_ten_outputs(self, params):
        # an (n,1,1)·(1,m,1)·(1,1,k) grid, every point live: the coordinates
        # are not copied out to the grid first
        x = np.linspace(10.0, 20.0, 120)[:, None, None]
        y = np.linspace(-2.4, 2.4, 61)[None, :, None]
        z = np.linspace(HEIGHT - 2.4, HEIGHT + 2.4, 62)[None, None, :]
        out, peak = traced_peak(lambda: jet_concentration(2.0, 0.0, (x, y, z, 0.1), params,
                                                          HEIGHT))
        assert out.shape == (120, 61, 62) and out.all()
        assert peak <= 10 * out.nbytes

    @pytest.mark.parametrize("form", ["jet", "steady", "breath"])
    def test_peak_memory_on_broadcast_grid_within_three_outputs(self, params, form):
        # the same grid: at most two arrays of its size live at once, the
        # crosswind factor and the output, then the output and the jet's mass
        # times it
        x = np.linspace(10.0, 20.0, 120)[:, None, None]
        y = np.linspace(-2.4, 2.4, 61)[None, :, None]
        z = np.linspace(HEIGHT - 2.4, HEIGHT + 2.4, 62)[None, None, :]
        call = {
            "jet": lambda: jet_concentration(2.0, 0.0, (x, y, z, 0.1), params, HEIGHT),
            "steady": lambda: steady_state_concentration(2.0, (x, y, z), params, HEIGHT),
            "breath": lambda: breath_response(2.0, 0.0, (x, y, z, 0.1), params, HEIGHT),
        }[form]
        out, peak = traced_peak(call)
        assert out.shape == (120, 61, 62) and out.all()
        assert peak <= 3 * out.nbytes


# ---------------------------------------------------------------------------
# breath response
# ---------------------------------------------------------------------------


class TestBreathResponse:
    def test_zero_at_entry(self, params):
        assert breath_response(1.0, 5.0, (100.0, 0.0, HEIGHT, 5.0), params, HEIGHT) == 0.0
        assert breath_response(1.0, 5.0, (100.0, 0.0, HEIGHT, 2.0), params, HEIGHT) == 0.0

    def test_converges_to_steady_state(self, params):
        # x/(2 sqrt(scale)) = 120 here, far past the convergence condition
        point = (100.0, 0.4, HEIGHT + 0.7)
        steady = steady_state_concentration(1.0, point, params, HEIGHT)
        late = breath_response(1.0, 0.0, point + (1e6,), params, HEIGHT)
        assert late == pytest.approx(steady, rel=1e-6)

    def test_value_against_time_convolution_oracle(self, params):
        # frozen from 50-digit quadrature of the impulse response against a
        # unit step (the closed form is that integral exactly)
        got = breath_response(1.0, 0.0, (100.0, 0.0, HEIGHT, 50.0), params, HEIGHT)
        assert got == pytest.approx(0.0032883252704937055, rel=1e-6)

    def test_monotone_rise(self, params, rng):
        x = 80.0
        times = np.sort(rng.uniform(0.0, 3.0, 40)) + x / WIND - 0.05
        values = breath_response(1.0, 0.0, (x, 0.0, HEIGHT, times), params, HEIGHT)
        assert np.all(np.diff(values) >= 0.0)

    def test_negative_rate_rejected(self, params):
        with pytest.raises(DomainError):
            breath_response(-1.0, 0.0, (100.0, 0.0, HEIGHT, 1.0), params, HEIGHT)

    def test_erfc_route_against_quadrature(self):
        # the step response leans on the package's erfc; cross-check it
        # against its defining integral 2/sqrt(pi) * int_x^inf exp(-t^2) dt
        for x in (-2.0, -0.3, 0.0, 0.5, 1.0, 2.5, 4.0):
            tail, _ = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
                           x, np.inf, epsabs=1e-14)
            assert float(_erfc(x)) == pytest.approx(tail, abs=1e-12)


class TestSpecialFunctions:
    """The package's erfc against libm's (math.erfc, the same fdlibm rule)
    and its inverse against scipy and CPython's AS 241."""

    def test_erfc_within_4_ulp_of_libm(self):
        x = np.concatenate((np.linspace(-6.0, 27.3, 400_001),
                            np.random.default_rng(5).uniform(-6.0, 27.3, 100_000)))
        ours = _erfc(x)
        libm = np.array([math.erfc(v) for v in x])
        normal = libm >= np.finfo(float).tiny
        ulps = np.abs(ours[normal] - libm[normal]) / np.spacing(libm[normal])
        assert ulps.max() <= 4.0

    def test_erfc_subnormal_band(self):
        # libm does not flush erfc to 0 from x = 26.55 to 27.2: nor does this rule
        x = np.linspace(26.55, 27.3, 20_001)
        libm = np.array([math.erfc(v) for v in x])
        assert np.all(libm < np.finfo(float).tiny) and np.count_nonzero(libm) > 15_000
        assert np.max(np.abs(_erfc(x) - libm)) <= 4 * 5e-324

    def test_erfc_tails_and_non_finite(self):
        x = np.array([-np.inf, -1e300, -6.0, 28.0, 1e300, np.inf, 0.0, -0.0, np.nan])
        out = _erfc(x)
        assert out[:8].tolist() == [2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 1.0, 1.0]
        # comparisons with NaN are all false; it must not fall to a limit
        assert np.isnan(out[8])
        assert np.isnan(_erfc(np.nan))

    def test_erfc_keeps_shape(self):
        x = np.linspace(-7.0, 30.0, 12).reshape(3, 4)
        assert _erfc(x).shape == (3, 4)
        assert _erfc(0.5).shape == ()
        assert float(_erfc(0.5)) == math.erfc(0.5)

    def test_erfc_erfcinv_round_trip(self):
        """erfc inverts the delay runner's erfcinv(y) = -ndtri(y/2)/sqrt(2),
        with the standard library's normal quantile as ndtri."""
        import statistics

        y = np.concatenate((np.logspace(-300.0, math.log10(2.0), 20_001)[:-1],
                            [np.nextafter(2.0, 0.0)]))
        ndtri = statistics.NormalDist().inv_cdf
        x = np.array([-ndtri(v) for v in 0.5 * y]) / math.sqrt(2.0)
        # erfc(x) moves by 2x relative per unit x, so x's rounding grows by 2x^2
        assert np.max(np.abs(_erfc(x) - y) / y) <= 2e-12


# ---------------------------------------------------------------------------
# composite sources
# ---------------------------------------------------------------------------


class TestPersonResponse:
    def test_breath_only(self, params):
        src = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=2.0)
        point = (120.0, 0.5, HEIGHT, 30.0)
        assert person_response(src, point, params) == breath_response(
            2.0, 0.0, point, params, HEIGHT
        )

    def test_single_jet_only(self, params):
        src = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=0.0, jets=[(2.0, 7.0)])
        point = (120.0, 0.5, HEIGHT, 2.0 + 120.0 / WIND)
        assert person_response(src, point, params) == jet_concentration(
            7.0, 2.0, point, params, HEIGHT
        )

    def test_two_jets_superpose_exactly(self, params):
        t = 1.0 + 100.0 / WIND
        a = SourceSpec((0.0, 0.0, HEIGHT), jets=[(1.0, 3.0)])
        b = SourceSpec((0.0, 0.0, HEIGHT), jets=[(1.2, 4.0)])
        both = SourceSpec((0.0, 0.0, HEIGHT), jets=[(1.0, 3.0), (1.2, 4.0)])
        point = (100.0, 0.0, HEIGHT, t)
        assert person_response(both, point, params) == (
            person_response(a, point, params) + person_response(b, point, params)
        )

    def test_jet_before_entry_rejected(self):
        with pytest.raises(DomainError):
            SourceSpec((0.0, 0.0, HEIGHT), jets=[(1.0, 2.0)], entry_time=5.0)


class TestMultiUserResponse:
    def test_single_user_matches_person(self, params):
        src = SourceSpec((10.0, 2.0, HEIGHT), breath_rate=1.5)
        scenario = MultiUserScenario(users=(src,))
        point = (150.0, 0.0, HEIGHT, 20.0)
        assert multi_user_response(scenario, point, params) == person_response(
            src, point, params
        )

    def test_upwind_observation_is_zero(self, params):
        scenario = MultiUserScenario(
            users=(SourceSpec((200.0, 0.0, HEIGHT), breath_rate=1.0),)
        )
        assert multi_user_response(scenario, (100.0, 0.0, HEIGHT, 50.0), params) == 0.0

    def test_colocated_pair_doubles(self, params):
        src = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=1.0, jets=[(0.5, 2.0)])
        single = MultiUserScenario(users=(src,))
        double = MultiUserScenario(users=(src, src))
        point = (90.0, 0.2, HEIGHT, 3.0)
        assert multi_user_response(double, point, params) == 2.0 * multi_user_response(
            single, point, params
        )


class TestStochasticExpectedResponse:
    def make_scenario(self, p, n_users=1, interval=5.0, horizon=5.0):
        users = tuple(
            SourceSpec((0.0, 0.0, HEIGHT), jets=[(0.0, 4.0)]) for _ in range(n_users)
        )
        intervals = int(math.ceil(horizon / interval))
        grid = StochasticGrid(
            interval=interval,
            horizon=horizon,
            probabilities=tuple(tuple(p for _ in range(n_users)) for _ in range(intervals)),
        )
        return MultiUserScenario(users=users, stochastic=grid)

    def test_zero_probability_gives_zero(self, params):
        scenario = self.make_scenario(0.0)
        assert stochastic_expected_response(
            scenario, (100.0, 0.0, HEIGHT, 0.7), params
        ) == 0.0

    def test_certain_release_matches_deterministic_jet(self, params):
        scenario = self.make_scenario(1.0)
        point = (100.0, 0.0, HEIGHT, 100.0 / WIND)
        expected = jet_concentration(4.0, 0.0, point, params, HEIGHT)
        assert stochastic_expected_response(scenario, point, params) == expected

    def test_linear_in_probability(self, params):
        point = (100.0, 0.0, HEIGHT, 100.0 / WIND)
        full = stochastic_expected_response(self.make_scenario(1.0), point, params)
        half = stochastic_expected_response(self.make_scenario(0.5), point, params)
        assert half == 0.5 * full

    def test_missing_grid_is_configuration_error(self, params):
        # the channel layer names the scenario's field; the parser and CLI
        # own the scenario paths
        scenario = MultiUserScenario(users=(SourceSpec((0.0, 0.0, HEIGHT),
                                                       breath_rate=1.0),))
        with pytest.raises(DomainError, match="no stochastic grid") as info:
            stochastic_expected_response(scenario, (100.0, 0.0, HEIGHT, 1.0), params)
        assert info.value.field == "stochastic"
        assert not isinstance(info.value, ScenarioError)

    def test_release_interval_shape_validated(self):
        with pytest.raises(DomainError):
            StochasticGrid(interval=5.0, horizon=12.0, probabilities=((0.5,),))
        with pytest.raises(DomainError):
            StochasticGrid(interval=5.0, horizon=5.0, probabilities=((1.5,),))
        with pytest.raises(DomainError, match="horizon / interval overflows"):
            StochasticGrid(interval=1e-308, horizon=1e308, probabilities=())


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------


class TestSteadyState:
    def test_crosswind_mass_conservation(self, params):
        # integral over the crosswind plane must equal rate/u at any distance
        for x in (25.0, 150.0):
            scale = diffusion_scale(x, params)
            span = 14.0 * math.sqrt(scale)

            def z_integral(y):
                val, _ = quad(
                    lambda z: steady_state_concentration(1.0, (x, y, z), params, HEIGHT),
                    max(0.0, HEIGHT - span), HEIGHT + span, epsabs=1e-14, epsrel=1e-10,
                )
                return val

            total, _ = quad(z_integral, -span, span, epsabs=1e-14, epsrel=1e-9)
            assert total == pytest.approx(1.0 / WIND, rel=1e-6)

    def test_no_flux_at_ground(self, params):
        # the image construction makes the field even across z = 0, so the
        # central difference through the ground must vanish; a low source
        # makes the image term numerically significant
        step = 1e-3
        low = 2.0
        x = 50.0
        scale = diffusion_scale(x, params)

        def even_extension(z):
            # closed-form kernel without the z >= 0 gate
            return (
                1.0
                / (4.0 * WIND * math.pi * scale)
                * (math.exp(-((z - low) ** 2) / (4 * scale))
                   + math.exp(-((z + low) ** 2) / (4 * scale)))
            )

        # the packaged op agrees with the kernel on the physical side
        assert steady_state_concentration(1.0, (x, 0.0, step), params, low) == \
            pytest.approx(even_extension(step), rel=1e-14)
        peak = steady_state_concentration(1.0, (x, 0.0, low), params, low)
        central = (even_extension(step) - even_extension(-step)) / (2.0 * step)
        assert abs(central) < 1e-8 * peak

    def test_no_flux_at_ground_transient(self, params):
        step = 1e-3
        low = 2.0
        x = 50.0
        t = x / WIND
        scale = diffusion_scale(x, params)

        def even_extension(z):
            return (
                1.0
                / (8.0 * (math.pi * scale) ** 1.5)
                * (math.exp(-((z - low) ** 2) / (4 * scale))
                   + math.exp(-((z + low) ** 2) / (4 * scale)))
            )

        assert impulse_response((x, 0.0, step, t), params, low) == \
            pytest.approx(even_extension(step), rel=1e-14)
        peak = impulse_response((x, 0.0, low, t), params, low)
        central = (even_extension(step) - even_extension(-step)) / (2.0 * step)
        assert abs(central) < 1e-8 * peak

    def test_gaussian_shape_and_scaling(self, params):
        x = 100.0
        scale = diffusion_scale(x, params)
        center = steady_state_concentration(1.0, (x, 0.0, HEIGHT), params, HEIGHT)
        off = steady_state_concentration(1.0, (x, 1.0, HEIGHT), params, HEIGHT)
        assert off / center == pytest.approx(math.exp(-1.0 / (4.0 * scale)), rel=1e-12)

    def test_far_downwind_limit_without_warnings(self, params):
        """At x = 1e308 the prefactors overflow to inf, or for a linear K the
        diffusion scale itself does, and x = inf is never evaluated; all three
        closed forms return their exact limit 0, quietly."""
        for p, x in ((params, 1e308), (params, math.inf), (LINEAR_K_PARAMS, 1e308),
                     (LINEAR_K_PARAMS, math.inf)):
            point = (x, 0.0, HEIGHT)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = (
                    steady_state_concentration(1.0, point, p, HEIGHT),
                    breath_response(1.0, 0.0, (*point, 5.0), p, HEIGHT),
                    impulse_response((*point, 5.0), p, HEIGHT),
                )
            assert all(np.isfinite(v) and v == 0.0 for v in values)

    def test_negative_rate_rejected(self, params):
        with pytest.raises(DomainError):
            steady_state_concentration(-1.0, (100.0, 0.0, HEIGHT), params, HEIGHT)


# ---------------------------------------------------------------------------
# frequency response
# ---------------------------------------------------------------------------


class TestFrequencyResponse:
    def test_normalized_magnitude_is_gaussian_in_omega(self, params):
        point = (100.0, 0.0, HEIGHT)
        scale = diffusion_scale(100.0, params)
        omegas = np.linspace(0.0, 400.0, 33)
        response = frequency_response(point, omegas, params, HEIGHT)
        expected = np.exp(-(omegas**2) * scale / WIND**2)
        ratio = np.asarray(response.magnitude) / response.magnitude[0]
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_zero_frequency_is_steady_plume_per_unit_rate(self, params):
        for point in ((100.0, 0.0, HEIGHT), (40.0, 0.7, HEIGHT - 1.2), (250.0, -2.0, 20.0)):
            response = frequency_response(point, 0.0, params, HEIGHT)
            steady = steady_state_concentration(1.0, point, params, HEIGHT)
            assert response.magnitude == steady

    def test_phase_is_transport_delay(self, params):
        point = (100.0, 0.0, HEIGHT)
        omega = 0.02
        response = frequency_response(point, omega, params, HEIGHT)
        assert response.phase == pytest.approx(-omega * 100.0 / WIND, rel=1e-12)
        unwrapped = frequency_response(point, 300.0, params, HEIGHT, unwrap_phase=True)
        assert unwrapped.phase == pytest.approx(-300.0 * 100.0 / WIND, rel=1e-12)

    def test_magnitude_even_phase_odd(self, params):
        point = (100.0, 0.0, HEIGHT)
        for omega in (0.01, 1.7, 55.0):
            pos = frequency_response(point, omega, params, HEIGHT)
            neg = frequency_response(point, -omega, params, HEIGHT)
            assert pos.magnitude == neg.magnitude
            assert pos.phase == pytest.approx(-neg.phase, rel=1e-12)

    # u * u underflows to 0 at 1e-300 cm/s, and x K / u overflows at a
    # subnormal wind
    @pytest.mark.parametrize("wind", [1e-300, 5e-324])
    def test_slow_wind_raises_without_warnings(self, wind):
        params = ChannelParams.with_constant(wind, DIFFUSIVITY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                frequency_response((100.0, 0.0, HEIGHT), [0.0, 1.0], params, HEIGHT)

    def test_infinite_scale_limit_without_warnings(self, params):
        """With K = 0.242 (1 + x/150) the diffusion scale is inf at x = 1e308:
        the magnitude is its limit 0 and the phase is the transport delay,
        which does not depend on K."""
        point, omega = (1e308, 0.0, HEIGHT), [0.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            response = frequency_response(point, omega, LINEAR_K_PARAMS, HEIGHT)
            constant_k = frequency_response(point, omega, params, HEIGHT)
        assert np.array_equal(response.magnitude, [0.0, 0.0])
        assert np.array_equal(response.phase, constant_k.phase)

    @pytest.mark.parametrize("point, omega, named", [
        ((math.nan, 0.0, HEIGHT), 1.0, "coordinates"),
        ((100.0, math.nan, HEIGHT), 1.0, "coordinates"),
        ((100.0, 0.0, math.nan), 1.0, "coordinates"),
        ((100.0, 0.0, HEIGHT), math.nan, "omega"),
    ])
    def test_nan_input_named(self, params, point, omega, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{named} must not be NaN"):
                frequency_response(point, [0.0, omega], params, HEIGHT)

    # the magnitude is finite at 140 cm/s, but omega x / u overflows
    @pytest.mark.parametrize("unwrap", [False, True])
    def test_overflowing_phase_raises_without_warnings(self, params, unwrap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="phase"):
                frequency_response((100.0, 0.0, HEIGHT), [0.0, 1.7e308], params, HEIGHT,
                                   unwrap_phase=unwrap)

    def test_infinite_omega_named(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                frequency_response((100.0, 0.0, HEIGHT), [0.0, -math.inf], params, HEIGHT)
        assert excinfo.value.field == "omega"

    def test_principal_phase_within_interval(self, params):
        omegas = np.linspace(0.0, 2000.0, 501)
        response = frequency_response((100.0, 0.0, HEIGHT), omegas, params, HEIGHT)
        phase = np.asarray(response.phase)
        assert np.all(phase > -math.pi) and np.all(phase <= math.pi)

    def test_scale_evaluated_once_per_distance(self, params, monkeypatch):
        """s is computed on x's shape, not on the (x, omega) grid: 10 distances
        against 400 frequencies cost 10 scale points."""
        points = []

        def counted(x, p):
            points.append(np.size(x))
            return diffusion_scale(x, p)

        monkeypatch.setattr(channel, "diffusion_scale", counted)
        x = np.linspace(50.0, 500.0, 10)[:, None]
        response = frequency_response((x, 0.0, HEIGHT), np.linspace(0.0, 400.0, 400), params,
                                      HEIGHT)
        assert response.magnitude.shape == response.phase.shape == (10, 400)
        assert sum(points) == 10


# ---------------------------------------------------------------------------
# linearity and time invariance
# ---------------------------------------------------------------------------


class TestLinearTimeInvariant:
    def test_superposition_over_random_source_pairs(self, params, rng):
        for _ in range(100):
            rate1, rate2 = rng.uniform(0.1, 5.0, 2)
            mass1, mass2 = rng.uniform(0.5, 10.0, 2)
            t1, t2 = rng.uniform(0.0, 2.0, 2)
            a, b = rng.uniform(0.0, 3.0, 2)
            src1 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=rate1, jets=[(t1, mass1)])
            src2 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=rate2, jets=[(t2, mass2)])
            scaled1 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=a * rate1,
                                 jets=[(t1, a * mass1)] if a > 0 else [])
            scaled2 = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=b * rate2,
                                 jets=[(t2, b * mass2)] if b > 0 else [])
            x = rng.uniform(20.0, 300.0)
            # keep the jet argument in a numerically meaningful band
            t = max(t1, t2) + x / WIND + rng.uniform(-0.005, 0.005)
            point = (x, rng.uniform(-1.0, 1.0), HEIGHT + rng.uniform(-1.0, 1.0), t)
            combined = multi_user_response(
                MultiUserScenario(users=(scaled1, scaled2)), point, params
            )
            expected = a * person_response(src1, point, params) + b * person_response(
                src2, point, params
            )
            assert combined == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_time_invariance_over_random_shifts(self, params, rng):
        # the response to a shifted release, observed at time t, equals the
        # unshifted response observed at t - t0 -- bitwise, because both
        # paths evaluate the kernel at the identical elapsed time
        for _ in range(100):
            x = rng.uniform(20.0, 300.0)
            shift = rng.uniform(0.0, 50.0)
            t = shift + x / WIND + rng.uniform(-0.004, 0.004)
            lag = t - shift
            shifted = jet_concentration(2.0, shift, (x, 0.3, HEIGHT, t), params, HEIGHT)
            base = jet_concentration(2.0, 0.0, (x, 0.3, HEIGHT, lag), params, HEIGHT)
            assert shifted == base


# ---------------------------------------------------------------------------
# references: the closed forms as they were before the shared downwind kernel
# ---------------------------------------------------------------------------


def _reference_flat(*coords):
    arrays = [np.asarray(c, dtype=float) for c in coords]
    shape = np.broadcast(*arrays).shape
    return shape, [np.broadcast_to(a, shape).reshape(-1) for a in arrays]


def _reference_output(values, shape):
    out = np.asarray(values).reshape(shape)
    return float(out) if shape == () else out


def _reference_crosswind(y, z, scale, height):
    return np.exp(-(y * y) / (4.0 * scale)) * (
        np.exp(-((z - height) ** 2) / (4.0 * scale))
        + np.exp(-((z + height) ** 2) / (4.0 * scale))
    )


def _reference_band(x_pos, params):
    if np.any(x_pos < params.x_min):
        raise EvaluationDomainError("downwind distance below x_min")


def reference_impulse_response(point, params, height):
    """impulse_response with its own upwind mask, band check and crosswind factor."""
    shape, (X, Y, Z, T) = _reference_flat(*point)
    out = np.zeros(X.shape)
    pos = X > 0.0
    if pos.any():
        _reference_band(X[pos], params)
        s = np.asarray(diffusion_scale(X[pos], params))
        u = params.wind_speed
        with np.errstate(over="ignore"):
            out[pos] = (
                np.exp(-((X[pos] - u * T[pos]) ** 2) / (4.0 * s))
                / (8.0 * (np.pi * s) ** 1.5)
                * _reference_crosswind(Y[pos], Z[pos], s, height)
            )
    return _reference_output(out, shape)


def reference_jet_concentration(mass, release_time, point, params, height):
    x, y, z, t = (np.asarray(c, dtype=float) for c in point)
    h = np.asarray(reference_impulse_response((x, y, z, t - release_time), params, height))
    return _reference_output(np.where(t >= release_time, mass * h, 0.0),
                             np.broadcast(t, h).shape)


def reference_breath_response(rate, entry_time, point, params, height):
    """breath_response with its own masks: the band on x > 0, the erfc step
    on x > 0 after entry."""
    shape, (X, Y, Z, T) = _reference_flat(*point)
    out = np.zeros(X.shape)
    elapsed = T - entry_time
    pos = X > 0.0
    if pos.any():
        _reference_band(X[pos], params)
    live = pos & (elapsed > 0.0)
    if live.any():
        s = np.asarray(diffusion_scale(X[live], params))
        u = params.wind_speed
        root = 2.0 * np.sqrt(s)
        step = np.maximum(_erfc((X[live] - u * elapsed[live]) / root)
                          - _erfc(X[live] / root), 0.0)
        with np.errstate(over="ignore"):
            out[live] = (
                rate / (8.0 * np.pi * s * u) * step
                * _reference_crosswind(Y[live], Z[live], s, height)
            )
    return _reference_output(out, shape)


def reference_steady_state_concentration(rate, point, params, height):
    shape, (X, Y, Z) = _reference_flat(*point[:3])
    out = np.zeros(X.shape)
    pos = X > 0.0
    if pos.any():
        _reference_band(X[pos], params)
        s = np.asarray(diffusion_scale(X[pos], params))
        with np.errstate(over="ignore"):
            out[pos] = (
                rate / (4.0 * params.wind_speed * np.pi * s)
                * _reference_crosswind(Y[pos], Z[pos], s, height)
            )
    return _reference_output(out, shape)


def _reference_person(user, point, params):
    x, y, z, t = point
    local = (x - user.x, y - user.y, z, t)
    out = reference_breath_response(user.breath_rate, user.entry_time, local, params,
                                    user.height)
    for jet in user.jets:
        out = out + reference_jet_concentration(jet.mass, jet.time, local, params,
                                                user.height)
    return out


def reference_multi_user_response(scenario, point, params):
    """multi_user_response with its downwind and entry-time gate."""
    shape, (X, Y, Z, T) = _reference_flat(*point)
    total = np.zeros(X.shape)
    for user in scenario.users:
        gate = (X >= user.x) & (T >= user.entry_time)
        if gate.any():
            contrib = np.broadcast_to(
                np.asarray(_reference_person(user, (X, Y, Z, T), params)), X.shape)
            total += np.where(gate, contrib, 0.0)
    return _reference_output(total, shape)


def reference_stochastic_expected_response(scenario, point, params):
    """stochastic_expected_response with its downwind gate."""
    grid = scenario.stochastic
    shape, (X, Y, Z, T) = _reference_flat(*point)
    total = np.zeros(X.shape)
    for i, t_release in enumerate(grid.release_times()):
        for j, user in enumerate(scenario.users):
            p = grid.probabilities[i][j]
            if p == 0.0:
                continue
            gate = X >= user.x
            if not gate.any():
                continue
            local = (X - user.x, Y - user.y, Z, T)
            contrib = reference_jet_concentration(scenario.stochastic_jet_mass(j), t_release,
                                                  local, params, user.height)
            total += np.where(gate, p * np.asarray(contrib), 0.0)
    return _reference_output(total, shape)


def _bits(f, *args):
    """(is a float, uint64 view) of f(*args), or the type of the DomainError
    it raises; numpy warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = f(*args)
        except DomainError as exc:
            return type(exc)
    return isinstance(value, float), np.asarray(value, dtype=float).view(np.uint64)


def assert_same_bits(new, old):
    if isinstance(new, type) or isinstance(old, type):
        assert new is old
    else:
        assert new[0] == old[0] and np.array_equal(new[1], old[1])


def _sweep_point(rng, variable):
    """A batch of points, or one scalar point, over the input classes: upwind,
    x = +-0.0, downwind, just past x_min, far downwind (1e308 for a constant
    K), and now and then the near-source band."""
    n = int(rng.choice([1, 7, 40]))
    far = 1e5 if variable else 1e308
    x = np.choose(rng.integers(0, 5, n), [
        rng.uniform(-400.0, 0.0, n), rng.choice([0.0, -0.0], n), rng.uniform(1.0, 600.0, n),
        rng.uniform(1.0, 3.0, n), np.full(n, far)])
    if rng.random() < 0.1:
        x[rng.integers(n)] = 0.5
    height = float(rng.choice([HEIGHT, 2.0]))
    z = np.where(rng.random(n) < 0.1, 0.0, np.abs(height + rng.normal(0.0, 3.0, n)))
    point = (x, rng.normal(0.0, 3.0, n), z, rng.uniform(-5.0, 20.0, n))
    if n == 1 and rng.random() < 0.5:
        point = tuple(float(c[0]) for c in point)
    return point, height


def _aimed(rng, point, x0, t0):
    """``point`` with half its times moved to within a few pulse widths of
    the arrival of a jet released at (x0, t0), so that jets are seen."""
    x, y, z, t = point
    arrival = (np.asarray(x) - x0) / WIND + t0 + rng.normal(0.0, 0.005, np.shape(x))
    t = np.where(rng.random(np.shape(x)) < 0.5, arrival, t)
    return x, y, z, t if np.ndim(x) else float(t)


def _sweep_scenario(rng):
    """One to three users, some downwind of part of the points, entering and
    releasing jets at random times, with a release grid over them."""
    users = []
    for _ in range(int(rng.integers(1, 4))):
        entry = float(rng.uniform(0.0, 8.0))
        jets = [(entry + float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 5.0)))
                for _ in range(int(rng.integers(0, 3)))]
        users.append(SourceSpec(
            (float(rng.uniform(-50.0, 300.0)), float(rng.normal(0.0, 2.0)),
             float(rng.choice([HEIGHT, 2.0]))),
            breath_rate=float(rng.uniform(0.0, 3.0)), jets=jets, entry_time=entry))
    interval = float(rng.uniform(0.5, 3.0))
    rows = int(rng.integers(1, 5))
    probabilities = np.where(rng.random((rows, len(users))) < 0.3, 0.0,
                             rng.random((rows, len(users))))
    grid = StochasticGrid(interval, interval * (rows - 0.5), tuple(map(tuple, probabilities)),
                          jet_masses=tuple(rng.uniform(0.5, 5.0, len(users))))
    return MultiUserScenario(users=tuple(users), stochastic=grid)


class TestDownwindKernelAgainstReference:
    @pytest.mark.parametrize("variable", [False, True], ids=["constant_k", "linear_k"])
    def test_bit_identical_over_input_classes(self, params, variable):
        """The closed forms behind the shared kernel return the bits of the
        ones before it, or raise the same error, over 35 random batches each."""
        p = LINEAR_K_PARAMS if variable else params
        rng = np.random.default_rng(20261018 + variable)
        for _ in range(35):
            point, height = _sweep_point(rng, variable)
            rate, mass, start = rng.uniform(0.0, 3.0), rng.uniform(0.5, 5.0), rng.uniform(-2, 5)
            scenario = _sweep_scenario(rng)
            first = scenario.users[0]
            seen = _aimed(rng, point, first.x, first.jets[0].time if first.jets else 0.0)
            released = _aimed(rng, point, first.x,
                              rng.choice(scenario.stochastic.release_times()))
            pairs = [
                # the impulse response is the unit jet, gated at its release
                (impulse_response, lambda *args: reference_jet_concentration(1.0, 0.0, *args),
                 (_aimed(rng, point, 0.0, 0.0), p, height)),
                (jet_concentration, reference_jet_concentration,
                 (mass, start, _aimed(rng, point, 0.0, start), p, height)),
                (breath_response, reference_breath_response, (rate, start, point, p, height)),
                (steady_state_concentration, reference_steady_state_concentration,
                 (rate, point[:3], p, height)),
                (person_response, _reference_person, (first, seen, p)),
                (multi_user_response, reference_multi_user_response, (scenario, seen, p)),
                (stochastic_expected_response, reference_stochastic_expected_response,
                 (scenario, released, p)),
            ]
            for new, old, args in pairs:
                assert_same_bits(_bits(new, *args), _bits(old, *args))

    @pytest.mark.parametrize("variable", [False, True], ids=["constant_k", "linear_k"])
    def test_bit_identical_on_broadcast_grids(self, params, variable):
        """Coordinates of shapes (n,1,1), (1,m,1), (1,1,k) and a time of any
        of those shapes or a scalar give the bits of the flattened
        reference, and the frequency response those of its flattened grid."""
        p = LINEAR_K_PARAMS if variable else params
        x = np.array([-3.0, 0.0, 1.5, 40.0, 210.0])[:, None, None]
        y = np.array([-1.0, 0.0, 0.7])[None, :, None]
        z = np.array([0.0, HEIGHT - 0.5, HEIGHT])[None, None, :]
        users = (SourceSpec((0.0, 0.0, HEIGHT), breath_rate=1.0, jets=((0.1, 2.0),)),
                 SourceSpec((20.0, 0.5, HEIGHT), breath_rate=0.5, entry_time=0.2))
        scenario = MultiUserScenario(users=users, stochastic=StochasticGrid(
            0.25, 0.5, ((0.5, 0.0), (0.25, 1.0)), jet_masses=(1.0, 3.0)))
        for t in (0.3, np.array([0.05, 0.3, 1.6])[None, None, :],
                  np.linspace(0.0, 1.6, 45).reshape(5, 3, 3)):
            point = (x, y, z, t)
            pairs = [
                (impulse_response, reference_impulse_response, (point, p, HEIGHT)),
                (jet_concentration, reference_jet_concentration, (2.0, 0.1, point, p, HEIGHT)),
                (breath_response, reference_breath_response, (1.5, 0.1, point, p, HEIGHT)),
                (steady_state_concentration, reference_steady_state_concentration,
                 (1.5, point[:3], p, HEIGHT)),
                (multi_user_response, reference_multi_user_response, (scenario, point, p)),
                (stochastic_expected_response, reference_stochastic_expected_response,
                 (scenario, point, p)),
            ]
            for new, old, args in pairs:
                assert_same_bits(_bits(new, *args), _bits(old, *args))
        omega = np.array([0.0, 3.0, 40.0, 7.5])[:, None, None, None]
        point = (x[2:], y, z[:, :, 1:])
        grid = frequency_response(point, omega, p, HEIGHT)
        X, Y, Z, W = (c.ravel() for c in np.broadcast_arrays(*point, omega))
        flat = frequency_response((X, Y, Z), W, p, HEIGHT)
        assert np.array_equal(grid.magnitude.ravel(), flat.magnitude)
        assert np.array_equal(grid.phase.ravel(), flat.phase)

    def test_near_source_band_raises_before_entry(self, params):
        """Every user's response is evaluated at every point, so a point in
        the near-source band raises even before that user enters."""
        scenario = MultiUserScenario(
            users=(SourceSpec((0.0, 0.0, HEIGHT), breath_rate=1.0, entry_time=5.0),))
        with pytest.raises(EvaluationDomainError):
            multi_user_response(scenario, (0.5, 0.0, HEIGHT, 1.0), params)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call", [
        lambda p: steady_state_concentration(math.nan, (100.0, 0.0, HEIGHT), p, HEIGHT),
        lambda p: breath_response(math.nan, 0.0, (100.0, 0.0, HEIGHT, 1.0), p, HEIGHT),
        lambda p: jet_concentration(math.nan, 0.0, (100.0, 0.0, HEIGHT, 1.0), p, HEIGHT),
        lambda p: breath_response(1.0, math.nan, (100.0, 0.0, HEIGHT, 1.0), p, HEIGHT),
        lambda p: breath_response(1.0, -math.inf, (100.0, 0.0, HEIGHT, 1.0), p, HEIGHT),
        lambda p: steady_state_concentration(1.0, (math.nan, 0.0, HEIGHT), p, HEIGHT),
        lambda p: steady_state_concentration(1.0, (100.0, math.nan, HEIGHT), p, HEIGHT),
        lambda p: steady_state_concentration(1.0, (100.0, 0.0, math.nan), p, HEIGHT),
        lambda p: impulse_response(([50.0, math.nan], 0.0, HEIGHT, 1.0), p, HEIGHT),
        lambda p: breath_response(1.0, 0.0, (100.0, [0.0, math.nan], HEIGHT, 1.0), p, HEIGHT),
    ], ids=["steady_rate", "breath_rate", "jet_mass", "entry_nan", "entry_inf", "steady_x",
            "steady_y", "steady_z", "impulse_x", "breath_y"])
    def test_nan_inputs_rejected(self, params, call):
        with pytest.raises(DomainError):
            call(params)


# ---------------------------------------------------------------------------
# broken rules name their field
# ---------------------------------------------------------------------------

_BREATHER = SourceSpec((0.0, 0.0, HEIGHT), breath_rate=1.0)
_COUGHER = SourceSpec((0.0, 0.0, HEIGHT), jets=((0.0, 1.0),))
_VANISHING_K = ChannelParams.with_constant(WIND, 1e-320)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, field", [
    # the release grid: count, overflow, row, entry and mass rules
    (lambda: StochasticGrid(5.0, 12.0, ((0.5,),)), "probabilities"),
    (lambda: StochasticGrid(5.0, 12.0, [0.5]), "probabilities"),
    (lambda: StochasticGrid(1e-308, 1e308, ()), "interval"),
    (lambda: StochasticGrid(1e308, 1e-308, ()), "interval"),
    (lambda: StochasticGrid(0.0, 5.0, ()), "interval"),
    (lambda: StochasticGrid(5.0, -1.0, ()), "horizon"),
    (lambda: StochasticGrid(5.0, 5.0, [0.5]), "probabilities[0]"),
    (lambda: StochasticGrid(5.0, 10.0, ((0.5, 0.5), (0.5,))), "probabilities[1]"),
    (lambda: StochasticGrid(5.0, 10.0, ((0.5,), (1.5,))), "probabilities[1][0]"),
    (lambda: StochasticGrid(5.0, 5.0, ((0.5, "x"),)), "probabilities[0][1]"),
    (lambda: StochasticGrid(5.0, 5.0, ((True,),)), "probabilities[0][0]"),
    (lambda: StochasticGrid(5.0, 5.0, ((10**400,),)), "probabilities[0][0]"),
    (lambda: StochasticGrid(5.0, 5.0, ((0.5, 0.5),), jet_masses=(1.0, -1.0)),
     "jet_masses[1]"),
    # the grid against the users: width, mass count, no jets without masses
    (lambda: MultiUserScenario(()), "users"),
    (lambda: MultiUserScenario((_COUGHER, _COUGHER), StochasticGrid(5.0, 5.0, ((0.5,),))),
     "stochastic.probabilities[0]"),
    (lambda: MultiUserScenario((_COUGHER,), StochasticGrid(5.0, 5.0, ((0.5,),), (1.0, 2.0))),
     "stochastic.jet_masses"),
    (lambda: MultiUserScenario((_COUGHER, _BREATHER),
                               StochasticGrid(5.0, 5.0, ((0.5, 0.5),))),
     "stochastic.jet_masses"),
    # one source: location and jet time
    (lambda: SourceSpec((0.0, 0.0, 0.0)), "location"),
    (lambda: SourceSpec((0.0, 0.0)), "location"),
    (lambda: SourceSpec((0.0, 0.0, HEIGHT), breath_rate=-1.0), "breath_rate"),
    (lambda: SourceSpec((0.0, 0.0, HEIGHT), jets=((2.0, 1.0), (0.5, 1.0)), entry_time=1.0),
     "jets[1].time"),
    # the closed forms blame the channel or experiment quantity at fault
    (lambda: steady_state_concentration(1.0, (100.0, 0.0, HEIGHT), _VANISHING_K, HEIGHT),
     "diffusivity"),
    (lambda: breath_response(1.0, 0.0, (100.0, [0.0, 1.0], HEIGHT, 1.0), _VANISHING_K, HEIGHT),
     "diffusivity"),
    (lambda: jet_concentration(1.0, 0.5, (100.0, 0.0, HEIGHT, 1.0), _VANISHING_K, HEIGHT),
     "diffusivity"),
    (lambda: frequency_response((100.0, 0.0, HEIGHT), [0.0, 1.0], _VANISHING_K, HEIGHT),
     "diffusivity"),
    (lambda: frequency_response((100.0, 0.0, HEIGHT), [0.0, 1.0],
                                ChannelParams.with_constant(1e-300, DIFFUSIVITY), HEIGHT),
     "wind_speed"),
    (lambda: frequency_response((100.0, 0.0, HEIGHT), [0.0, 1.7e308],
                                ChannelParams.with_constant(WIND, DIFFUSIVITY), HEIGHT),
     "omega"),
    (lambda: steady_state_concentration(1.0, (0.5, 0.0, HEIGHT),
                                        ChannelParams.with_constant(WIND, DIFFUSIVITY), HEIGHT),
     "x_min"),
])
def test_broken_rule_names_its_field(call, field):
    """Each typed object raises its rules naming the field at fault, and
    each closed form the quantity it blames, without a numpy warning."""
    with pytest.raises(DomainError) as excinfo:
        call()
    assert excinfo.value.field == field
