"""Receiver integral, ML decision rule, and missed-detection formulas."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from plumesense.channel import (
    ChannelParams,
    DiffusivityProfile,
    MultiUserScenario,
    SourceSpec,
    breath_response,
    jet_concentration,
    multi_user_response,
    steady_field,
)
from plumesense.errors import DomainError, GeometryError
from plumesense.receiver import (
    _ball_rule,
    _legendre_rule,
    ReceiverSpec,
    decide,
    ml_threshold,
    pmd_conservative,
    pmd_exact,
    q_function,
    receiver_exposure,
)

from conftest import HEIGHT, RADIUS


def fresh_gauss_legendre(n, lo, hi):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def reference_exposure(recv, field, t_start, orders):
    """receiver_exposure with Gauss-Legendre nodes computed afresh on every call."""
    n_x, n_rho, n_psi, n_t = orders
    xi, w_x = fresh_gauss_legendre(n_x, -recv.radius, recv.radius)
    unit, w_unit = fresh_gauss_legendre(n_rho, 0.0, 1.0)
    psi, w_psi = fresh_gauss_legendre(n_psi, 0.0, 2.0 * np.pi)
    t, w_t = fresh_gauss_legendre(n_t, t_start, t_start + recv.sampling_window)
    rho_max = np.sqrt(recv.radius * recv.radius - xi * xi)[:, None, None, None]
    RHO = rho_max * unit[None, :, None, None]
    PSI = psi[None, None, :, None]
    TT = np.broadcast_to(t[None, None, None, :], (n_x, n_rho, n_psi, n_t))
    cx, cy, cz = recv.center
    X = cx + xi[:, None, None, None]
    Y = cy + RHO * np.cos(PSI)
    Z = cz + RHO * np.sin(PSI)
    values = np.asarray(field(X, Y, Z, TT), dtype=float)
    weight = (
        (w_x[:, None, None, None] * rho_max * rho_max)
        * (unit * w_unit)[None, :, None, None]
        * w_psi[None, None, :, None]
        * w_t[None, None, None, :]
    )
    return float(np.sum(values * weight))


def spherical_exposure(recv, field, t_start, orders):
    """The same integral in spherical coordinates about z, with (radial,
    polar, azimuthal, time) orders: an independent route through other nodes."""
    n_r, n_theta, n_phi, n_t = orders
    r, w_r = fresh_gauss_legendre(n_r, 0.0, recv.radius)
    theta, w_theta = fresh_gauss_legendre(n_theta, 0.0, np.pi)
    phi, w_phi = fresh_gauss_legendre(n_phi, 0.0, 2.0 * np.pi)
    t, w_t = fresh_gauss_legendre(n_t, t_start, t_start + recv.sampling_window)
    R = r[:, None, None, None]
    TH = theta[None, :, None, None]
    PH = phi[None, None, :, None]
    TT = np.broadcast_to(t[None, None, None, :], (n_r, n_theta, n_phi, n_t))
    cx, cy, cz = recv.center
    X = cx + R * np.sin(TH) * np.cos(PH)
    Y = cy + R * np.sin(TH) * np.sin(PH)
    Z = cz + R * np.cos(TH)
    values = np.asarray(field(X, Y, Z, TT), dtype=float)
    jacobian = (R * R) * np.sin(TH)
    weight = (
        w_r[:, None, None, None]
        * w_theta[None, :, None, None]
        * w_phi[None, None, :, None]
        * w_t[None, None, None, :]
    )
    return float(np.sum(values * jacobian * weight))


def chord_capture_exposure(recv, wind):
    """Steady unit-rate plume's exposure by an independent reduction: the
    crosswind integral of the plume is rate/u at every x, so the sphere
    integral is the chord integral of the captured fraction
    1 - exp(-(a^2 - dx^2) / (4*scale(x))), with scale = K x / u."""
    radius = recv.radius

    def captured(dx):
        scale = 0.242 * (recv.center[0] + dx) / wind
        return -math.expm1(-(radius**2 - dx**2) / (4.0 * scale)) / wind

    chord, _ = quad(captured, -radius, radius, epsabs=1e-14, epsrel=1e-12)
    return chord * recv.sampling_window


def slow_air_fields(params):
    # in slow air the jet's pulse passes the sphere mid-window and spans
    # several time nodes; at 140 cm/s it falls between them
    slow = ChannelParams.with_constant(8.0, params.diffusivity.k0)
    return {
        "breath": lambda x, y, z, t: breath_response(1.0, 0.0, (x, y, z, t), params, HEIGHT),
        "jet": lambda x, y, z, t: jet_concentration(1.0, -11.0, (x, y, z, t), slow, HEIGHT),
    }


def reference_fields(params):
    """Fields whose values take every shape the rule meets: the steady
    plume's (no time axis) under a constant and a linear K, and the full
    time axis of a breath, a slow-air jet and two users with jets."""
    linear = ChannelParams(params.wind_speed, DiffusivityProfile.from_function(
        lambda x: 0.242 * (1.0 + np.asarray(x) / 150.0)))
    slow = ChannelParams.with_constant(8.0, params.diffusivity.k0)
    users = MultiUserScenario(users=(
        SourceSpec((0.0, 0.0, HEIGHT), breath_rate=1.0, jets=((-11.0, 1.0),), entry_time=-12.0),
        SourceSpec((20.0, 0.4, HEIGHT - 0.5), breath_rate=0.5, jets=((-9.5, 2.0), (-8.0, 1.5)),
                   entry_time=-10.0)))
    return {
        "steady": steady_field(1.0, params, HEIGHT),
        "steady_linear_k": steady_field(1.0, linear, HEIGHT),
        **slow_air_fields(params),
        "users_with_jets": lambda x, y, z, t: multi_user_response(users, (x, y, z, t), slow),
    }


@pytest.fixture(scope="module")
def recv():
    return ReceiverSpec(
        center=(100.0, 0.0, HEIGHT),
        radius=RADIUS,
        sampling_window=3.0,
        sampler_efficiency=0.85,
        binding_fraction=0.5,
    )


class TestReceiverSpec:
    def test_sphere_must_clear_ground(self):
        with pytest.raises(GeometryError):
            ReceiverSpec((100.0, 0.0, 1.5), 2.0, 3.0, 0.85, 0.5)
        with pytest.raises(GeometryError):
            ReceiverSpec((100.0, 0.0, 2.0), 2.0, 3.0, 0.85, 0.5)

    def test_fraction_bounds(self):
        for xi in (0.0, 1.1, -0.2, math.nan):
            with pytest.raises(DomainError):
                ReceiverSpec((100.0, 0.0, HEIGHT), 2.0, 3.0, xi, 0.5)
        for gamma in (0.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                ReceiverSpec((100.0, 0.0, HEIGHT), 2.0, 3.0, 0.85, gamma)

    def test_volume(self, recv):
        assert recv.volume == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-15)


class TestReceiverExposure:
    def test_zero_field(self, recv):
        zero = lambda x, y, z, t: np.zeros(np.shape(x))
        assert receiver_exposure(recv, zero) == 0.0

    def test_uniform_field(self, recv):
        c0 = 3.7
        uniform = lambda x, y, z, t: np.full(np.shape(x), c0)
        expected = c0 * recv.volume * recv.sampling_window
        assert receiver_exposure(recv, uniform) == pytest.approx(expected, rel=1e-10)

    def test_linear_in_field(self, recv, params):
        f1 = steady_field(1.0, params, HEIGHT)
        f2 = lambda x, y, z, t: np.full(np.shape(x), 0.01)
        combo = lambda x, y, z, t: 2.0 * f1(x, y, z, t) + 3.0 * f2(x, y, z, t)
        a = receiver_exposure(recv, f1, orders=(32, 16, 32, 4))
        b = receiver_exposure(recv, f2, orders=(32, 16, 32, 4))
        c = receiver_exposure(recv, combo, orders=(32, 16, 32, 4))
        assert c == pytest.approx(2.0 * a + 3.0 * b, rel=1e-12)

    def test_steady_plume_value_against_chord_capture(self, recv, params):
        expected = chord_capture_exposure(recv, 140.0)
        got = receiver_exposure(recv, steady_field(1.0, params, HEIGHT),
                                orders=(48, 48, 48, 4))
        assert got == pytest.approx(expected, rel=1e-9)
        # the default orders resolve the narrow plume to a few parts in 1e12 here
        coarse = receiver_exposure(recv, steady_field(1.0, params, HEIGHT))
        assert coarse == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("wind", [70.0, 140.0, 280.0])
    def test_default_orders_meet_chord_capture_over_the_paper_range(self, wind):
        # the narrowest plume is the fastest wind at the nearest distance:
        # 280 cm/s at 50 cm, where the default orders measure +5.3e-6
        params = ChannelParams.with_constant(wind, 0.242)
        field = steady_field(1.0, params, HEIGHT)
        for distance in (50.0, 100.0, 250.0, 500.0, 2500.0, 30000.0):
            recv = ReceiverSpec((distance, 0.0, HEIGHT), RADIUS, 3.0, 0.85, 0.5)
            assert receiver_exposure(recv, field) == pytest.approx(
                chord_capture_exposure(recv, wind), rel=1e-5), distance

    @pytest.mark.parametrize("name", ["breath", "jet"])
    def test_transient_fields_match_the_spherical_rule(self, recv, params, name):
        # both rules converge to a few parts in 1e15 at these orders (measured
        # 4.1e-15 for the breath and 3.6e-15 for the slow-air jet)
        field = slow_air_fields(params)[name]
        expected = spherical_exposure(recv, field, 0.0, (64, 48, 64, 4))
        assert expected > 0.0
        assert receiver_exposure(recv, field, 0.0, (32, 32, 32, 4)) == pytest.approx(
            expected, rel=1e-12)

    def test_order_doubling_is_stable(self, recv, params):
        f = steady_field(1.0, params, HEIGHT)
        base = receiver_exposure(recv, f, orders=(32, 16, 32, 4))
        doubled = receiver_exposure(recv, f, orders=(64, 32, 64, 8))
        assert abs(doubled - base) / doubled < 1e-3

    @pytest.mark.parametrize("t_start", [math.nan, math.inf, -math.inf])
    def test_nonfinite_window_start_rejected(self, recv, params, t_start):
        with pytest.raises(DomainError, match="t_start"):
            receiver_exposure(recv, steady_field(1.0, params, HEIGHT), t_start=t_start)

    def test_deterministic(self, recv, params):
        f = steady_field(1.0, params, HEIGHT)
        assert receiver_exposure(recv, f) == receiver_exposure(recv, f)

    @pytest.mark.parametrize("orders", [(32, 16, 32, 4), (16, 16, 16, 8)])
    def test_cached_nodes_match_fresh_nodes(self, recv, params, orders):
        # the cached ball rule, weighted one time node at a time, gives the
        # bits of the whole weight tensor built afresh, for windows that
        # start at 0 and elsewhere
        for t_start in (0.0, -1.25, 0.6):
            for name, field in reference_fields(params).items():
                expected = reference_exposure(recv, field, t_start, orders)
                assert expected > 0.0, (name, t_start)
                # the first call may fill the cache, the second reads it
                assert receiver_exposure(recv, field, t_start, orders) == expected, name
                assert receiver_exposure(recv, field, t_start, orders) == expected, name

    def test_cached_nodes_are_read_only(self):
        nodes, weights = _legendre_rule(8)
        assert _legendre_rule(8)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0
        rule = _ball_rule(RADIUS, 8, 6, 4)
        assert _ball_rule(RADIUS, 8, 6, 4) is rule
        for array in rule:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0


class TestThresholdAndDecision:
    def test_threshold_direct_substitution(self):
        assert ml_threshold(2.0) == 1.0
        assert ml_threshold(0.0) == 0.0

    def test_threshold_from_independent_product(self, recv, params):
        exposure = receiver_exposure(recv, steady_field(1.0, params, HEIGHT),
                                     orders=(32, 16, 32, 4))
        got = ml_threshold(0.85 * 0.5 * exposure)
        assert got == pytest.approx(0.85 * 0.5 * exposure / 2.0, rel=1e-15)

    def test_decision_rule_and_tie_break(self):
        assert decide(1.0 + 1e-9, 1.0) is True
        assert decide(1.0 - 1e-9, 1.0) is False
        assert decide(1.0, 1.0) is True

    def test_decision_scale_invariant(self, rng):
        for _ in range(50):
            received = rng.uniform(-1.0, 2.0)
            threshold = rng.uniform(0.0, 2.0)
            factor = rng.uniform(0.01, 100.0)
            assert decide(received, threshold) is decide(factor * received,
                                                         factor * threshold)

    def test_decision_broadcasts(self, rng):
        received = rng.normal(1.0, 1.0, (3, 5))
        got = decide(received, 1.0)
        assert got.dtype == bool and got.shape == (3, 5)
        assert np.array_equal(got, received >= 1.0)
        assert np.array_equal(decide(0.5, np.array([0.25, 0.5, 0.75])), [True, True, False])

    def test_negative_threshold_inputs_rejected(self):
        with pytest.raises(DomainError):
            ml_threshold(-0.25)

    @pytest.mark.parametrize("exposure", [math.nan, math.inf])
    def test_nonfinite_exposure_rejected(self, exposure):
        with pytest.raises(DomainError, match="finite"):
            ml_threshold(0.85 * 0.5 * exposure)


class TestQFunction:
    def test_symmetry(self):
        assert q_function(0.0) == 0.5
        for x in (0.3, 1.7, 4.0):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-15)

    def test_against_normal_tail_quadrature(self):
        # frozen from high-resolution quadrature of the standard normal tail
        assert q_function(1.0) == pytest.approx(0.15865525393145705, abs=1e-12)
        tail, _ = quad(lambda w: math.exp(-w * w / 2.0) / math.sqrt(2.0 * math.pi),
                       1.0, np.inf, epsabs=1e-14)
        assert q_function(1.0) == pytest.approx(tail, abs=1e-12)

    def test_against_mpmath(self):
        from mpmath import erfc, mp, mpf, sqrt

        for x in (-3.0, -1.0, 0.0, 0.5, 1.0, 1.96, 3.0, 5.0, 10.0):
            with mp.workdps(40):
                exact = erfc(mpf(x) / sqrt(2)) / 2
                # the rounding of x / sqrt(2) moves Q by about x^2 relative ulps
                assert float(abs(q_function(x) - exact) / exact) <= 4e-16 * (1.0 + x * x)

    def test_array_input(self):
        out = q_function(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5


class TestMissedDetection:
    def test_zero_exposure_gives_half(self):
        assert pmd_exact(0.0, 1.0) == 0.5
        assert pmd_conservative(0.0, 1.0) == 0.5

    def test_unit_argument_cases(self):
        # gain * exposure = 2 sigma -> exact variant at Q(1)
        assert pmd_exact(2.0, 1.0) == pytest.approx(0.15865525393145705, abs=1e-12)
        # gain * exposure = sqrt(8) sigma -> conservative variant at Q(1)
        assert pmd_conservative(math.sqrt(8.0), 1.0) == pytest.approx(
            0.15865525393145705, abs=1e-12
        )

    def test_monotone_nonincreasing_in_exposure(self, rng):
        exposures = np.sort(rng.uniform(0.0, 10.0, 30))
        values = [pmd_exact(0.85 * 0.5 * c, 1.3) for c in exposures]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_scale_invariance(self, rng):
        for _ in range(30):
            c = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.1, 2.0)
            factor = rng.uniform(0.01, 100.0)
            assert pmd_exact(0.8 * 0.6 * c, sigma) == pytest.approx(
                pmd_exact(0.8 * 0.6 * (c * factor), sigma * factor), rel=1e-12
            )
            assert pmd_conservative(0.8 * 0.6 * c, sigma) == pytest.approx(
                pmd_conservative(0.8 * 0.6 * (c * factor), sigma * factor), rel=1e-12
            )

    def test_conservative_argument_is_exact_over_sqrt2(self, rng):
        # Q is strictly decreasing, so compare through its inverse: the
        # conservative variant must equal the exact variant with the
        # argument shrunk by sqrt(2)
        from scipy.special import erfcinv

        for _ in range(30):
            c = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.05, 2.0)
            arg_exact = math.sqrt(2.0) * erfcinv(2.0 * pmd_exact(0.85 * 0.5 * c, sigma))
            arg_cons = math.sqrt(2.0) * erfcinv(
                2.0 * pmd_conservative(0.85 * 0.5 * c, sigma)
            )
            assert arg_cons == pytest.approx(arg_exact / math.sqrt(2.0), rel=1e-9)

    def test_probabilities_bounded(self, rng):
        for _ in range(50):
            c = rng.uniform(0.0, 20.0)
            sigma = rng.uniform(0.01, 5.0)
            for fn in (pmd_exact, pmd_conservative):
                p = fn(0.85 * 0.5 * c, sigma)
                assert 0.0 <= p <= 0.5

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            pmd_exact(0.425, 0.0)
        with pytest.raises(DomainError):
            pmd_conservative(0.425, -1.0)
