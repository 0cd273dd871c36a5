"""Receiver integral, measurement chain, and missed-detection formulas."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from plumesense.channel import ChannelParams, breath_response, jet_concentration, steady_field
from plumesense.errors import DomainError, GeometryError
from plumesense.receiver import (
    _legendre_rule,
    BindingParams,
    Decision,
    NoiseModel,
    ReceiverSpec,
    decide,
    measure_and_decide,
    ml_threshold,
    pmd_conservative,
    pmd_exact,
    q_function,
    receiver_exposure,
    sample_received,
)

from conftest import HEIGHT, RADIUS


def reference_exposure(recv, field, t_start, orders):
    """receiver_exposure with Gauss-Legendre nodes computed afresh on every call."""
    def gauss_legendre(n, lo, hi):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        return lo + half * (nodes + 1.0), half * weights

    n_r, n_theta, n_phi, n_t = orders
    r, w_r = gauss_legendre(n_r, 0.0, recv.radius)
    theta, w_theta = gauss_legendre(n_theta, 0.0, np.pi)
    phi, w_phi = gauss_legendre(n_phi, 0.0, 2.0 * np.pi)
    t, w_t = gauss_legendre(n_t, t_start, t_start + recv.sampling_window)
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
        for xi in (0.0, 1.1, -0.2):
            with pytest.raises(DomainError):
                ReceiverSpec((100.0, 0.0, HEIGHT), 2.0, 3.0, xi, 0.5)
        for gamma in (0.0, 1.5):
            with pytest.raises(DomainError):
                ReceiverSpec((100.0, 0.0, HEIGHT), 2.0, 3.0, 0.85, gamma)

    def test_volume(self, recv):
        assert recv.volume == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-15)


class TestBindingParams:
    def test_bound_fraction_formula(self):
        binding = BindingParams(association_probability=0.3,
                                dissociation_probability=0.1, num_states=4)
        assert binding.binding_fraction == pytest.approx(0.3 / (0.3 + 0.4), rel=1e-15)
        assert BindingParams(1.0, 0.0).binding_fraction == 1.0

    def test_bound_antigens(self):
        binding = BindingParams(0.5, 0.25, num_states=2, num_antigens=1000)
        assert binding.bound_antigens == pytest.approx(500.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            BindingParams(0.0, 0.0).binding_fraction
        with pytest.raises(DomainError):
            BindingParams(1.2, 0.0)


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
        # independent reduction: the crosswind integral of the plume is
        # rate/u at every x, so the sphere integral is the chord integral of
        # the captured fraction 1 - exp(-(r^2 - dx^2) / (4*scale(x)))
        def captured(dx):
            x = recv.center[0] + dx
            scale = 0.242 * x / 140.0
            return (1.0 - math.exp(-(RADIUS**2 - dx**2) / (4.0 * scale))) / 140.0

        chord, _ = quad(captured, -RADIUS, RADIUS, epsabs=1e-14, epsrel=1e-12)
        expected = chord * recv.sampling_window
        got = receiver_exposure(recv, steady_field(1.0, params, HEIGHT),
                                orders=(48, 48, 48, 4))
        assert got == pytest.approx(expected, rel=1e-9)
        # spec-default orders resolve the narrow plume to a few parts in 1e3
        coarse = receiver_exposure(recv, steady_field(1.0, params, HEIGHT))
        assert coarse == pytest.approx(expected, rel=5e-3)

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
        # in slow air the jet's pulse passes the sphere mid-window and spans
        # several time nodes; at 140 cm/s it falls between them
        slow = ChannelParams.with_constant(8.0, params.diffusivity.k0)
        fields = {
            "steady": steady_field(1.0, params, HEIGHT),
            "breath": lambda x, y, z, t: breath_response(1.0, 0.0, (x, y, z, t), params, HEIGHT),
            "jet": lambda x, y, z, t: jet_concentration(1.0, -11.0, (x, y, z, t), slow, HEIGHT),
        }
        for name, field in fields.items():
            expected = reference_exposure(recv, field, 0.0, orders)
            assert expected > 0.0, name
            # the first call may fill the cache, the second reads it
            assert receiver_exposure(recv, field, 0.0, orders) == expected, name
            assert receiver_exposure(recv, field, 0.0, orders) == expected, name

    def test_cached_nodes_are_read_only(self):
        nodes, weights = _legendre_rule(8)
        assert _legendre_rule(8)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


class TestMeasurement:
    def test_vanishing_noise_returns_gain_times_exposure(self, recv):
        noise = NoiseModel(variance=1e-300, seed=0)
        received = sample_received(2.0, recv, noise, noise.make_rng())
        assert received == recv.sampler_efficiency * recv.binding_fraction * 2.0

    def test_fixed_seed_reproducible(self, recv):
        noise = NoiseModel(variance=0.04, seed=77)
        a = sample_received(1.0, recv, noise, noise.make_rng())
        b = sample_received(1.0, recv, noise, noise.make_rng())
        assert a == b

    def test_law_of_large_numbers(self, recv):
        noise = NoiseModel(variance=0.25)
        rng = np.random.default_rng(3)
        n = 10**6
        draws = recv.capture_gain * 2.0 + noise.sigma * rng.standard_normal(n)
        se = noise.sigma / math.sqrt(n)
        assert abs(draws.mean() - recv.capture_gain * 2.0) <= 5.0 * se

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            NoiseModel(variance=0.0)


class TestThresholdAndDecision:
    def test_threshold_direct_substitution(self):
        assert ml_threshold(2.0, 1.0, 1.0) == 1.0
        assert ml_threshold(5.0, 0.0, 0.7) == 0.0

    def test_threshold_from_independent_product(self, recv, params):
        exposure = receiver_exposure(recv, steady_field(1.0, params, HEIGHT),
                                     orders=(32, 16, 32, 4))
        got = ml_threshold(exposure, 0.85, 0.5)
        assert got == pytest.approx(0.85 * 0.5 * exposure / 2.0, rel=1e-15)

    def test_decision_rule_and_tie_break(self):
        assert decide(1.0 + 1e-9, 1.0) is Decision.INFECTED
        assert decide(1.0 - 1e-9, 1.0) is Decision.HEALTHY
        assert decide(1.0, 1.0) is Decision.INFECTED

    def test_decision_scale_invariant(self, rng):
        for _ in range(50):
            received = rng.uniform(-1.0, 2.0)
            threshold = rng.uniform(0.0, 2.0)
            factor = rng.uniform(0.01, 100.0)
            assert decide(received, threshold) is decide(factor * received,
                                                         factor * threshold)

    def test_negative_threshold_inputs_rejected(self):
        with pytest.raises(DomainError):
            ml_threshold(-1.0, 0.5, 0.5)

    def test_equal_priors_ignore_sigma(self):
        assert ml_threshold(2.0, 1.0, 1.0, sigma=0.3, prior_infected=0.5) == 1.0

    def test_unequal_priors_equalize_posteriors(self):
        # at the threshold the two weighted Gaussian likelihoods must match
        mean = 0.85 * 0.5 * 2.0
        sigma = 0.3
        for prior in (0.2, 0.7):
            t = ml_threshold(2.0, 0.85, 0.5, sigma=sigma, prior_infected=prior)
            infected = prior * math.exp(-((t - mean) ** 2) / (2 * sigma**2))
            healthy = (1.0 - prior) * math.exp(-(t**2) / (2 * sigma**2))
            assert infected == pytest.approx(healthy, rel=1e-12)

    def test_unequal_priors_need_sigma(self):
        with pytest.raises(DomainError):
            ml_threshold(2.0, 0.85, 0.5, prior_infected=0.3)


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

    def test_array_input(self):
        out = q_function(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == 0.5


class TestMissedDetection:
    def test_zero_exposure_gives_half(self):
        assert pmd_exact(0.0, 0.85, 0.5, 1.0) == 0.5
        assert pmd_conservative(0.0, 0.85, 0.5, 1.0) == 0.5

    def test_unit_argument_cases(self):
        # gain * exposure = 2 sigma -> exact variant at Q(1)
        assert pmd_exact(2.0, 1.0, 1.0, 1.0) == pytest.approx(0.15865525393145705,
                                                              abs=1e-12)
        # gain * exposure = sqrt(8) sigma -> conservative variant at Q(1)
        assert pmd_conservative(math.sqrt(8.0), 1.0, 1.0, 1.0) == pytest.approx(
            0.15865525393145705, abs=1e-12
        )

    def test_monotone_nonincreasing_in_exposure(self, rng):
        exposures = np.sort(rng.uniform(0.0, 10.0, 30))
        values = [pmd_exact(c, 0.85, 0.5, 1.3) for c in exposures]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_scale_invariance(self, rng):
        for _ in range(30):
            c = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.1, 2.0)
            factor = rng.uniform(0.01, 100.0)
            assert pmd_exact(c, 0.8, 0.6, sigma) == pytest.approx(
                pmd_exact(c * factor, 0.8, 0.6, sigma * factor), rel=1e-12
            )
            assert pmd_conservative(c, 0.8, 0.6, sigma) == pytest.approx(
                pmd_conservative(c * factor, 0.8, 0.6, sigma * factor), rel=1e-12
            )

    def test_conservative_argument_is_exact_over_sqrt2(self, rng):
        # Q is strictly decreasing, so compare through its inverse: the
        # conservative variant must equal the exact variant with the
        # argument shrunk by sqrt(2)
        from scipy.special import erfcinv

        for _ in range(30):
            c = rng.uniform(0.1, 5.0)
            sigma = rng.uniform(0.05, 2.0)
            arg_exact = math.sqrt(2.0) * erfcinv(2.0 * pmd_exact(c, 0.85, 0.5, sigma))
            arg_cons = math.sqrt(2.0) * erfcinv(
                2.0 * pmd_conservative(c, 0.85, 0.5, sigma)
            )
            assert arg_cons == pytest.approx(arg_exact / math.sqrt(2.0), rel=1e-9)

    def test_probabilities_bounded(self, rng):
        for _ in range(50):
            c = rng.uniform(0.0, 20.0)
            sigma = rng.uniform(0.01, 5.0)
            for fn in (pmd_exact, pmd_conservative):
                p = fn(c, 0.85, 0.5, sigma)
                assert 0.0 <= p <= 0.5

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            pmd_exact(1.0, 0.85, 0.5, 0.0)
        with pytest.raises(DomainError):
            pmd_conservative(1.0, 0.85, 0.5, -1.0)


class TestPipeline:
    def test_bit_reproducible(self, recv):
        noise = NoiseModel(variance=0.01, seed=5)
        first = measure_and_decide(1.0, recv, noise, noise.make_rng())
        second = measure_and_decide(1.0, recv, noise, noise.make_rng())
        assert first == second

    def test_result_invariants(self, recv, rng):
        noise = NoiseModel(variance=0.01)
        for seed in range(20):
            result = measure_and_decide(0.5, recv, noise, np.random.default_rng(seed))
            assert (result.decision is Decision.INFECTED) == (
                result.received >= result.threshold
            )
            assert 0.0 <= result.pmd_exact <= 0.5
            assert 0.0 <= result.pmd_conservative <= 0.5
            assert result.pmd_conservative >= result.pmd_exact
