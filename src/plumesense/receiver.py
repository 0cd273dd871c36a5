"""Receiver measurement model and maximum-likelihood virus detection.

The receiver is a sphere that samples air over a window, captures a fraction
of the particles (sampler efficiency), binds a fraction of those at the
sensor surface (binding fraction), and reads out the accumulated value with
additive Gaussian noise.  The decision rule compares the reading against the
maximum-likelihood threshold of half the noiseless mean.

Two analytic missed-detection probabilities are exposed side by side:
``pmd_exact`` follows directly from the threshold under the additive
Gaussian model (and is what Monte Carlo reproduces), while
``pmd_conservative`` widens the noise margin by sqrt(2) and therefore
predicts a higher miss rate.  Their arguments differ by exactly that factor.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.special import erfc

from .errors import DomainError, GeometryError

__all__ = [
    "ReceiverSpec",
    "BindingParams",
    "NoiseModel",
    "Decision",
    "DetectionResult",
    "receiver_exposure",
    "sample_received",
    "ml_threshold",
    "decide",
    "q_function",
    "pmd_exact",
    "pmd_conservative",
    "measure_and_decide",
]

DEFAULT_QUADRATURE_ORDERS = (16, 16, 16, 8)


@dataclass(frozen=True)
class ReceiverSpec:
    """Spherical sampling receiver: geometry, window and capture fractions.

    ``prior_infected`` extends the decision rule beyond the default
    equally-likely hypotheses; the analytic missed-detection formulas below
    assume the default 0.5.
    """

    center: Tuple[float, float, float]
    radius: float
    sampling_window: float
    sampler_efficiency: float
    binding_fraction: float
    prior_infected: float = 0.5

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        if len(center) != 3:
            raise DomainError("receiver center must be (x, y, z)")
        object.__setattr__(self, "center", center)
        if not (self.radius > 0.0):
            raise DomainError("receiver radius must be positive")
        if not (self.sampling_window > 0.0):
            raise DomainError("sampling window must be positive")
        if not (0.0 < self.sampler_efficiency <= 1.0):
            raise DomainError("sampler efficiency must lie in (0, 1]")
        if not (0.0 < self.binding_fraction <= 1.0):
            raise DomainError("binding fraction must lie in (0, 1]")
        if not (0.0 < self.prior_infected < 1.0):
            raise DomainError("prior_infected must lie in (0, 1)")
        if center[2] - self.radius <= 0.0:
            raise GeometryError("receiver sphere must lie strictly above the ground")

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    @property
    def capture_gain(self) -> float:
        """Combined deterministic gain applied to the accumulated concentration."""
        return self.sampler_efficiency * self.binding_fraction


@dataclass(frozen=True)
class BindingParams:
    """Steady-state receptor binding: fraction bound is P_a / (P_a + K * P_d).

    The antigen count only scales ``bound_antigens``; the detection chain
    consumes the fraction alone, so receivers usually take the fraction
    directly.
    """

    association_probability: float
    dissociation_probability: float
    num_states: int = 1
    num_antigens: int = 1

    def __post_init__(self):
        for name in ("association_probability", "dissociation_probability"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1]")
        if self.num_states < 1 or self.num_antigens < 1:
            raise DomainError("num_states and num_antigens must be positive integers")

    @property
    def binding_fraction(self) -> float:
        denom = self.association_probability + self.num_states * self.dissociation_probability
        if denom == 0.0:
            raise DomainError("binding fraction undefined when both probabilities are zero")
        return self.association_probability / denom

    @property
    def bound_antigens(self) -> float:
        """Expected steady-state number of bound antigens."""
        return self.num_antigens * self.binding_fraction


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian readout noise with a seedable generator."""

    variance: float
    seed: Optional[int] = None

    def __post_init__(self):
        if not (self.variance > 0.0):
            raise DomainError("noise variance must be positive")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


class Decision(enum.Enum):
    INFECTED = "infected"
    HEALTHY = "healthy"


@dataclass(frozen=True)
class DetectionResult:
    received: float
    threshold: float
    decision: Decision
    pmd_exact: float
    pmd_conservative: float


# ---------------------------------------------------------------------------
# accumulated exposure over the receiver sphere
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _legendre_rule(n):
    """Gauss-Legendre nodes and weights of order ``n`` on [-1, 1], computed
    once per order and read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_legendre(n, lo, hi):
    nodes, weights = _legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def receiver_exposure(recv: ReceiverSpec, field, t_start: float = 0.0,
                      orders=DEFAULT_QUADRATURE_ORDERS) -> float:
    """Space-time integral of the field over the receiver sphere and window.

    Tensor Gauss-Legendre quadrature in spherical coordinates with
    (radial, polar, azimuthal, time) orders; deterministic for fixed orders.
    ``field(x, y, z, t)`` must broadcast over numpy arrays.  Dividing by
    ``recv.volume * recv.sampling_window`` gives the mean concentration.

    Units: concentration * cm^3 * s.
    """
    if not math.isfinite(t_start):
        raise DomainError("exposure window start t_start must be finite")
    n_r, n_theta, n_phi, n_t = orders
    r, w_r = _gauss_legendre(n_r, 0.0, recv.radius)
    theta, w_theta = _gauss_legendre(n_theta, 0.0, np.pi)
    phi, w_phi = _gauss_legendre(n_phi, 0.0, 2.0 * np.pi)
    t, w_t = _gauss_legendre(n_t, t_start, t_start + recv.sampling_window)

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


# ---------------------------------------------------------------------------
# measurement, decision rule, and missed-detection probabilities
# ---------------------------------------------------------------------------


def sample_received(exposure: float, recv: ReceiverSpec, noise: NoiseModel,
                    rng: np.random.Generator) -> float:
    """One noisy receiver reading: capture_gain * exposure + Gaussian noise."""
    return recv.capture_gain * exposure + noise.sigma * rng.standard_normal()


def ml_threshold(exposure: float, sampler_efficiency: float, binding_fraction: float,
                 sigma: Optional[float] = None, prior_infected: float = 0.5) -> float:
    """Maximum-likelihood decision threshold: half the noiseless infected mean.

    With an unequal ``prior_infected`` the rule becomes maximum a posteriori
    and shifts by sigma^2 * ln((1-p)/p) / mean, which needs the noise level.
    """
    if exposure < 0.0 or sampler_efficiency < 0.0 or binding_fraction < 0.0:
        raise DomainError("threshold inputs must be nonnegative")
    if not (0.0 < prior_infected < 1.0):
        raise DomainError("prior_infected must lie in (0, 1)")
    mean = sampler_efficiency * binding_fraction * exposure
    if prior_infected == 0.5:
        return mean / 2.0
    if sigma is None or sigma <= 0.0:
        raise DomainError("unequal priors need a positive noise sigma")
    if mean == 0.0:
        raise DomainError("prior-weighted threshold undefined for zero mean")
    return mean / 2.0 + sigma * sigma * math.log((1.0 - prior_infected) / prior_infected) / mean


def decide(received: float, threshold: float) -> Decision:
    """Infected iff the reading reaches the threshold (ties favor detection)."""
    return Decision.INFECTED if received >= threshold else Decision.HEALTHY


def q_function(x):
    """Upper tail of the standard normal, Q(x) = erfc(x / sqrt(2)) / 2."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_function requires finite input")
    out = 0.5 * erfc(arr / math.sqrt(2.0))
    return float(out) if arr.ndim == 0 else out


def pmd_exact(exposure: float, sampler_efficiency: float, binding_fraction: float,
              sigma: float) -> float:
    """Missed-detection probability implied by the ML threshold itself:
    Q(gain * exposure / (2 * sigma)).  This is the variant Monte Carlo matches."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    return q_function(sampler_efficiency * binding_fraction * exposure / (2.0 * sigma))


def pmd_conservative(exposure: float, sampler_efficiency: float, binding_fraction: float,
                     sigma: float) -> float:
    """Missed-detection probability with a sqrt(8)*sigma noise margin:
    Q(gain * exposure / sqrt(8 * sigma^2)), i.e. pmd_exact's argument / sqrt(2)."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    return q_function(
        sampler_efficiency * binding_fraction * exposure / math.sqrt(8.0 * sigma * sigma)
    )


def measure_and_decide(exposure: float, recv: ReceiverSpec, noise: NoiseModel,
                       rng: np.random.Generator) -> DetectionResult:
    """Full pipeline: sample a reading, threshold it, report both analytic
    missed-detection probabilities (computed under equal priors)."""
    received = sample_received(exposure, recv, noise, rng)
    threshold = ml_threshold(exposure, recv.sampler_efficiency, recv.binding_fraction,
                             sigma=noise.sigma, prior_infected=recv.prior_infected)
    return DetectionResult(
        received=received,
        threshold=threshold,
        decision=decide(received, threshold),
        pmd_exact=pmd_exact(exposure, recv.sampler_efficiency, recv.binding_fraction, noise.sigma),
        pmd_conservative=pmd_conservative(
            exposure, recv.sampler_efficiency, recv.binding_fraction, noise.sigma
        ),
    )
