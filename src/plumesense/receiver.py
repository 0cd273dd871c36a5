"""Receiver measurement model and maximum-likelihood virus detection.

The receiver is a sphere that samples air over a window, captures a fraction
of the particles (sampler efficiency), binds a fraction of those at the
sensor surface (binding fraction), and reads out the accumulated value with
additive Gaussian noise.  The decision rule compares the reading against the
maximum-likelihood threshold of half the noiseless mean; the Monte Carlo
miss counter (``oracles.empirical_pmd``) applies exactly this rule through
:func:`ml_threshold` and :func:`decide`.

Two analytic missed-detection probabilities are exposed side by side:
``pmd_exact`` follows directly from the threshold under the additive
Gaussian model (and is what Monte Carlo reproduces), while
``pmd_conservative`` widens the noise margin by sqrt(2) and therefore
predicts a higher miss rate.  Their arguments differ by exactly that factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .channel import _erfc
from .errors import DomainError, GeometryError

__all__ = [
    "ReceiverSpec",
    "receiver_exposure",
    "ml_threshold",
    "decide",
    "q_function",
    "pmd_exact",
    "pmd_conservative",
]

DEFAULT_QUADRATURE_ORDERS = (16, 16, 16, 8)


@dataclass(frozen=True)
class ReceiverSpec:
    """Spherical sampling receiver: geometry, window and capture fractions."""

    center: Tuple[float, float, float]
    radius: float
    sampling_window: float
    sampler_efficiency: float
    binding_fraction: float

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
        if center[2] - self.radius <= 0.0:
            raise GeometryError("receiver sphere must lie strictly above the ground")

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    @property
    def capture_gain(self) -> float:
        """Combined deterministic gain applied to the accumulated concentration."""
        return self.sampler_efficiency * self.binding_fraction


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

    Tensor Gauss-Legendre quadrature about the wind axis (x) with (axial,
    radial, azimuthal, time) orders: x across the sphere, then a polar rule
    on each (y, z) disc of radius sqrt(a^2 - xi^2), where a plume narrow
    across the wind is smooth in rho; deterministic for fixed orders.
    ``field(x, y, z, t)`` gets the time nodes as a (1, 1, 1, time) array,
    and its value must broadcast against the node grid (the steady field's
    has no time axis).  Dividing by
    ``recv.volume * recv.sampling_window`` gives the mean concentration.

    Units: concentration * cm^3 * s.
    """
    if not math.isfinite(t_start):
        raise DomainError("exposure window start t_start must be finite")
    n_x, n_rho, n_psi, n_t = orders
    xi, w_x = _gauss_legendre(n_x, -recv.radius, recv.radius)
    unit, w_unit = _gauss_legendre(n_rho, 0.0, 1.0)
    psi, w_psi = _gauss_legendre(n_psi, 0.0, 2.0 * np.pi)
    t, w_t = _gauss_legendre(n_t, t_start, t_start + recv.sampling_window)

    rho_max = np.sqrt(recv.radius * recv.radius - xi * xi)[:, None, None, None]
    RHO = rho_max * unit[None, :, None, None]
    PSI = psi[None, None, :, None]

    cx, cy, cz = recv.center
    X = cx + xi[:, None, None, None]
    Y = cy + RHO * np.cos(PSI)
    Z = cz + RHO * np.sin(PSI)

    values = np.asarray(field(X, Y, Z, t[None, None, None, :]), dtype=float)
    # rho d(rho) with rho = rho_max * unit is rho_max^2 * unit d(unit)
    weight = (
        (w_x[:, None, None, None] * rho_max * rho_max)
        * (unit * w_unit)[None, :, None, None]
        * w_psi[None, None, :, None]
        * w_t[None, None, None, :]
    )
    return float(np.sum(values * weight))


# ---------------------------------------------------------------------------
# decision rule and missed-detection probabilities
# ---------------------------------------------------------------------------


def ml_threshold(exposure: float, sampler_efficiency: float, binding_fraction: float) -> float:
    """Maximum-likelihood decision threshold for equally likely hypotheses:
    half the noiseless infected mean, gain * exposure / 2."""
    if not math.isfinite(exposure):
        raise DomainError("threshold exposure must be finite")
    if not (exposure >= 0.0 and sampler_efficiency >= 0.0 and binding_fraction >= 0.0):
        raise DomainError("threshold inputs must be nonnegative")
    return sampler_efficiency * binding_fraction * exposure / 2.0


def decide(received, threshold):
    """Infected iff the reading reaches the threshold (ties favor detection).

    Broadcasts: a bool for scalar inputs, a boolean array otherwise.
    """
    infected = np.greater_equal(received, threshold)
    return bool(infected) if infected.ndim == 0 else infected


def q_function(x):
    """Upper tail of the standard normal, Q(x) = erfc(x / sqrt(2)) / 2."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_function requires finite input")
    out = 0.5 * _erfc(arr / math.sqrt(2.0))
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
