"""Receiver measurement model and maximum-likelihood virus detection.

The receiver is a sphere that samples air over a window.  Its front end
captures a fraction of the particles (sampler efficiency) and binds a
fraction of those at the sensor surface (binding fraction); the two enter
only as their product, :attr:`ReceiverSpec.capture_gain`, and the gain times
the accumulated exposure is the noiseless reading.  The detector works on
that reading alone: the sensor adds Gaussian noise of standard deviation
sigma, and the decision rule compares the noisy reading against the
maximum-likelihood threshold of half the noiseless one.  The Monte Carlo
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
        """Sampler efficiency times binding fraction: the noiseless reading per
        unit of accumulated exposure, and the one place the two are combined."""
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


@functools.lru_cache(maxsize=64)
def _ball_rule(radius, n_x, n_rho, n_psi):
    """:func:`receiver_exposure`'s spatial rule on a ball about the origin,
    read-only: the axial offsets xi, rho cos(psi), rho sin(psi) and the
    weights, on the (axial, radial, azimuthal, 1) node grid."""
    xi, w_x = _gauss_legendre(n_x, -radius, radius)
    unit, w_unit = _gauss_legendre(n_rho, 0.0, 1.0)
    psi, w_psi = _gauss_legendre(n_psi, 0.0, 2.0 * np.pi)
    rho_max = np.sqrt(radius * radius - xi * xi)[:, None, None, None]
    RHO, PSI = rho_max * unit[None, :, None, None], psi[None, None, :, None]
    # rho d(rho) with rho = rho_max * unit is rho_max^2 * unit d(unit)
    weight = ((w_x[:, None, None, None] * rho_max * rho_max)
              * (unit * w_unit)[None, :, None, None]) * w_psi[None, None, :, None]
    rule = (xi[:, None, None, None], RHO * np.cos(PSI), RHO * np.sin(PSI), weight)
    for a in rule:
        a.setflags(write=False)
    return rule


def receiver_exposure(recv: ReceiverSpec, field, t_start: float = 0.0,
                      orders=DEFAULT_QUADRATURE_ORDERS) -> float:
    """Space-time integral of the field over the receiver sphere and window.

    Tensor Gauss-Legendre quadrature about the wind axis (x) with (axial,
    radial, azimuthal, time) orders: x across the sphere, then a polar rule
    on each (y, z) disc of radius sqrt(a^2 - xi^2), where a plume narrow
    across the wind is smooth in rho; deterministic for fixed orders, and
    the spatial rule is built once per radius and orders.
    ``field(x, y, z, t)`` gets the time nodes as a (1, 1, 1, time) array,
    and its value must broadcast against the node grid (the steady field's
    has no time axis).  Dividing by
    ``recv.volume * recv.sampling_window`` gives the mean concentration.

    Units: concentration * cm^3 * s.
    """
    if not math.isfinite(t_start):
        raise DomainError("exposure window start t_start must be finite")
    n_x, n_rho, n_psi, n_t = orders
    xi, y_off, z_off, weight = _ball_rule(recv.radius, n_x, n_rho, n_psi)
    t, w_t = _gauss_legendre(n_t, t_start, t_start + recv.sampling_window)
    cx, cy, cz = recv.center
    values = field(cx + xi, cy + y_off, cz + z_off, t[None, None, None, :])
    # value * (weight * w_t) one time node (one long inner loop) at a time
    grid = np.empty((n_x, n_rho, n_psi, n_t))
    values = np.broadcast_to(np.asarray(values, dtype=float), grid.shape)
    for k in range(n_t):
        np.multiply(weight[..., 0], w_t[k], out=grid[..., k])
        grid[..., k] *= values[..., k]
    return float(np.sum(grid))


# ---------------------------------------------------------------------------
# decision rule and missed-detection probabilities
# ---------------------------------------------------------------------------


def ml_threshold(signal: float) -> float:
    """Maximum-likelihood decision threshold for equally likely hypotheses:
    half the noiseless reading (capture gain * exposure)."""
    if not (math.isfinite(signal) and signal >= 0.0):
        raise DomainError("threshold signal must be finite and nonnegative")
    return signal / 2.0


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


def pmd_exact(signal: float, sigma: float) -> float:
    """Missed-detection probability implied by the ML threshold itself:
    Q(signal / (2 * sigma)) for the noiseless reading ``signal``.  This is the
    variant Monte Carlo matches."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    return q_function(signal / (2.0 * sigma))


def pmd_conservative(signal: float, sigma: float) -> float:
    """Missed-detection probability with a sqrt(8)*sigma noise margin:
    Q(signal / sqrt(8 * sigma^2)), i.e. pmd_exact's argument / sqrt(2)."""
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    return q_function(signal / math.sqrt(8.0 * sigma * sigma))
