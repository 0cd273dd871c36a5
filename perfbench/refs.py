"""Independent references for checking plumesense outputs.

Everything here is written from the closed forms in PAPER.md and from
textbook numerics, using only math, numpy and scipy.special.  Nothing is
imported from plumesense, so a fault in the program cannot hide in its own
reference.

Conventions (CGS): wind u along +x, source at the origin at height h, ground
reflection by an image source at -h, diffusion scale s(x) = (1/u) int_0^x K.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfc, erfcinv

SQRT2 = math.sqrt(2.0)

# Oracle budgets of the validate-oracles checks, kept here apart from the
# program's BUDGETS so that loosening those shows as a failed operation.
# Values as README/PAPER.md state them: steady L2 < 2 %, refinement >= 3x,
# jet mass 1 %, convolution 1e-6, spectrum 1 % / 1 % / 0.5 %, Monte Carlo
# within 3 sigma.  README names crosswind conservation and the transient
# probe comparison without a number; for those two the values are the ones
# the program carried when this benchmark was written (0.5 % and 5 %).
ORACLE_CHECKS = (
    # (id, name, comparison, bound)
    (0, "steady_l2", "lt", 0.02),
    (1, "steady_crosswind", "lt", 0.005),
    (2, "steady_refinement_factor", "ge", 3.0),
    (3, "transient_probe", "le", 0.05),
    (4, "transient_mass", "le", 0.01),
    (5, "convolution", "le", 1e-6),
    (6, "spectrum_magnitude", "le", 0.01),
    (7, "spectrum_phase_slope", "le", 0.01),
    (8, "spectrum_constant_variation", "le", 0.005),
    (9, "pmd_within_ci", "ge", 3.0),  # all three Wilson intervals hold Q(arg)
    (10, "mc_exposure_sigmas", "le", 3.0),
)

WILSON_Z = 3.0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def scale_constant(x, k, u):
    """s(x) for constant diffusivity k."""
    return k * np.asarray(x, dtype=float) / u


def scale_linear(x, k0, length, u):
    """s(x) for K(x) = k0 (1 + x / length): (k0 / u) (x + x^2 / (2 length))."""
    x = np.asarray(x, dtype=float)
    return k0 * (x + x * x / (2.0 * length)) / u


def crosswind(y, z, s, h):
    """Gaussian crosswind section with the ground image term."""
    return np.exp(-y * y / (4.0 * s)) * (
        np.exp(-(z - h) ** 2 / (4.0 * s)) + np.exp(-(z + h) ** 2 / (4.0 * s))
    )


def steady(rate, y, z, s, u, h):
    """Steady plume: rate / (4 pi u s) * crosswind."""
    return rate / (4.0 * math.pi * u * s) * crosswind(y, z, s, h)


def breath(rate, elapsed, x, y, z, s, u, h):
    """Breath started ``elapsed`` seconds ago (zero before it starts)."""
    a = 2.0 * np.sqrt(s)
    elapsed = np.asarray(elapsed, dtype=float)
    step = erfc((x - u * elapsed) / a) - erfc(x / a)
    value = rate / (8.0 * math.pi * s * u) * np.maximum(step, 0.0) * crosswind(y, z, s, h)
    return np.where(elapsed > 0.0, value, 0.0)


def impulse(elapsed, x, y, z, s, u, h):
    """Concentration per unit jet mass ``elapsed`` seconds after release."""
    elapsed = np.asarray(elapsed, dtype=float)
    value = (np.exp(-(x - u * elapsed) ** 2 / (4.0 * s)) / (8.0 * (math.pi * s) ** 1.5)
             * crosswind(y, z, s, h))
    return np.where(elapsed >= 0.0, value, 0.0)


def wrap_phase_distance(phase, raw):
    """Distance between ``phase`` and ``raw`` on the circle, in radians."""
    d = np.mod(np.asarray(phase) - np.asarray(raw), 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def delay_inversion(d, u, s, fraction):
    """First time the breath response on the axis reaches ``fraction`` of the
    steady plume: t = (d - 2 sqrt(s) erfcinv(2 f + erfc(d / 2 sqrt(s)))) / u."""
    root = 2.0 * np.sqrt(s)
    return (d - root * erfcinv(2.0 * fraction + erfc(d / root))) / u


def q_function(a):
    """Standard normal upper tail through math.erfc."""
    return 0.5 * math.erfc(a / SQRT2)


def q_inverse(p):
    return SQRT2 * float(erfcinv(2.0 * p))


def wilson(misses, trials, z=WILSON_Z):
    phat = misses / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


# ---------------------------------------------------------------------------
# exact time integrals over a sampling window [t0, t1]
# ---------------------------------------------------------------------------


def _erfc_antiderivative(w):
    return w * erfc(w) - np.exp(-w * w) / math.sqrt(math.pi)


def breath_window(rate, entry, t0, t1, x, y, z, s, u, h):
    """Exact integral over t in [t0, t1] of the breath response (entry <= t0)."""
    a = 2.0 * np.sqrt(s)
    e0, e1 = t0 - entry, t1 - entry
    # int erfc((x - u e)/a) de = (a/u) [F(w(e0)) - F(w(e1))], w(e) = (x - u e)/a
    rising = (a / u) * (_erfc_antiderivative((x - u * e0) / a)
                        - _erfc_antiderivative((x - u * e1) / a))
    step = rising - (e1 - e0) * erfc(x / a)
    return rate / (8.0 * math.pi * s * u) * step * crosswind(y, z, s, h)


def jet_window(mass, release, t0, t1, x, y, z, s, u, h):
    """Exact integral over t in [t0, t1] of a jet released at ``release``."""
    lo, hi = max(t0, release), t1
    if hi <= lo:
        return np.zeros(np.broadcast(x, y, z).shape)
    a = 2.0 * np.sqrt(s)
    along = (math.sqrt(math.pi) * a / (2.0 * u)) * (
        erf((u * (hi - release) - x) / a) - erf((u * (lo - release) - x) / a))
    return mass * along / (8.0 * (math.pi * s) ** 1.5) * crosswind(y, z, s, h)


# ---------------------------------------------------------------------------
# integrals over the receiver sphere
# ---------------------------------------------------------------------------


def _gauss(n, lo, hi):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def sphere_integral(integrand, centre, radius, n_axis=48, n_rho=40, n_psi=32):
    """Integral of ``integrand(x, y, z)`` over a ball, in cylindrical
    coordinates about the wind axis (x).  A narrow plume along the axis is a
    smooth function of rho here, unlike in spherical coordinates about z."""
    cx, cy, cz = centre
    xi, wx = _gauss(n_axis, -radius, radius)
    rmax = np.sqrt(np.maximum(radius * radius - xi * xi, 0.0))
    unit, wu = _gauss(n_rho, 0.0, 1.0)
    rho = rmax[:, None] * unit[None, :]
    w_rho = rmax[:, None] * wu[None, :] * rho
    psi, wpsi = _gauss(n_psi, 0.0, 2.0 * math.pi)
    X = cx + xi[:, None, None]
    Y = cy + rho[:, :, None] * np.cos(psi)[None, None, :]
    Z = cz + rho[:, :, None] * np.sin(psi)[None, None, :]
    weight = wx[:, None, None] * w_rho[:, :, None] * wpsi[None, None, :]
    return float(np.sum(integrand(X, Y, Z) * weight))


def monte_carlo_ball(integrand, centre, radius, samples, seed):
    """Seeded Monte Carlo of int_ball integrand(x, y, z) dV.

    Points are drawn directly (radius by the cube root, uniform direction),
    so no sample is rejected.  Returns (estimate, standard error)."""
    rng = np.random.default_rng(seed)
    r = radius * np.cbrt(rng.random(samples))
    cos_t = rng.uniform(-1.0, 1.0, samples)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    cx, cy, cz = centre
    values = integrand(cx + r * sin_t * np.cos(phi), cy + r * sin_t * np.sin(phi),
                       cz + r * cos_t)
    volume = 4.0 / 3.0 * math.pi * radius ** 3
    return (volume * float(values.mean()),
            volume * float(values.std(ddof=1)) / math.sqrt(samples))
