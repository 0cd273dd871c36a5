"""Closed-form responses of a wind-aligned aerosol dispersion channel.

Units are CGS throughout: lengths in cm, times in s, wind speed in cm/s,
diffusivity in cm^2/s.  Emission rates are abstract units/s and jet masses
abstract units, so concentrations come out in 1/cm^3 scaled by the emission
unit.

The mean wind carries particles downwind (+x) while turbulent eddies spread
them in the crosswind (y, z) plane; the ground z = 0 reflects particles via
an image source.  All closed forms share one transformed coordinate,

    diffusion_scale(x) = (1/u) * integral_0^x K(s) ds          [cm^2]

which plays the role of elapsed diffusion "time": every crosswind section is
Gaussian with variance ``2 * diffusion_scale(x)``.  The closed forms are
singular as x -> 0, so evaluation is only permitted at x >= x_min; points at
or upwind of the source (x <= 0) contribute zero concentration because
advection dominates diffusion along the wind axis.

All operations are pure functions of their arguments and safe to call
concurrently; the parameter and source objects are immutable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, EvaluationDomainError, QuadratureError

__all__ = [
    "DiffusivityProfile",
    "ChannelParams",
    "JetRelease",
    "SourceSpec",
    "StochasticGrid",
    "MultiUserScenario",
    "ComplexResponse",
    "diffusion_scale",
    "impulse_response",
    "jet_concentration",
    "breath_response",
    "person_response",
    "multi_user_response",
    "stochastic_expected_response",
    "steady_state_concentration",
    "frequency_response",
    "steady_field",
]

ArrayLike = Union[float, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# parameter and source types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffusivityProfile:
    """Eddy diffusivity K(x) in cm^2/s, constant or a function of downwind x.

    Must evaluate to a strictly positive finite value for every x > 0.
    """

    kind: str
    k0: Optional[float] = None
    func: Optional[Callable[[float], float]] = None

    @staticmethod
    def constant(value: float) -> "DiffusivityProfile":
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError("diffusivity must be a positive finite value")
        return DiffusivityProfile(kind="constant", k0=value)

    @staticmethod
    def from_function(func: Callable[[float], float]) -> "DiffusivityProfile":
        return DiffusivityProfile(kind="function", func=func)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, x: ArrayLike):
        arr = np.asarray(x, dtype=float)
        if self.is_constant:
            out = np.full(arr.shape, self.k0)
        else:
            try:
                out = np.asarray(self.func(arr), dtype=float)
                if out.shape != arr.shape:
                    out = np.broadcast_to(out, arr.shape).copy()
            except (TypeError, ValueError):
                out = np.asarray(
                    [self.func(float(v)) for v in arr.reshape(-1)], dtype=float
                ).reshape(arr.shape)
        if not np.all(np.isfinite(out) & (out > 0.0)):
            raise DomainError("diffusivity must evaluate positive and finite")
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ChannelParams:
    """Advection-dominated channel parameters.

    ``x_min`` is the smallest downwind distance (cm) at which the closed
    forms may be evaluated; they are singular as x -> 0.
    """

    wind_speed: float
    diffusivity: DiffusivityProfile
    x_min: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.wind_speed) and self.wind_speed > 0.0):
            raise DomainError("wind_speed must be positive (advection-dominated model)")
        if not (math.isfinite(self.x_min) and self.x_min > 0.0):
            raise DomainError("x_min must be positive; closed forms are singular at x = 0")

    @staticmethod
    def with_constant(wind_speed: float, diffusivity: float, x_min: float = 1.0) -> "ChannelParams":
        return ChannelParams(float(wind_speed), DiffusivityProfile.constant(diffusivity), float(x_min))


@dataclass(frozen=True)
class JetRelease:
    """One impulsive release (cough/sneeze): release time in s, mass in units."""

    time: float
    mass: float

    def __post_init__(self):
        if not (self.mass > 0.0):
            raise DomainError("jet mass must be positive")


@dataclass(frozen=True)
class SourceSpec:
    """A single emitting person: continuous breath plus optional jet releases.

    ``location`` is (x0, y0, height); the mouth sits at z = height above the
    ground shared by all sources.
    """

    location: Tuple[float, float, float]
    breath_rate: float = 0.0
    jets: Tuple[JetRelease, ...] = ()
    entry_time: float = 0.0

    def __post_init__(self):
        loc = tuple(float(c) for c in self.location)
        if len(loc) != 3:
            raise DomainError("location must be (x0, y0, height)", field="location")
        if not (loc[2] > 0.0):
            raise DomainError("source height must be > 0", field="location")
        object.__setattr__(self, "location", loc)
        if not (self.breath_rate >= 0.0):
            raise DomainError("breath_rate must be nonnegative", field="breath_rate")
        jets = tuple(
            j if isinstance(j, JetRelease) else JetRelease(float(j[0]), float(j[1]))
            for j in self.jets
        )
        for k, j in enumerate(jets):
            if j.time < self.entry_time:
                raise DomainError("must not precede entry_time", field=f"jets[{k}].time")
        object.__setattr__(self, "jets", jets)

    @property
    def x(self) -> float:
        return self.location[0]

    @property
    def y(self) -> float:
        return self.location[1]

    @property
    def height(self) -> float:
        return self.location[2]


@dataclass(frozen=True)
class StochasticGrid:
    """Discretized release schedule: probabilities p[i][j] that user j emits a
    jet in interval i, with the release pinned to the interval start i*interval.
    The row count is checked before any row, then each row in turn (a list as
    wide as row 0, of numbers in [0, 1])."""

    interval: float
    horizon: float
    probabilities: Tuple[Tuple[float, ...], ...]
    jet_masses: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not (self.interval > 0.0):
            raise DomainError("stochastic interval must be positive", field="interval")
        if not (self.horizon > 0.0):
            raise DomainError("stochastic horizon must be positive", field="horizon")
        if not math.isfinite(self.horizon / self.interval):
            raise DomainError("horizon / interval overflows; the release grid has no end",
                              field="interval")
        if self.horizon / self.interval == 0.0:
            raise DomainError("horizon / interval underflows to 0; the release grid has no "
                              "interval", field="interval")
        if len(self.probabilities) != self.num_intervals:
            raise DomainError(f"need ceil(horizon/interval) = {self.num_intervals} rows, "
                              f"got {len(self.probabilities)}", field="probabilities")
        rows = []
        for i, row in enumerate(self.probabilities):
            field = f"probabilities[{i}]"
            if not isinstance(row, (list, tuple, np.ndarray)):
                raise DomainError(f"expected a list, got {type(row).__name__}", field=field)
            if i and len(row) != len(rows[0]):
                raise DomainError(f"need {len(rows[0])} probabilities, as row 0 has",
                                  field=field)
            for j, p in enumerate(row):
                if isinstance(p, bool) or not isinstance(p, numbers.Real):
                    raise DomainError(f"expected a number, got {p!r}", field=f"{field}[{j}]")
                if not 0.0 <= p <= 1.0:
                    raise DomainError("must lie in [0, 1]", field=f"{field}[{j}]")
            rows.append(tuple(float(p) for p in row))
        object.__setattr__(self, "probabilities", tuple(rows))
        if self.jet_masses is not None:
            masses = tuple(float(m) for m in self.jet_masses)
            for k, m in enumerate(masses):
                if not m > 0.0:
                    raise DomainError("jet mass must be positive", field=f"jet_masses[{k}]")
            object.__setattr__(self, "jet_masses", masses)

    @property
    def num_intervals(self) -> int:
        return int(math.ceil(self.horizon / self.interval))

    @property
    def num_users(self) -> int:
        return len(self.probabilities[0]) if self.probabilities else 0

    def release_times(self):
        return tuple(i * self.interval for i in range(self.num_intervals))


@dataclass(frozen=True)
class MultiUserScenario:
    """Several emitting people, optionally with a stochastic release grid."""

    users: Tuple[SourceSpec, ...]
    stochastic: Optional[StochasticGrid] = None

    def __post_init__(self):
        users = tuple(self.users)
        if not users:
            raise DomainError("need at least one user", field="users")
        object.__setattr__(self, "users", users)
        grid = self.stochastic
        if grid is not None:
            if grid.num_users != len(users):
                raise DomainError(f"need one probability per user ({len(users)})",
                                  field="stochastic.probabilities[0]")
            if grid.jet_masses is not None and len(grid.jet_masses) != len(users):
                raise DomainError("need one mass per user", field="stochastic.jet_masses")
            # without them each user's release takes the mass of its first jet
            if grid.jet_masses is None:
                for i, u in enumerate(users):
                    if not u.jets:
                        raise DomainError(f"user {i} has no jets to take a mass from; need "
                                          "one mass per user", field="stochastic.jet_masses")

    def stochastic_jet_mass(self, user_index: int) -> float:
        grid = self.stochastic
        if grid is not None and grid.jet_masses is not None:
            return grid.jet_masses[user_index]
        return self.users[user_index].jets[0].mass


@dataclass(frozen=True)
class ComplexResponse:
    """Polar form of the channel transfer function: magnitude in
    concentration*s, phase in radians.

    The phase convention is the principal value in (-pi, pi]; construct with
    ``frequency_response(..., unwrap_phase=True)`` for the raw linear phase.
    """

    magnitude: ArrayLike
    phase: ArrayLike

    def __post_init__(self):
        if np.any(np.asarray(self.magnitude) < 0.0):
            raise DomainError("magnitude must be nonnegative")


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------


def _point(point, n):
    """The first ``n`` (3 or 4) coordinates of an (x, y, z) triple or
    (x, y, z, t) quadruple, as float arrays."""
    coords = tuple(point)
    if len(coords) not in (n, 4):
        raise DomainError("expected an (x, y, z) triple" if n == 3 else
                          "expected an (x, y, z, t) quadruple")
    return tuple(np.asarray(c, dtype=float) for c in coords[:n])


def _as_output(values, shape):
    out = np.asarray(values).reshape(shape)
    return float(out) if shape == () else out


def _check_coordinates(x, y, z):
    if np.isnan(x).any() or np.isnan(y).any() or np.isnan(z).any():
        raise DomainError("coordinates must not be NaN")
    if np.any(z < 0.0):
        raise DomainError("z must be >= 0 (particles do not penetrate the ground)")


def _check_height(source_height):
    if not (source_height > 0.0):
        raise DomainError("source height must be positive")


def _check_downwind_band(x_pos, params):
    if np.any(x_pos < params.x_min):
        raise EvaluationDomainError(
            f"downwind distance below x_min = {params.x_min} cm; the closed form "
            "is singular near the source"
        )


# exp(x) is +0.0 for every x below log(2^-1075) = -745.1332; -746 leaves a margin
_EXP_UNDERFLOW = -746.0


def _crosswind_factor(y, z, scale, source_height):
    """exp(-y^2/4s) (exp(-(z-h)^2/4s) + exp(-(z+h)^2/4s)): the direct Gaussian
    and its ground image.  The image is evaluated only when its largest
    exponent, -(min z + h)^2 / (4 max s), lies above exp's underflow (a
    dead point's placeholder s = 1 only makes the test more cautious); below
    it every image value is +0.0 and direct + 0.0 is direct bit for bit, so
    skipping it is exact.  Near source height this spares every node exp's
    slow path on hugely negative arguments (numpy 2.4.6: 0.21 ms on 16,384
    values at -746, 0.012 ms at -5).  a / (-4s) is -(a / 4s) exactly, so
    the sign rides on the small scale array."""
    neg = -4.0 * scale
    factor = np.exp((z - source_height) ** 2 / neg)
    gap = np.min(z, initial=np.inf) + source_height  # an empty z has nothing to add
    if -(gap * gap) / (4.0 * np.max(scale)) > _EXP_UNDERFLOW:
        factor += np.exp((z + source_height) ** 2 / neg)
    return np.exp(y * y / neg) * factor


# ---------------------------------------------------------------------------
# numerical kernels: erfc and the Gauss-Kronrod rule
# ---------------------------------------------------------------------------


def _erfc(x: ArrayLike) -> np.ndarray:
    """Complementary error function, elementwise: libm's ``erfc``."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


# QUADPACK's 15-point Kronrod rule on [-1, 1] (qk15) and the 7-point Gauss
# rule nested in it: the Gauss nodes are every other Kronrod node
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082, 0.0,
])
_SCALE_RTOL = 1e-10
_MAX_SUBINTERVALS_PER_GAP = 200


def _kronrod(func: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray):
    """15-point Kronrod estimates of the integrals of ``func`` over each
    [lo, hi] and QUADPACK's qk15 error estimates, from one call of ``func``
    on an (intervals, 15) array of nodes.

    The error estimate scales the Kronrod-Gauss distance d against the
    integral of |f - mean f|, r, as r * min(1, (200 d / r)^1.5): below d for
    a smooth f, and r itself where the two rules disagree, as at an
    integrable singularity.
    """
    half = 0.5 * (hi - lo)
    values = func((lo + half)[:, None] + half[:, None] * _KRONROD_NODES)
    # row sums: a BLAS matrix-vector product may sum a row in another order
    # when other rows share the call
    weighted = (values * _KRONROD_WEIGHTS).sum(axis=1)
    kronrod = half * weighted
    distance = half * np.abs(weighted - (values * _GAUSS_WEIGHTS).sum(axis=1))
    spread = half * (np.abs(values - 0.5 * weighted[:, None]) * _KRONROD_WEIGHTS).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * distance / spread) ** 1.5)
    error = np.where(spread > 0.0, scaled, distance)
    # an integral past the range of doubles is inf however finely it is cut
    return kronrod, np.where(kronrod == np.inf, 0.0, error)


# ---------------------------------------------------------------------------
# transformed coordinate
# ---------------------------------------------------------------------------


def _gap_integrals(func: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                   hi: np.ndarray, owner: np.ndarray, ends: np.ndarray,
                   rel_tol: float) -> np.ndarray:
    """Integrals of ``func`` over the gaps [0, ends[j]], each tiled by the
    subintervals [lo, hi] whose ``owner`` is j, by adaptive 7/15-point
    Gauss-Kronrod quadrature.

    A gap's integral S is the sum of its subintervals' Kronrod estimates and
    its bound the sum of their error estimates.  A gap is done, and left
    alone, once its bound is within ``rel_tol * S``, so its value does not
    depend on the other gaps.  Each round bisects, with one ``func`` call for
    all open gaps, the subintervals whose error exceeds their share of half
    the gap's budget: the mean of a width share, width * S / end, which keeps
    a smooth integrand cheap, and an equal share, S / (the gap's
    subintervals), which lets the subinterval at 0 converge where the
    integrand behaves like x^p, p > 0, or like 1/sqrt(x).  Raises
    :class:`QuadratureError`, naming the first failing gap, when a gap needs
    more than ``_MAX_SUBINTERVALS_PER_GAP`` subintervals or has none left to
    split.
    """
    n = ends.size
    kronrod, error = _kronrod(func, lo, hi)
    while True:
        integral = np.bincount(owner, weights=kronrod, minlength=n)
        bound = np.bincount(owner, weights=error, minlength=n)
        open_gaps = ~(bound <= rel_tol * integral)
        if not open_gaps.any():
            return integral
        count = np.bincount(owner, minlength=n)
        share = 0.25 * rel_tol * ((hi - lo) * (integral / ends)[owner]
                                  + (integral / count)[owner])
        split = (error > share) & open_gaps[owner]
        added = np.bincount(owner[split], minlength=n)
        failed = open_gaps & ((added == 0) | (count + added > _MAX_SUBINTERVALS_PER_GAP))
        if failed.any():
            j = np.argmax(failed)
            raise QuadratureError(
                f"adaptive quadrature did not reach relative {rel_tol:g} within "
                f"{_MAX_SUBINTERVALS_PER_GAP} subintervals per gap: over [0, {ends[j]:.6g}] "
                f"integral {integral[j]:.6g}, error estimate {bound[j]:.3g}"
            )
        keep = ~split
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_kronrod, new_error = _kronrod(func, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        owner = np.concatenate((owner[keep], owner[split], owner[split]))
        kronrod = np.concatenate((kronrod[keep], new_kronrod))
        error = np.concatenate((error[keep], new_error))


def diffusion_scale(x: ArrayLike, params: ChannelParams):
    """Transformed downwind coordinate (1/u) * integral_0^x K(s) ds, in cm^2.

    Exact for a constant profile.  Otherwise the package's one adaptive
    7/15-point Gauss-Kronrod loop (``_gap_integrals``) integrates K over
    [0, x] for each distinct positive x on its own, to 1e-10 relative, so a
    point's scale does not depend on the other points of the call; two points
    closer than that can come out in either order.  A profile that needs more
    than 200 subintervals over one [0, x], such as x^-0.9 at the source or a
    fast oscillation, raises :class:`QuadratureError`.  A scale past the
    range of doubles comes back as inf, quietly.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("downwind distance must be nonnegative")
    if params.diffusivity.is_constant:
        with np.errstate(over="ignore"):
            out = params.diffusivity.k0 * arr / params.wind_speed
        return float(out) if arr.ndim == 0 else out
    if not np.all(np.isfinite(arr)):
        raise DomainError("downwind distance must be finite")
    points, inverse = np.unique(arr.reshape(-1), return_inverse=True)
    scales = np.zeros(points.shape)
    pos = points > 0.0
    if pos.any():
        # an integral of K past the range of doubles makes the scale inf
        with np.errstate(over="ignore"):
            ends = points[pos]
            scales[pos] = _gap_integrals(params.diffusivity, np.zeros(ends.size), ends,
                                         np.arange(ends.size), ends,
                                         _SCALE_RTOL) / params.wind_speed
    return _as_output(scales[inverse], arr.shape)


# ---------------------------------------------------------------------------
# transient responses
# ---------------------------------------------------------------------------


def _downwind(point, params: ChannelParams, source_height: float, term, after=-np.inf):
    """Shared body of the transient and steady closed forms: ``term(x, t, s)``
    times the crosswind Gaussian of variance 2s (s = diffusion_scale(x)) with
    its ground image, at the points with 0 < x < inf and t >= after; exactly 0
    elsewhere.  Each factor has the broadcast shape of what it reads: s that of
    x, the term that of (x, t), the crosswind factor that of (x, y, z).  Raises
    :class:`EvaluationDomainError` at 0 < x < x_min, :class:`DomainError` at a
    NaN coordinate or non-finite time, and one with field ``diffusivity``
    where the term at a live point is not a double (s has all but vanished,
    so its prefactor overflows; an emission rate near the top of the doubles
    that overflows it is blamed the same way), giving s at the first such point."""
    x, y, z, t = _point(point, 4)
    _check_height(source_height)
    _check_coordinates(x, y, z)
    if not np.all(np.isfinite(t)):
        raise DomainError("time must be finite")
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape, t.shape)
    # at least 1-d: numpy's exp on a 0-d array is not its vector exp
    x, y, z, t = np.atleast_1d(x, y, z, t)
    live = x > 0.0
    _check_downwind_band(x[live], params)
    live &= x < np.inf
    # a dead x keeps a placeholder scale of 1, so that its factors stay quiet
    s = np.ones(x.shape)
    s[live] = diffusion_scale(x[live], params)
    live &= s < np.inf  # the response's limit at an infinite scale is 0
    s[~live] = 1.0
    live = live & (t >= after)
    if not live.any():
        return _as_output(np.zeros(shape), shape)
    # far downwind the prefactors overflow to inf, the response to its limit 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        along = np.where(live, term(x, t, s), 0.0)
    bad = ~np.isfinite(along)
    if bad.any():
        scale = np.broadcast_to(s, along.shape)[bad][0]
        raise DomainError(f"the along-wind term leaves the range of doubles where the "
                          f"diffusion scale is {scale:g} cm^2", field="diffusivity")
    with np.errstate(over="ignore"):
        return _as_output(along * _crosswind_factor(y, z, s, source_height), shape)


def impulse_response(point, params: ChannelParams, source_height: float):
    """Concentration at ``point`` per unit jet mass released at the origin at t = 0:
    the unit jet, so exactly 0 before the release (t < 0).

    Points at or upwind of the source (x <= 0) return 0 (no upwind transport);
    0 < x < x_min raises :class:`EvaluationDomainError`, and a term past the
    doubles (as where 8 (pi s)^1.5 underflows, s below ~2.5e-207 cm^2)
    :class:`DomainError` with field ``diffusivity``.
    """
    return jet_concentration(1.0, 0.0, point, params, source_height)


def jet_concentration(jet_mass: float, release_time: float, point, params: ChannelParams,
                      source_height: float):
    """Concentration from one jet of ``jet_mass`` units released at ``release_time``.

    The along-wind term exp(-(x - u t')^2 / 4s) / (8 (pi s)^1.5) at the
    elapsed time t' = t - release_time, scaled by the mass, and exactly zero
    before the release (causality).
    """
    if not (jet_mass >= 0.0):
        raise DomainError("jet mass must be nonnegative")
    u = params.wind_speed

    def term(x, t, s):
        return np.exp(-((x - u * t) ** 2) / (4.0 * s)) / (8.0 * (np.pi * s) ** 1.5)

    x, y, z, t = _point(point, 4)
    return jet_mass * _downwind((x, y, z, t - release_time), params, source_height, term,
                                after=0.0)


def breath_response(breath_rate: float, entry_time: float, point, params: ChannelParams,
                    source_height: float):
    """Concentration from continuous breathing started at ``entry_time``.

    The step response rises monotonically and converges to the steady plume;
    it is exactly zero until the person enters.
    """
    if not (breath_rate >= 0.0):
        raise DomainError("breath rate must be nonnegative")
    if not math.isfinite(entry_time):
        raise DomainError("entry time must be finite")
    u = params.wind_speed

    def term(x, t, s):
        root = 2.0 * np.sqrt(s)
        # erfc is monotone, but the rounded difference can dip below zero
        step = np.maximum(_erfc((x - u * (t - entry_time)) / root) - _erfc(x / root), 0.0)
        return breath_rate / (8.0 * np.pi * s * u) * step

    return _downwind(point, params, source_height, term, after=entry_time)


def person_response(source: SourceSpec, point, params: ChannelParams):
    """Total concentration from one person: breath plus all jet releases.

    Evaluated in source-centered horizontal coordinates; z stays absolute so
    the shared ground keeps reflecting.
    """
    x, y, z, t = _point(point, 4)
    local = (x - source.x, y - source.y, z, t)
    out = breath_response(source.breath_rate, source.entry_time, local, params, source.height)
    for jet in source.jets:
        out = out + jet_concentration(jet.mass, jet.time, local, params, source.height)
    return out


def multi_user_response(scenario: MultiUserScenario, point, params: ChannelParams):
    """Superposed responses of all users; each is exactly 0 at or upwind of
    its user and before its user enters."""
    return sum(person_response(user, point, params) for user in scenario.users)


def stochastic_expected_response(scenario: MultiUserScenario, point, params: ChannelParams):
    """Expected concentration under the probabilistic release grid.

    Sums p[i][j] times user j's jet response released at the start of
    interval i; each is exactly 0 at or upwind of its user and before its
    release.
    """
    grid = scenario.stochastic
    if grid is None:
        raise DomainError("scenario has no stochastic grid", field="stochastic")
    x, y, z, t = _point(point, 4)
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape, t.shape)
    total = np.zeros(shape)
    for t_release, row in zip(grid.release_times(), grid.probabilities):
        for j, (user, p) in enumerate(zip(scenario.users, row)):
            if p != 0.0:
                total += p * jet_concentration(scenario.stochastic_jet_mass(j), t_release,
                                               (x - user.x, y - user.y, z, t), params,
                                               user.height)
    return _as_output(total, shape)


# ---------------------------------------------------------------------------
# steady state and frequency domain
# ---------------------------------------------------------------------------


def steady_state_concentration(rate: float, point, params: ChannelParams,
                               source_height: float):
    """Steady plume of a continuous source emitting ``rate`` units/s at the origin.

    Crosswind sections are Gaussian with variance 2*diffusion_scale(x); the
    crosswind-plane integral equals rate/u at every downwind distance.
    """
    if not (rate >= 0.0):
        raise DomainError("emission rate must be nonnegative")
    return _downwind((*_point(point, 3), 0.0), params, source_height,
                     lambda x, t, s: rate / (4.0 * params.wind_speed * np.pi * s))


def _principal_phase(raw):
    wrapped = np.mod(np.asarray(raw) + np.pi, 2.0 * np.pi) - np.pi
    # land exact half-turns on +pi, keeping the (-pi, pi] convention
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def frequency_response(point, omega: ArrayLike, params: ChannelParams, source_height: float,
                       unwrap_phase: bool = False) -> ComplexResponse:
    """Channel transfer function at a fixed observation point.

    The magnitude is the kernel's along-wind term exp(-omega^2 s / u^2) /
    (4 pi u s), omega in the time slot, times the crosswind factor: a
    Gaussian in omega from H(0) = integral of h dt, the steady plume per unit
    rate bit for bit, and 0 where s overflows far downwind.  The phase is the
    transport delay -omega*x/u, wrapped to (-pi, pi] unless ``unwrap_phase``.
    Raises :class:`EvaluationDomainError` at x < x_min (x <= 0 included) and
    :class:`DomainError` with field ``diffusivity`` where s has all but
    vanished, ``wind_speed`` where u * u underflows to 0 (u below about
    1.6e-162 cm/s), and ``omega`` at an infinite omega or where omega x / u
    overflows.
    """
    x, y, z = _point(point, 3)
    w = np.asarray(omega, dtype=float)
    if np.isnan(w).any():
        raise DomainError("frequency omega must not be NaN")
    if np.isinf(w).any():
        raise DomainError("frequency omega must be finite", field="omega")
    if np.any(x <= 0.0):
        raise EvaluationDomainError("frequency response requires x >= x_min downwind")
    u = params.wind_speed
    if u * u == 0.0:
        raise DomainError(f"u * u underflows to 0 at wind speed {u} cm/s", field="wind_speed")

    def term(x, w, s):
        return 1.0 / (4.0 * u * np.pi * s) * np.exp(-(w * w) * s / (u * u))

    magnitude = _downwind((x, y, z, w), params, source_height, term)
    with np.errstate(over="ignore", invalid="ignore"):
        raw_phase = -w * x / u
        phase = raw_phase if unwrap_phase else _principal_phase(raw_phase)
    if not np.all(np.isfinite(phase)):
        raise DomainError(f"the transfer function phase is not finite at {u} cm/s and up "
                          f"to {np.max(np.abs(w))} rad/s; omega x / u overflows", field="omega")
    shape = np.shape(magnitude)
    return ComplexResponse(magnitude=magnitude,
                           phase=_as_output(np.broadcast_to(phase, shape).copy(), shape))


# ---------------------------------------------------------------------------
# field factories (space-time callables consumed by the receiver integrals)
# ---------------------------------------------------------------------------


def steady_field(rate: float, params: ChannelParams, source_height: float):
    """Time-independent field f(x, y, z, t) for the steady plume; its value
    has the shape of (x, y, z), which broadcasts against t."""

    def field(x, y, z, t):
        return steady_state_concentration(rate, (x, y, z), params, source_height)

    return field

