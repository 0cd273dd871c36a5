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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import erfc

from .errors import DomainError, EvaluationDomainError, ScenarioError

__all__ = [
    "DiffusivityProfile",
    "ChannelParams",
    "JetRelease",
    "SourceSpec",
    "StochasticGrid",
    "MultiUserScenario",
    "ComplexResponse",
    "diffusion_scale",
    "distance_for_scale",
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
            raise DomainError("location must be (x0, y0, height)")
        if not (loc[2] > 0.0):
            raise DomainError("source height must be positive")
        object.__setattr__(self, "location", loc)
        if not (self.breath_rate >= 0.0):
            raise DomainError("breath_rate must be nonnegative")
        jets = tuple(
            j if isinstance(j, JetRelease) else JetRelease(float(j[0]), float(j[1]))
            for j in self.jets
        )
        for j in jets:
            if j.time < self.entry_time:
                raise DomainError("jet release times must not precede entry_time")
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
    jet in interval i, with the release pinned to the interval start i*interval."""

    interval: float
    horizon: float
    probabilities: Tuple[Tuple[float, ...], ...]
    jet_masses: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if not (self.interval > 0.0):
            raise DomainError("stochastic interval must be positive")
        if not (self.horizon > 0.0):
            raise DomainError("stochastic horizon must be positive")
        if not math.isfinite(self.horizon / self.interval):
            raise DomainError("horizon / interval overflows; the release grid has no end")
        rows = tuple(tuple(float(p) for p in row) for row in self.probabilities)
        if len(rows) != self.num_intervals:
            raise DomainError(
                f"expected ceil(horizon/interval) = {self.num_intervals} probability rows, "
                f"got {len(rows)}"
            )
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DomainError("probability rows must all have the same length")
        for row in rows:
            for p in row:
                if not (0.0 <= p <= 1.0):
                    raise DomainError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "probabilities", rows)
        if self.jet_masses is not None:
            masses = tuple(float(m) for m in self.jet_masses)
            if not all(m > 0.0 for m in masses):
                raise DomainError("jet masses must be positive")
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
            raise DomainError("scenario needs at least one user")
        object.__setattr__(self, "users", users)
        grid = self.stochastic
        if grid is not None:
            if grid.num_users != len(users):
                raise DomainError(
                    f"probability rows have {grid.num_users} entries for {len(users)} users"
                )
            if grid.jet_masses is not None and len(grid.jet_masses) != len(users):
                raise DomainError("jet_masses must list one mass per user")
            if grid.jet_masses is None:
                for i, u in enumerate(users):
                    if not u.jets:
                        raise DomainError(
                            f"user {i} has no jets; supply stochastic jet_masses instead"
                        )

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


def _crosswind_factor(y, z, scale, source_height):
    return np.exp(-(y * y) / (4.0 * scale)) * (
        np.exp(-((z - source_height) ** 2) / (4.0 * scale))
        + np.exp(-((z + source_height) ** 2) / (4.0 * scale))
    )


# ---------------------------------------------------------------------------
# transformed coordinate
# ---------------------------------------------------------------------------


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


def _kronrod(profile: DiffusivityProfile, lo: np.ndarray, hi: np.ndarray):
    """15-point Kronrod estimates over [lo, hi] and QUADPACK's qk15 error
    estimates, from one profile call.

    The error estimate scales the Kronrod-Gauss distance d against the
    integral of |K - mean K|, r, as r * min(1, (200 d / r)^1.5): below d for
    a smooth K, and r itself where the two rules disagree, as at an
    integrable singularity.
    """
    half = 0.5 * (hi - lo)
    values = profile((lo + half)[:, None] + half[:, None] * _KRONROD_NODES)
    weighted = values @ _KRONROD_WEIGHTS
    kronrod = half * weighted
    distance = half * np.abs(weighted - values @ _GAUSS_WEIGHTS)
    deviation = values - 0.5 * weighted[:, None]
    spread = half * (np.abs(deviation, out=deviation) @ _KRONROD_WEIGHTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * distance / spread) ** 1.5)
    error = np.where(spread > 0.0, scaled, distance)
    # an integral past the range of doubles is inf however finely it is cut
    return kronrod, np.where(kronrod == np.inf, 0.0, error)


def _suffix_min(values: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(values[::-1])[::-1]


def _gap_integrals(profile: DiffusivityProfile, ends: np.ndarray) -> np.ndarray:
    """Integrals of ``profile`` over [0, ends[0]], [ends[0], ends[1]], ... for
    strictly increasing positive ``ends``.

    The integral S_j over [0, ends[j]] is the sum of the Kronrod estimates of
    the subintervals up to ends[j], and its error bound the sum of their error
    estimates.  The pass ends once every bound is within ``_SCALE_RTOL * S_j``.
    Until then each round bisects, with one profile call for all of them, the
    subintervals whose error exceeds their share of half that budget, so that
    rounding cannot keep a converged pass open.  A share is the mean of two
    allotments, each of which sums to at most S_j over [0, ends[j]] for every
    j: by width, width * min S_j / ends[j], and per subinterval,
    min S_j / (subintervals up to ends[j]), both minima over j at or past the
    subinterval's gap.  The width allotment keeps a smooth K cheap; the
    per-subinterval one lets the subinterval at the source converge where K
    behaves like x^p there, for every p > 0 and for integrable singularities
    such as 1/sqrt(x).
    """
    n = ends.size
    lo = np.concatenate(([0.0], ends[:-1]))
    hi = ends
    owner = np.arange(n)
    kronrod, error = _kronrod(profile, lo, hi)
    while True:
        gaps = np.bincount(owner, weights=kronrod, minlength=n)
        cumulative = np.cumsum(gaps)
        bound = np.cumsum(np.bincount(owner, weights=error, minlength=n))
        if np.all(bound <= _SCALE_RTOL * cumulative):
            return gaps
        count = np.bincount(owner, minlength=n)
        per_width = _suffix_min(cumulative / ends)
        per_leaf = _suffix_min(cumulative / np.cumsum(count))
        share = 0.25 * _SCALE_RTOL * ((hi - lo) * per_width[owner] + per_leaf[owner])
        split = error > share
        keep = ~split
        count += np.bincount(owner[split], minlength=n)
        if not split.any() or count.max() > _MAX_SUBINTERVALS_PER_GAP:
            raise DomainError(
                f"integral of the diffusivity did not reach relative {_SCALE_RTOL:g} "
                f"within {_MAX_SUBINTERVALS_PER_GAP} subintervals per point"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_kronrod, new_error = _kronrod(profile, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        owner = np.concatenate((owner[keep], owner[split], owner[split]))
        kronrod = np.concatenate((kronrod[keep], new_kronrod))
        error = np.concatenate((error[keep], new_error))


def diffusion_scale(x: ArrayLike, params: ChannelParams):
    """Transformed downwind coordinate (1/u) * integral_0^x K(s) ds, in cm^2.

    Exact for a constant profile.  Otherwise one cumulative pass over the
    sorted unique points: the gaps between neighbours are integrated by
    adaptive 7/15-point Gauss-Kronrod quadrature and summed in order, with
    the error of every cumulative value bounded to 1e-10 relative.  Monotone
    nondecreasing in x.  A profile that needs more than 200 subintervals per
    point, such as x^-0.9 at the source or one oscillating far faster than
    the points are spaced, raises :class:`DomainError`.  A scale past the
    range of doubles comes back as inf, quietly.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("downwind distance must be nonnegative")
    if params.diffusivity.is_constant:
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
            gaps = _gap_integrals(params.diffusivity, points[pos])
            scales[pos] = np.cumsum(gaps) / params.wind_speed
    return _as_output(scales[inverse], arr.shape)


def distance_for_scale(scale: float, params: ChannelParams) -> float:
    """Inverse of :func:`diffusion_scale`: downwind distance reaching ``scale``."""
    if scale < 0.0:
        raise DomainError("scale must be nonnegative")
    if scale == 0.0:
        return 0.0
    if params.diffusivity.is_constant:
        return params.wind_speed * scale / params.diffusivity.k0
    from scipy.optimize import brentq

    hi = 1.0
    while diffusion_scale(hi, params) < scale:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError("scale not reachable within 1e12 cm")
    return brentq(lambda x: diffusion_scale(x, params) - scale, 0.0, hi, rtol=1e-13)


# ---------------------------------------------------------------------------
# transient responses
# ---------------------------------------------------------------------------


def _downwind(point, params: ChannelParams, source_height: float, term, after=None):
    """Shared body of the transient and steady closed forms: ``term(x, t, s)``
    times the crosswind Gaussian of variance 2s (s = diffusion_scale(x)) with
    its ground image, at the points with 0 < x < inf and, if given, t > after;
    exactly 0 elsewhere.  Raises :class:`EvaluationDomainError` at
    0 < x < x_min, :class:`DomainError` at a NaN coordinate or non-finite time."""
    x, y, z, t = _point(point, 4)
    _check_height(source_height)
    _check_coordinates(x, y, z)
    if not np.all(np.isfinite(t)):
        raise DomainError("time must be finite")
    # read-only views of the broadcast grid: only the live points are copied
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape, t.shape)
    X, Y, Z = (np.broadcast_to(c, shape) for c in (x, y, z))
    out = np.zeros(shape)
    live = np.asarray(X > 0.0)  # an array even when 0-d, so that live[live] works
    if live.any():
        _check_downwind_band(X[live], params)
    live &= X < np.inf
    if after is not None:
        live &= t > after
    if live.any():
        s = np.asarray(diffusion_scale(X[live], params))
        if np.isinf(s).any():  # the response's limit at an infinite scale is 0
            live[live] = finite = s < np.inf
            s = s[finite]
        # a scalar time, as the steady plume's, is not copied out to every point
        T = np.broadcast_to(t, shape)[live] if t.ndim else t
        # far downwind the prefactors overflow to inf, the response to its limit 0
        with np.errstate(over="ignore"):
            out[live] = term(X[live], T, s) * _crosswind_factor(
                Y[live], Z[live], s, source_height)
    return _as_output(out, shape)


def impulse_response(point, params: ChannelParams, source_height: float):
    """Concentration at ``point`` per unit jet mass released at the origin at t = 0.

    Points at or upwind of the source (x <= 0) return 0 (no upwind transport);
    0 < x < x_min raises :class:`EvaluationDomainError`.
    """
    u = params.wind_speed
    return _downwind(point, params, source_height, lambda x, t, s: (
        np.exp(-((x - u * t) ** 2) / (4.0 * s)) / (8.0 * (np.pi * s) ** 1.5)))


def jet_concentration(jet_mass: float, release_time: float, point, params: ChannelParams,
                      source_height: float):
    """Concentration from one jet of ``jet_mass`` units released at ``release_time``.

    Exactly zero before the release (causality), then the shifted impulse
    response scaled by the mass.
    """
    if not (jet_mass >= 0.0):
        raise DomainError("jet mass must be nonnegative")
    x, y, z, t = _point(point, 4)
    h = np.asarray(impulse_response((x, y, z, t - release_time), params, source_height))
    gated = np.where(t >= release_time, jet_mass * h, 0.0)
    return _as_output(gated, np.broadcast(t, h).shape)


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
        step = np.maximum(erfc((x - u * (t - entry_time)) / root) - erfc(x / root), 0.0)
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
    x, y, z, t = _point(point, 4)
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape, t.shape)
    total = np.zeros(shape)
    for user in scenario.users:
        total += person_response(user, (x, y, z, t), params)
    return _as_output(total, shape)


def stochastic_expected_response(scenario: MultiUserScenario, point, params: ChannelParams):
    """Expected concentration under the probabilistic release grid.

    Sums p[i][j] times user j's jet response released at the start of
    interval i; each is exactly 0 at or upwind of its user and before its
    release.
    """
    grid = scenario.stochastic
    if grid is None:
        raise ScenarioError("sources.stochastic", "scenario has no stochastic grid")
    x, y, z, t = _point(point, 4)
    shape = np.broadcast_shapes(x.shape, y.shape, z.shape, t.shape)
    total = np.zeros(shape)
    for i, t_release in enumerate(grid.release_times()):
        for j, user in enumerate(scenario.users):
            p = grid.probabilities[i][j]
            if p == 0.0:
                continue
            local = (x - user.x, y - user.y, z, t)
            total += p * jet_concentration(
                scenario.stochastic_jet_mass(j), t_release, local, params, user.height
            )
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

    Magnitude decays as a Gaussian in omega from H(0) = integral of h dt,
    the steady plume per unit rate; the phase is the pure transport delay
    -omega*x/u, wrapped to (-pi, pi] unless ``unwrap_phase``.  Where the
    diffusion scale overflows to inf, far downwind, the magnitude is its
    limit 0.  Raises :class:`DomainError` below about 1.6e-162 cm/s, where
    u * u underflows to 0, and where omega x / u overflows, so that the phase
    is not finite.
    """
    x, y, z = _point(point, 3)
    _check_height(source_height)
    _check_coordinates(x, y, z)
    w = np.asarray(omega, dtype=float)
    if np.isnan(w).any():
        raise DomainError("frequency omega must not be NaN")
    X, Y, Z, W = np.broadcast_arrays(x, y, z, w)
    shape = X.shape
    if np.any(X <= 0.0):
        raise EvaluationDomainError("frequency response requires x >= x_min downwind")
    _check_downwind_band(X, params)
    u = params.wind_speed
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.asarray(diffusion_scale(X, params))
        # exactly 1 at omega = 0, where an infinite s would make it exp(NaN)
        decay = np.exp(-(W * W) * s / (u * u), out=np.ones(X.shape), where=W != 0.0)
        magnitude = _crosswind_factor(Y, Z, s, source_height) / (4.0 * np.pi * u * s) * decay
    if u * u == 0.0 or not np.all(np.isfinite(magnitude)):
        raise DomainError(f"the transfer function is not finite at wind speed {u} cm/s; "
                          "x K / u or u * u leaves the range of doubles")
    with np.errstate(over="ignore", invalid="ignore"):
        raw_phase = -W * X / u
        phase = raw_phase if unwrap_phase else _principal_phase(raw_phase)
    if not np.all(np.isfinite(phase)):
        raise DomainError(f"the transfer function phase is not finite at {u} cm/s and up "
                          f"to {np.max(np.abs(W))} rad/s; omega x / u overflows")
    return ComplexResponse(
        magnitude=_as_output(magnitude, shape), phase=_as_output(phase, shape)
    )


# ---------------------------------------------------------------------------
# field factories (space-time callables consumed by the receiver integrals)
# ---------------------------------------------------------------------------


def steady_field(rate: float, params: ChannelParams, source_height: float):
    """Time-independent field f(x, y, z, t) for the steady plume."""

    def field(x, y, z, t):
        value = steady_state_concentration(rate, (x, y, z), params, source_height)
        return np.broadcast_to(value, np.broadcast(x, y, z, t).shape) if np.ndim(t) else value

    return field

