"""Independent numerical ground truth for the closed forms and the detector.

Five oracle families live here: a finite-difference march of the transformed
heat equation validating the steady plume, the exact heat kernel in the wind
frame validating the jet response, adaptive time convolution validating the
breath step response, a DFT of the sampled impulse response validating the
frequency-domain shape, and Monte Carlo estimators validating the receiver
integral and the missed-detection probability.  Each oracle starts from its
closed form and derives its own grid: the steady march runs between two
downwind distances from :func:`steady_state_concentration` at the first, on
a box sized by the plume's spread, in steps of a single resolution; the jet
oracle takes one FFT of :func:`jet_concentration` at its start time, on a
box sized by the pulse's spread; the spectrum samples the pulse at a rate
and over a window set by its width and delay.  The time convolution runs on
the same adaptive Gauss-Kronrod loop as the channel's
:func:`diffusion_scale`, and fails under the same rule, with
:class:`QuadratureError`.

Every oracle is deterministic given its full configuration (seeds included)
and carries an explicit error budget; disagreement beyond budget is a hard
failure, not a warning.  :data:`ORACLE_CHECKS` holds each check's name, budget
and comparison.  A report's ``checks`` give the value of each check its oracle
decides; validate-oracles rows and the CLI failure line read the same table.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelParams,
    _gap_integrals,
    _point,
    diffusion_scale,
    frequency_response,
    impulse_response,
    jet_concentration,
    steady_state_concentration,
)
from .errors import DomainError, GridError
from .receiver import ReceiverSpec, decide, ml_threshold

__all__ = [
    "ORACLE_CHECKS",
    "OracleCheck",
    "WILSON_Z",
    "TransientGrid",
    "OracleReport",
    "SteadyMarchResult",
    "TransientMarchResult",
    "SampledSpectrum",
    "PmdEstimate",
    "McExposureEstimate",
    "march_steady_plume",
    "steady_oracle_report",
    "march_transient_jet",
    "transient_oracle_report",
    "step_convolution",
    "sampled_transfer_function",
    "spectrum_oracle_report",
    "empirical_pmd",
    "mc_receiver_exposure",
]


class OracleCheck(NamedTuple):
    """A check's error budget and its value's comparison with it: lt, le or ge."""

    budget: float
    comparison: str

    def passes(self, value: float) -> bool:
        return bool(getattr(operator, self.comparison)(value, self.budget))


# the validate-oracles checks by name; a row's check id is the name's
# position here, and that order is persisted, so new checks go at the end
ORACLE_CHECKS = {
    "steady_l2": OracleCheck(0.02, "lt"),
    "steady_crosswind": OracleCheck(0.005, "lt"),
    "steady_refinement_factor": OracleCheck(3.0, "ge"),
    "transient_probe": OracleCheck(0.05, "le"),
    "transient_mass": OracleCheck(0.01, "le"),
    "convolution": OracleCheck(1e-6, "le"),
    "spectrum_magnitude": OracleCheck(0.01, "le"),
    "spectrum_phase_slope": OracleCheck(0.01, "le"),
    "spectrum_constant_variation": OracleCheck(0.005, "le"),
    # how many of the three Wilson intervals hold Q(argument)
    "pmd_within_ci": OracleCheck(3.0, "ge"),
    "mc_exposure_sigmas": OracleCheck(3.0, "le"),
}

# z-score of the Wilson interval around an empirical miss fraction
WILSON_Z = 3.0

# the fraction of its peak above which a transient probe is compared
_PROBE_SIGNIFICANCE = 0.05

# the steady march's grid reach beyond the plume centre, in sqrt of its end scale
_CONTAINMENT_MARGIN = 6.0

# the relative tolerance step_convolution integrates the impulse response to
_CONVOLUTION_RTOL = 1e-8


@dataclass
class OracleReport:
    """Outcome of one oracle comparison.

    ``max_rel_error`` is the worst pointwise relative error over points whose
    reference value is at least 1e-3 of the reference peak (pointwise ratios
    in the far tails say more about outer-boundary clamping than about the
    scheme); ``l2_rel_error`` is the global 2-norm ratio.  ``checks`` maps
    each :data:`ORACLE_CHECKS` name the oracle decides to its value.
    """

    name: str
    max_rel_error: float
    l2_rel_error: float
    checks: dict
    grid: dict
    runtime_s: float
    warnings: Tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_rel_error < 0.0 or self.l2_rel_error < 0.0:
            raise DomainError("errors must be nonnegative")

    @property
    def passed(self) -> bool:
        return all(ORACLE_CHECKS[name].passes(value) for name, value in self.checks.items())


def _relative_errors(numeric, reference):
    reference = np.asarray(reference)
    numeric = np.asarray(numeric)
    peak = float(np.max(np.abs(reference)))
    if peak == 0.0:
        raise GridError("the closed form is 0 at every grid point: the grid is too "
                        "coarse to resolve the plume")
    mask = np.abs(reference) >= 1e-3 * peak
    max_rel = float(np.max(np.abs(numeric[mask] - reference[mask]) / np.abs(reference[mask])))
    # both norms scaled by one exact power of two, so that a peak near the
    # top of the doubles does not overflow the sums of squares; one buffer
    # holds each scaled array in turn, as much memory as the unscaled norms
    unit = math.ldexp(1.0, -math.frexp(peak)[1])
    scaled = numeric - reference
    scaled *= unit
    error = np.linalg.norm(scaled)
    l2_rel = float(error / np.linalg.norm(np.multiply(reference, unit, out=scaled)))
    return max_rel, l2_rel


# ---------------------------------------------------------------------------
# steady plume: heat-equation march in the transformed coordinate
# ---------------------------------------------------------------------------


@dataclass
class SteadyMarchResult:
    x_start: float
    x_end: float
    resolution: float
    y: np.ndarray
    z: np.ndarray
    scales: np.ndarray
    field: np.ndarray  # final slice, indexed [z, y]
    crosswind_integrals: np.ndarray
    runtime_s: float
    warnings: Tuple[str, ...] = ()


def march_steady_plume(params: ChannelParams, source_height: float, x_start: float,
                       x_end: float, resolution: float) -> SteadyMarchResult:
    """March the crosswind heat equation for a unit-rate plume from the
    closed form at x_start to x_end, in the transformed coordinate
    s = diffusion_scale(x).

    The march runs on a square box about the plume centre (y = 0, z =
    source height), in steps of ``resolution`` out to ``_CONTAINMENT_MARGIN``
    * sqrt(s(x_end)) on each side, and in scale steps of at most 0.25 *
    resolution^2, the explicit march's stability bound.  A box that would
    reach below the ground is made symmetric about z = 0 and sampled at |z|:
    the even extension, whose heat flow is the reflecting ground's, as in
    :func:`march_transient_jet`.  The initial slice is
    :func:`steady_state_concentration` at x_start, so the marched field is
    directly comparable to the closed form at x_end.  The box's edges hold
    zero, and every step updates its whole interior by the 5-point stencil.

    ``field`` and ``z`` keep the rows at z >= 0, and ``crosswind_integrals``
    are the box's trapezoid integrals, halved on a mirrored box.  Raises
    :class:`DomainError` with field ``diffusivity`` where s(x_end), then
    s(x_start), is not a positive double, and :class:`GridError` for a bad
    grid.
    """
    if not (0.0 < x_start < x_end < math.inf):
        raise GridError("need 0 < x_start < x_end < inf")
    if not source_height > 0.0:
        raise GridError("the source height must be positive")
    start = time.perf_counter()
    scale_start, scale_end = diffusion_scale(np.array([x_start, x_end]), params)
    # an overflow shows first at the end, an underflow at the start
    for x, scale in ((x_end, scale_end), (x_start, scale_start)):
        if not (0.0 < scale < math.inf):
            raise DomainError(f"the diffusion scale K x / u at {x:g} cm leaves the range of "
                              f"doubles at wind speed {params.wind_speed:g} cm/s",
                              field="diffusivity")
    if not scale_start < scale_end:
        raise GridError(f"the diffusion scale must grow from x_start to x_end; it is "
                        f"{scale_start:g} to {scale_end:g} cm^2")
    # after the scales: a channel-derived resolution of 0 is the channel's fault
    if not resolution > 0.0:
        raise GridError("the resolution must be positive")

    step = resolution
    reach = _CONTAINMENT_MARGIN * math.sqrt(scale_end)
    n = math.ceil(reach / step)
    y = step * np.arange(-n, n + 1)
    mirrored = source_height < n * step
    if mirrored:
        m = math.ceil((source_height + reach) / step)
        z = step * np.arange(-m, m + 1)
    else:
        z = source_height + y

    warnings = []
    ic_sigma = math.sqrt(2.0 * scale_start)
    if ic_sigma < 2.0 * step:
        warnings.append(
            f"initial Gaussian (sigma = {ic_sigma:.3g} cm) spans under 2 grid steps; "
            "expect start-up error"
        )

    C = steady_state_concentration(1.0, (x_start, y[None, :], np.abs(z)[:, None]), params,
                                   source_height)
    C[[0, -1], :] = 0.0
    C[:, [0, -1]] = 0.0

    # the scale span in squared steps, and each scale step's share of it,
    # the stencil's weight
    span = (scale_end - scale_start) / step / step
    n_steps = max(1, math.ceil(4.0 * span))
    weight = span / n_steps
    integrals = np.empty(n_steps + 1)
    integrals[0] = np.trapezoid(np.trapezoid(C, dx=step, axis=1), dx=step)
    for k in range(n_steps):
        C[1:-1, 1:-1] += weight * (C[2:, 1:-1] + C[:-2, 1:-1] + C[1:-1, 2:] + C[1:-1, :-2]
                                   - 4.0 * C[1:-1, 1:-1])
        integrals[k + 1] = np.trapezoid(np.trapezoid(C, dx=step, axis=1), dx=step)
    if mirrored:
        integrals /= 2.0
        C, z = C[m:], z[m:]

    scales = scale_start + (scale_end - scale_start) / n_steps * np.arange(n_steps + 1)
    return SteadyMarchResult(
        x_start=x_start,
        x_end=x_end,
        resolution=resolution,
        y=y,
        z=z,
        scales=scales,
        field=C,
        crosswind_integrals=integrals,
        runtime_s=time.perf_counter() - start,
        warnings=tuple(warnings),
    )


def steady_oracle_report(result: SteadyMarchResult, params: ChannelParams,
                         source_height: float,
                         coarse: Optional[SteadyMarchResult] = None) -> OracleReport:
    """Compare the marched slice at x_end against the closed form under the
    ``steady_l2`` and ``steady_crosswind`` checks.  ``coarse``, a march of the
    same plume at a coarser resolution, adds ``steady_refinement_factor``: its
    l2 error over this march's."""
    closed = steady_state_concentration(1.0, (result.x_end, result.y[None, :],
                                              result.z[:, None]), params, source_height)
    max_rel, l2_rel = _relative_errors(result.field, closed)
    flux = 1.0 / params.wind_speed
    crosswind_dev = float(np.max(np.abs(result.crosswind_integrals - flux) / flux))
    checks = {"steady_l2": l2_rel, "steady_crosswind": crosswind_dev}
    if coarse is not None:
        coarse_l2 = steady_oracle_report(coarse, params, source_height).l2_rel_error
        checks["steady_refinement_factor"] = coarse_l2 / l2_rel if l2_rel else math.inf
    return OracleReport(
        name="steady_plume_march",
        max_rel_error=max_rel,
        l2_rel_error=l2_rel,
        checks=checks,
        grid={"x_start": result.x_start, "x_end": result.x_end, "step": result.resolution,
              "shape": result.field.shape},
        runtime_s=result.runtime_s,
        warnings=result.warnings,
    )


# ---------------------------------------------------------------------------
# transient jet: the heat kernel in the wind frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientGrid:
    """Time window of the transient jet oracle: it starts from the closed
    form at t_start (> release time) and follows the probes to t_end.  The
    box and its step come from the pulse (see :func:`march_transient_jet`).
    """

    t_start: float
    t_end: float

    def __post_init__(self):
        if not (0.0 < self.t_start < self.t_end < math.inf):
            raise GridError("need 0 < t_start < t_end < inf")


@dataclass
class TransientMarchResult:
    grid: TransientGrid
    x: np.ndarray  # the box's axes at t_start
    y: np.ndarray
    z: np.ndarray
    times: np.ndarray
    mass: float
    probe_points: Tuple[Tuple[float, float, float], ...]
    probe_values: np.ndarray  # (n_probes, n_times)
    dt: float
    runtime_s: float


# the box's reach about the pulse centre, in spreads sqrt(2 K t_end)
_BOX_REACH = 6.0

# the box's steps per spread sqrt(2 K t_start)
_STEPS_PER_SPREAD = 2.0

# the most box points per axis, and the most probe times
_MAX_BOX_POINTS = 128
_MAX_PROBE_TIMES = 2**20


def march_transient_jet(params: ChannelParams, source_height: float, grid: TransientGrid,
                        probes: Sequence[Tuple[float, float, float]] = ()
                        ) -> TransientMarchResult:
    """Evolve a unit-mass jet released at t = 0 from its closed form at
    t_start by the exact heat kernel, and read it at the probes.

    Scope: constant diffusivity K only.  In the frame that moves with the
    wind, x - u t, the advection-diffusion equation is the heat equation
    with a reflecting ground.  The closed form at t_start is sampled once on
    a box in that frame, centred on the pulse (u t_start, 0, source height):
    its half-width is ``_BOX_REACH`` spreads sqrt(2 K t) at t_end, and its
    step 1/``_STEPS_PER_SPREAD`` of the spread at t_start.  A box that would
    reach below the ground is made symmetric about z = 0 and sampled at |z|:
    the even extension, whose heat flow is the reflecting ground's.

    One FFT of the box gives its trigonometric interpolant, and after an
    elapsed time tau the heat kernel damps each mode k by exp(-K |k|^2 tau),
    exactly.  The probe times are one box step apart in the wind frame.  At
    each, the interpolant is evaluated at the probe's place in the frame; the
    sum factors per axis, so it is one contraction of the box.  A probe
    outside the box reads 0, never a periodic image.

    ``mass`` is the box sum times the cell volume (half of it on a mirrored
    box): the zero mode, which the kernel keeps, so it tests the closed
    form's normalisation on the box.  Raises :class:`DomainError` for a
    varying K, and :class:`GridError` where the box reaches inside x_min or
    the window needs more than ``_MAX_BOX_POINTS`` per axis or
    ``_MAX_PROBE_TIMES`` times.
    """
    if not params.diffusivity.is_constant:
        raise DomainError("transient oracle is scoped to constant diffusivity profiles")
    start = time.perf_counter()
    K = params.diffusivity.k0
    u = params.wind_speed
    step = math.sqrt(2.0 * K * grid.t_start) / _STEPS_PER_SPREAD
    reach = _BOX_REACH * math.sqrt(2.0 * K * grid.t_end)
    if not 0.0 < reach <= step * _MAX_BOX_POINTS / 2 < math.inf:
        raise GridError(f"no box of at most {_MAX_BOX_POINTS} points per axis resolves the "
                        f"pulse from t = {grid.t_start:g} to {grid.t_end:g} s")
    n = math.ceil(reach / step)
    offsets = step * np.arange(-n, n)
    x = u * grid.t_start + offsets
    if x[0] < params.x_min:
        raise GridError(f"the box reaches x = {x[0]:g} cm, inside x_min = {params.x_min:g} cm")
    y = offsets
    mirrored = source_height < n * step
    if mirrored:
        m = n + math.ceil(source_height / step)
        z = step * np.arange(-m, m)
    else:
        z = source_height + offsets
    box = jet_concentration(1.0, 0.0, (x[:, None, None], y[None, :, None],
                                       np.abs(z)[None, None, :], grid.t_start),
                            params, source_height)
    # the closed form's own domain errors come before the grid's: the probe
    # times are one box step apart in the wind frame
    span = (grid.t_end - grid.t_start) * u / step
    if not span < _MAX_PROBE_TIMES:
        raise GridError(f"the pulse is too narrow to follow from t = {grid.t_start:g} to "
                        f"{grid.t_end:g} s in {_MAX_PROBE_TIMES} probe times")
    mass = float(box.sum()) * step**3 / (2.0 if mirrored else 1.0)
    modes = np.fft.fftn(box)
    waves = [2.0 * np.pi * np.fft.fftfreq(axis.size, step) for axis in (x, y, z)]

    dt = step / u
    times = grid.t_start + dt * np.arange(math.ceil(span) + 1)
    probe_values = np.zeros((len(probes), times.size))
    probe_points = tuple(tuple(float(c) for c in point) for point in probes)
    for p, (px, py, pz) in enumerate(probe_points):
        if not (y[0] <= py <= y[-1] and z[0] <= pz <= z[-1]):
            continue
        # the probe's place along the box as the box drifts downwind
        along = px - u * (times - grid.t_start)
        for i in np.flatnonzero((x[0] <= along) & (along <= x[-1])):
            tau = times[i] - grid.t_start
            fx, fy, fz = (np.exp(1j * k * (c - axis[0]) - K * k * k * tau)
                          for k, c, axis in zip(waves, (along[i], py, pz), (x, y, z)))
            probe_values[p, i] = (modes @ fz @ fy @ fx).real / modes.size

    return TransientMarchResult(
        grid=grid,
        x=x,
        y=y,
        z=z,
        times=times,
        mass=mass,
        probe_points=probe_points,
        probe_values=probe_values,
        dt=dt,
        runtime_s=time.perf_counter() - start,
    )


def transient_oracle_report(result: TransientMarchResult, params: ChannelParams,
                            source_height: float) -> OracleReport:
    """Compare probe time series against the closed form where the pulse is
    significant (``_PROBE_SIGNIFICANCE`` of the per-probe peak or more), and
    the box's mass with 1, under the ``transient_probe`` and
    ``transient_mass`` checks."""
    if not result.probe_points:
        raise GridError("the transient oracle has nothing to compare: the march's probe "
                        "list is empty")
    worst = 0.0
    peak_offsets = {}
    sq_num = 0.0
    sq_ref = 0.0
    for p, (px, py, pz) in enumerate(result.probe_points):
        closed = np.asarray(
            jet_concentration(1.0, 0.0, (px, py, pz, result.times), params, source_height)
        )
        if not closed.any():
            raise GridError(f"the pulse never reaches probe {(px, py, pz)} between "
                            f"t = {result.times[0]:g} and {result.times[-1]:g} s")
        series = result.probe_values[p]
        mask = closed >= _PROBE_SIGNIFICANCE * closed.max()
        rel = np.abs(series[mask] - closed[mask]) / closed[mask]
        worst = max(worst, float(rel.max()))
        sq_num += float(np.sum((series[mask] - closed[mask]) ** 2))
        sq_ref += float(np.sum(closed[mask] ** 2))
        t_peak_num = result.times[int(np.argmax(series))]
        peak_offsets[f"probe_{p}_peak_offset_s"] = float(t_peak_num - px / params.wind_speed)
    return OracleReport(
        name="transient_jet_march",
        max_rel_error=worst,
        l2_rel_error=math.sqrt(sq_num / sq_ref),
        checks={
            "transient_probe": worst,
            "transient_mass": abs(result.mass - 1.0),
        },
        grid={**asdict(result.grid), "step": float(result.x[1] - result.x[0]),
              "shape": (result.x.size, result.y.size, result.z.size)},
        runtime_s=result.runtime_s,
        extras={"dt": result.dt, **peak_offsets},
    )


# ---------------------------------------------------------------------------
# breath step response: numeric convolution of the impulse response
# ---------------------------------------------------------------------------


def step_convolution(point, params: ChannelParams, source_height: float) -> float:
    """Adaptive quadrature of the impulse response against a unit step at
    t = 0: the independent route to the unit breath response, and 0.0 at
    t <= 0.

    The elapsed time is cut at the pulse, at -8, -2, 0, 2 and 8 widths
    2 sqrt(s)/u about x/u, and the pieces between the cuts are integrated as
    one gap by the package's adaptive 7/15-point Gauss-Kronrod loop
    (``channel._gap_integrals``, one impulse-response call per round) to
    ``_CONVOLUTION_RTOL``.  Raises :class:`QuadratureError` if that takes
    more than 200 subintervals.
    """
    px, py, pz, t = (float(c) for c in _point(point, 4))
    if t <= 0.0:
        return 0.0

    def integrand(s):
        return impulse_response((px, py, pz, s), params, source_height)

    u = params.wind_speed
    width = 2.0 * math.sqrt(diffusion_scale(px, params)) / u
    center = px / u
    cuts = [s for s in (center + k * width for k in (-8.0, -2.0, 0.0, 2.0, 8.0))
            if 0.0 < s < t]
    ends = np.array([0.0, *cuts, t])
    value = _gap_integrals(integrand, ends[:-1], ends[1:], np.zeros(ends.size - 1, dtype=int),
                           ends[-1:], _CONVOLUTION_RTOL)
    return float(value[0])


# ---------------------------------------------------------------------------
# frequency response: DFT of the sampled impulse response
# ---------------------------------------------------------------------------


@dataclass
class SampledSpectrum:
    """One-sided DFT of the sampled impulse response, scaled by the sample
    interval so values approximate the continuous Fourier transform."""

    omega: np.ndarray
    values: np.ndarray
    sample_interval: float
    n_samples: int
    point: Tuple[float, float, float]

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.values)

    @property
    def normalized_magnitude(self) -> np.ndarray:
        return self.magnitude / self.magnitude[0]

    def phase_slope(self, omega_max: float) -> float:
        """Linear-fit slope of the unwrapped phase up to omega_max (rad/s)."""
        mask = self.omega <= omega_max
        unwrapped = np.unwrap(self.phase[mask])
        return float(np.polyfit(self.omega[mask], unwrapped, 1)[0])


# the spectrum's samples across the pulse's 12 sigma, and its fewest and
# most samples
_SAMPLES_PER_PULSE = 64
_MIN_SPECTRUM_SAMPLES = 4096
_MAX_SPECTRUM_SAMPLES = 2**20


def sampled_transfer_function(point, params: ChannelParams,
                              source_height: float) -> SampledSpectrum:
    """Sample the impulse response on a uniform time grid from t = 0 and DFT
    it.

    The grid comes from the pulse at the point, of width sigma_t =
    sqrt(2 s(x)) / u about x / u: the interval puts ``_SAMPLES_PER_PULSE``
    samples across 12 sigma_t, and the length is the smallest power of two,
    at least ``_MIN_SPECTRUM_SAMPLES``, whose window covers the pulse centre
    +- 6 sigma_t and spans at least 2 x / u.  A shorter window spaces the DFT
    bins so far apart that the phase x / u per unit omega moves by more than
    pi from one bin to the next, and the phase cannot be unwrapped.  Raises
    :class:`GridError` where the pulse begins before t = 0 or needs more
    than ``_MAX_SPECTRUM_SAMPLES`` samples.
    """
    px, py, pz = (float(c) for c in point)
    u = params.wind_speed
    sigma_t = math.sqrt(2.0 * diffusion_scale(px, params)) / u
    t_peak = px / u
    if t_peak - 6.0 * sigma_t < 0.0:
        raise GridError(f"the pulse at x = {px:g} cm begins before t = 0: its centre "
                        "+- 6 sigma must follow the release")
    interval = 12.0 * sigma_t / _SAMPLES_PER_PULSE
    reach = max(t_peak + 6.0 * sigma_t + interval, 2.0 * t_peak)
    n_samples = _MIN_SPECTRUM_SAMPLES
    while n_samples <= _MAX_SPECTRUM_SAMPLES and n_samples * interval < reach:
        n_samples *= 2
    if n_samples > _MAX_SPECTRUM_SAMPLES:
        raise GridError(f"the pulse at x = {px:g} cm is too narrow for its delay: a window "
                        f"of {_MAX_SPECTRUM_SAMPLES} samples cannot span 2 x / u")
    times = interval * np.arange(n_samples)
    samples = np.asarray(impulse_response((px, py, pz, times), params, source_height))
    values = np.fft.rfft(samples) * interval
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_samples, d=interval)
    return SampledSpectrum(
        omega=omega,
        values=values,
        sample_interval=interval,
        n_samples=n_samples,
        point=(px, py, pz),
    )


def spectrum_oracle_report(spectrum: SampledSpectrum, params: ChannelParams,
                           source_height: float) -> OracleReport:
    """Check the closed-form frequency response against the DFT: normalized
    magnitude shape, phase slope, and constancy of the closed-form/DFT
    magnitude ratio (the overall constant is not asserted), under the three
    ``spectrum_*`` checks."""
    start = time.perf_counter()
    px, py, pz = spectrum.point
    scale = diffusion_scale(px, params)
    u = params.wind_speed
    omega_max = u / math.sqrt(scale)
    mask = spectrum.omega <= omega_max

    model = np.exp(-spectrum.omega[mask] ** 2 * scale / (u * u))
    mag_err = float(np.max(np.abs(spectrum.normalized_magnitude[mask] / model - 1.0)))

    slope = spectrum.phase_slope(omega_max)
    slope_target = -px / u
    slope_err = abs(slope - slope_target) / abs(slope_target)

    closed = frequency_response((px, py, pz), spectrum.omega[mask], params, source_height)
    ratio = np.asarray(closed.magnitude) / spectrum.magnitude[mask]
    variation = float((ratio.max() - ratio.min()) / ratio.mean())

    return OracleReport(
        name="sampled_transfer_function",
        max_rel_error=mag_err,
        l2_rel_error=float(
            np.linalg.norm(spectrum.normalized_magnitude[mask] - model) / np.linalg.norm(model)
        ),
        checks={
            "spectrum_magnitude": mag_err,
            "spectrum_phase_slope": slope_err,
            "spectrum_constant_variation": variation,
        },
        grid={
            "sample_interval": spectrum.sample_interval,
            "n_samples": spectrum.n_samples,
            "omega_max": omega_max,
        },
        runtime_s=time.perf_counter() - start,
        extras={
            "phase_slope": slope,
            "phase_slope_target": slope_target,
            "constant_ratio_mean": float(ratio.mean()),
        },
    )


# ---------------------------------------------------------------------------
# Monte Carlo: missed detection and the receiver integral
# ---------------------------------------------------------------------------

# the block of both Monte Carlo oracles: this many normals of the miss count,
# or rows of four uniforms of the receiver integral, are drawn at a time, so
# their working memory does not grow with the count
_MC_BLOCK = 1 << 15


@dataclass
class PmdEstimate:
    """Miss fraction with a Wilson score interval (z-score ``z``)."""

    estimate: float
    lower: float
    upper: float
    trials: int
    misses: int
    z: float

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


def _wilson_interval(misses: int, trials: int, z: float):
    phat = misses / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def empirical_pmd(signal: float, sigma: float, trials: int, seed) -> PmdEstimate:
    """Simulate the infected hypothesis, readings of mean ``signal`` (the
    noiseless reading, capture gain * exposure) and standard deviation
    ``sigma``, and count those that the receiver's ML rule
    (:func:`ml_threshold`, :func:`decide`) calls healthy, with a Wilson
    interval at z = ``WILSON_Z``.

    Reproducible for a fixed seed; ``trials`` must be at least 10^4 for the
    interval to be meaningful.  The normals are drawn :data:`_MC_BLOCK` at a
    time into one reused buffer: the same draws in the same order as one
    call for all of them, and the same count, in O(block) memory whatever
    ``trials`` is.
    """
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials")
    if not (sigma >= 0.0):
        raise DomainError("sigma must be nonnegative")
    threshold = ml_threshold(signal)
    rng = np.random.default_rng(seed)
    trials = int(trials)
    buffer = np.empty(min(trials, _MC_BLOCK))
    misses = 0
    for start in range(0, trials, _MC_BLOCK):
        # in place, whether signal is a float or a numpy scalar
        received = buffer[:min(_MC_BLOCK, trials - start)]
        rng.standard_normal(out=received)
        received *= sigma
        received += signal
        misses += received.size - int(np.count_nonzero(decide(received, threshold)))
    lower, upper = _wilson_interval(misses, trials, WILSON_Z)
    return PmdEstimate(
        estimate=misses / trials, lower=lower, upper=upper, trials=trials,
        misses=misses, z=WILSON_Z,
    )


@dataclass
class McExposureEstimate:
    value: float
    standard_error: float
    samples: int

    def distance_sigmas(self, reference: float) -> float:
        """|value - reference| in standard errors; at a standard error of 0
        it is 0 when the two are equal and inf when they differ."""
        if self.standard_error == 0.0:
            return 0.0 if self.value == reference else math.inf
        return abs(self.value - reference) / self.standard_error


def mc_receiver_exposure(recv: ReceiverSpec, field, samples: int, seed) -> McExposureEstimate:
    """Unbiased Monte Carlo estimate of the receiver space-time integral over
    the window from t = 0.

    Uniform rejection sampling inside the sphere paired with uniform times in
    the window; deterministic for a fixed seed.  The stream is read as rows
    of four uniforms, :data:`_MC_BLOCK` rows at a time: row i is draws 4i to
    4i + 3, the offsets ``-r + 2r u`` and the time ``W u`` of candidate i
    (the formulas of ``Generator.uniform``), and the first ``samples``
    candidates inside the sphere are taken in order, so they do not depend
    on the block.  The field is called once per block, and the block's mean
    and summed squared deviations join running totals by the pairwise update
    of Chan, Golub and LeVeque (1983), so memory is O(block) at any
    ``samples``.  A ``Generator`` passed as ``seed`` ends after the whole
    blocks drawn.
    """
    if samples < 100_000:
        raise DomainError("need at least 1e5 samples")
    rng = np.random.default_rng(seed)
    cx, cy, cz = recv.center
    r, window = recv.radius, recv.sampling_window
    accepted, mean, deviations = 0, 0.0, 0.0
    while accepted < samples:
        rows = rng.random((_MC_BLOCK, 4))
        x, y, z = -r + 2.0 * r * rows[:, :3].T
        keep = np.flatnonzero((x * x + y * y) + z * z <= r * r)[:samples - accepted]
        block = np.asarray(field(cx + x[keep], cy + y[keep], cz + z[keep],
                                 window * rows[keep, 3]), dtype=float)
        total = accepted + keep.size
        block_mean = float(block.mean())
        delta = block_mean - mean
        mean += delta * keep.size / total
        deviations += (float(np.sum((block - block_mean) ** 2))
                       + delta * delta * accepted * keep.size / total)
        accepted = total
    measure = recv.volume * window
    se = math.sqrt(deviations / (samples - 1)) / math.sqrt(samples)
    return McExposureEstimate(
        value=measure * mean, standard_error=measure * se, samples=int(samples)
    )
