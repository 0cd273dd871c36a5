"""Independent numerical ground truth for the closed forms and the detector.

Five oracle families live here: a finite-difference march of the transformed
heat equation validating the steady plume, an advection-diffusion march
validating the jet response, adaptive time convolution validating the breath
step response, a DFT of the sampled impulse response validating the
frequency-domain shape, and Monte Carlo estimators validating the receiver
integral and the missed-detection probability.  Each march starts from its
closed form and derives its own steps: the steady one runs between two
downwind distances from :func:`steady_state_concentration` at the first, in
scale steps set by a single resolution; the jet one from
:func:`jet_concentration` at its start time, in steps set by its box's
spacing and the stability bound.  The time convolution runs on the same
adaptive Gauss-Kronrod loop as the channel's :func:`diffusion_scale`, and
fails under the same rule, with :class:`QuadratureError`.

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
    rate: float
    runtime_s: float
    warnings: Tuple[str, ...] = ()


def _laplacian_2d(C, lo, hi, dy, dz, out):
    """Crosswind Laplacian of rows [lo, hi) of C into ``out[:hi - lo]``, with
    no-flux ground (z index 0) and Dirichlet elsewhere.  Row ``hi`` must
    exist, and so must row ``lo - 1`` unless ``lo`` is the ground row.  The
    y-edge columns of ``out`` are not written: they must hold 0.0."""
    inv_dy2 = 1.0 / (dy * dy)
    inv_dz2 = 1.0 / (dz * dz)
    out = out[:hi - lo]
    first = max(lo, 1)
    out[first - lo:, 1:-1] = (
        C[first + 1:hi + 1, 1:-1] - 2.0 * C[first:hi, 1:-1] + C[first - 1:hi - 1, 1:-1]
    ) * inv_dz2 + (C[first:hi, 2:] - 2.0 * C[first:hi, 1:-1] + C[first:hi, :-2]) * inv_dy2
    if lo == 0:
        out[0, 1:-1] = (2.0 * C[1, 1:-1] - 2.0 * C[0, 1:-1]) * inv_dz2 + (
            C[0, 2:] - 2.0 * C[0, 1:-1] + C[0, :-2]
        ) * inv_dy2
    return out


def _crosswind_integral(C, lo, hi, dy, dz, inner):
    """Trapezoid over y, then z, of C, which is 0.0 outside rows [lo, hi).
    Each row's y integral depends on that row alone, and the z integral runs
    over the full ``inner`` (0.0 outside the rows), so this is bit-identical
    to integrating the whole slice."""
    inner[lo:hi] = np.trapezoid(C[lo:hi], dx=dy, axis=1)
    return np.trapezoid(inner, dx=dz)


def march_steady_plume(params: ChannelParams, source_height: float, x_start: float,
                       x_end: float, resolution: float,
                       rate: float = 1.0) -> SteadyMarchResult:
    """March the crosswind heat equation from the closed form at x_start to
    x_end, in the transformed coordinate s = diffusion_scale(x).

    The grid is set by ``resolution`` alone: y and z steps of ``resolution``
    out to ``_CONTAINMENT_MARGIN`` * sqrt(s(x_end)) beyond the plume centre
    (y = 0, z = source height), z from the ground, and scale steps of at most
    0.25 * resolution^2, the explicit march's stability bound.  The initial
    slice is :func:`steady_state_concentration` at x_start, as the jet march
    starts from :func:`jet_concentration` at t_start, so the marched field
    is directly comparable to the closed form at x_end.  The ground row is
    no-flux; the outer boundaries hold zero.

    Each step updates only the rows of the exact nonzero support.  The
    stencil maps an all-zero neighbourhood to exactly 0.0, so the support
    widens by one row per side per step; it never takes in the top
    (Dirichlet) row, and it takes in the no-flux ground row only once it
    reaches the row above.  Every other row stays 0.0 and integrates to 0.0,
    so the field and the crosswind integrals are bit-identical to updating
    and integrating the whole slice.  Raises :class:`DomainError` with field
    ``diffusivity`` where s(x_end), then s(x_start), is not a positive
    double, and :class:`GridError` for a bad grid.
    """
    if not (0.0 < x_start < x_end < math.inf):
        raise GridError("need 0 < x_start < x_end < inf")
    if not (resolution > 0.0 and source_height > 0.0):
        raise GridError("resolution and source height must be positive")
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

    reach = _CONTAINMENT_MARGIN * math.sqrt(scale_end)
    dy = dz = resolution
    n_half = int(math.ceil(reach / dy))
    y = np.arange(-n_half, n_half + 1) * dy
    n_z = int(math.ceil((source_height + reach) / dz))
    z = np.arange(0, n_z + 1) * dz

    warnings = []
    ic_sigma = math.sqrt(2.0 * scale_start)
    if ic_sigma < 3.0 * resolution:
        warnings.append(
            f"initial Gaussian (sigma = {ic_sigma:.3g} cm) spans under 3 grid steps; "
            "expect start-up error"
        )

    span = scale_end - scale_start
    n_steps = max(1, int(math.ceil(span / (0.25 * resolution * resolution))))
    d = span / n_steps

    C = steady_state_concentration(rate, (x_start, y[None, :], z[:, None]), params,
                                   source_height)
    C[:, 0] = 0.0
    C[:, -1] = 0.0
    C[-1, :] = 0.0

    # [lo, hi): the rows that may hold a nonzero value; all others are 0.0
    support = np.flatnonzero(C.any(axis=1))
    lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size else (0, 0)
    top = z.size - 1
    inner = np.zeros(z.size)
    integrals = np.empty(n_steps + 1)
    integrals[0] = _crosswind_integral(C, lo, hi, dy, dz, inner)

    lap = np.zeros_like(C)
    for k in range(n_steps):
        if lo < hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, top)
            C[lo:hi] += d * _laplacian_2d(C, lo, hi, dy, dz, lap)
        integrals[k + 1] = _crosswind_integral(C, lo, hi, dy, dz, inner)

    scales = scale_start + d * np.arange(n_steps + 1)
    return SteadyMarchResult(
        x_start=x_start,
        x_end=x_end,
        resolution=resolution,
        y=y,
        z=z,
        scales=scales,
        field=C,
        crosswind_integrals=integrals,
        rate=rate,
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
    closed = steady_state_concentration(result.rate, (result.x_end, result.y[None, :],
                                                      result.z[:, None]), params, source_height)
    max_rel, l2_rel = _relative_errors(result.field, closed)
    flux = result.rate / params.wind_speed
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
        grid={"x_start": result.x_start, "x_end": result.x_end,
              "resolution": result.resolution},
        runtime_s=result.runtime_s,
        warnings=result.warnings,
    )


# ---------------------------------------------------------------------------
# transient jet: advection-diffusion march
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransientGrid:
    """Box grid for the transient jet march.

    The march starts from the closed form at t_start (> release time) and runs
    to t_end; the box must contain the pulse over that whole window.  Each
    time step is the most whole advection cells (exact upwind transport at
    unit CFL, so numerical diffusion does not pollute the comparison) that
    the explicit diffusion stability bound allows.
    """

    x_span: Tuple[float, float]
    y_half: float
    z_span: Tuple[float, float]
    step_x: float
    step_y: float
    step_z: float
    t_start: float
    t_end: float

    def __post_init__(self):
        if not (0.0 < self.x_span[0] < self.x_span[1]):
            raise GridError("need 0 < x_lo < x_hi")
        if not (0.0 <= self.z_span[0] < self.z_span[1]):
            raise GridError("need 0 <= z_lo < z_hi")
        if not (self.y_half > 0.0):
            raise GridError("y_half must be positive")
        for name in ("step_x", "step_y", "step_z"):
            if not (getattr(self, name) > 0.0):
                raise GridError(f"{name} must be positive")
        if not (0.0 < self.t_start < self.t_end):
            raise GridError("need 0 < t_start < t_end")


@dataclass
class TransientMarchResult:
    grid: TransientGrid
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    times: np.ndarray
    mass: np.ndarray
    probe_points: Tuple[Tuple[float, float, float], ...]
    probe_values: np.ndarray  # (n_probes, n_times)
    snapshots: Tuple[Tuple[float, np.ndarray], ...]
    dt: float
    jet_mass: float
    runtime_s: float


# x-planes per block of the jet's diffusion step: a few planes of work
# buffers stay in cache where slab-sized ones would not
_DIFFUSION_BLOCK = 8

# numpy's pairwise float sum: runs of at most this many elements are summed
# in one unrolled pass, longer ones split in two (``PW_BLOCKSIZE``)
_PAIRWISE_BLOCK = 128


def _diffuse_inplace(C, coef_x, coef_y, coef_z, acc, tmp):
    """Add one explicit diffusion increment to the interior of C.

    ``coef_*`` is K*dt/step^2 per axis.  C must be C-contiguous, so each of
    its x-planes is one flat row of ``ny*nz`` values.  Every pass runs over
    the contiguous run ``[nz, ny*nz - nz)`` of a row, which holds every
    interior cell: its y-neighbours sit ``nz`` away, its z-neighbours 1 away,
    and its x-neighbours in the rows before and after.  The run also covers
    the z-shell cells (z index 0 and nz - 1); their increments are set to
    -0.0 before the add, and x + (-0.0) is x for every x, signed zeros
    included, so the shells never move.  Neither do the y-shell rows and the
    first and last planes, which no pass writes (Dirichlet).

    The planes run through in blocks of ``_DIFFUSION_BLOCK``: ``acc`` holds
    two blocks (ping and pong) and ``tmp`` one, each ``(_DIFFUSION_BLOCK,
    ny*nz - 2*nz)``.  A block's increment is added only after the next block
    has read the old values of its last plane, and each interior element sees
    the same operations in the same order as a whole-slab update, so the
    result is bit-identical to it.
    """
    if not C.flags.c_contiguous:
        raise ValueError("the diffusion slab must be C-contiguous")
    nz = C.shape[2]
    rows = C.reshape(C.shape[0], -1)
    width = rows.shape[1]
    run = slice(nz, width - nz)
    centre = -2.0 * (coef_x + coef_y + coef_z)
    end = rows.shape[0] - 1
    pending = None
    for block, s in enumerate(range(1, end, _DIFFUSION_BLOCK)):
        e = min(s + _DIFFUSION_BLOCK, end)
        a, t = acc[block % 2, :e - s], tmp[:e - s]
        np.multiply(rows[s:e, run], centre, out=a)
        np.add(rows[s + 1:e + 1, run], rows[s - 1:e - 1, run], out=t)
        t *= coef_x
        a += t
        np.add(rows[s:e, 2 * nz:], rows[s:e, :width - 2 * nz], out=t)
        t *= coef_y
        a += t
        np.add(rows[s:e, nz + 1:width - nz + 1], rows[s:e, nz - 1:width - nz - 1], out=t)
        t *= coef_z
        a += t
        shells = a.reshape(e - s, -1, nz)
        shells[:, :, 0] = -0.0
        shells[:, :, -1] = -0.0
        # the block before may move now: this one has read its last plane
        if pending is not None:
            rows[pending[0], run] += pending[1]
        pending = (slice(s, e), a)
    if pending is not None:
        rows[pending[0], run] += pending[1]


def _support_sum(flat, start, stop, lo, hi):
    """``flat[start:stop].sum()`` for a contiguous float64 ``flat`` that is
    +0.0 outside ``[lo, hi)``, bit for bit, touching little more than that
    support.

    numpy sums a contiguous float64 run as 0.0 plus its pairwise sum: a run
    of at most ``_PAIRWISE_BLOCK`` values in one fixed order, a longer one as
    the sum of its two halves, the first rounded down to a multiple of 8.
    This follows the same splits.  A part inside the support, and a short run,
    is summed by numpy itself in the same order; a part outside is all +0.0,
    whose pairwise sum is exactly +0.0.  The two can differ only in the sign
    of a zero, and adding a signed zero to a nonzero value, or 0.0 to a zero,
    gives the same result either way.
    """
    if stop <= lo or hi <= start:
        return 0.0
    size = stop - start
    if size <= _PAIRWISE_BLOCK or (lo <= start and stop <= hi):
        return flat[start:stop].sum()
    half = size // 2
    half -= half % 8
    return (_support_sum(flat, start, start + half, lo, hi)
            + _support_sum(flat, start + half, stop, lo, hi))


def march_transient_jet(params: ChannelParams, source_height: float, grid: TransientGrid,
                        jet_mass: float = 1.0,
                        probes: Sequence[Tuple[float, float, float]] = (),
                        snapshot_times: Sequence[float] = ()) -> TransientMarchResult:
    """March the full advection-diffusion equation for a jet released at t = 0.

    Scope: constant diffusivity only, so scheme error is not conflated with
    the coordinate transform.  Advection advances ``cells``, an exact integer
    number of cells per step: the most that keep the centered, explicit
    diffusion step within its 3D stability bound.

    The initial condition is the closed form at t_start, evaluated only on
    the x-planes between the first and last nonzero value on the source line
    (x, 0, source_height); every other plane is exactly 0.0.  That is exact:
    each value is the along-wind term at x times the crosswind factor, and on
    the source line that factor is at least 1, so at unit mass the line value
    is 0 only where the along-wind term is, and then so is the whole plane.

    The field lives in a frame that moves with the wind: a buffer of two
    boxes of x-planes, whose box is the view ``frame[off:off + n]``.  Each
    step advects by lowering ``off`` by ``cells``, so no value moves: the
    planes that enter at the near end hold 0.0, as nothing has written them
    since the buffer was zeroed, and those that leave at the far end drop out
    of the view.  When ``off``
    would go below 0, the live planes are copied back to the top of the
    buffer and the rest of it is zeroed, once per about n/cells steps, so the
    buffer stays two boxes whatever t_end is.

    Each step touches only the x-planes of the exact nonzero support.  The
    stencil maps an all-zero neighbourhood to exactly 0.0, so the support
    moves by ``cells`` planes and widens by one plane per side per step.  The
    diffusion step runs over the support a few planes at a time, each plane
    as one flat row (see ``_diffuse_inplace``), and the mass sums the support
    in numpy's own pairwise order (see ``_support_sum``), so every result is
    bit-identical to advecting, diffusing and summing the whole box.
    """
    if not params.diffusivity.is_constant:
        raise DomainError("transient oracle is scoped to constant diffusivity profiles")
    if grid.x_span[0] < params.x_min:
        raise GridError("x_lo must be at least params.x_min")
    start = time.perf_counter()
    K = params.diffusivity.k0
    u = params.wind_speed
    dx, dy, dz = grid.step_x, grid.step_y, grid.step_z

    diffusion_cap = 0.5 / (K * (1.0 / dx**2 + 1.0 / dy**2 + 1.0 / dz**2))
    cells = int(math.floor(diffusion_cap * u / dx))
    if cells < 1:
        raise GridError(
            "no stable integer-CFL step exists: refine step_x or coarsen the crosswind steps"
        )
    dt = cells * dx / u

    x = grid.x_span[0] + dx * np.arange(int(math.ceil((grid.x_span[1] - grid.x_span[0]) / dx)) + 1)
    n_yh = int(math.ceil(grid.y_half / dy))
    y = dy * np.arange(-n_yh, n_yh + 1)
    z = grid.z_span[0] + dz * np.arange(
        int(math.ceil((grid.z_span[1] - grid.z_span[0]) / dz)) + 1
    )
    if np.any(z < 0.0):
        raise GridError("z grid reaches below the ground")

    # the box starts at the top of the frame: n planes of room below it
    n = x.size
    plane = y.size * z.size
    frame = np.zeros((2 * n, y.size, z.size))
    flat = frame.reshape(-1)
    off = n
    C = frame[off:off + n]
    # the closed form at t_start, evaluated only on the planes where the
    # source line is nonzero: see the docstring for why that is exact
    line = np.asarray(jet_concentration(1.0, 0.0, (x, 0.0, source_height, grid.t_start),
                                        params, source_height))
    nonzero = np.flatnonzero(line)
    # [lo, hi): the x-planes that may hold a nonzero value; all others are 0.0
    lo, hi = n, n
    if nonzero.size:
        lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
        C[lo:hi] = jet_concentration(
            jet_mass,
            0.0,
            (x[lo:hi, None, None], y[None, :, None], z[None, None, :], grid.t_start),
            params,
            source_height,
        )
        support = lo + np.flatnonzero(C[lo:hi].any(axis=(1, 2)))
        lo, hi = (int(support[0]), int(support[-1]) + 1) if support.size else (n, n)
    cell_volume = dx * dy * dz

    def box_mass():
        return _support_sum(flat, off * plane, (off + n) * plane,
                            (off + lo) * plane, (off + hi) * plane) * cell_volume

    n_steps = int(math.ceil((grid.t_end - grid.t_start) / dt))
    times = grid.t_start + dt * np.arange(n_steps + 1)

    probe_idx = []
    probe_points = []
    for px, py, pz in probes:
        i = int(round((px - x[0]) / dx))
        j = int(round((py - y[0]) / dy))
        k = int(round((pz - z[0]) / dz))
        if not (0 < i < x.size - 1 and 0 < j < y.size - 1 and 0 < k < z.size - 1):
            raise GridError(f"probe {(px, py, pz)} falls outside the interior of the box")
        probe_idx.append((i, j, k))
        probe_points.append((float(x[i]), float(y[j]), float(z[k])))

    snap_steps = {int(round((ts - grid.t_start) / dt)): ts for ts in snapshot_times}
    snapshots = []

    mass = np.empty(n_steps + 1)
    mass[0] = box_mass()
    probe_values = np.empty((len(probe_idx), n_steps + 1))
    for p, (i, j, k) in enumerate(probe_idx):
        probe_values[p, 0] = C[i, j, k]
    if 0 in snap_steps:
        snapshots.append((float(times[0]), C.copy()))

    block = (_DIFFUSION_BLOCK, plane - 2 * z.size)
    acc = np.empty((2, *block))
    tmp = np.empty(block)
    coef = (K * dt / dx**2, K * dt / dy**2, K * dt / dz**2)
    for step in range(1, n_steps + 1):
        # exact advection: the box moves `cells` planes down the frame, so
        # box plane i + cells is the old plane i, and the inflow planes are 0.0
        new_lo, new_hi = min(lo + cells, n), min(hi + cells, n)
        if off >= cells:
            off -= cells
        else:
            # re-home: the live planes go back to the top and all below them
            # is zeroed.  Above them is 0.0 already: a plane past the support
            # is written only once the support reaches the box's far end, and
            # from then on the live planes end there too.
            frame[n + new_lo:n + new_hi] = frame[off + lo:off + lo + new_hi - new_lo]
            frame[:n + new_lo] = 0.0
            off = n
        lo, hi = new_lo, new_hi
        C = frame[off:off + n]
        if lo < hi:
            # the slab keeps one zero ghost plane beyond each updated plane
            _diffuse_inplace(C[max(lo - 2, 0):min(hi + 2, n)], *coef, acc, tmp)
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        mass[step] = box_mass()
        for p, (i, j, k) in enumerate(probe_idx):
            probe_values[p, step] = C[i, j, k]
        if step in snap_steps:
            snapshots.append((float(times[step]), C.copy()))

    return TransientMarchResult(
        grid=grid,
        x=x,
        y=y,
        z=z,
        times=times,
        mass=mass,
        probe_points=tuple(probe_points),
        probe_values=probe_values,
        snapshots=tuple(snapshots),
        dt=dt,
        jet_mass=jet_mass,
        runtime_s=time.perf_counter() - start,
    )


def transient_oracle_report(result: TransientMarchResult, params: ChannelParams,
                            source_height: float) -> OracleReport:
    """Compare probe time series against the closed form where the pulse is
    significant (``_PROBE_SIGNIFICANCE`` of the per-probe peak or more) and the
    marched mass, under the ``transient_probe`` and ``transient_mass`` checks."""
    if not result.probe_points:
        raise GridError("the transient oracle has nothing to compare: the march's probe "
                        "list is empty")
    worst = 0.0
    peak_offsets = {}
    sq_num = 0.0
    sq_ref = 0.0
    for p, (px, py, pz) in enumerate(result.probe_points):
        closed = np.asarray(
            jet_concentration(
                result.jet_mass, 0.0, (px, py, pz, result.times), params, source_height
            )
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
            "transient_mass": float(
                np.max(np.abs(result.mass - result.jet_mass) / result.jet_mass)),
        },
        grid=asdict(result.grid),
        runtime_s=result.runtime_s,
        extras={"dt": result.dt, **peak_offsets},
    )


# ---------------------------------------------------------------------------
# breath step response: numeric convolution of the impulse response
# ---------------------------------------------------------------------------


def step_convolution(point, params: ChannelParams, source_height: float,
                     rel_tol: float = 1e-8) -> float:
    """Adaptive quadrature of the impulse response against a unit step at
    t = 0: the independent route to the unit breath response, and 0.0 at
    t <= 0.

    The elapsed time is cut at the pulse, at -8, -2, 0, 2 and 8 widths
    2 sqrt(s)/u about x/u, and the pieces between the cuts are integrated as
    one gap by the package's adaptive 7/15-point Gauss-Kronrod loop
    (``channel._gap_integrals``, one impulse-response call per round) to
    ``rel_tol``.  Raises :class:`QuadratureError` if that takes more than 200
    subintervals.
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
                           ends[-1:], rel_tol)
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


def sampled_transfer_function(point, params: ChannelParams, source_height: float,
                              sample_interval: float, n_samples: int) -> SampledSpectrum:
    """Sample the impulse response on a uniform time grid from t = 0 and DFT
    it.

    Guards: the Gaussian pulse (12 sigma wide) must span at least 32 samples,
    and the window must cover the pulse center +- 6 sigma.
    """
    px, py, pz = (float(c) for c in point)
    if sample_interval <= 0.0 or n_samples < 2:
        raise GridError("need a positive sample interval and at least 2 samples")
    u = params.wind_speed
    sigma_t = math.sqrt(2.0 * diffusion_scale(px, params)) / u
    if 12.0 * sigma_t / sample_interval < 32.0:
        raise GridError(
            f"pulse spans {12.0 * sigma_t / sample_interval:.1f} samples; need >= 32 "
            "(aliasing guard)"
        )
    t_peak = px / u
    t_hi = (n_samples - 1) * sample_interval
    if t_peak - 6.0 * sigma_t < 0.0 or t_hi < t_peak + 6.0 * sigma_t:
        raise GridError("sampling window must cover the pulse center +- 6 sigma")
    times = sample_interval * np.arange(n_samples)
    samples = np.asarray(impulse_response((px, py, pz, times), params, source_height))
    values = np.fft.rfft(samples) * sample_interval
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_samples, d=sample_interval)
    return SampledSpectrum(
        omega=omega,
        values=values,
        sample_interval=sample_interval,
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


def empirical_pmd(exposure: float, sampler_efficiency: float, binding_fraction: float,
                  sigma: float, trials: int, seed) -> PmdEstimate:
    """Simulate the infected hypothesis and count the readings that the
    receiver's ML rule (:func:`ml_threshold`, :func:`decide`) calls healthy,
    with a Wilson interval at z = ``WILSON_Z``.

    Reproducible for a fixed seed; ``trials`` must be at least 10^4 for the
    interval to be meaningful.
    """
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials")
    if not (sigma >= 0.0):
        raise DomainError("sigma must be nonnegative")
    threshold = ml_threshold(exposure, sampler_efficiency, binding_fraction)
    rng = np.random.default_rng(seed)
    mean = sampler_efficiency * binding_fraction * exposure
    misses = 0
    remaining = int(trials)
    while remaining > 0:
        n = min(remaining, 1_000_000)
        # in place: one draw-sized array, whether mean is a float or a
        # numpy scalar
        received = rng.standard_normal(n)
        received *= sigma
        received += mean
        misses += n - int(np.count_nonzero(decide(received, threshold)))
        remaining -= n
    lower, upper = _wilson_interval(misses, trials, WILSON_Z)
    return PmdEstimate(
        estimate=misses / trials, lower=lower, upper=upper, trials=int(trials),
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
    the window; deterministic for a fixed seed.
    """
    if samples < 100_000:
        raise DomainError("need at least 1e5 samples")
    rng = np.random.default_rng(seed)
    cx, cy, cz = recv.center
    r = recv.radius
    values = np.empty(samples)
    accepted = 0
    while accepted < samples:
        # cube-to-sphere acceptance is pi/6; cap chunks to keep memory flat
        chunk = max(65_536, min(4_000_000, int((samples - accepted) / 0.5 + 1)))
        pts = rng.uniform(-r, r, size=(chunk, 3))
        ts = rng.uniform(0.0, recv.sampling_window, size=chunk)
        keep = np.sum(pts * pts, axis=1) <= r * r
        pts, ts = pts[keep], ts[keep]
        take = min(pts.shape[0], samples - accepted)
        vals = np.asarray(
            field(cx + pts[:take, 0], cy + pts[:take, 1], cz + pts[:take, 2], ts[:take]),
            dtype=float,
        )
        values[accepted:accepted + take] = vals
        accepted += take
    measure = recv.volume * recv.sampling_window
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return McExposureEstimate(
        value=measure * mean, standard_error=measure * se, samples=int(samples)
    )
