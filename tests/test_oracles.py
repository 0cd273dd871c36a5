"""Numerical oracles: grid validation, closed-form agreement within budgets,
determinism, and cross-oracle consistency."""

import dataclasses
import math

import numpy as np
import pytest

from plumesense.channel import (
    _MAX_SUBINTERVALS_PER_GAP,
    ChannelParams,
    DiffusivityProfile,
    breath_response,
    diffusion_scale,
    impulse_response,
    jet_concentration,
    steady_field,
)
from plumesense import oracles
from plumesense.errors import DomainError, EvaluationDomainError, GridError, QuadratureError
from plumesense.oracles import (
    ORACLE_CHECKS,
    WILSON_Z,
    McExposureEstimate,
    PmdEstimate,
    TransientGrid,
    _wilson_interval,
    empirical_pmd,
    march_steady_plume,
    march_transient_jet,
    mc_receiver_exposure,
    sampled_transfer_function,
    spectrum_oracle_report,
    steady_oracle_report,
    step_convolution,
    transient_oracle_report,
)
from plumesense.receiver import ReceiverSpec, q_function, receiver_exposure

from conftest import DIFFUSIVITY, HEIGHT, RADIUS, WIND, traced_peak


# validate-oracles' steady march runs from 50 to 250 cm downwind
VALIDATION_DISTANCES = (50.0, 250.0)


def validation_steps(params):
    """validate-oracles' coarse and fine steady steps: half and a quarter of
    the plume's spread sqrt(2 s) at 50 cm."""
    spread = math.sqrt(2.0 * diffusion_scale(VALIDATION_DISTANCES[0], params))
    return spread / 2, spread / 4


@pytest.fixture(scope="module")
def coarse_steady(params):
    return march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, resolution=0.15)


class TestMarchGrid:
    """The steady march's box, derived from its resolution and the plume."""

    def test_invalid_ranges_rejected(self, params):
        for x_start, x_end, resolution in [
            (0.0, 100.0, 0.1), (-10.0, 100.0, 0.1), (100.0, 100.0, 0.1),
            (100.0, 50.0, 0.1), (50.0, math.inf, 0.1), (math.nan, 100.0, 0.1),
            (50.0, math.nan, 0.1), (50.0, 100.0, 0.0), (50.0, 100.0, -0.2),
            (50.0, 100.0, math.nan),
        ]:
            with pytest.raises(GridError):
                march_steady_plume(params, HEIGHT, x_start, x_end, resolution)

    def test_start_inside_x_min_raises(self, params):
        # the closed form the march starts from is singular there
        with pytest.raises(EvaluationDomainError):
            march_steady_plume(params, HEIGHT, 0.5, 100.0, resolution=0.2)

    def test_grid_follows_the_resolution(self, params):
        # a square box about the plume centre in steps of the resolution, out
        # to the containment margin, and scale steps within the explicit
        # stability bound
        result = march_steady_plume(params, HEIGHT, 30.0, 230.0, resolution=0.2)
        scale_start, scale_end = diffusion_scale(np.array([30.0, 230.0]), params)
        reach = oracles._CONTAINMENT_MARGIN * math.sqrt(scale_end)
        n = math.ceil(reach / 0.2)
        assert np.array_equal(result.y, 0.2 * np.arange(-n, n + 1))
        assert np.array_equal(result.z, HEIGHT + result.y)
        assert result.field.shape == (2 * n + 1, 2 * n + 1)
        assert np.diff(result.scales).max() <= 0.25 * 0.2**2 * (1 + 1e-12)
        assert result.scales[0] == scale_start
        assert result.scales[-1] == pytest.approx(scale_end, rel=1e-12)
        assert (result.x_start, result.x_end) == (30.0, 230.0)

    @pytest.mark.parametrize("height", [0.5, 1.0, 3.0])
    def test_box_below_the_ground_is_mirrored(self, params, height):
        # the box is made symmetric about the ground and keeps z >= 0: rows
        # from z = 0 up to the containment margin above the source
        coarse, _ = validation_steps(params)
        result = march_steady_plume(params, height, *VALIDATION_DISTANCES, coarse)
        reach = oracles._CONTAINMENT_MARGIN * math.sqrt(result.scales[-1])
        m = math.ceil((height + reach) / coarse)
        assert np.array_equal(result.z, coarse * np.arange(0, m + 1))
        assert result.field.shape == (m + 1, result.y.size)

    @pytest.mark.parametrize("diffusivity", [1e-7, 1e-3, 1.0])
    def test_box_does_not_grow_as_the_diffusivity_falls(self, params, diffusivity):
        # at validate-oracles' steps the box and the scale steps come from
        # the plume, so they are the same at any constant K
        other = ChannelParams.with_constant(WIND, diffusivity)
        for shipped_step, step in zip(validation_steps(params), validation_steps(other)):
            shipped = march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, shipped_step)
            result = march_steady_plume(other, HEIGHT, *VALIDATION_DISTANCES, step)
            assert result.field.size <= shipped.field.size
            assert result.scales.size <= shipped.scales.size

    @pytest.mark.filterwarnings("error")
    def test_grid_too_coarse_for_the_plume_raises(self, params):
        # at 1e308 cm the closed form is 0 on every grid point: no error
        # figure can be taken, and the squares beyond the doubles stay quiet
        result = march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, 1e308)
        assert not result.field.any()
        with pytest.raises(GridError, match="every grid point"):
            steady_oracle_report(result, params, HEIGHT)


def ground_row_march(result, params, source_height):
    """Reference: the march on the result's grid from the ground (z = 0 in
    its first row), with a no-flux ground row, 2 C[1] in place of the row
    below, and zero at the top and the y edges.  Returns the final field and
    the crosswind integrals."""
    step = result.resolution
    n_steps = result.scales.size - 1
    scale_start, scale_end = diffusion_scale(np.array([result.x_start, result.x_end]), params)
    weight = (scale_end - scale_start) / step / step / n_steps
    C = oracles.steady_state_concentration(1.0, (result.x_start, result.y[None, :],
                                                 result.z[:, None]), params, source_height)
    C[:, [0, -1]] = 0.0
    C[-1, :] = 0.0
    integrals = [np.trapezoid(np.trapezoid(C, dx=step, axis=1), dx=step)]
    lap = np.zeros_like(C)
    for _ in range(n_steps):
        lap[1:-1, 1:-1] = (C[2:, 1:-1] + C[:-2, 1:-1] + C[1:-1, 2:] + C[1:-1, :-2]
                           - 4.0 * C[1:-1, 1:-1])
        lap[0, 1:-1] = 2.0 * C[1, 1:-1] + C[0, 2:] + C[0, :-2] - 4.0 * C[0, 1:-1]
        C += weight * lap
        integrals.append(np.trapezoid(np.trapezoid(C, dx=step, axis=1), dx=step))
    return C, np.array(integrals)


class TestSteadyMarch:
    def test_matches_closed_form_within_budget(self, params, coarse_steady):
        report = steady_oracle_report(coarse_steady, params, HEIGHT)
        assert report.passed
        assert ORACLE_CHECKS["steady_l2"].passes(report.l2_rel_error)

    def test_passed_follows_the_checks(self, params, coarse_steady):
        report = steady_oracle_report(coarse_steady, params, HEIGHT)
        assert set(report.checks) == {"steady_l2", "steady_crosswind"} and report.passed
        report.checks["steady_crosswind"] = ORACLE_CHECKS["steady_crosswind"].budget
        assert not report.passed

    def test_report_grid_names_the_step_and_shape(self, params, coarse_steady):
        grid = steady_oracle_report(coarse_steady, params, HEIGHT).grid
        assert grid == {"x_start": 50.0, "x_end": 250.0, "step": 0.15,
                        "shape": coarse_steady.field.shape}

    def test_crosswind_integrals_conserved(self, params, coarse_steady):
        flux = 1.0 / WIND
        dev = np.abs(coarse_steady.crosswind_integrals - flux) / flux
        assert ORACLE_CHECKS["steady_crosswind"].passes(dev.max())

    def test_field_even_in_y(self, coarse_steady):
        field = coarse_steady.field
        assert np.allclose(field, field[:, ::-1], rtol=1e-12, atol=1e-300)

    def test_under_resolved_start_warns(self, params):
        result = march_steady_plume(params, HEIGHT, 3.0, 230.0, resolution=0.2)
        assert any("under 2 grid steps" in w for w in result.warnings)

    @pytest.mark.parametrize("wind", [70.0, 140.0, 280.0])
    @pytest.mark.parametrize("diffusivity", [1e-3, DIFFUSIVITY, 1.0])
    def test_validation_marches_do_not_warn(self, wind, diffusivity):
        # the coarse step is half the start spread, so the spread spans
        # exactly 2 steps: the coarsest grid validate-oracles derives
        channel = ChannelParams.with_constant(wind, diffusivity)
        for step in validation_steps(channel):
            result = march_steady_plume(channel, HEIGHT, *VALIDATION_DISTANCES, step)
            assert result.warnings == ()

    def test_refinement_reduces_error(self, params, coarse_steady):
        fine = march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES,
                                  coarse_steady.resolution / 2)
        coarse_report = steady_oracle_report(coarse_steady, params, HEIGHT)
        fine_report = steady_oracle_report(fine, params, HEIGHT, coarse=coarse_steady)
        factor = coarse_report.l2_rel_error / fine_report.l2_rel_error
        assert fine_report.checks["steady_refinement_factor"] == factor
        assert "steady_refinement_factor" not in coarse_report.checks
        assert ORACLE_CHECKS["steady_refinement_factor"].passes(factor)
        assert fine_report.passed

    @pytest.mark.parametrize("height", [0.5, 1.0])
    def test_near_ground_against_closed_form(self, params, height):
        # a source under the containment margin: the mirrored box's checks
        # hold against the closed form, ground image included, at
        # validate-oracles' steps
        coarse_step, fine_step = validation_steps(params)
        coarse = march_steady_plume(params, height, *VALIDATION_DISTANCES, coarse_step)
        fine = march_steady_plume(params, height, *VALIDATION_DISTANCES, fine_step)
        assert fine.z[0] == 0.0
        assert steady_oracle_report(fine, params, height, coarse=coarse).passed

    @pytest.mark.parametrize("height", [0.5, 1.0])
    def test_mirrored_box_is_the_no_flux_ground(self, params, height):
        # the even extension's row below the ground is the row above it, so
        # the mirrored march is the ground-row march bit for bit, and its
        # halved crosswind integrals are the ground grid's
        result = march_steady_plume(params, height, *VALIDATION_DISTANCES,
                                    validation_steps(params)[0])
        field, integrals = ground_row_march(result, params, height)
        assert np.array_equal(result.field, field)
        assert np.allclose(result.crosswind_integrals, integrals, rtol=1e-12, atol=0.0)

    def test_mirrored_sharp_edged_slice_is_the_no_flux_ground(self, params, monkeypatch):
        # a slice cut off at full strength from the ground up, uneven in y:
        # the mirrored march still keeps the rows below the ground equal to
        # those above, bit for bit
        def band(rate, point, params, source_height):
            _, y, z = point
            rows = (z < 1.5) | (np.abs(z - 3.0) < 0.3)
            return np.where(rows, rate + np.cos(7.0 * z + 3.0 * y), 0.0)

        monkeypatch.setattr(oracles, "steady_state_concentration", band)
        result = march_steady_plume(params, 1.0, 30.0, 58.0, resolution=0.2)
        assert result.z[0] == 0.0
        field, integrals = ground_row_march(result, params, 1.0)
        assert np.array_equal(result.field, field)
        assert np.allclose(result.crosswind_integrals, integrals, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fault, failing", [
        ("rate", "steady_crosswind"),
        ("diffusivity", "steady_refinement_factor"),
    ])
    def test_faulty_closed_form_fails(self, params, monkeypatch, fault, failing):
        # the march starts from the closed form it checks: a 1 % fault in it,
        # at the start and the end alike, must still fail validate-oracles'
        # steady checks at its steps
        closed_form = oracles.steady_state_concentration
        wider = ChannelParams.with_constant(WIND, 1.01 * DIFFUSIVITY)

        def faulty(rate, point, p, source_height):
            if fault == "rate":
                return closed_form(1.01 * rate, point, p, source_height)
            return closed_form(rate, point, wider, source_height)

        coarse_step, fine_step = validation_steps(params)
        monkeypatch.setattr(oracles, "steady_state_concentration", faulty)
        report = steady_oracle_report(
            march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, fine_step), params,
            HEIGHT, coarse=march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES,
                                              coarse_step))
        assert not ORACLE_CHECKS[failing].passes(report.checks[failing])
        assert not report.passed

    def test_receiver_point_value_against_march(self, params):
        # the closed-form value at the standard receiver point, pinned by
        # marching the plume to exactly that downwind distance
        from plumesense.channel import steady_state_concentration

        result = march_steady_plume(params, HEIGHT, 50.0, 100.0, resolution=0.1)
        iy = int(np.argmin(np.abs(result.y)))
        iz = int(np.argmin(np.abs(result.z - HEIGHT)))
        marched = result.field[iz, iy]
        closed = steady_state_concentration(1.0, (100.0, 0.0, HEIGHT), params, HEIGHT)
        assert closed == pytest.approx(0.0032883252704937055, rel=1e-12)
        assert marched == pytest.approx(closed, rel=ORACLE_CHECKS["steady_l2"].budget)


@pytest.fixture(scope="module")
def transient_result(params):
    # validate-oracles' window and probe at the shipped channel
    return march_transient_jet(params, HEIGHT, TransientGrid(0.10, 0.35),
                               probes=[(30.0, 0.0, HEIGHT)])


def unit_gaussian(sigma0):
    """A stand-in for the jet's closed form: an isotropic unit Gaussian of
    standard deviation ``sigma0`` about (u t, 0, HEIGHT), whatever t is."""
    def field(jet_mass, release_time, point, params, source_height):
        x, y, z, t = point
        r2 = (x - params.wind_speed * t) ** 2 + y * y + (z - HEIGHT) ** 2
        return np.exp(-r2 / (2.0 * sigma0**2)) / (2.0 * np.pi * sigma0**2) ** 1.5
    return field


def advected_gaussian(sigma0, params, point, times, t_start):
    """The heat equation's exact evolution of ``unit_gaussian(sigma0)`` from
    t_start, carried by the wind: variance sigma0^2 + 2 K tau."""
    x, y, z = point
    variance = sigma0**2 + 2.0 * params.diffusivity.k0 * (times - t_start)
    r2 = (x - params.wind_speed * times) ** 2 + y * y + (z - HEIGHT) ** 2
    return np.exp(-r2 / (2.0 * variance)) / (2.0 * np.pi * variance) ** 1.5


def sharp_band(x_lo):
    """A stand-in for the jet's closed form: a band 1 cm long from x_lo,
    cut off at full strength on every side."""
    def field(jet_mass, release_time, point, params, source_height):
        x, y, z, _ = point
        band = (x >= x_lo) & (x < x_lo + 1.0) & (np.abs(y) < 0.5) & (z > HEIGHT - 0.5)
        return np.where(band, 1.0 + np.cos(7.0 * x + 3.0 * y + z), 0.0)
    return field


def same_bits(a, b):
    """Equal bit for bit: signed zeros differ, as do NaN payloads."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def awkward_field(rng, shape):
    """Random values with exact and signed zeros and subnormals."""
    C = rng.standard_normal(shape)
    C[rng.random(shape) < 0.2] = 0.0
    C[rng.random(shape) < 0.05] = -0.0
    tiny = rng.random(shape) < 0.2
    C[tiny] = 5e-324 * rng.integers(-2**20, 2**20, size=tiny.sum())
    return C


# ---------------------------------------------------------------------------
# an explicit finite-difference march of the heat equation: a scheme
# independent of the heat kernel, which it must converge on
# ---------------------------------------------------------------------------


# x-planes per block of the explicit diffusion step: a few planes of work
# buffers stay in cache where slab-sized ones would not
DIFFUSION_BLOCK = 8


def whole_slab_diffusion(C, cx, cy, cz):
    """One explicit diffusion increment over the whole interior of C at once."""
    core = slice(1, -1)
    acc = np.empty_like(C[core, core, core])
    np.multiply(C[core, core, core], -2.0 * (cx + cy + cz), out=acc)
    acc += (C[2:, core, core] + C[:-2, core, core]) * cx
    acc += (C[core, 2:, core] + C[core, :-2, core]) * cy
    acc += (C[core, core, 2:] + C[core, core, :-2]) * cz
    C[core, core, core] += acc


def diffuse_inplace(C, coef_x, coef_y, coef_z, acc, tmp):
    """Add one explicit diffusion increment to the interior of C, bit for bit
    as :func:`whole_slab_diffusion`, with work buffers of a few planes.

    ``coef_*`` is K*dt/step^2 per axis.  C must be C-contiguous, so each of
    its x-planes is one flat row of ``ny*nz`` values.  Every pass runs over
    the contiguous run ``[nz, ny*nz - nz)`` of a row, which holds every
    interior cell: its y-neighbours sit ``nz`` away, its z-neighbours 1 away,
    and its x-neighbours in the rows before and after.  The run also covers
    the z-shell cells (z index 0 and nz - 1); their increments are set to
    -0.0 before the add, and x + (-0.0) is x for every x, signed zeros
    included, so the shells never move.  Neither do the y-shell rows and the
    first and last planes, which no pass writes (Dirichlet).

    The planes run through in blocks of ``DIFFUSION_BLOCK``: ``acc`` holds
    two blocks (ping and pong) and ``tmp`` one, each ``(DIFFUSION_BLOCK,
    ny*nz - 2*nz)``.  A block's increment is added only after the next block
    has read the old values of its last plane, and each interior element sees
    the same operations in the same order as a whole-slab update.
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
    for block, s in enumerate(range(1, end, DIFFUSION_BLOCK)):
        e = min(s + DIFFUSION_BLOCK, end)
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


def row_diffusion(C, coef):
    """The kernel on C in place, with work buffers of its row shape."""
    run = (C.shape[1] - 2) * C.shape[2]
    diffuse_inplace(C, *coef, np.empty((2, DIFFUSION_BLOCK, run)),
                    np.empty((DIFFUSION_BLOCK, run)))


def explicit_march(params, point, t_start, t_end, steps_per_spread):
    """The jet's closed form at t_start, marched by explicit diffusion steps
    in the wind frame to t_end on a cube of steps sqrt(2 K t_start) /
    ``steps_per_spread`` and of half-width five spreads at t_end, centred on
    where the point sits in the frame.  Returns the value there at t_end."""
    K = params.diffusivity.k0
    step = math.sqrt(2.0 * K * t_start) / steps_per_spread
    n = math.ceil(5.0 * math.sqrt(2.0 * K * t_end) / step)
    offsets = step * np.arange(-n, n + 1)
    x, y, z = point
    along = x - params.wind_speed * (t_end - t_start)
    C = jet_concentration(1.0, 0.0, (along + offsets[:, None, None], y + offsets[None, :, None],
                                     z + offsets[None, None, :], t_start), params, HEIGHT)
    # the most stable steps that land on t_end
    steps = math.ceil((t_end - t_start) / (step * step / (6.0 * K)))
    coef = K * (t_end - t_start) / steps / step**2
    for _ in range(steps):
        row_diffusion(C, (coef, coef, coef))
    return C[n, n, n]


class TestBlockedDiffusion:
    # stencil weights at the stability bound
    COEF = (0.1, 0.15, 0.25)

    # short slabs that fill part of one block, then slabs on either side of
    # each block boundary
    @pytest.mark.parametrize("planes", sorted({1, 3, 4, 5, 9, DIFFUSION_BLOCK - 1,
                                               DIFFUSION_BLOCK, DIFFUSION_BLOCK + 1,
                                               2 * DIFFUSION_BLOCK + 1}))
    def test_bit_identical_to_whole_slab(self, rng, planes):
        # random values with exact zeros and subnormals
        C = rng.standard_normal((planes + 2, 7, 6))
        C[rng.random(C.shape) < 0.2] = 0.0
        tiny = rng.random(C.shape) < 0.2
        C[tiny] = 5e-324 * rng.integers(-2**20, 2**20, size=tiny.sum())
        assert (C == 0.0).any() and (np.abs(C[C != 0.0]) < np.finfo(float).tiny).any()
        expected = C.copy()
        whole_slab_diffusion(expected, *self.COEF)
        # each x-plane is one row: the work buffers span its interior y rows
        acc = np.empty((2, DIFFUSION_BLOCK, 5 * 6))
        tmp = np.empty((DIFFUSION_BLOCK, 5 * 6))
        diffuse_inplace(C, *self.COEF, acc, tmp)
        assert np.array_equal(C, expected)

    @pytest.mark.parametrize("nz", [2, 3])
    @pytest.mark.parametrize("planes", [1, DIFFUSION_BLOCK + 1])
    def test_bit_identical_on_the_smallest_crosswind_boxes(self, rng, planes, nz):
        # one interior y row; at nz = 2 every cell of it is z shell, and the
        # shells hold nonzero values, signed zeros and subnormals
        C = awkward_field(rng, (planes + 2, 3, nz))
        C[:, :, [0, -1]] = rng.choice([-0.0, 5e-324, -1.5, 2.0], size=(planes + 2, 3, 2))
        assert np.signbit(C[C == 0.0]).any() and (np.abs(C[C != 0.0]) < 1e-300).any()
        expected = C.copy()
        whole_slab_diffusion(expected, *self.COEF)
        shells = C.copy()
        row_diffusion(C, self.COEF)
        assert same_bits(C, expected)
        # the shells keep their very bits, -0.0 included
        for edge in (np.s_[:, :, 0], np.s_[:, :, -1], np.s_[:, 0, :], np.s_[:, -1, :],
                     np.s_[0], np.s_[-1]):
            assert same_bits(C[edge], shells[edge])
        if nz == 3:
            assert not same_bits(C[1:-1, 1, 1], shells[1:-1, 1, 1])

    def test_slab_must_be_contiguous(self, rng):
        C = rng.standard_normal((4, 5, 8))[:, :, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            row_diffusion(C, self.COEF)


class TestTransientMarch:
    def test_probes_match_closed_form_within_budget(self, params, transient_result):
        report = transient_oracle_report(transient_result, params, HEIGHT)
        assert report.passed
        assert ORACLE_CHECKS["transient_probe"].passes(report.max_rel_error)

    def test_report_grid_lists_every_grid_field(self, params, transient_result):
        grid = transient_oracle_report(transient_result, params, HEIGHT).grid
        step = transient_result.x[1] - transient_result.x[0]
        assert grid == {**dataclasses.asdict(transient_result.grid), "step": step,
                        "shape": (46, 46, 46)}

    def test_mass_conserved(self, transient_result):
        # the closed form is normalised exactly, and the box's sum is
        # spectrally accurate
        dev = abs(transient_result.mass - 1.0)
        assert ORACLE_CHECKS["transient_mass"].passes(dev)
        assert dev < 1e-12

    def test_peak_arrives_at_advection_time(self, transient_result):
        series = transient_result.probe_values[0]
        t_peak = transient_result.times[int(np.argmax(series))]
        assert abs(t_peak - 30.0 / WIND) <= transient_result.dt

    def test_box_follows_the_pulse(self, params, transient_result):
        # centred on the pulse at t_start, 6 spreads wide at t_end, and
        # stepped at half the spread at t_start
        step = transient_result.x[1] - transient_result.x[0]
        assert step == pytest.approx(math.sqrt(2.0 * DIFFUSIVITY * 0.10) / 2.0, rel=1e-15)
        for axis, centre in ((transient_result.x, WIND * 0.10), (transient_result.y, 0.0),
                             (transient_result.z, HEIGHT)):
            assert np.allclose(np.diff(axis), step, rtol=1e-12)
            assert axis[axis.size // 2] == pytest.approx(centre, abs=1e-12)
            assert -axis[0] + centre >= 6.0 * math.sqrt(2.0 * DIFFUSIVITY * 0.35)
        assert transient_result.dt == pytest.approx(step / WIND, rel=1e-15)

    @pytest.mark.parametrize("wind, diffusivity", [(70.0, 0.05), (140.0, 0.242), (280.0, 1.0)])
    def test_matches_advected_gaussian(self, monkeypatch, wind, diffusivity):
        # a Gaussian of the box's start spread evolves in closed form; the
        # heat kernel must follow it to rounding wherever it is significant
        params = ChannelParams.with_constant(wind, diffusivity)
        grid = TransientGrid(14.0 / wind, 49.0 / wind)
        sigma0 = math.sqrt(2.0 * diffusivity * grid.t_start)
        monkeypatch.setattr("plumesense.oracles.jet_concentration", unit_gaussian(sigma0))
        probe = (30.0, 0.3 * sigma0, HEIGHT - 0.5 * sigma0)
        result = march_transient_jet(params, HEIGHT, grid, probes=[probe])
        exact = advected_gaussian(sigma0, params, probe, result.times, grid.t_start)
        series = result.probe_values[0]
        significant = exact >= 1e-3 * exact.max()
        assert significant.sum() > 10
        assert np.allclose(series[significant], exact[significant], rtol=1e-10, atol=0.0)
        assert np.max(np.abs(series - exact)) <= 1e-10 * exact.max()
        assert abs(result.mass - 1.0) < 1e-12

    def test_mirrored_box_reflects_at_the_ground(self, monkeypatch):
        # a source 0.5 cm up: the box takes in the ground, and the even
        # extension is the reflecting ground exactly, image included
        params = ChannelParams.with_constant(WIND, DIFFUSIVITY)
        grid = TransientGrid(0.10, 0.35)
        sigma0 = math.sqrt(2.0 * DIFFUSIVITY * grid.t_start)
        height = 0.5
        direct = unit_gaussian(sigma0)

        def reflected(jet_mass, release_time, point, params, source_height):
            x, y, z, t = point
            return (direct(jet_mass, release_time, (x, y, z + HEIGHT - height, t), params, 0)
                    + direct(jet_mass, release_time, (x, y, z + HEIGHT + height, t), params, 0))

        monkeypatch.setattr("plumesense.oracles.jet_concentration", reflected)
        probes = [(30.0, 0.0, 0.0), (30.0, 0.2, 0.7)]
        result = march_transient_jet(params, height, grid, probes=probes)
        assert result.z[0] < -height and result.z[-1] > height
        for (px, py, pz), series in zip(probes, result.probe_values):
            exact = (advected_gaussian(sigma0, params, (px, py, pz + HEIGHT - height),
                                       result.times, grid.t_start)
                     + advected_gaussian(sigma0, params, (px, py, pz + HEIGHT + height),
                                         result.times, grid.t_start))
            assert np.max(np.abs(series - exact)) <= 1e-10 * exact.max()
        assert abs(result.mass - 1.0) < 1e-12

    def test_probe_outside_the_box_reads_exactly_zero(self, params, transient_result):
        # above the box, and beside it; and on the axis at every time the
        # drifting box has not reached or has passed the probe
        grid = transient_result.grid
        above = (30.0, 0.0, transient_result.z[-1] + 0.01)
        beside = (30.0, transient_result.y[0] - 0.01, HEIGHT)
        result = march_transient_jet(params, HEIGHT, grid,
                                     probes=[above, beside, (30.0, 0.0, HEIGHT)])
        assert not result.probe_values[:2].any()
        along = 30.0 - WIND * (result.times - grid.t_start)
        outside = (along < result.x[0]) | (along > result.x[-1])
        assert outside.any() and not outside.all()
        assert not result.probe_values[2, outside].any()
        assert np.array_equal(result.probe_values[2], transient_result.probe_values[0])

    def test_refinement_leaves_probe_values(self, params, transient_result, monkeypatch):
        # the interpolant is spectrally accurate: at half the step, the
        # probe series agrees at the shared times to far below the budget
        monkeypatch.setattr(oracles, "_STEPS_PER_SPREAD", 4.0)
        fine = march_transient_jet(params, HEIGHT, transient_result.grid,
                                   probes=transient_result.probe_points)
        coarse = transient_result.probe_values[0]
        shared = min(fine.times[::2].size, coarse.size)
        assert shared >= coarse.size - 1
        assert np.allclose(fine.times[::2][:shared], transient_result.times[:shared],
                           rtol=1e-14, atol=0.0)
        assert (np.max(np.abs(fine.probe_values[0, ::2][:shared] - coarse[:shared]))
                <= 1e-9 * coarse.max())

    def test_march_peak_memory_within_three_boxes(self, params):
        # the box, its complex transform, the FFT's work copy and small
        # change, in units of the complex box
        result, peak = traced_peak(lambda: march_transient_jet(
            params, HEIGHT, TransientGrid(0.10, 0.35), probes=[(30.0, 0.0, HEIGHT)]))
        assert peak <= 3 * 16 * result.x.size * result.y.size * result.z.size

    def test_march_peak_memory_within_six_boxes(self, params):
        # a source 0.5 cm up: the box takes in the ground and is sampled at
        # |z|, and still holds little beyond its transform, in units of the
        # real box
        result, peak = traced_peak(lambda: march_transient_jet(
            params, 0.5, TransientGrid(0.10, 0.35), probes=[(30.0, 0.0, 0.5)]))
        assert result.z[0] < 0.0
        assert peak <= 6 * 8 * result.x.size * result.y.size * result.z.size

    def test_refinement_improves_probe_error(self, params, monkeypatch):
        # a Gaussian of the start spread, sampled at 4/3, 1 and 1/2 of that
        # spread: the interpolant's error against the exact evolution falls
        # spectrally, from over the budget to rounding
        grid = TransientGrid(0.10, 0.35)
        sigma0 = math.sqrt(2.0 * DIFFUSIVITY * grid.t_start)
        monkeypatch.setattr("plumesense.oracles.jet_concentration", unit_gaussian(sigma0))
        errors = []
        for steps_per_spread in (0.75, 1.0, 2.0):
            monkeypatch.setattr(oracles, "_STEPS_PER_SPREAD", steps_per_spread)
            result = march_transient_jet(params, HEIGHT, grid, probes=[(30.0, 0.0, HEIGHT)])
            exact = advected_gaussian(sigma0, params, (30.0, 0.0, HEIGHT), result.times,
                                      grid.t_start)
            errors.append(np.max(np.abs(result.probe_values[0] - exact)) / exact.max())
        assert errors[0] > ORACLE_CHECKS["transient_probe"].budget / 10
        assert errors[1] < errors[0] / 10 and errors[2] < errors[1] / 1e6

    @pytest.mark.parametrize("t_end", [0.12, 0.15])
    def test_agrees_with_explicit_march(self, params, t_end):
        # the explicit march from the same closed form converges on the heat
        # kernel at second order in its step: halving the step cuts its
        # distance from the kernel by about four
        grid = TransientGrid(0.10, t_end)
        result = march_transient_jet(params, HEIGHT, grid, probes=[(WIND * t_end, 0.0, HEIGHT)])
        kernel = result.probe_values[0, -1]
        assert kernel > 0.5 * result.probe_values[0].max()
        point = (WIND * t_end, 0.0, HEIGHT)
        coarse, fine = (abs(explicit_march(params, point, grid.t_start, result.times[-1],
                                           steps_per_spread) / kernel - 1.0)
                        for steps_per_spread in (3.0, 6.0))
        assert 3.0 < coarse / fine < 5.0
        assert fine < 2e-3

    def test_bit_identical_when_pulse_leaves_box(self, params, transient_result):
        # at x = 20 cm the drifting box arrives, peaks and moves on by
        # t = 0.17 s: from then on the probe reads +0.0, bit for bit, and no
        # periodic image of the pulse
        grid = transient_result.grid
        result = march_transient_jet(params, HEIGHT, grid, probes=[(20.0, 0.0, HEIGHT)])
        series = result.probe_values[0]
        passed = 20.0 - WIND * (result.times - grid.t_start) < result.x[0]
        assert passed.sum() > result.times.size / 2 and series[~passed].max() > 0.0
        assert same_bits(series[passed], np.zeros(passed.sum()))

    def test_bit_identical_from_all_zero_initial_condition(self, params, monkeypatch):
        # a field that is +0.0 everywhere evolves to +0.0 everywhere: every
        # probe time reads exactly zero, and so does the mass
        monkeypatch.setattr("plumesense.oracles.jet_concentration",
                            lambda jet_mass, release_time, point, params, source_height:
                            np.zeros(np.broadcast_shapes(*(np.shape(c) for c in point))))
        result = march_transient_jet(params, HEIGHT, TransientGrid(0.10, 0.35),
                                     probes=[(30.0, 0.0, HEIGHT), (16.0, 0.2, HEIGHT - 0.3)])
        assert same_bits(result.probe_values, np.zeros_like(result.probe_values))
        assert same_bits(result.mass, 0.0)

    @pytest.mark.parametrize("power", [1, 4])
    def test_bit_identical_from_sharp_edged_field(self, params, monkeypatch, power):
        # the oracle is linear in its start field: a field cut off at full
        # strength, which excites every mode of the box, scaled by 2^power,
        # gives the probe series and mass scaled by 2^power, bit for bit
        grid = TransientGrid(0.10, 0.35)
        band = sharp_band(WIND * grid.t_start - 0.5)
        probes = [(30.0, 0.0, HEIGHT), (22.0, 0.3, HEIGHT + 0.2)]
        monkeypatch.setattr("plumesense.oracles.jet_concentration", band)
        base = march_transient_jet(params, HEIGHT, grid, probes=probes)
        monkeypatch.setattr("plumesense.oracles.jet_concentration",
                            lambda *args: 2.0**power * band(*args))
        scaled = march_transient_jet(params, HEIGHT, grid, probes=probes)
        assert (base.probe_values != 0.0).sum() > base.times.size / 4
        assert same_bits(scaled.probe_values, base.probe_values * 2.0**power)
        assert same_bits(scaled.mass, base.mass * 2.0**power)

    @pytest.mark.filterwarnings("error")
    def test_probe_the_pulse_never_reaches_raises(self, params):
        # the pulse passes x = 29 only after t = 0.2 s; the window ends at 0.08 s
        result = march_transient_jet(params, HEIGHT, TransientGrid(0.05, 0.08),
                                     probes=[(29.0, 0.0, HEIGHT)])
        with pytest.raises(GridError, match=r"probe \(29\.0, 0\.0, 180\.0\)"):
            transient_oracle_report(result, params, HEIGHT)

    def test_empty_probe_list_raises(self, params):
        # with nothing compared, a 0.0 error would read as a perfect match
        result = march_transient_jet(params, HEIGHT, TransientGrid(0.04, 0.06), probes=())
        with pytest.raises(GridError, match="probe list is empty"):
            transient_oracle_report(result, params, HEIGHT)

    def test_configuration_errors(self, params):
        from plumesense.channel import DiffusivityProfile

        varying = ChannelParams(WIND, DiffusivityProfile.from_function(lambda x: 0.2))
        with pytest.raises(DomainError):
            march_transient_jet(varying, HEIGHT, TransientGrid(0.05, 0.2))
        for t_start, t_end in ((0.2, 0.05), (0.0, 0.2), (0.05, math.inf)):
            with pytest.raises(GridError, match="need 0 < t_start < t_end < inf"):
                TransientGrid(t_start, t_end)
        # the box would reach inside x_min, or outgrow its points per axis,
        # or the pulse would need more probe times than allowed
        with pytest.raises(GridError, match="inside x_min"):
            march_transient_jet(params, HEIGHT, TransientGrid(0.005, 0.01))
        with pytest.raises(GridError, match="points per axis"):
            march_transient_jet(params, HEIGHT, TransientGrid(0.05, 10.0))
        narrow = ChannelParams.with_constant(WIND, 1e-9)
        with pytest.raises(GridError, match="probe times"):
            march_transient_jet(narrow, HEIGHT, TransientGrid(0.1, 0.35))


class TestStepConvolution:
    def test_matches_breath_response(self, params, rng):
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(20.0, 300.0)
            y = rng.uniform(-1.5, 1.5)
            z = HEIGHT + rng.uniform(-1.5, 1.5)
            t = x / WIND * rng.uniform(0.9, 3.0) + rng.uniform(0.0, 5.0)
            reference = breath_response(1.0, 0.0, (x, y, z, t), params, HEIGHT)
            if reference == 0.0:
                continue
            numeric = step_convolution((x, y, z, t), params, HEIGHT)
            worst = max(worst, abs(numeric - reference) / reference)
        assert ORACLE_CHECKS["convolution"].passes(worst)

    def test_zero_before_entry(self, params):
        """The unit step starts at t = 0: no time, or negative time, has
        passed since, so nothing has arrived."""
        for t in (-1.0, -0.0, 0.0):
            assert step_convolution((100.0, 0.0, HEIGHT, t), params, HEIGHT) == 0.0

    def test_point_is_any_length_4_sequence(self, params):
        point = (100.0, 0.0, HEIGHT, 2.0)
        value = step_convolution(point, params, HEIGHT)
        assert step_convolution(list(point), params, HEIGHT) == value
        assert step_convolution(np.array(point), params, HEIGHT) == value
        for bad in (point[:3], (*point, 1.0), np.array(point[:3])):
            with pytest.raises(DomainError):
                step_convolution(bad, params, HEIGHT)

    def test_matches_quadpack(self, params):
        """The Gauss-Kronrod rule agrees with QUADPACK's qags, given the same
        cuts at the pulse, at 200 points from validate-oracles' range."""
        from scipy.integrate import quad

        def impulse(x, y, z, t):
            s = DIFFUSIVITY * x / WIND
            crosswind = math.exp(-y * y / (4.0 * s)) * (
                math.exp(-(z - HEIGHT) ** 2 / (4.0 * s)) + math.exp(-(z + HEIGHT) ** 2 / (4.0 * s)))
            return (math.exp(-(x - WIND * t) ** 2 / (4.0 * s)) / (8.0 * (math.pi * s) ** 1.5)
                    * crosswind)

        rng = np.random.default_rng(20)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(20.0, 300.0)
            y = rng.uniform(-1.5, 1.5)
            z = HEIGHT + rng.uniform(-1.5, 1.5)
            t = x / WIND * rng.uniform(0.9, 3.0) + rng.uniform(0.0, 5.0)
            width = 2.0 * math.sqrt(DIFFUSIVITY * x / WIND) / WIND
            cuts = [s for s in (x / WIND + k * width for k in (-8.0, -2.0, 0.0, 2.0, 8.0))
                    if 0.0 < s < t]
            reference, _ = quad(lambda s: impulse(x, y, z, s), 0.0, t, points=cuts,
                                epsabs=0.0, epsrel=1e-13, limit=250)
            worst = max(worst, abs(step_convolution((x, y, z, t), params, HEIGHT) - reference)
                        / reference)
        assert worst <= 1e-12

    def test_one_impulse_call_per_round(self, params, monkeypatch):
        calls = []

        def impulse(point, *args):
            calls.append(np.shape(point[3]))
            return impulse_response(point, *args)

        monkeypatch.setattr(oracles, "impulse_response", impulse)
        step_convolution((100.0, 0.0, HEIGHT, 2.0), params, HEIGHT)
        # the first round integrates all six pieces between the cuts at once,
        # and each later one the halves of the pieces it splits, within the
        # shared loop's cap on subintervals per gap
        assert calls[0] == (6, 15)
        assert len(calls) > 1 and all(shape[0] % 2 == 0 for shape in calls[1:])
        assert 6 + sum(shape[0] for shape in calls[1:]) // 2 <= _MAX_SUBINTERVALS_PER_GAP

    def test_unreachable_tolerance_raises(self, params, monkeypatch):
        # below the rounding of the sum, no number of bisections can certify it
        monkeypatch.setattr(oracles, "_CONVOLUTION_RTOL", 1e-300)
        with pytest.raises(QuadratureError, match="within 200 subintervals per gap"):
            step_convolution((100.0, 0.0, HEIGHT, 2.0), params, HEIGHT)


@pytest.fixture(scope="module")
def spectrum(params):
    return sampled_transfer_function((100.0, 0.0, HEIGHT), params, HEIGHT)


class TestSampledSpectrum:
    def test_matches_closed_form_shape(self, params, spectrum):
        report = spectrum_oracle_report(spectrum, params, HEIGHT)
        assert set(report.checks) == {
            "spectrum_magnitude", "spectrum_phase_slope", "spectrum_constant_variation"}
        assert report.checks["spectrum_magnitude"] == report.max_rel_error
        assert report.passed

    def test_closed_form_constant_matches_dft(self, params, spectrum):
        report = spectrum_oracle_report(spectrum, params, HEIGHT)
        assert report.extras["constant_ratio_mean"] == pytest.approx(1.0, rel=5e-3)

    def test_shift_theorem(self, params, spectrum):
        # a later release multiplies the spectrum by a pure linear phase
        lag_samples = 200
        lag = lag_samples * spectrum.sample_interval
        times = spectrum.sample_interval * np.arange(spectrum.n_samples)
        shifted = np.asarray(
            jet_concentration(1.0, lag, (100.0, 0.0, HEIGHT, times), params, HEIGHT)
        )
        shifted_fft = np.fft.rfft(shifted) * spectrum.sample_interval
        keep = spectrum.magnitude > 1e-6 * spectrum.magnitude.max()
        ratio = shifted_fft[keep] / spectrum.values[keep]
        assert np.allclose(np.abs(ratio), 1.0, atol=1e-9)
        # ratio must equal exp(-i * omega * lag): dividing it out leaves phase 0
        assert np.allclose(
            np.angle(ratio * np.exp(1j * spectrum.omega[keep] * lag)), 0.0, atol=1e-9
        )

    def test_aliasing_guards(self, params):
        # a pulse that begins before the release, and one too narrow for its
        # delay: no window of the most samples spans 2 x / u
        with pytest.raises(GridError, match="begins before t = 0"):
            sampled_transfer_function((10.0, 0.0, HEIGHT),
                                      ChannelParams.with_constant(WIND, 100.0), HEIGHT)
        with pytest.raises(GridError, match="too narrow for its delay"):
            sampled_transfer_function((100.0, 0.0, HEIGHT),
                                      ChannelParams.with_constant(WIND, 1e-7), HEIGHT)

    @pytest.mark.parametrize("wind, diffusivity, n_samples", [
        (140.0, 0.242, 4096), (70.0, 0.242, 4096), (280.0, 0.05, 8192), (140.0, 0.01, 16384)])
    def test_grid_from_the_pulse(self, wind, diffusivity, n_samples):
        # 64 samples across the pulse's 12 sigma, and the fewest, a power of
        # two from 4096, whose window spans twice the delay: at the fixed
        # 5e-4 s and 4096 samples the phase slope failed at 70 cm/s, and
        # (280, 0.05) did not pass the sampling guard
        params = ChannelParams.with_constant(wind, diffusivity)
        spectrum = sampled_transfer_function((100.0, 0.0, HEIGHT), params, HEIGHT)
        sigma_t = math.sqrt(2.0 * diffusion_scale(100.0, params)) / wind
        assert spectrum.sample_interval == 12.0 * sigma_t / 64
        assert spectrum.n_samples == n_samples
        assert spectrum.n_samples * spectrum.sample_interval >= 2.0 * 100.0 / wind
        assert spectrum_oracle_report(spectrum, params, HEIGHT).passed


def reference_empirical_pmd(signal, sigma, trials, seed):
    """empirical_pmd with the threshold worked out by hand as signal / 2 and a
    miss counted as received < threshold."""
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials")
    if sigma < 0.0:
        raise DomainError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    threshold = signal / 2.0
    misses = 0
    remaining = int(trials)
    while remaining > 0:
        n = min(remaining, 1_000_000)
        received = rng.standard_normal(n)
        received *= sigma
        received += signal
        misses += int(np.count_nonzero(received < threshold))
        remaining -= n
    lower, upper = _wilson_interval(misses, trials, WILSON_Z)
    return PmdEstimate(
        estimate=misses / trials, lower=lower, upper=upper, trials=int(trials),
        misses=misses, z=WILSON_Z,
    )


def _spawned(index):
    return np.random.SeedSequence(entropy=12345, spawn_key=(index,))


# exposures whose readings are 2 sigma x argument at sigma = 0.3, held as
# numpy scalars, as the arguments mc-pmd hands to empirical_pmd are
_MC_EXPOSURES = 2.0 * 0.3 * np.array([0.0, 0.5, 1.0, 2.5]) / (0.85 * 0.5)


class TestEmpiricalPmd:
    @pytest.mark.parametrize("exposure, sigma, trials, seed", [
        (2.0, 1.0, 10_000, 42),
        (_MC_EXPOSURES[1], 0.3, 10_000, _spawned(0)),
        (_MC_EXPOSURES[2], 0.3, 1_000_001, _spawned(1)),
        (_MC_EXPOSURES[3], 0.3, 2_500_000, _spawned(2)),
        (_MC_EXPOSURES[0], 0.3, 1_000_001, _spawned(3)),
        (_MC_EXPOSURES[2], 0.0, 10_000, _spawned(4)),
        (0.0, 0.0, 10_000, _spawned(5)),
        (1.3, 0.7, 2_500_000, _spawned(6)),
        (1.3, 0.7, oracles._MC_BLOCK - 1, _spawned(7)),
        (1.3, 0.7, oracles._MC_BLOCK, _spawned(8)),
        (1.3, 0.7, oracles._MC_BLOCK + 1, _spawned(9)),
    ])
    def test_equals_reference(self, exposure, sigma, trials, seed):
        """Counting misses through ml_threshold and decide, a block at a
        time, changes no draw or count: the whole estimate is equal, block
        and chunk seams included."""
        args = (0.85 * 0.5 * exposure, sigma, trials)
        assert empirical_pmd(*args, seed) == reference_empirical_pmd(*args, seed)

    def test_peak_memory_is_one_block(self):
        est, peak = traced_peak(lambda: empirical_pmd(2.0, 1.0, 10**6, 42))
        assert est == reference_empirical_pmd(2.0, 1.0, 10**6, 42)
        assert peak <= 1_000_000

    @pytest.mark.parametrize("exposure, efficiency, sigma", [
        (math.nan, 0.85, 1.0), (1.0, 0.85, math.nan), (math.inf, 0.85, 1.0),
        (1.0, 0.85, -1.0), (1.0, math.nan, 1.0),
    ])
    def test_nan_or_negative_inputs_rejected(self, exposure, efficiency, sigma):
        with pytest.raises(DomainError):
            empirical_pmd(efficiency * 0.5 * exposure, sigma, 10_000, 0)

    def test_matches_closed_form_at_unit_argument(self):
        est = empirical_pmd(2.0, 1.0, trials=10**6, seed=42)
        assert est.contains(q_function(1.0))

    def test_noiseless_never_misses(self):
        est = empirical_pmd(2.0, 1e-150, trials=10**4, seed=0)
        assert est.estimate == 0.0

    def test_seed_determinism(self):
        a = empirical_pmd(0.85, 0.4, trials=10**5, seed=9)
        b = empirical_pmd(0.85, 0.4, trials=10**5, seed=9)
        assert a == b

    def test_seed_robustness(self):
        analytic = q_function(1.0)
        hits = sum(
            empirical_pmd(2.0, 1.0, trials=10**5, seed=s).contains(analytic)
            for s in range(10)
        )
        assert hits == 10

    def test_minimum_trials_enforced(self):
        with pytest.raises(DomainError):
            empirical_pmd(0.425, 1.0, trials=100, seed=0)


@pytest.fixture(scope="module")
def recv():
    return ReceiverSpec((100.0, 0.0, HEIGHT), RADIUS, 3.0, 0.85, 0.5)


def reference_mc_receiver_exposure(recv, field, samples, seed):
    """mc_receiver_exposure drawing each chunk whole: its 3 * chunk offsets,
    then its chunk times, and one field call for its accepted points."""
    if samples < 100_000:
        raise DomainError("need at least 1e5 samples")
    rng = np.random.default_rng(seed)
    cx, cy, cz = recv.center
    r = recv.radius
    values = np.empty(samples)
    accepted = 0
    while accepted < samples:
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


def mc_fields(params):
    """A steady plume under a constant and a linear K, and a breath, whose
    value depends on time."""
    linear = ChannelParams(params.wind_speed, DiffusivityProfile.from_function(
        lambda x: DIFFUSIVITY * (1.0 + np.asarray(x) / 150.0)))
    return {
        "steady": steady_field(1.0, params, HEIGHT),
        "steady_linear_k": steady_field(1.0, linear, HEIGHT),
        "breath": lambda x, y, z, t: breath_response(1.0, 0.0, (x, y, z, t), params, HEIGHT),
    }


def cheap_field(x, y, z, t):
    """Pointwise, reads every coordinate, and costs little at 10^6 points."""
    return x * 1e-3 + y * y - z + t


class TestMcReceiverExposure:
    def test_uniform_field_is_exact(self, recv):
        c0 = 2.5
        uniform = lambda x, y, z, t: np.full(np.shape(x), c0)
        est = mc_receiver_exposure(recv, uniform, samples=10**5, seed=1)
        assert est.value == pytest.approx(c0 * recv.volume * recv.sampling_window,
                                          rel=1e-12)
        assert est.standard_error == 0.0

    def test_distance_in_standard_errors(self):
        assert McExposureEstimate(2.0, 0.5, 10**5).distance_sigmas(0.5) == 3.0
        exact = McExposureEstimate(2.0, 0.0, 10**5)
        assert exact.distance_sigmas(2.0) == 0.0
        assert exact.distance_sigmas(math.nextafter(2.0, 3.0)) == math.inf

    def test_zero_field_is_exactly_zero(self, recv):
        zero = lambda x, y, z, t: np.zeros(np.shape(x))
        est = mc_receiver_exposure(recv, zero, samples=10**5, seed=1)
        assert est.value == 0.0

    def test_cross_oracle_agreement_on_steady_plume(self, params, recv):
        # 1e7-sample Monte Carlo against the tensor quadrature route
        field = steady_field(1.0, params, HEIGHT)
        est = mc_receiver_exposure(recv, field, samples=10**7, seed=123)
        quadrature = receiver_exposure(recv, field, orders=(48, 48, 48, 4))
        assert ORACLE_CHECKS["mc_exposure_sigmas"].passes(est.distance_sigmas(quadrature))

    def test_seed_determinism(self, params, recv):
        field = steady_field(1.0, params, HEIGHT)
        a = mc_receiver_exposure(recv, field, samples=10**5, seed=7)
        b = mc_receiver_exposure(recv, field, samples=10**5, seed=7)
        assert a == b

    def test_minimum_samples_enforced(self, recv):
        uniform = lambda x, y, z, t: np.full(np.shape(x), 1.0)
        with pytest.raises(DomainError):
            mc_receiver_exposure(recv, uniform, samples=10**4, seed=0)

    @pytest.mark.parametrize("samples", [100_000, 200_000])
    @pytest.mark.parametrize("name", ["steady", "steady_linear_k", "breath"])
    def test_equals_reference(self, params, recv, name, samples):
        """Drawing each chunk a block at a time, offsets and times from two
        generators in lockstep, changes no draw, pairing or value."""
        field = mc_fields(params)[name]
        assert (mc_receiver_exposure(recv, field, samples, seed=11)
                == reference_mc_receiver_exposure(recv, field, samples, seed=11))

    def test_second_chunk_equals_reference(self, recv):
        # 3e6 samples take more than one 4e6-candidate chunk
        assert (mc_receiver_exposure(recv, cheap_field, 3_000_000, seed=5)
                == reference_mc_receiver_exposure(recv, cheap_field, 3_000_000, seed=5))

    @pytest.mark.parametrize("samples", [200_000, 3_000_000])
    def test_passed_generator_ends_in_the_reference_state(self, recv, samples):
        ours, theirs = np.random.default_rng(99), np.random.default_rng(99)
        # a buffered half of a 64-bit draw must survive too
        ours.integers(0, 2**32, dtype=np.uint32)
        theirs.integers(0, 2**32, dtype=np.uint32)
        assert (mc_receiver_exposure(recv, cheap_field, samples, ours)
                == reference_mc_receiver_exposure(recv, cheap_field, samples, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()

    def test_peak_memory_is_the_values_and_their_deviation(self, params, recv):
        samples = 10**6
        est, peak = traced_peak(lambda: mc_receiver_exposure(
            recv, steady_field(1.0, params, HEIGHT), samples, seed=3))
        assert est.samples == samples
        assert peak <= 2.5 * samples * 8
