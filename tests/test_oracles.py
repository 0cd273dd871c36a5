"""Numerical oracles: grid validation, closed-form agreement within budgets,
determinism, and cross-oracle consistency."""

import dataclasses
import math

import numpy as np
import pytest

from plumesense.channel import (
    _MAX_SUBINTERVALS_PER_GAP,
    ChannelParams,
    breath_response,
    diffusion_scale,
    impulse_response,
    jet_concentration,
    steady_field,
)
from plumesense import oracles
from plumesense.errors import DomainError, EvaluationDomainError, GridError, QuadratureError
from plumesense.oracles import (
    _DIFFUSION_BLOCK,
    _PAIRWISE_BLOCK,
    ORACLE_CHECKS,
    WILSON_Z,
    McExposureEstimate,
    PmdEstimate,
    TransientGrid,
    _diffuse_inplace,
    _support_sum,
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


@pytest.fixture(scope="module")
def coarse_steady(params):
    return march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, resolution=0.15)


class TestMarchGrid:
    """The steady march's grid, derived from its resolution."""

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
        # steps of the resolution out to the containment margin around the
        # centre, and scale steps within the explicit stability bound
        result = march_steady_plume(params, HEIGHT, 30.0, 230.0, resolution=0.2)
        scale_start, scale_end = diffusion_scale(np.array([30.0, 230.0]), params)
        reach = oracles._CONTAINMENT_MARGIN * math.sqrt(scale_end)
        assert np.allclose(np.diff(result.y), 0.2) and np.allclose(np.diff(result.z), 0.2)
        assert result.y[-1] >= reach and result.z[-1] >= HEIGHT + reach
        assert result.z[0] == 0.0 and result.y[0] == -result.y[-1]
        assert np.diff(result.scales).max() <= 0.25 * 0.2**2 * (1 + 1e-12)
        assert result.scales[0] == scale_start
        assert result.scales[-1] == pytest.approx(scale_end, rel=1e-12)
        assert (result.x_start, result.x_end) == (30.0, 230.0)

    @pytest.mark.filterwarnings("error")
    def test_grid_too_coarse_for_the_plume_raises(self, params):
        # at 1e308 cm the closed form is 0 on every grid point: no error
        # figure can be taken, and the squares beyond the doubles stay quiet
        result = march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, 1e308)
        assert not result.field.any()
        with pytest.raises(GridError, match="every grid point"):
            steady_oracle_report(result, params, HEIGHT)


def full_grid_march(result, params, source_height):
    """Reference: the steady march with every step updating and integrating
    the whole slice.  Returns the final field and the crosswind integrals."""
    dy = dz = result.resolution
    inv_dy2, inv_dz2 = 1.0 / (dy * dy), 1.0 / (dz * dz)
    n_steps = result.scales.size - 1
    scale_start, scale_end = diffusion_scale(np.array([result.x_start, result.x_end]), params)
    d = (scale_end - scale_start) / n_steps
    Y, Z = np.meshgrid(result.y, result.z)
    C = oracles.steady_state_concentration(result.rate, (result.x_start, Y, Z), params,
                                           source_height)
    C[:, 0] = 0.0
    C[:, -1] = 0.0
    C[-1, :] = 0.0
    integrals = [np.trapezoid(np.trapezoid(C, dx=dy, axis=1), dx=dz)]
    lap = np.zeros_like(C)
    for _ in range(n_steps):
        lap[1:-1, 1:-1] = (C[2:, 1:-1] - 2.0 * C[1:-1, 1:-1] + C[:-2, 1:-1]) * inv_dz2 + (
            C[1:-1, 2:] - 2.0 * C[1:-1, 1:-1] + C[1:-1, :-2]
        ) * inv_dy2
        lap[0, 1:-1] = (2.0 * C[1, 1:-1] - 2.0 * C[0, 1:-1]) * inv_dz2 + (
            C[0, 2:] - 2.0 * C[0, 1:-1] + C[0, :-2]
        ) * inv_dy2
        C += d * lap
        integrals.append(np.trapezoid(np.trapezoid(C, dx=dy, axis=1), dx=dz))
    return C, np.array(integrals)


def assert_matches_full_grid(result, params, source_height):
    field, integrals = full_grid_march(result, params, source_height)
    assert np.array_equal(result.field, field)
    assert np.array_equal(result.crosswind_integrals, integrals)


def z_support(field):
    return np.flatnonzero(field.any(axis=1))


class TestSteadyMarchSupport:
    """The march updates only the rows of its nonzero support; the field and
    crosswind integrals must equal the whole-grid march bit for bit."""

    @pytest.mark.parametrize("refine", [False, True])
    def test_bit_identical_on_validation_grid(self, params, refine):
        # validate-oracles' grids: the support is under a fifth of the rows,
        # far from the ground and clipped below the top row
        result = march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES,
                                    0.1 if refine else 0.2)
        rows = z_support(result.field)
        assert rows.size < result.z.size / 5 and rows[0] > 0
        assert rows[-1] == result.z.size - 2
        assert_matches_full_grid(result, params, HEIGHT)

    def test_bit_identical_with_ground_row(self, params):
        # a source 1 cm up: the support holds the no-flux ground row throughout
        result = march_steady_plume(params, 1.0, *VALIDATION_DISTANCES, resolution=0.2)
        assert z_support(result.field)[0] == 0
        assert_matches_full_grid(result, params, 1.0)

    def test_bit_identical_with_support_at_the_edges(self, params):
        # a wide start: the slice is nonzero next to the y edges and the top row
        result = march_steady_plume(params, HEIGHT, 175.0, 230.0, resolution=0.2)
        assert result.field[:, 1].any() and result.field[:, -2].any()
        assert z_support(result.field)[-1] == result.z.size - 2
        assert_matches_full_grid(result, params, HEIGHT)

    def test_bit_identical_from_all_zero_slice(self, params):
        result = march_steady_plume(params, HEIGHT, 30.0, 230.0, resolution=0.2, rate=0.0)
        assert not result.field.any() and not result.crosswind_integrals.any()
        assert_matches_full_grid(result, params, HEIGHT)

    def test_bit_identical_from_sharp_edged_slice(self, params, monkeypatch):
        # a closed-form slice fades into underflowed zeros; one cut off at full
        # strength, from the ground up, also checks the support's edge rows
        def band(rate, point, params, source_height):
            _, y, z = point
            rows = (z < 1.5) | (np.abs(z - 3.0) < 0.3)
            return np.where(rows, rate + np.cos(7.0 * z + 3.0 * y), 0.0)

        monkeypatch.setattr(oracles, "steady_state_concentration", band)
        result = march_steady_plume(params, 1.0, 30.0, 58.0, resolution=0.2)
        assert_matches_full_grid(result, params, 1.0)


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

    def test_crosswind_integrals_conserved(self, params, coarse_steady):
        flux = coarse_steady.rate / WIND
        dev = np.abs(coarse_steady.crosswind_integrals - flux) / flux
        assert ORACLE_CHECKS["steady_crosswind"].passes(dev.max())

    def test_field_even_in_y(self, coarse_steady):
        field = coarse_steady.field
        assert np.allclose(field, field[:, ::-1], rtol=1e-12, atol=1e-300)

    def test_under_resolved_start_warns(self, params):
        result = march_steady_plume(params, HEIGHT, 3.0, 230.0, resolution=0.2)
        assert any("under 3 grid steps" in w for w in result.warnings)

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

    @pytest.mark.parametrize("fault, failing", [
        ("rate", "steady_crosswind"),
        ("diffusivity", "steady_refinement_factor"),
    ])
    def test_faulty_closed_form_fails(self, params, monkeypatch, fault, failing):
        # the march starts from the closed form it checks: a 1 % fault in it,
        # at the start and the end alike, must still fail validate-oracles'
        # steady checks at the scenario's resolution
        closed_form = oracles.steady_state_concentration
        wider = ChannelParams.with_constant(WIND, 1.01 * DIFFUSIVITY)

        def faulty(rate, point, p, source_height):
            if fault == "rate":
                return closed_form(1.01 * rate, point, p, source_height)
            return closed_form(rate, point, wider, source_height)

        monkeypatch.setattr(oracles, "steady_state_concentration", faulty)
        report = steady_oracle_report(
            march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, 0.1), params, HEIGHT,
            coarse=march_steady_plume(params, HEIGHT, *VALIDATION_DISTANCES, 0.2))
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
    grid = TransientGrid(
        x_span=(4.0, 60.0), y_half=2.4, z_span=(HEIGHT - 2.4, HEIGHT + 2.4),
        step_x=0.08, step_y=0.08, step_z=0.08, t_start=0.10, t_end=0.35,
    )
    return march_transient_jet(params, HEIGHT, grid, jet_mass=2.0,
                               probes=[(30.0, 0.0, HEIGHT)], snapshot_times=(0.10, 0.35))


def whole_slab_diffusion(C, cx, cy, cz):
    """Reference: one explicit diffusion increment over the whole interior
    of C at once."""
    core = slice(1, -1)
    acc = np.empty_like(C[core, core, core])
    np.multiply(C[core, core, core], -2.0 * (cx + cy + cz), out=acc)
    acc += (C[2:, core, core] + C[:-2, core, core]) * cx
    acc += (C[core, 2:, core] + C[core, :-2, core]) * cy
    acc += (C[core, core, 2:] + C[core, core, :-2]) * cz
    C[core, core, core] += acc


def full_box_march(result, params):
    """Reference: the march from the t_start snapshot with every step
    advecting and diffusing the whole box.  Returns probes, mass, snapshots."""
    g = result.grid
    K, dt = params.diffusivity.k0, result.dt
    cells = int(round(dt * params.wind_speed / g.step_x))
    cx, cy, cz = K * dt / g.step_x**2, K * dt / g.step_y**2, K * dt / g.step_z**2
    snap_times = {t for t, _ in result.snapshots}
    C = result.snapshots[0][1].copy()
    idx = [tuple(int(np.argmin(np.abs(axis - c))) for axis, c in
                 zip((result.x, result.y, result.z), point)) for point in result.probe_points]
    probes, mass, snaps = [], [], []
    for step, t in enumerate(result.times):
        if step:
            C[cells:] = C[:-cells]
            C[:cells] = 0.0
            whole_slab_diffusion(C, cx, cy, cz)
        probes.append([C[i] for i in idx])
        mass.append(C.sum() * (g.step_x * g.step_y * g.step_z))
        if float(t) in snap_times:
            snaps.append((float(t), C.copy()))
    return np.array(probes).T, np.array(mass), snaps


def assert_matches_full_box(result, params):
    probes, mass, snaps = full_box_march(result, params)
    assert np.array_equal(result.probe_values, probes)
    assert np.array_equal(result.mass, mass)
    assert [t for t, _ in result.snapshots] == [t for t, _ in snaps]
    for (_, marched), (_, reference) in zip(result.snapshots, snaps):
        assert np.array_equal(marched, reference)


def x_support(field):
    return np.flatnonzero(field.any(axis=(1, 2)))


def assert_starts_from_closed_form(result, params):
    # the march evaluates the closed form only on the source line's nonzero
    # planes; over the whole box it must give the same field bit for bit
    t_start, field = result.snapshots[0]
    assert t_start == result.grid.t_start
    box = (result.x[:, None, None], result.y[None, :, None], result.z[None, None, :], t_start)
    assert np.array_equal(field, jet_concentration(result.jet_mass, 0.0, box, params, HEIGHT))


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
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def awkward_field(rng, shape):
    """Random values with exact and signed zeros and subnormals."""
    C = rng.standard_normal(shape)
    C[rng.random(shape) < 0.2] = 0.0
    C[rng.random(shape) < 0.05] = -0.0
    tiny = rng.random(shape) < 0.2
    C[tiny] = 5e-324 * rng.integers(-2**20, 2**20, size=tiny.sum())
    return C


def row_diffusion(C, coef):
    """The kernel on C in place, with work buffers of its row shape."""
    run = (C.shape[1] - 2) * C.shape[2]
    _diffuse_inplace(C, *coef, np.empty((2, _DIFFUSION_BLOCK, run)),
                     np.empty((_DIFFUSION_BLOCK, run)))


class TestBlockedDiffusion:
    # stencil weights at the stability bound
    COEF = (0.1, 0.15, 0.25)

    # short slabs that fill part of one block, then slabs on either side of
    # each block boundary
    @pytest.mark.parametrize("planes", sorted({1, 3, 4, 5, 9, _DIFFUSION_BLOCK - 1,
                                               _DIFFUSION_BLOCK, _DIFFUSION_BLOCK + 1,
                                               2 * _DIFFUSION_BLOCK + 1}))
    def test_bit_identical_to_whole_slab(self, rng, planes):
        # random values with exact zeros and subnormals, and stencil weights
        # at the stability bound
        C = rng.standard_normal((planes + 2, 7, 6))
        C[rng.random(C.shape) < 0.2] = 0.0
        tiny = rng.random(C.shape) < 0.2
        C[tiny] = 5e-324 * rng.integers(-2**20, 2**20, size=tiny.sum())
        assert (C == 0.0).any() and (np.abs(C[C != 0.0]) < np.finfo(float).tiny).any()
        coef = (0.1, 0.15, 0.25)
        expected = C.copy()
        whole_slab_diffusion(expected, *coef)
        # each x-plane is one row: the work buffers span its interior y rows
        acc = np.empty((2, _DIFFUSION_BLOCK, 5 * 6))
        tmp = np.empty((_DIFFUSION_BLOCK, 5 * 6))
        _diffuse_inplace(C, *coef, acc, tmp)
        assert np.array_equal(C, expected)

    @pytest.mark.parametrize("nz", [2, 3])
    @pytest.mark.parametrize("planes", [1, _DIFFUSION_BLOCK + 1])
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


class TestSupportSum:
    """``_support_sum`` against numpy's own sum of the whole box."""

    @pytest.mark.parametrize("shape, branch", [
        ((1, 2, 3), "under-8"), ((3, 5, 6), "one-block"), ((40, 7, 6), "split"),
        ((300, 13, 11), "split")])
    def test_bit_identical_to_box_sum(self, rng, shape, branch):
        n, plane = shape[0], shape[1] * shape[2]
        # the box's size picks numpy's branch: a short loop, one unrolled
        # block, or a split in two
        assert branch == ("under-8" if n * plane < 8 else
                          "one-block" if n * plane <= _PAIRWISE_BLOCK else "split")
        # the slab at either end, one plane, a middle slab, the whole box and
        # an empty slab
        slabs = {(0, 1), (n - 1, n), (0, n), (n // 3, n // 3 + max(1, n // 4)), (n, n),
                 (0, 0), (n // 2, n // 2)}
        for lo, hi in slabs:
            for _ in range(3):
                # the box is a window of a larger buffer, as the march's frame,
                # and nonzero outside the window
                frame = rng.standard_normal((n + 5, *shape[1:])) * 1e6
                box = frame[2:2 + n]
                box[:] = 0.0
                box[lo:hi] = awkward_field(rng, (hi - lo, *shape[1:])) * np.exp(
                    rng.uniform(-30, 30, size=(hi - lo, *shape[1:])))
                total = _support_sum(frame.reshape(-1), 2 * plane, (2 + n) * plane,
                                     (2 + lo) * plane, (2 + hi) * plane)
                assert same_bits(np.float64(total), box.sum())

    def test_order_matters_on_these_values(self, rng):
        # the check above can fail: summing the slab alone rounds differently
        # for most of these slabs
        box = np.zeros((300, 13, 11))
        moved = 0
        for lo in range(0, 280, 20):
            box[:] = 0.0
            box[lo:lo + 17] = rng.standard_normal((17, 13, 11)) * np.exp(
                rng.uniform(-30, 30, size=(17, 13, 11)))
            plane = 13 * 11
            assert same_bits(np.float64(_support_sum(box.reshape(-1), 0, box.size,
                                                     lo * plane, (lo + 17) * plane)),
                             box.sum())
            moved += not same_bits(box[lo:lo + 17].sum(), box.sum())
        assert moved >= 7


class TestTransientMarch:
    def test_probes_match_closed_form_within_budget(self, params, transient_result):
        report = transient_oracle_report(transient_result, params, HEIGHT)
        assert report.passed
        assert ORACLE_CHECKS["transient_probe"].passes(report.max_rel_error)

    def test_report_grid_lists_every_grid_field(self, params, transient_result):
        grid = transient_oracle_report(transient_result, params, HEIGHT).grid
        assert grid == dataclasses.asdict(transient_result.grid)

    def test_mass_conserved(self, transient_result):
        dev = np.abs(transient_result.mass - transient_result.jet_mass) / transient_result.jet_mass
        assert ORACLE_CHECKS["transient_mass"].passes(dev.max())

    def test_peak_arrives_at_advection_time(self, transient_result):
        series = transient_result.probe_values[0]
        t_peak = transient_result.times[int(np.argmax(series))]
        assert abs(t_peak - 30.0 / WIND) <= transient_result.dt

    def test_refinement_improves_probe_error(self, params, transient_result):
        coarse_grid = TransientGrid(
            x_span=(4.0, 60.0), y_half=2.4, z_span=(HEIGHT - 2.4, HEIGHT + 2.4),
            step_x=0.16, step_y=0.16, step_z=0.16, t_start=0.10, t_end=0.35,
        )
        coarse = march_transient_jet(params, HEIGHT, coarse_grid, jet_mass=2.0,
                                     probes=[(30.0, 0.0, HEIGHT)])
        coarse_report = transient_oracle_report(coarse, params, HEIGHT)
        fine_report = transient_oracle_report(transient_result, params, HEIGHT)
        assert fine_report.max_rel_error < coarse_report.max_rel_error

    def test_bit_identical_to_full_box_on_validation_grid(self, params, transient_result):
        # the support starts inside the box and is clipped at its far end
        assert x_support(transient_result.snapshots[0][1]).size < transient_result.x.size
        assert x_support(transient_result.snapshots[-1][1])[-1] == transient_result.x.size - 1
        assert_starts_from_closed_form(transient_result, params)
        assert_matches_full_box(transient_result, params)

    def test_bit_identical_when_pulse_leaves_box(self, params):
        grid = TransientGrid(
            x_span=(4.0, 12.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=0.04, t_end=0.12,
        )
        # the mid-march snapshot holds the diffused trailing edge of the
        # initial field, which the box cut off at a nonzero plane
        result = march_transient_jet(params, HEIGHT, grid, probes=[(8.0, 0.0, HEIGHT)],
                                     snapshot_times=(0.04, 0.06, 0.12))
        assert result.mass[-1] == 0.0
        assert x_support(result.snapshots[-1][1]).size == 0
        assert_starts_from_closed_form(result, params)
        assert_matches_full_box(result, params)

    def test_bit_identical_when_support_outgrows_shift(self):
        # at 15 cm/s the 0.12 cm steps give one cell per step: the support
        # widens by two planes and moves by one
        slow = ChannelParams.with_constant(15.0, DIFFUSIVITY)
        grid = TransientGrid(
            x_span=(4.0, 104.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=2.0, t_end=2.01,
        )
        result = march_transient_jet(slow, HEIGHT, grid, probes=[(50.0, 0.0, HEIGHT)],
                                     snapshot_times=(2.0, 2.01))
        assert result.dt == grid.step_x / 15.0
        first, last = x_support(result.snapshots[0][1]), x_support(result.snapshots[-1][1])
        assert 0 < first[0] and last[-1] < result.x.size - 1
        assert last.size > first.size
        assert_starts_from_closed_form(result, slow)
        assert_matches_full_box(result, slow)

    def test_bit_identical_from_all_zero_initial_condition(self, params):
        # by t_start the pulse has passed the box's far end (x = 12 cm) by
        # 9 cm, so every plane underflows to 0.0 and no step has work to do
        grid = TransientGrid(
            x_span=(4.0, 12.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=0.15, t_end=0.2,
        )
        result = march_transient_jet(params, HEIGHT, grid, probes=[(8.0, 0.0, HEIGHT)],
                                     snapshot_times=(0.15,))
        assert not result.snapshots[0][1].any()
        assert not result.mass.any()
        assert_starts_from_closed_form(result, params)
        assert_matches_full_box(result, params)

    def test_march_peak_memory_within_six_boxes(self, params):
        # validate-oracles' grid and probe, without snapshots: the box, the
        # two diffusion work buffers and small change
        grid = TransientGrid(
            x_span=(4.0, 60.0), y_half=2.4, z_span=(HEIGHT - 2.4, HEIGHT + 2.4),
            step_x=0.08, step_y=0.08, step_z=0.08, t_start=0.10, t_end=0.35,
        )
        result, peak = traced_peak(lambda: march_transient_jet(
            params, HEIGHT, grid, probes=[(30.0, 0.0, HEIGHT)]))
        box_bytes = 8 * result.x.size * result.y.size * result.z.size
        assert peak <= 6 * box_bytes

    @pytest.mark.parametrize("wind, cells", [(15.0, 1), (50.0, 4)], ids=["1", "4"])
    def test_long_march_rehomes_the_frame(self, monkeypatch, wind, cells):
        # t_end lies past three transits of the box, so the frame re-homes
        # at least three times.  The band starts near the inflow end, so the
        # support is live at the first re-home; at one cell per step its
        # upwind edge stays in the box, and it is live at every re-home
        monkeypatch.setattr("plumesense.oracles.jet_concentration", sharp_band(5.0))
        params = ChannelParams.with_constant(wind, DIFFUSIVITY)
        transits = 3.5 * 12.0 / wind
        grid = TransientGrid(
            x_span=(4.0, 16.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=0.05, t_end=0.05 + transits,
        )
        result = march_transient_jet(params, HEIGHT, grid, probes=[(12.0, 0.0, HEIGHT)],
                                     snapshot_times=(grid.t_start, grid.t_end))
        assert result.dt == cells * grid.step_x / wind
        assert (result.times.size - 1) * cells > 3 * result.x.size
        if cells == 1:
            assert x_support(result.snapshots[-1][1]).size
        assert_matches_full_box(result, params)
        # the frame is two boxes, the diffusion buffers and small change
        _, peak = traced_peak(lambda: march_transient_jet(
            params, HEIGHT, grid, probes=[(12.0, 0.0, HEIGHT)]))
        box_bytes = 8 * result.x.size * result.y.size * result.z.size
        assert peak < 3 * box_bytes

    @pytest.mark.filterwarnings("error")
    def test_probe_the_pulse_never_reaches_raises(self, params):
        # the pulse passes x = 29 only after t = 0.2 s; the window ends at 0.08 s
        grid = TransientGrid(
            x_span=(4.0, 30.0), y_half=1.0, z_span=(HEIGHT - 1.0, HEIGHT + 1.0),
            step_x=0.1, step_y=0.1, step_z=0.1, t_start=0.05, t_end=0.08,
        )
        result = march_transient_jet(params, HEIGHT, grid, probes=[(29.0, 0.0, HEIGHT)])
        with pytest.raises(GridError, match=r"probe \(29\.0, 0\.0, 180\.0\)"):
            transient_oracle_report(result, params, HEIGHT)

    def test_empty_probe_list_raises(self, params):
        # with nothing compared, a 0.0 error would read as a perfect match
        grid = TransientGrid(
            x_span=(4.0, 12.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=0.04, t_end=0.06,
        )
        result = march_transient_jet(params, HEIGHT, grid, probes=())
        with pytest.raises(GridError, match="probe list is empty"):
            transient_oracle_report(result, params, HEIGHT)

    @pytest.mark.parametrize("wind, cells", [(15.0, 1), (50.0, 4)], ids=["1", "4"])
    def test_bit_identical_from_sharp_edged_field(self, monkeypatch, wind, cells):
        # a closed-form pulse fades into underflowed zeros at the support's
        # edges; a field cut off at full strength also checks the edge planes
        monkeypatch.setattr("plumesense.oracles.jet_concentration", sharp_band(10.0))
        # the wind sets the cells per step at these 0.12 cm steps
        params = ChannelParams.with_constant(wind, DIFFUSIVITY)
        grid = TransientGrid(
            x_span=(4.0, 16.0), y_half=1.2, z_span=(HEIGHT - 1.2, HEIGHT + 1.2),
            step_x=0.12, step_y=0.12, step_z=0.12, t_start=0.05, t_end=0.09,
        )
        dt = cells * grid.step_x / wind
        times = grid.t_start + dt * np.arange(int(np.ceil(0.04 / dt)) + 1)
        result = march_transient_jet(params, HEIGHT, grid, probes=[(12.0, 0.0, HEIGHT)],
                                     snapshot_times=times)
        assert result.dt == dt
        assert len(result.snapshots) == result.times.size
        assert_matches_full_box(result, params)

    def test_no_stable_integer_cfl_step_raises(self, params):
        # crosswind steps of 0.01 cm cap the stable time step below the
        # 3.6 ms one 0.5 cm cell takes at 140 cm/s
        grid = TransientGrid(
            x_span=(4.0, 30.0), y_half=0.1, z_span=(HEIGHT - 0.1, HEIGHT + 0.1),
            step_x=0.5, step_y=0.01, step_z=0.01, t_start=0.05, t_end=0.2,
        )
        with pytest.raises(GridError, match="no stable integer-CFL step exists"):
            march_transient_jet(params, HEIGHT, grid)

    def test_configuration_errors(self, params):
        from plumesense.channel import DiffusivityProfile

        varying = ChannelParams(WIND, DiffusivityProfile.from_function(lambda x: 0.2))
        ok = TransientGrid(
            x_span=(4.0, 30.0), y_half=2.0, z_span=(HEIGHT - 2.0, HEIGHT + 2.0),
            step_x=0.1, step_y=0.1, step_z=0.1, t_start=0.05, t_end=0.2,
        )
        with pytest.raises(DomainError):
            march_transient_jet(varying, HEIGHT, ok)
        with pytest.raises(GridError):
            march_transient_jet(params, HEIGHT, ok, probes=[(100.0, 0.0, HEIGHT)])


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

    def test_unreachable_tolerance_raises(self, params):
        # below the rounding of the sum, no number of bisections can certify it
        with pytest.raises(QuadratureError, match="within 200 subintervals per gap"):
            step_convolution((100.0, 0.0, HEIGHT, 2.0), params, HEIGHT, rel_tol=1e-300)


@pytest.fixture(scope="module")
def spectrum(params):
    return sampled_transfer_function((100.0, 0.0, HEIGHT), params, HEIGHT,
                                     sample_interval=5e-4, n_samples=4096)


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
        with pytest.raises(GridError):
            sampled_transfer_function((100.0, 0.0, HEIGHT), params, HEIGHT,
                                      sample_interval=5e-2, n_samples=4096)
        with pytest.raises(GridError):
            sampled_transfer_function((100.0, 0.0, HEIGHT), params, HEIGHT,
                                      sample_interval=5e-4, n_samples=64)


def reference_empirical_pmd(exposure, sampler_efficiency, binding_fraction, sigma, trials,
                            seed):
    """empirical_pmd with the threshold worked out by hand as mean / 2 and a
    miss counted as received < threshold."""
    if trials < 10_000:
        raise DomainError("need at least 1e4 trials")
    if sigma < 0.0:
        raise DomainError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    mean = sampler_efficiency * binding_fraction * exposure
    threshold = mean / 2.0
    misses = 0
    remaining = int(trials)
    while remaining > 0:
        n = min(remaining, 1_000_000)
        received = rng.standard_normal(n)
        received *= sigma
        received += mean
        misses += int(np.count_nonzero(received < threshold))
        remaining -= n
    lower, upper = _wilson_interval(misses, trials, WILSON_Z)
    return PmdEstimate(
        estimate=misses / trials, lower=lower, upper=upper, trials=int(trials),
        misses=misses, z=WILSON_Z,
    )


def _spawned(index):
    return np.random.SeedSequence(entropy=12345, spawn_key=(index,))


# mc-pmd's exposures, 2 sigma argument / gain, are numpy scalars
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
    ])
    def test_equals_reference(self, exposure, sigma, trials, seed):
        """Counting misses through ml_threshold and decide changes no draw,
        chunk or count: the whole estimate is equal, chunk seams included."""
        args = (exposure, 0.85, 0.5, sigma, trials)
        assert empirical_pmd(*args, seed) == reference_empirical_pmd(*args, seed)

    @pytest.mark.parametrize("exposure, efficiency, sigma", [
        (math.nan, 0.85, 1.0), (1.0, 0.85, math.nan), (math.inf, 0.85, 1.0),
        (1.0, 0.85, -1.0), (1.0, math.nan, 1.0),
    ])
    def test_nan_or_negative_inputs_rejected(self, exposure, efficiency, sigma):
        with pytest.raises(DomainError):
            empirical_pmd(exposure, efficiency, 0.5, sigma, 10_000, 0)

    def test_matches_closed_form_at_unit_argument(self):
        est = empirical_pmd(2.0, 1.0, 1.0, 1.0, trials=10**6, seed=42)
        assert est.contains(q_function(1.0))

    def test_noiseless_never_misses(self):
        est = empirical_pmd(2.0, 1.0, 1.0, 1e-150, trials=10**4, seed=0)
        assert est.estimate == 0.0

    def test_seed_determinism(self):
        a = empirical_pmd(2.0, 0.85, 0.5, 0.4, trials=10**5, seed=9)
        b = empirical_pmd(2.0, 0.85, 0.5, 0.4, trials=10**5, seed=9)
        assert a == b

    def test_seed_robustness(self):
        analytic = q_function(1.0)
        hits = sum(
            empirical_pmd(2.0, 1.0, 1.0, 1.0, trials=10**5, seed=s).contains(analytic)
            for s in range(10)
        )
        assert hits == 10

    def test_minimum_trials_enforced(self):
        with pytest.raises(DomainError):
            empirical_pmd(1.0, 0.85, 0.5, 1.0, trials=100, seed=0)


@pytest.fixture(scope="module")
def recv():
    return ReceiverSpec((100.0, 0.0, HEIGHT), RADIUS, 3.0, 0.85, 0.5)


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
