"""Beam shifts: closed form, bounds, antisymmetry, the moment oracle and
its quadrature reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhall import (BeamParams, LayerStack, ScanContext,
                      load_config, reflection_coefficients,
                      shift_from_beam_integral, shift_kernel,
                      stack_reflection_derivative, susceptibility)
import spinhall.multilayer as multilayer
import spinhall.shifts as shifts_module
import spinhall.sweep as sweep_module
from beam_quadrature import (GridSpec, QuadratureNotConverged, centroids,
                             cleared_moment, kspace_tilts, quadrature_shift,
                             truncated_kernel)

LAM = 780e-9


def closed_shift(theta, stack, beam, lam=LAM):
    """delta_plus (meters) of the closed form at one angle of a stack."""
    return float(shift_kernel(theta, *reflection_coefficients(theta, lam, stack),
                              None, beam)[0])


class TestBeamParams:
    def test_rayleigh_identity(self, beam):
        assert beam.rayleigh == math.pi * beam.w0 ** 2 / beam.lam

    def test_k1(self, beam):
        assert beam.k1 == pytest.approx(1.5 * 2 * math.pi / LAM, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamParams(w0=-1e-6, lam=LAM)

    def test_grid_window_minimum(self):
        with pytest.raises(ValueError):
            GridSpec(half_extent_w0=2.5)


class TestSpatialShift:
    def test_destructive_ratio_gives_zero(self, beam):
        delta, _ = shift_kernel(math.radians(40.0), 0.5 + 0j, -0.5 + 0j, None, beam)
        assert delta == 0.0

    def test_grazing_incidence_vanishes(self, beam):
        delta, _ = shift_kernel(math.pi / 2 - 1e-9, 0.4 + 0j, 0.7 + 0j, None, beam)
        assert abs(delta) < 1e-9 * beam.w0

    def test_antisymmetry_exact(self, beam):
        # the two circular components are mirror images: the oracle
        # centroids, without angular spread, straddle the closed form
        quad_plus, quad_minus = centroids(0.6, 0.1 + 0.05j, 0.6 - 0.2j, 0j,
                                          beam, GridSpec())
        delta, _ = shift_kernel(0.6, 0.1 + 0.05j, 0.6 - 0.2j, None, beam)
        assert quad_minus == pytest.approx(-quad_plus, rel=1e-12)
        assert quad_plus == pytest.approx(float(delta), rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [1e-300, 1e-310, 0.0])
    def test_normal_incidence_limit_is_zero(self, theta, beam, vacuum_stack):
        # |(1 + rs/rp) cot|^2, and below 1e-308 cot itself, overflow on
        # the way to the limit 0; no warning, no NaN
        rp, rs = reflection_coefficients(theta, LAM, vacuum_stack)
        assert shift_kernel(theta, rp, rs, None, beam) == (0.0, 0.0)
        assert shift_kernel(np.array([theta, 0.6]), rp, rs, None, beam)[0][0] == 0.0
        if theta:
            assert shift_from_beam_integral(theta, vacuum_stack, beam) == (0.0, -0.0)

    def test_brewster_floor_gives_nan(self, beam):
        delta, tilt = shift_kernel(0.6, 1e-13 + 0j, 0.6 + 0j, None, beam)
        assert np.isnan(delta) and np.isnan(tilt)

    def test_positive_below_brewster_for_resonant_cavity(self, beam, vacuum_stack):
        assert closed_shift(math.radians(30.0), vacuum_stack, beam) > 0

    def test_sign_flip_across_brewster(self, beam, vacuum_stack):
        thetas = np.radians([33.60, 33.80])
        rp, rs = reflection_coefficients(thetas, LAM, vacuum_stack)
        delta, _ = shift_kernel(thetas, rp, rs, None, beam)
        assert delta[0] > 0
        assert delta[1] < 0

    @settings(max_examples=200)
    @given(rp=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1.0),
           rs=st.complex_numbers(max_magnitude=1.0),
           theta=st.floats(0.01, math.pi / 2 - 0.01))
    def test_half_waist_bound(self, rp, rs, theta):
        beam = BeamParams(w0=50 * LAM, lam=LAM)
        delta, _ = shift_kernel(theta, rp, rs, None, beam)
        assert abs(delta) <= beam.w0 / 2 * (1 + 1e-12)

    def test_kernel_vectorized_matches_scalar(self, beam, vacuum_stack):
        thetas = np.radians(np.linspace(31, 35, 7))
        from spinhall.multilayer import _amplitudes
        rp, rs, _ = _amplitudes(thetas, LAM, vacuum_stack)
        d_vec, t_vec = shift_kernel(thetas, rp, rs, None, beam)
        for i, th in enumerate(thetas):
            d, t = shift_kernel(float(th), complex(rp[i]), complex(rs[i]), None, beam)
            assert float(d) == d_vec[i] and float(t) == t_vec[i]


class TestAngularShift:
    def test_real_ratio_gives_zero_tilt(self, beam):
        # lossless single interface: rs/rp real
        stack = LayerStack(eps2=1.0 + 0j, eps3=1.0 + 0j, thickness_d=0.0)
        rp, rs = reflection_coefficients(math.radians(20.0), LAM, stack)
        assert abs(rs / rp - (rs / rp).real) < 1e-12
        assert abs(shift_kernel(math.radians(20.0), rp, rs, None, beam)[1]) < 1e-15

    def test_opposite_circular_components(self, beam):
        # conjugate coefficients tilt the other way, by exactly as much
        delta, tilt = shift_kernel(0.7, 0.2 + 0.1j, 0.5 - 0.3j, None, beam)
        delta_c, tilt_c = shift_kernel(0.7, 0.2 - 0.1j, 0.5 + 0.3j, None, beam)
        assert tilt != 0
        assert tilt_c == -tilt and delta_c == delta


class TestQuadratureOracle:
    def test_flat_coefficients_match_closed_form(self, beam):
        # theta-independent coefficients, no angular spread: ratio 1, zero
        # log-derivative; quadrature must land on the closed form
        theta = math.radians(30.0)
        quad_plus, quad_minus = centroids(theta, 0.5 + 0j, 0.5 + 0j, 0j, beam,
                                          GridSpec())
        closed = float(shift_kernel(theta, 0.5 + 0j, 0.5 + 0j, None, beam)[0])
        assert quad_plus == pytest.approx(closed, rel=1e-2)
        assert quad_plus == pytest.approx(closed, rel=1e-6)  # spectral accuracy
        assert quad_minus == pytest.approx(-quad_plus, rel=1e-9)

    def test_resonant_cavity_away_from_dip(self, beam, vacuum_stack):
        theta = math.radians(30.0)
        quad_plus, quad_minus = shift_from_beam_integral(theta, vacuum_stack, beam)
        closed = closed_shift(theta, vacuum_stack, beam)
        assert quad_plus == pytest.approx(closed, rel=5e-2)
        assert quad_minus == pytest.approx(-quad_plus, rel=1e-9)

    def test_absorbing_cavity_agreement(self, beam, ctl_medium):
        stack = LayerStack(eps2=1 + susceptibility(1.3, ctl_medium))
        theta = math.radians(32.0)
        quad_plus, _ = shift_from_beam_integral(theta, stack, beam)
        closed = closed_shift(theta, stack, beam)
        assert quad_plus == pytest.approx(closed, rel=5e-2)

    def test_agreement_at_validity_boundary(self, beam, vacuum_stack):
        # sharpest probe of the closed form's truncation: the angle where
        # |rp| has fallen to 0.05 |rs| approaching the dip
        from spinhall.multilayer import _amplitudes
        ths = np.radians(np.linspace(31.0, 33.6, 50001))
        rp, rs, _ = _amplitudes(ths, LAM, vacuum_stack)
        i = int(np.argmin(np.abs(np.abs(rp) / np.abs(rs) - 0.05)))
        theta = float(ths[i])
        rp, rs = reflection_coefficients(theta, LAM, vacuum_stack)
        assert abs(rp) / abs(rs) == pytest.approx(0.05, abs=1e-3)
        closed = float(shift_kernel(theta, rp, rs, None, beam)[0])
        quad_plus, _ = shift_from_beam_integral(theta, vacuum_stack, beam)
        assert quad_plus == pytest.approx(closed, rel=5e-2)

    def test_one_derivative_call(self, beam, vacuum_stack, monkeypatch):
        calls = []
        derivative = multilayer.stack_reflection_derivative

        def counted(*args):
            calls.append(args)
            return derivative(*args)

        monkeypatch.setattr(multilayer, "stack_reflection_derivative", counted)
        shift_from_beam_integral(math.radians(30.0), vacuum_stack, beam)
        assert len(calls) == 1

    def test_underresolved_grid_raises(self, beam, vacuum_stack):
        with pytest.raises(QuadratureNotConverged):
            quadrature_shift(math.radians(30.0), vacuum_stack, beam, GridSpec(nodes=3))

    def test_scaling_invariance_in_wavelength_units(self, ctl_medium):
        theta = math.radians(31.5)
        results = []
        for scale in (0.5, 1.0, 2.0):
            lam = LAM * scale
            stack = LayerStack(eps2=1 + susceptibility(0.9, ctl_medium),
                               thickness_d=0.4e-6 * scale)
            beam = BeamParams(w0=50 * lam, lam=lam)
            results.append(closed_shift(theta, stack, beam, lam) / lam)
        assert results[0] == pytest.approx(results[1], rel=1e-9)
        assert results[2] == pytest.approx(results[1], rel=1e-9)


def preset_points(min_ratio=0.05):
    """(preset, theta, stack, beam) over the three presets at which
    |rp| >= min_ratio |rs|, the closed form's domain of validity."""
    points = []
    for preset in ("fig2-ctl", "fig3-lambda", "fig4-ntype"):
        medium, stack, beam = load_config(preset=preset).build()
        for dp in (-1.3, 0.0, 0.5, 2.6):
            layered = ScanContext(medium, stack, beam, delta_p=dp).stack_at()
            for deg in (24.0, 30.0, 32.0, 36.0, 44.0):
                theta = math.radians(deg)
                rp, rs = reflection_coefficients(theta, beam.lam, layered)
                if abs(rp) >= min_ratio * abs(rs):
                    points.append((preset, theta, layered, beam))
    return points


class TestMomentIdentity:
    """The oracle's closed-form moment is the centroid the quadrature
    integrates, over the whole plane."""

    def test_moment_matches_quadrature(self):
        points = preset_points()
        assert len(points) >= 20
        assert {p[0] for p in points} == {"fig2-ctl", "fig3-lambda", "fig4-ntype"}
        for _, theta, stack, beam in points:
            moment = shift_from_beam_integral(theta, stack, beam)
            quad = quadrature_shift(theta, stack, beam)
            assert moment[0] == pytest.approx(quad[0], rel=1e-12, abs=0)
            assert moment[1] == pytest.approx(quad[1], rel=1e-12, abs=0)

    @settings(max_examples=100)
    @given(preset=st.sampled_from(["fig2-ctl", "fig3-lambda", "fig4-ntype"]),
           deg=st.floats(1.0, 89.0), dp=st.floats(-6.0, 6.0))
    def test_mirror_exact(self, preset, deg, dp):
        medium, stack, beam = load_config(preset=preset).build()
        layered = ScanContext(medium, stack, beam, delta_p=dp).stack_at()
        plus, minus = shift_from_beam_integral(math.radians(deg), layered, beam)
        assert np.isfinite(plus)
        assert minus == -plus and np.signbit(minus) != np.signbit(plus)

    def test_finite_where_rp_vanishes(self, beam, vacuum_stack, monkeypatch):
        # a true zero of rp: the closed form has no value there, the
        # moment and the quadrature both put the centroid on the axis
        theta = math.radians(33.7)
        _, rs = reflection_coefficients(theta, LAM, vacuum_stack)
        drp, _ = multilayer.stack_reflection_derivative(theta, LAM, vacuum_stack)
        assert abs(drp) > 0
        monkeypatch.setattr(sweep_module, "_amplitudes", lambda *args: (0j, rs, 1.0))
        plus, minus = shift_from_beam_integral(theta, vacuum_stack, beam)
        assert plus == 0.0 and minus == -plus
        assert np.isnan(shift_kernel(theta, 0j, rs, None, beam)[0])
        quad_plus, _ = centroids(theta, 0j, rs, drp, beam)
        assert abs(quad_plus) < 1e-12 * beam.w0


class TestMomentKernel:
    """``shift_kernel`` with ``drp`` = rp' is the oracle's moment over
    arrays of raw coefficients, as with ``drp = None`` it is the closed form."""

    def test_array_equals_pointwise(self):
        points = preset_points()
        for beam in {p[3] for p in points}:
            at = [(np.array([theta]), stack) for _, theta, stack, b in points
                  if b == beam]
            rp, rs = (np.concatenate(c) for c in zip(*(
                reflection_coefficients(row, beam.lam, stack) for row, stack in at)))
            drp = np.concatenate([multilayer.stack_reflection_derivative(
                row, beam.lam, stack)[0] for row, stack in at])
            thetas = np.concatenate([row for row, _ in at])
            got = shift_kernel(thetas, rp, rs, drp, beam)[0]
            want = [shift_from_beam_integral(row[0], stack, beam)[0]
                    for row, stack in at]
            assert got.tolist() == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [1e-16, 1e-12, 1e-9])
    def test_rounding_of_rp_plus_rs_is_no_shift(self, theta, ctl_medium, beam):
        # toward normal incidence rp + rs vanishes like theta^2; below
        # about 1e-8 rad what is left of it is rounding, which cot(theta)
        # would otherwise turn into a shift near the half-waist bound
        stack = LayerStack(eps2=1 + susceptibility(0.5, ctl_medium))
        row = np.array([theta])
        rp, rs = reflection_coefficients(row, LAM, stack)
        drp, _ = multilayer.stack_reflection_derivative(row, LAM, stack)
        delta, tilt = shift_kernel(row, rp, rs, None, beam)
        assert (delta[0], tilt[0]) == (0.0, 0.0)
        assert shift_kernel(row, rp, rs, drp, beam)[0][0] == 0.0

    def test_cancellation_beyond_rounding_is_a_shift(self, beam):
        # rp + rs within 32 eps of |rp| is rounding; 1e-12 is not
        rp = np.array([0.5 + 0j, 0.5 + 0j])
        rs = np.array([-0.5 + 1e-16, -0.5 + 1e-12])
        delta, _ = shift_kernel(0.6, rp, rs, None, beam)
        moment = shift_kernel(0.6, rp, rs, 0j, beam)[0]
        assert delta[0] == moment[0] == 0.0
        assert delta[1] < 0 and moment[1] < 0
        assert moment[1] == pytest.approx(delta[1], rel=1e-9)


class TestOneKernel:
    """``drp = None`` is the truncated closed form, ``drp`` = rp' the full
    first order, rp' = 0 included; both are the one ``shift_kernel``."""

    @settings(max_examples=100, deadline=None)
    @given(eps2=st.tuples(st.floats(-3.0, 5.0), st.floats(0.01, 2.0)),
           eps3=st.floats(1.0, 4.0), thickness=st.floats(0.0, 2e-6),
           w0_lambdas=st.floats(5.0, 5000.0),
           degs=st.lists(st.floats(1.0, 89.0), min_size=1, max_size=8))
    # a zero-thickness layer between equal glasses: rp = rs = rp' = 0
    @example(eps2=(1.0, 0.25), eps3=2.25, thickness=0.0, w0_lambdas=5.0, degs=[1.5])
    def test_both_orders_over_random_stacks(self, eps2, eps3, thickness,
                                            w0_lambdas, degs):
        stack = LayerStack(eps2=complex(*eps2), eps3=complex(eps3),
                           thickness_d=thickness)
        beam = BeamParams(w0=w0_lambdas * LAM, lam=LAM)
        row = np.radians(degs)
        rp, rs = reflection_coefficients(row, LAM, stack)
        drp, _ = stack_reflection_derivative(row, LAM, stack)
        # the same angles again with rp pushed below the floor, and to 0
        theta = np.tile(row, 3)
        rp = np.concatenate([rp, 1e-13 * rp, 0 * rp])
        rs, drp = np.tile(rs, 3), np.tile(drp, 3)
        for got, want in zip(shift_kernel(theta, rp, rs, None, beam),
                             truncated_kernel(theta, rp, rs, beam)):
            assert got.tobytes() == want.tobytes()
        delta, tilt = shift_kernel(theta, rp, rs, drp, beam)
        with np.errstate(invalid="ignore"):  # 0/0 where rp = rs = rp' = 0
            ref_delta, ref_tilt = cleared_moment(theta, rp, rs, drp, beam)
        # delta_plus and theta_minus are -Re and Im of one complex moment
        z = -delta + 1j * tilt * beam.rayleigh
        ref = -ref_delta + 1j * ref_tilt * beam.rayleigh
        above = np.abs(rp) >= shifts_module.BREWSTER_FLOOR
        assert np.all(np.abs(z - ref)[above] <= 1e-12 * np.abs(ref)[above])
        assert np.all(np.isfinite(delta[~above]) & np.isfinite(tilt[~above]))
        # with rp' = 0 the full order adds an exact 0 to the truncated
        # denominator above the floor
        for got, want in zip(shift_kernel(theta, rp, rs, 0 * drp, beam),
                             truncated_kernel(theta, rp, rs, beam)):
            assert got[above].tobytes() == want[above].tobytes()
            assert np.all(np.isfinite(got[~above]))

    @pytest.mark.parametrize("preset, detuning, deg", [
        ("fig2-ctl", 0.0, 33.0), ("fig2-ctl", 0.5, 33.0),
        ("fig3-lambda", -1.0, 33.0), ("fig4-ntype", 0.3, 33.0),
        ("fig2-ctl", 0.0, 33.69)])
    def test_full_order_tilt_is_the_kspace_centroid(self, preset, detuning, deg):
        # theta_minus is k1/k0 times the tilt inside the glass
        medium, stack, beam = load_config(preset=preset).build()
        layered = ScanContext(medium, stack, beam, delta_p=detuning).stack_at()
        row = np.radians([deg])
        rp, rs = reflection_coefficients(row, beam.lam, layered)
        drp, _ = stack_reflection_derivative(row, beam.lam, layered)
        tilt = shift_kernel(row, rp, rs, drp, beam)[1][0] * beam.k0 / beam.k1
        plus, minus = kspace_tilts(row[0], rp[0], rs[0], drp[0], beam)
        assert tilt == pytest.approx(minus, rel=1e-12, abs=0)
        assert plus == pytest.approx(-minus, rel=1e-12, abs=0)
