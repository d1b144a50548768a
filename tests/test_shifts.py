"""Beam shifts: closed form, bounds, antisymmetry, quadrature oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinhall import (BeamParams, BrewsterSingularity, GridSpec, LayerStack,
                      QuadratureNotConverged, ReflectionPair, angular_shift,
                      shift_from_beam_integral, spatial_shift, stack_reflection,
                      susceptibility)
import spinhall.shifts as shifts_module
from spinhall.shifts import _centroids, _legendre_nodes, shift_kernel

LAM = 780e-9


def make_refl(rp, rs, drp=0j, drs=0j):
    return ReflectionPair(rp, rs, drp, drs)


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
        r = spatial_shift(math.radians(40.0), make_refl(0.5 + 0j, -0.5 + 0j), beam)
        assert r.delta_plus == 0.0
        assert r.delta_minus == 0.0

    def test_grazing_incidence_vanishes(self, beam):
        r = spatial_shift(math.pi / 2 - 1e-9, make_refl(0.4 + 0j, 0.7 + 0j), beam)
        assert abs(r.delta_plus) < 1e-9 * beam.w0

    def test_antisymmetry_exact(self, beam):
        r = spatial_shift(0.6, make_refl(0.1 + 0.05j, 0.6 - 0.2j), beam)
        assert r.delta_minus == -r.delta_plus
        assert r.theta_plus == -r.theta_minus

    def test_brewster_floor_raises(self, beam):
        with pytest.raises(BrewsterSingularity):
            spatial_shift(0.6, make_refl(1e-13 + 0j, 0.6 + 0j), beam)

    def test_positive_below_brewster_for_resonant_cavity(self, beam, vacuum_stack):
        refl = stack_reflection(math.radians(30.0), LAM, vacuum_stack)
        r = spatial_shift(math.radians(30.0), refl, beam)
        assert r.delta_plus > 0
        assert abs(r.ratio_sp) == pytest.approx(abs(refl.rs) / abs(refl.rp), rel=1e-12)

    def test_sign_flip_across_brewster(self, beam, vacuum_stack):
        lo = stack_reflection(math.radians(33.60), LAM, vacuum_stack)
        hi = stack_reflection(math.radians(33.80), LAM, vacuum_stack)
        assert spatial_shift(math.radians(33.60), lo, beam).delta_plus > 0
        assert spatial_shift(math.radians(33.80), hi, beam).delta_plus < 0

    @settings(max_examples=200)
    @given(rp=st.complex_numbers(min_magnitude=1e-6, max_magnitude=1.0),
           rs=st.complex_numbers(max_magnitude=1.0),
           theta=st.floats(0.01, math.pi / 2 - 0.01))
    def test_half_waist_bound(self, rp, rs, theta):
        beam = BeamParams(w0=50 * LAM, lam=LAM)
        delta, _ = shift_kernel(theta, rp, rs, beam)
        assert abs(delta) <= beam.w0 / 2 * (1 + 1e-12)

    def test_kernel_vectorized_matches_scalar(self, beam, vacuum_stack):
        thetas = np.radians(np.linspace(31, 35, 7))
        from spinhall.multilayer import _amplitudes
        rp, rs, _ = _amplitudes(thetas, LAM, vacuum_stack)
        d_vec, t_vec = shift_kernel(thetas, rp, rs, beam)
        for i, th in enumerate(thetas):
            d, t = shift_kernel(float(th), complex(rp[i]), complex(rs[i]), beam)
            assert float(d) == d_vec[i] and float(t) == t_vec[i]


class TestAngularShift:
    def test_real_ratio_gives_zero_tilt(self, beam):
        # lossless single interface: rs/rp real
        stack = LayerStack(eps2=1.0 + 0j, eps3=1.0 + 0j, thickness_d=0.0)
        refl = stack_reflection(math.radians(20.0), LAM, stack)
        assert abs(refl.rs / refl.rp - (refl.rs / refl.rp).real) < 1e-12
        assert abs(angular_shift(math.radians(20.0), refl, beam)) < 1e-15

    def test_opposite_circular_components(self, beam):
        r = spatial_shift(0.7, make_refl(0.2 + 0.1j, 0.5 - 0.3j), beam)
        assert r.theta_plus == -r.theta_minus
        assert r.theta_minus != 0


class TestQuadratureOracle:
    def test_flat_coefficients_match_closed_form(self, beam):
        # theta-independent coefficients, no angular spread: ratio 1, zero
        # log-derivative; quadrature must land on the closed form
        theta = math.radians(30.0)
        refl = make_refl(0.5 + 0j, 0.5 + 0j)
        quad_plus, quad_minus = _centroids(theta, refl, beam, GridSpec())
        closed = spatial_shift(theta, refl, beam).delta_plus
        assert quad_plus == pytest.approx(closed, rel=1e-2)
        assert quad_plus == pytest.approx(closed, rel=1e-6)  # spectral accuracy
        assert quad_minus == pytest.approx(-quad_plus, rel=1e-9)

    def test_resonant_cavity_away_from_dip(self, beam, vacuum_stack):
        theta = math.radians(30.0)
        quad_plus, quad_minus = shift_from_beam_integral(theta, vacuum_stack, beam)
        closed = spatial_shift(
            theta, stack_reflection(theta, LAM, vacuum_stack), beam).delta_plus
        assert quad_plus == pytest.approx(closed, rel=5e-2)
        assert quad_minus == pytest.approx(-quad_plus, rel=1e-9)

    def test_absorbing_cavity_agreement(self, beam, ctl_medium):
        stack = LayerStack(eps2=1 + susceptibility(1.3, ctl_medium))
        theta = math.radians(32.0)
        quad_plus, _ = shift_from_beam_integral(theta, stack, beam)
        closed = spatial_shift(
            theta, stack_reflection(theta, LAM, stack), beam).delta_plus
        assert quad_plus == pytest.approx(closed, rel=5e-2)

    def test_agreement_at_validity_boundary(self, beam, vacuum_stack):
        # sharpest probe of the closed form's truncation: the angle where
        # |rp| has fallen to 0.05 |rs| approaching the dip
        from spinhall.multilayer import _amplitudes
        ths = np.radians(np.linspace(31.0, 33.6, 50001))
        rp, rs, _ = _amplitudes(ths, LAM, vacuum_stack)
        i = int(np.argmin(np.abs(np.abs(rp) / np.abs(rs) - 0.05)))
        theta = float(ths[i])
        refl = stack_reflection(theta, LAM, vacuum_stack)
        assert abs(refl.rp) / abs(refl.rs) == pytest.approx(0.05, abs=1e-3)
        closed = spatial_shift(theta, refl, beam).delta_plus
        quad_plus, _ = shift_from_beam_integral(theta, vacuum_stack, beam)
        assert quad_plus == pytest.approx(closed, rel=5e-2)

    def test_underresolved_grid_raises(self, beam, vacuum_stack):
        with pytest.raises(QuadratureNotConverged):
            shift_from_beam_integral(math.radians(30.0), vacuum_stack, beam,
                                     GridSpec(nodes=3))

    def test_scaling_invariance_in_wavelength_units(self, ctl_medium):
        theta = math.radians(31.5)
        results = []
        for scale in (0.5, 1.0, 2.0):
            lam = LAM * scale
            stack = LayerStack(eps2=1 + susceptibility(0.9, ctl_medium),
                               thickness_d=0.4e-6 * scale)
            beam = BeamParams(w0=50 * lam, lam=lam)
            refl = stack_reflection(theta, lam, stack)
            results.append(spatial_shift(theta, refl, beam).delta_plus / lam)
        assert results[0] == pytest.approx(results[1], rel=1e-9)
        assert results[2] == pytest.approx(results[1], rel=1e-9)


class TestLegendreNodeCache:
    @pytest.mark.parametrize("n", [2, 7, 201, 402])
    def test_nodes_are_leggauss(self, n):
        nodes, weights = _legendre_nodes(n)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(weights, want_weights)
        assert _legendre_nodes(n)[0] is nodes  # computed once per node count

    def test_cached_arrays_are_read_only(self):
        nodes, weights = _legendre_nodes(5)
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array += 1.0

    def test_centroids_independent_of_the_cache(self, beam, ctl_medium,
                                                monkeypatch):
        stack = LayerStack(eps2=1.0 + susceptibility(0.3, ctl_medium))
        theta = math.radians(33.2)
        _legendre_nodes.cache_clear()
        first = shift_from_beam_integral(theta, stack, beam)
        again = shift_from_beam_integral(theta, stack, beam)
        monkeypatch.setattr(shifts_module, "_legendre_nodes",
                            np.polynomial.legendre.leggauss)
        uncached = shift_from_beam_integral(theta, stack, beam)
        assert first == again == uncached
