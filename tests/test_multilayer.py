"""Stack reflection: normal wave vectors, interface coefficients,
composite stack, angular derivatives.

Derivative oracles are closed-form: the single-interface coefficient is
differentiated by hand (quotient rule on the normal wave vectors) and
the phase-only case adds the chain rule on exp(2i k2z d).  On random
stacks the reference is a Richardson finite-difference stencil over the
stack evaluation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import spinhall.multilayer as multilayer
import spinhall.sweep as sweep_module
from spinhall import (InvalidAngle, LayerStack, ResonantDenominator,
                      reflection_coefficients, shift_from_beam_integral,
                      stack_reflection_derivative, susceptibility)
from spinhall.multilayer import _amplitudes, _kz

LAM = 780e-9
K0 = 2 * math.pi / LAM
BREWSTER_DEG = math.degrees(math.atan(1 / 1.5))
CRITICAL_DEG = math.degrees(math.asin(1 / 1.5))
# eps2 = eps3 = 1 at zero thickness: the bare glass -> vacuum interface
INTERFACE = LayerStack(eps2=1.0 + 0j, eps3=1.0 + 0j, thickness_d=0.0)


def interface_coefficients(theta, eps_i, eps_j, k0=K0):
    """Single-interface (rp, rs, drp/dtheta, drs/dtheta), closed form."""
    si = np.sqrt(eps_i + 0j)
    kiz = k0 * si * np.cos(theta)
    kjz = np.sqrt(k0 ** 2 * eps_j - (si.real * k0 * np.sin(theta)) ** 2 + 0j)
    if kjz.imag < 0:
        kjz = -kjz
    d_kiz = -k0 * si * np.sin(theta)
    d_kjz = -k0 ** 2 * eps_i.real * np.sin(theta) * np.cos(theta) / kjz
    out = []
    for a, b, da, db in (((kiz / eps_i), (kjz / eps_j), (d_kiz / eps_i), (d_kjz / eps_j)),
                         (kiz, kjz, d_kiz, d_kjz)):
        out.append((a - b) / (a + b))
        out.append(2 * (da * b - a * db) / (a + b) ** 2)
    return out[0], out[2], out[1], out[3]


def richardson_derivative(theta_i, lam, stack, h=1e-6):
    """d(rp)/dtheta and d(rs)/dtheta by Richardson-extrapolated central
    differences of the stack (stencils h and h/2, error O(h^4))."""
    def pair(t):
        rp, rs, _ = _amplitudes(t, lam, stack)
        return np.array([rp, rs])

    coarse = (pair(theta_i + h) - pair(theta_i - h)) / (2 * h)
    fine = (pair(theta_i + h / 2) - pair(theta_i - h / 2)) / h
    return (4 * fine - coarse) / 3


def glass_kx(theta):
    return 1.5 * K0 * np.sin(theta)


class TestWaveGeometry:
    def test_near_normal_incidence(self):
        kx = glass_kx(1e-9)
        assert kx == pytest.approx(0.0, abs=1e-6 * K0)
        assert _kz(2.25, K0, np.array([kx]))[0] == pytest.approx(1.5 * K0, rel=1e-12)

    def test_critical_angle_kills_k2z(self):
        assert abs(_kz(1.0, K0, glass_kx(np.radians([CRITICAL_DEG])))[0]) < 1e-5 * K0

    def test_beyond_critical_evanescent(self):
        k2z = _kz(1.0, K0, glass_kx(np.radians([60.0])))[0]
        assert k2z.real == 0
        assert k2z.imag > 0

    def test_decaying_branch_for_absorbing_layer(self, ctl_medium):
        eps2 = 1 + susceptibility(np.linspace(-6, 6, 25), ctl_medium)[:, None]
        kx = glass_kx(np.radians([20.0, 33.7, 50.0, 70.0]))
        assert np.all(np.imag(_kz(eps2, K0, kx)) >= 0)

    def test_decaying_branch_for_gain_layer(self):
        eps2 = np.array([[1.2 - 0.3j], [0.5 - 1e-3j], [3.0 - 0.5j]])
        kx = glass_kx(np.radians(np.linspace(1.0, 89.0, 89)))
        assert np.all(np.imag(_kz(eps2, K0, kx)) >= 0)

    @pytest.mark.parametrize("theta", [0.0, -0.3, math.pi / 2, 2.0])
    def test_invalid_angle(self, theta, vacuum_stack, beam):
        # the oracle builds its beam geometry from the stack at theta
        with pytest.raises(InvalidAngle):
            shift_from_beam_integral(theta, vacuum_stack, beam)


class TestFresnelInterface:
    """A zero-thickness stack whose gap matches the lower medium is the
    bare 1 -> 3 interface."""

    def test_normal_incidence_textbook_values(self):
        rp, rs = reflection_coefficients(1e-9, LAM, INTERFACE)
        assert rs == pytest.approx((1.5 - 1) / (1.5 + 1), abs=1e-8)
        assert rp == pytest.approx(-(1.5 - 1) / (1.5 + 1), abs=1e-8)

    def test_identical_media_reflect_nothing(self):
        rp, rs = reflection_coefficients(0.5, LAM, LayerStack(eps2=2.25 + 0j))
        assert rp == 0 and rs == 0

    def test_interface_brewster_zero(self):
        rp, _ = reflection_coefficients(math.atan(1 / 1.5), LAM, INTERFACE)
        assert abs(rp) < 1e-14

    def test_matches_closed_form_oracle(self):
        for deg in (10.0, 25.0, 33.0, 47.0, 63.0):
            rp, rs = reflection_coefficients(math.radians(deg), LAM, INTERFACE)
            rp_o, rs_o, _, _ = interface_coefficients(math.radians(deg), 2.25, 1.0)
            assert rp == pytest.approx(rp_o, rel=1e-12)
            assert rs == pytest.approx(rs_o, rel=1e-12)


class TestStackReflection:
    def test_vanishing_gap_between_identical_media(self):
        stack = LayerStack(eps2=1.7 + 0.3j, thickness_d=0.0)
        rp, rs = reflection_coefficients(0.6, LAM, stack)
        assert abs(rp) < 1e-12 and abs(rs) < 1e-12

    def test_gap_matching_upper_glass_is_phase_only(self):
        inner = LayerStack(eps2=2.25 + 0j, eps3=1.0 + 0j)
        bare = LayerStack(eps2=2.25 + 0j, eps3=1.0 + 0j, thickness_d=0.0)
        for deg in (15.0, 30.0, 40.0):
            rp, rs = reflection_coefficients(math.radians(deg), LAM, inner)
            rp0, rs0 = reflection_coefficients(math.radians(deg), LAM, bare)
            assert abs(rp) == pytest.approx(abs(rp0), rel=1e-12)
            assert abs(rs) == pytest.approx(abs(rs0), rel=1e-12)

    def test_zero_thickness_reduces_to_single_interface(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            eps2 = complex(rng.uniform(0.5, 4.0), rng.uniform(0.0, 1.0))
            eps3 = complex(rng.uniform(0.5, 4.0), rng.uniform(0.0, 1.0))
            stack = LayerStack(eps2=eps2, eps3=eps3, thickness_d=0.0)
            theta = rng.uniform(0.05, 1.5)
            rp, rs = reflection_coefficients(theta, LAM, stack)
            rp_o, rs_o, _, _ = interface_coefficients(theta, 2.25, eps3)
            assert rp == pytest.approx(rp_o, rel=1e-12, abs=1e-12)
            assert rs == pytest.approx(rs_o, rel=1e-12, abs=1e-12)

    def test_resonant_cavity_brewster_dip_and_te_saturation(self, vacuum_stack):
        thetas = np.radians(np.linspace(25, 89, 1281))
        rp, rs = reflection_coefficients(thetas, LAM, vacuum_stack)
        i = int(np.argmin(np.abs(rp)))
        assert np.degrees(thetas[i]) == pytest.approx(BREWSTER_DEG, abs=0.06)
        assert np.min(np.abs(rp)) < 1e-3
        assert np.all(np.diff(np.abs(rs)) > -1e-9)  # monotone
        rs50 = reflection_coefficients(math.radians(50.0), LAM, vacuum_stack)[1]
        rs85 = reflection_coefficients(math.radians(85.0), LAM, vacuum_stack)[1]
        assert abs(rs50) > 0.9
        assert abs(rs85) - abs(rs50) < 0.1  # saturated past ~50 deg

    def test_energy_bound_for_lossless_media(self):
        thetas = np.radians(np.linspace(0.1, 89.9, 1000))
        for eps2 in (1.0, 1.21, 2.25, 3.5):
            stack = LayerStack(eps2=complex(eps2))
            rp, rs = reflection_coefficients(thetas, LAM, stack)
            assert np.all(np.abs(rp) <= 1 + 1e-12)
            assert np.all(np.abs(rs) <= 1 + 1e-12)

    def test_no_branch_jumps_below_critical(self, vacuum_stack):
        h = 1e-4
        thetas = np.radians(np.linspace(31, 36, 501))
        rp, rs = reflection_coefficients(thetas, LAM, vacuum_stack)
        rp_h, rs_h = reflection_coefficients(thetas + h, LAM, vacuum_stack)
        drp, drs = stack_reflection_derivative(thetas, LAM, vacuum_stack)
        assert np.all(np.abs(np.abs(rp_h) - np.abs(rp)) - np.abs(drp) * h < 1e-6)
        assert np.all(np.abs(np.abs(rs_h) - np.abs(rs)) - np.abs(drs) * h < 1e-6)

    @pytest.mark.parametrize("eps2, eps3", [(1 - 5e-324j, 1.0), (2 - 2e-307j, 2.0)])
    def test_non_finite_coefficients_are_resonant(self, eps2, eps3, beam):
        # layer 2 of vanishing gain matched to layer 3: r23 overflows and
        # the denominator is NaN, which no floor comparison catches
        stack = LayerStack(eps2=eps2, eps3=complex(eps3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rp, rs, _ = _amplitudes(0.5, LAM, stack)
        assert not (np.isfinite(rp) and np.isfinite(rs))
        with pytest.raises(ResonantDenominator):
            reflection_coefficients(0.5, LAM, stack)
        with pytest.raises(ResonantDenominator):
            reflection_coefficients(np.array([0.4, 0.5]), LAM, stack)
        with pytest.raises(ResonantDenominator):
            shift_from_beam_integral(0.5, stack, beam)

    @pytest.mark.parametrize("theta", [0.0, -0.3, math.pi / 2, 2.0])
    def test_invalid_angle_checked(self, theta, vacuum_stack, beam, monkeypatch):
        # the oracle refuses the angle before it evaluates the stack
        def forbidden(*args):
            raise AssertionError("stack evaluated at an invalid angle")

        monkeypatch.setattr(sweep_module, "_amplitudes", forbidden)
        monkeypatch.setattr(multilayer, "stack_reflection_derivative", forbidden)
        with pytest.raises(InvalidAngle):
            shift_from_beam_integral(theta, vacuum_stack, beam)


class TestStackDerivative:
    def test_phase_only_case_analytic(self):
        # eps2 == eps1: r = r23 * exp(2i k2z d) with k2z the glass value
        stack = LayerStack(eps2=2.25 + 0j, eps3=1.0 + 0j)
        theta = math.radians(28.0)
        rp23, rs23, dp23, ds23 = interface_coefficients(theta, 2.25, 1.0)
        k2z = K0 * 1.5 * math.cos(theta)
        dk2z = -K0 * 1.5 * math.sin(theta)
        phase = np.exp(2j * k2z * stack.thickness_d)
        expected_p = (dp23 + rp23 * 2j * dk2z * stack.thickness_d) * phase
        expected_s = (ds23 + rs23 * 2j * dk2z * stack.thickness_d) * phase
        got_p, got_s = stack_reflection_derivative(theta, LAM, stack)
        assert got_p == pytest.approx(expected_p, rel=1e-12)
        assert got_s == pytest.approx(expected_s, rel=1e-12)

    def test_single_interface_limit_analytic(self):
        stack = LayerStack(eps2=1.44 + 0j, eps3=1.44 + 0j, thickness_d=0.0)
        theta = math.radians(37.0)
        _, _, dp_o, ds_o = interface_coefficients(theta, 2.25, 1.44)
        got_p, got_s = stack_reflection_derivative(theta, LAM, stack)
        assert got_p == pytest.approx(dp_o, rel=1e-12)
        assert got_s == pytest.approx(ds_o, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(eps2_re=st.floats(0.3, 4.0),
           eps2_im=st.one_of(st.just(0.0), st.floats(-0.5, 1.0)),
           eps3_re=st.floats(0.5, 4.0),
           d=st.one_of(st.just(0.0), st.just(0.4e-6), st.floats(0.0, 2e-6)),
           theta=st.one_of(st.floats(0.05, 1.5),
                           st.floats(-1e-3, 1e-3).map(
                               lambda t: math.atan(1 / 1.5) + t)))
    def test_closed_form_matches_richardson(self, eps2_re, eps2_im, eps3_re,
                                            d, theta):
        stack = LayerStack(eps2=complex(eps2_re, eps2_im),
                           eps3=complex(eps3_re, 0.0), thickness_d=d)
        kx = glass_kx(np.array([theta]))
        # a finite difference straddling kz = 0 (lossless critical angle)
        # measures nothing
        assume(min(abs(_kz(stack.eps(i), K0, kx)[0]) for i in (1, 2, 3)) >= 1e-3 * K0)
        got = stack_reflection_derivative(theta, LAM, stack)
        want = richardson_derivative(theta, LAM, stack)
        # the stack evaluation itself overflows (r23 with q2 = -q3) on a
        # layer of vanishing gain matched to layer 3; no reference there
        assume(np.all(np.isfinite(want)))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-7 * max(abs(w), 1.0)

    @pytest.mark.parametrize("gain", [1e-300, 5e-324])
    def test_vanishing_gain_layer_stays_finite(self, gain):
        # decaying branch: k2z = -k3z, so r23 alone is infinite
        stack = LayerStack(eps2=complex(1.0, -gain), eps3=1.0 + 0j, thickness_d=0.0)
        theta = math.radians(30.0)
        _, _, dp_o, ds_o = interface_coefficients(theta, 2.25, 1.0)
        got_p, got_s = stack_reflection_derivative(theta, LAM, stack)
        assert got_p == pytest.approx(dp_o, rel=1e-12)
        assert got_s == pytest.approx(ds_o, rel=1e-12)

    def test_vectorised_matches_pointwise(self):
        stack = LayerStack(eps2=1.3 + 0.2j)
        thetas = np.radians(np.linspace(5.0, 85.0, 41))
        drp, drs = stack_reflection_derivative(thetas, LAM, stack)
        assert drp.shape == drs.shape == thetas.shape
        pointwise = [stack_reflection_derivative(t, LAM, stack) for t in thetas]
        np.testing.assert_allclose(np.array(pointwise), np.array([drp, drs]).T,
                                   rtol=1e-14, atol=0)

    def test_no_stack_evaluation(self, vacuum_stack, monkeypatch):
        want = stack_reflection_derivative(0.55, LAM, vacuum_stack)

        def forbidden(*args):
            raise AssertionError("derivative evaluated the stack")

        monkeypatch.setattr(multilayer, "_amplitudes", forbidden)
        assert stack_reflection_derivative(0.55, LAM, vacuum_stack) == want
