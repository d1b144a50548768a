"""Atomic response: couplings, coherence, susceptibility.

The independent oracles for the closed-form coherence are steady-state
linear systems solved numerically per point (tests/conftest.py): that of
the reduced four-level chain and, to check the dark/bright reduction
itself, that of the bare coherences driven by the four control fields.
"""

import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinhall import (DegenerateBrightState, EffectiveCouplings, MediumParams,
                      SingularDenominator, coherence_ratio, effective_couplings,
                      susceptibility)
from spinhall.medium import _coherence_polynomials
from conftest import bare_state_coherence, steady_state_coherence

amplitude = st.floats(0.05, 5.0)
phase = st.floats(0.0, 2 * math.pi)
# down to the subnormals, where chi underflows
tiny = st.floats(-320.0, 0.0).map(lambda e: 10.0 ** e)
NO_PHASES = (0.0, 0.0, 0.0, 0.0)


class TestEffectiveCouplings:
    def test_lambda_setup(self):
        c = effective_couplings((0.5, 0.5, 0.7, 0.7), (math.pi, 0.0, 0.0, 0.0))
        assert abs(c.alpha) < 1e-15
        assert c.beta == pytest.approx(-0.7 / math.sqrt(0.98), abs=1e-12)
        assert abs(c.beta.imag) < 1e-15
        assert c.omega_total == pytest.approx(math.sqrt(0.98), abs=1e-12)

    def test_ntype_setup(self):
        c = effective_couplings((0.5, 0.5, 0.7, 0.7), NO_PHASES)
        assert abs(c.beta) < 1e-15
        assert c.alpha == pytest.approx(0.7 / math.sqrt(0.98), abs=1e-12)

    def test_ctl_setup(self):
        c = effective_couplings((1.5, 3.0, 2.5, 0.9), NO_PHASES)
        # direct evaluation: (1.5*2.5 + 3*0.9)/sqrt(6.25+0.81), (1.5*0.9 - 3*2.5)/same
        root = math.sqrt(6.25 + 0.81)
        assert c.alpha == pytest.approx(6.45 / root, rel=1e-12)
        assert c.beta == pytest.approx(-6.15 / root, rel=1e-12)
        assert c.alpha.real > 0 and c.beta.real < 0

    def test_degenerate_bright_state(self):
        with pytest.raises(DegenerateBrightState):
            effective_couplings((1.0, 0.0, 0.0, 0.0), NO_PHASES)

    def test_all_fields_off(self):
        c = effective_couplings((0, 0, 0, 0), NO_PHASES)
        assert c.alpha == 0 and c.beta == 0 and c.omega_total == 0

    def test_direct_construction_natural_lambda(self):
        # vanishing upper legs: caller supplies the couplings explicitly
        c = EffectiveCouplings(alpha=0.8 + 0j, beta=0j, omega_total=0.0)
        assert c.zeta == pytest.approx(0.64)
        m = MediumParams(1.0, 1.0, 0.1, c)
        assert coherence_ratio(0.0, m) == 0

    def test_natural_lambda_upper_branch_decouples(self):
        # with the upper link off, the second excited state must drop out:
        # the response reduces to the textbook two-ground-state lineshape
        # i*dp / (i*zeta + dp*(gamma_b/2 - i*dp)) and is gamma_e independent
        c = EffectiveCouplings(alpha=0.8 + 0j, beta=0j, omega_total=0.0)
        m = MediumParams(1.0, 1.0, 0.1, c)
        m_other_ge = MediumParams(1.0, 7.3, 0.1, c)
        dps = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(coherence_ratio(dps, m),
                                   coherence_ratio(dps, m_other_ge), rtol=1e-13)
        dp = 0.5
        textbook = 1j * dp / (1j * 0.64 + dp * (0.5 - 1j * dp))
        assert coherence_ratio(dp, m) == pytest.approx(textbook, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma_b", "gamma_e", "eta"])
    def test_medium_refuses_non_finite_fields(self, field, value):
        c = EffectiveCouplings(alpha=0.8 + 0j, beta=0j, omega_total=0.0)
        fields = dict(gamma_b=1.0, gamma_e=1.0, eta=0.1, couplings=c)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MediumParams(**fields)

    def test_phase_normalized(self):
        # field 1 enters alpha as conj(O1) O3 / Omega: -pi/2 is 3 pi/2
        a = (1.0, 0.0, 1.0, 0.0)
        alpha = effective_couplings(a, (-math.pi / 2, 0.0, 0.0, 0.0)).alpha
        assert alpha == pytest.approx(1j, abs=1e-15)
        assert alpha == pytest.approx(
            effective_couplings(a, (3 * math.pi / 2, 0.0, 0.0, 0.0)).alpha, abs=1e-15)

    def test_amplitude_validation(self):
        for amplitudes, phases in [
                ((1.5, -0.1, 2.5, 0.9), NO_PHASES),
                ((1.5, 3.0, math.nan, 0.9), NO_PHASES),
                ((math.inf, 3.0, 2.5, 0.9), NO_PHASES),
                ((1.5, 3.0, 2.5, 0.9), (0.0, math.nan, 0.0, 0.0)),
                ((1.5, 3.0, 2.5, 0.9), (0.0, 0.0, 0.0, -math.inf)),
                ((1.5, 3.0, 2.5), NO_PHASES),
                ((1.5, 3.0, 2.5, 0.9), (0.0, 0.0, 0.0, 0.0, 0.0)),
                ((10 ** 400, 1, 1, 1), (0, 0, 0, 0)),
                (("1", 1.0, 1.0, 1.0), NO_PHASES),
                ((1.5, 3.0, 2.5, 0.9), (0.0, None, 0.0, 0.0))]:
            with pytest.raises(ValueError, match="amplitude|phase"):
                effective_couplings(amplitudes, phases)

    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           k=st.tuples(*[st.integers(-2 ** 50, 2 ** 50)] * 4))
    def test_full_turn_gives_the_same_bits(self, a, k):
        # phases of |p| <= 1 on the float grid of [4, 8), where p + 2 pi is exact
        p = [n * 2.0 ** -50 for n in k]
        c0 = effective_couplings(a, p)
        c1 = effective_couplings(a, [q + 2 * math.pi for q in p])
        bits = lambda c: np.array([c.alpha, c.beta, c.omega_total]).tobytes()
        assert bits(c0) == bits(c1)

    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           p=st.tuples(phase, phase, phase, phase))
    def test_lagrange_identity_random_phases(self, a, p):
        c = effective_couplings(a, p)
        lhs = c.zeta * c.omega_total ** 2
        rhs = (a[0] ** 2 + a[1] ** 2) * (a[2] ** 2 + a[3] ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           p=st.tuples(phase, phase, phase, phase), offset=phase)
    def test_common_phase_offset_invariance(self, a, p, offset):
        c0 = effective_couplings(a, p)
        shifted = [(q + offset) % (2 * math.pi) for q in p]
        c1 = effective_couplings(a, shifted)
        assert abs(c0.alpha) == pytest.approx(abs(c1.alpha), rel=1e-9, abs=1e-12)
        assert abs(c0.beta) == pytest.approx(abs(c1.beta), rel=1e-9, abs=1e-12)

    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           p=st.tuples(phase, phase, phase, phase))
    def test_moduli_depend_only_on_loop_phase(self, a, p):
        loop = (p[0] - p[1]) - (p[2] - p[3])
        c0 = effective_couplings(a, p)
        c1 = effective_couplings(a, (loop % (2 * math.pi), 0.0, 0.0, 0.0))
        assert abs(c0.alpha) == pytest.approx(abs(c1.alpha), rel=1e-9, abs=1e-12)
        assert abs(c0.beta) == pytest.approx(abs(c1.beta), rel=1e-9, abs=1e-12)


class TestCoherenceRatio:
    def test_lambda_resonance_exact_zero(self, lambda_medium):
        assert coherence_ratio(0.0, lambda_medium) == 0

    def test_ntype_resonance_limit(self, ntype_medium):
        # analytic limit |Omega|^2 / ((ge/2)|alpha|^2 + (gb/2)|Omega|^2) = 0.98/0.74
        lim = coherence_ratio(0.0, ntype_medium)
        assert lim == pytest.approx(1j * 49 / 37, rel=1e-12)

    def test_ntype_limit_matches_nearby_evaluation(self, ntype_medium):
        lim = coherence_ratio(0.0, ntype_medium)
        for dp in (1e-6, -1e-6):
            near = coherence_ratio(dp, ntype_medium)
            assert abs(near - lim) < 1e-4 * abs(lim)

    @pytest.mark.parametrize("dp", [2.2250738585e-313, -1e-310, 5e-324])
    def test_subnormal_detuning_is_the_resonance(self, dp, ctl_medium,
                                                 lambda_medium, ntype_medium):
        for m in (ctl_medium, lambda_medium, ntype_medium):
            assert coherence_ratio(dp, m) == coherence_ratio(0.0, m)
        np.testing.assert_array_equal(
            coherence_ratio(np.array([dp, 0.0]), ntype_medium),
            coherence_ratio(0.0, ntype_medium))

    def test_far_detuned_decay(self, ctl_medium, lambda_medium, ntype_medium):
        for m in (ctl_medium, lambda_medium, ntype_medium):
            for dp in (1e3, -1e3):
                assert abs(coherence_ratio(dp, m)) < 2e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dp", [1e300, -1e150, [0.5, 1e300]])
    def test_overflowing_ratio_raises(self, dp, ctl_medium, lambda_medium,
                                      ntype_medium):
        # its terms overflow to a NaN ratio, which a table would flag as a
        # resonant stack; the error names the detuning, and nothing warns
        for m in (ctl_medium, lambda_medium, ntype_medium):
            with pytest.raises(SingularDenominator, match=r"not finite at delta_p=-?1e\+"):
                coherence_ratio(np.asarray(dp), m)
            with pytest.raises(SingularDenominator):
                susceptibility(np.asarray(dp), m)

    def test_two_level_limit(self):
        # no control fields at all: resonance value 2i/gamma_b
        m = MediumParams(1.0, 1.0, 0.1, EffectiveCouplings(0j, 0j, 0.0))
        assert coherence_ratio(0.0, m) == pytest.approx(2j, rel=1e-12)

    def test_vectorized_matches_scalar(self, ctl_medium):
        dps = np.array([-2.0, -0.5, 0.0, 0.3, 1.7])
        arr = coherence_ratio(dps, ctl_medium)
        for dp, value in zip(dps, arr):
            assert coherence_ratio(float(dp), ctl_medium) == value

    @settings(max_examples=60)
    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           loop=phase, dp=st.floats(-8.0, 8.0),
           gb=st.floats(0.2, 3.0), ge=st.floats(0.2, 3.0))
    def test_against_steady_state_solve(self, a, loop, dp, gb, ge):
        if abs(dp) < 1e-3:
            dp = 1e-3
        c = effective_couplings(a, (loop, 0.0, 0.0, 0.0))
        m = MediumParams(gb, ge, 0.1, c)
        closed = coherence_ratio(dp, m)
        solved = steady_state_coherence(dp, m)
        assert closed == pytest.approx(solved, rel=1e-9, abs=1e-12)

    @settings(max_examples=200)
    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           p=st.tuples(phase, phase, phase, phase), dp=st.floats(-6.0, 6.0),
           gb=st.floats(0.2, 3.0), ge=st.floats(0.2, 3.0))
    def test_reduction_against_bare_basis_solve(self, a, p, dp, gb, ge):
        # the four raw fields, not alpha/beta/omega_total, enter the solve;
        # at resonance it is singular when beta = 0 (a decoupled dark state)
        if abs(dp) < 1e-3:
            dp = 1e-3
        m = MediumParams(gb, ge, 0.1, effective_couplings(a, p))
        assert coherence_ratio(dp, m) == pytest.approx(
            bare_state_coherence(dp, a, p, gb, ge), rel=1e-12)

    @settings(max_examples=100)
    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude),
           p=st.tuples(phase, phase, phase, phase),
           gb=st.floats(0.2, 3.0), ge=st.floats(0.2, 3.0))
    def test_polynomials_reproduce_ratio(self, a, p, gb, ge):
        m = MediumParams(gb, ge, 0.1, effective_couplings(a, p))
        num, den = _coherence_polynomials(m)
        dps = np.random.default_rng(3).uniform(-8.0, 8.0, 64)
        np.testing.assert_allclose(np.polyval(num, dps) / np.polyval(den, dps),
                                   coherence_ratio(dps, m), rtol=1e-12)


class TestSusceptibility:
    def test_ctl_resonance_transparent(self, ctl_medium):
        assert abs(susceptibility(0.0, ctl_medium)) < 1e-14

    def test_lambda_resonance_transparent(self, lambda_medium):
        assert abs(susceptibility(0.0, lambda_medium)) < 1e-14

    def test_ntype_resonance_absorbing(self, ntype_medium):
        chi = susceptibility(0.0, ntype_medium)
        assert chi.real == 0
        assert chi.imag == pytest.approx(0.1 * 49 / 37, rel=1e-9)

    @settings(max_examples=40)
    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude), loop=phase)
    def test_resonance_transparency_whenever_dark_coupling_on(self, a, loop):
        c = effective_couplings(a, (loop, 0.0, 0.0, 0.0))
        if abs(c.beta) < 1e-6:
            return
        m = MediumParams(1.0, 1.0, 0.1, c)
        assert susceptibility(0.0, m) == 0

    def test_passivity_in_probed_band(self, ctl_medium, lambda_medium, ntype_medium):
        dps = np.linspace(-6, 6, 4001)
        for m in (ctl_medium, lambda_medium, ntype_medium):
            assert np.all(susceptibility(dps, m).imag >= -1e-12)

    def test_far_band_magnitude_decays_monotonically(self, ctl_medium, lambda_medium,
                                                     ntype_medium):
        dps = np.logspace(3, 6, 400)
        for m in (ctl_medium, lambda_medium, ntype_medium):
            for sign in (1, -1):
                mags = np.abs(susceptibility(sign * dps, m))
                assert np.all(np.diff(mags) < 0)

    @settings(max_examples=200)
    @given(a=st.tuples(amplitude, amplitude, amplitude, amplitude), loop=phase,
           eta=st.floats(0.0, 1.0) | tiny,
           detunings=st.lists(st.floats(-6.0, 6.0) | tiny | tiny.map(operator.neg),
                              min_size=1, max_size=20))
    @example(a=(1.5, 3.0, 2.5, 0.9), loop=0.0, eta=4.26e-169, detunings=[-2.77e-225])
    def test_scalar_bits_equal_array_bits(self, a, loop, eta, detunings):
        # the sign of a zero included: a table row and a pointwise query
        # at the same detuning write the same chi1, chi2 text
        c = effective_couplings(a, (loop, 0.0, 0.0, 0.0))
        m = MediumParams(1.0, 1.0, eta, c)
        row = susceptibility(np.array(detunings), m)
        points = np.array([susceptibility(dp, m) for dp in detunings])
        assert type(susceptibility(detunings[0], m)) is complex
        assert row.tobytes() == points.tobytes()

    @pytest.mark.parametrize("preset", ["ctl_medium", "lambda_medium", "ntype_medium"])
    def test_density_per_detuning_equals_pointwise_bits(self, preset, request):
        # a table chunk passes one density per detuning; -0.0 keeps the
        # signs of its own zeros
        m = request.getfixturevalue(preset)
        etas = np.array([0.0, -0.0, 0.15, 0.0, -0.0, 0.15])
        detunings = np.array([0.0, 0.0, 0.0, -0.4, 1e-320, 2.5])
        points = np.array([susceptibility(dp, replace(m, eta=eta))
                           for dp, eta in zip(detunings, etas)])
        assert susceptibility(detunings, m, etas).tobytes() == points.tobytes()

    def test_negative_density_per_detuning_rejected(self, ctl_medium):
        with pytest.raises(ValueError, match="eta must be >= 0"):
            susceptibility(np.array([0.1, 0.2]), ctl_medium, np.array([0.1, -1e-300]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dp", [0.0, [0.5, 0.0]])
    def test_overflowing_chi_raises(self, dp):
        # the ratio 2i/gamma_b = 2e300i at resonance is finite; eta times it is not
        m = MediumParams(1e-300, 1.0, 1e20, EffectiveCouplings(0j, 0j, 0.0))
        with pytest.raises(SingularDenominator, match=r"not finite at delta_p=0\.0"):
            susceptibility(dp if np.ndim(dp) == 0 else np.array(dp), m)

    def test_global_phase_leaves_susceptibility_unchanged(self):
        rng = np.random.default_rng(7)
        dps = np.linspace(-4, 4, 31)
        for _ in range(20):
            a = rng.uniform(0.1, 3.0, 4)
            p = rng.uniform(0, 2 * np.pi, 4)
            off = rng.uniform(0, 2 * np.pi)
            m0 = MediumParams(1, 1, 0.1, effective_couplings(a, p))
            m1 = MediumParams(1, 1, 0.1, effective_couplings(a, p + off))
            np.testing.assert_allclose(susceptibility(dps, m0),
                                       susceptibility(dps, m1), rtol=1e-9, atol=1e-15)


class TestPermittivity:
    def test_ntype_resonance(self, ntype_medium):
        # the stack takes eps2 = 1 + chi
        assert susceptibility(0.0, ntype_medium) == pytest.approx(0.1j * 49 / 37, rel=1e-9)
