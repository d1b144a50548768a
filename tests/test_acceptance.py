"""Acceptance suite: one numbered check per criterion, each printing a
pass/fail line with the computed values.

Two sub-clauses are implemented exactly as stated but are expected to
fail against this implementation; they are marked strict-xfail so a
physics change that starts satisfying them is flagged.  The analysis
lives in the project notes: the closed-form shift evaluated at the
located low-absorption window gives ~24.6 wavelengths rather than the
quoted 20, and the angular maximum versus detuning rolls over near
0.13 gamma, so it cannot be increasing through 0.2 gamma.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from spinhall import (BeamParams, LayerStack, MediumParams,
                      ScanContext, effective_couplings, evaluate, extremal_angles,
                      find_brewster, find_transparency_windows,
                      reflection_coefficients, shift_kernel, susceptibility)
from beam_quadrature import quadrature_shift
from conftest import medium_from, tabulated_sign_flip

LAM = 780e-9
W0 = 50 * LAM


def report(cid: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE {cid}] {'PASS' if ok else 'FAIL'}: {detail}",
          file=sys.__stdout__)
    return ok


def context(medium, delta_p=0.0):
    return ScanContext(medium, LayerStack(eps2=1.0 + 0j),
                       BeamParams(w0=W0, lam=LAM), delta_p=delta_p)


def refined_extremum(ctx, mode, window=(33.0, 34.4), coarse=4001):
    """Signed extremum of delta_plus (in lambda units) over theta."""
    grid = np.radians(np.linspace(*window, coarse))
    vals = ctx.delta_plus(grid)
    sign = 1.0 if mode == "max" else -1.0
    i = int(np.nanargmax(sign * vals))
    from spinhall.sweep import _golden_minimize
    f = lambda t: -sign * ctx.delta_plus(t)
    t = _golden_minimize(lambda t, rows: f(t), grid[max(i - 1, 0)],
                         grid[min(i + 1, coarse - 1)], np.radians(1e-5))
    return -sign * float(f(t[0])) / LAM


def test_criterion_1_resonant_transparency(ctl_medium, lambda_medium):
    chi_ctl = abs(susceptibility(0.0, ctl_medium))
    chi_lam = abs(susceptibility(0.0, lambda_medium))
    ok = chi_ctl < 1e-14 and chi_lam < 1e-14
    assert report("1", ok, f"|chi(0)| ctl={chi_ctl:.2e}, lambda={chi_lam:.2e} "
                           "(tolerance 1e-14)")


def test_criterion_2_peak_shift_bound(ctl_medium):
    ctx = context(ctl_medium)
    peak_pos = refined_extremum(ctx, "max")
    peak_neg = refined_extremum(ctx, "min")
    ok_peaks = abs(peak_pos - 25.0) <= 0.5 and abs(peak_neg + 25.0) <= 0.5
    rng = np.random.default_rng(42)
    n = 100_000
    rp = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    rp = np.where(np.abs(rp) < 1e-6, 1e-6, rp)
    rs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    theta = rng.uniform(0.01, math.pi / 2 - 0.01, n)
    beam = BeamParams(w0=W0, lam=LAM)
    delta, _ = shift_kernel(theta, rp, rs, None, beam)
    ok_bound = bool(np.all(np.abs(delta) <= W0 / 2 * (1 + 1e-12)))
    ok = ok_peaks and ok_bound
    assert report("2", ok, f"peaks {peak_pos:+.3f}/{peak_neg:+.3f} lambda "
                           f"(target +-25 within 2%), half-waist bound on "
                           f"{n} random inputs: {ok_bound}")


def test_criterion_3_brewster_and_sign_flip(ctl_medium):
    ctx = context(ctl_medium)
    theta_b = find_brewster((30.0, 38.0), ctx)
    thetas = np.linspace(33.0, 34.4, 281)
    flip = tabulated_sign_flip(thetas, ctx.delta_plus(np.radians(thetas)))
    single = LayerStack(eps2=1.0 + 0j, eps3=1.0 + 0j, thickness_d=0.0)
    theta_single = find_brewster(
        (30.0, 38.0), replace(ctx, stack=single))
    analytic = math.degrees(math.atan(1 / 1.5))
    ok = (abs(theta_b - 33.7) <= 0.1 and abs(flip - 33.7) <= 0.1
          and abs(theta_single - analytic) <= 1e-3)
    assert report("3", ok, f"brewster={theta_b:.4f}, flip={flip:.4f} "
                           f"(33.7 +- 0.1), single-interface={theta_single:.5f} "
                           f"vs arctan(1/1.5)={analytic:.5f} (+-1e-3)")


def test_criterion_4_transparency_windows(ctl_medium, lambda_medium, ntype_medium):
    ctl = find_transparency_windows(ctl_medium, (-6.0, 6.0))
    lam = find_transparency_windows(lambda_medium, (-6.0, 6.0))
    ntype = find_transparency_windows(ntype_medium, (-6.0, 6.0))
    ok = (len(ctl) == 3
          and abs(ctl[0] + 2.6) <= 0.1 and abs(ctl[1]) <= 0.05
          and abs(ctl[2] - 2.6) <= 0.1
          and len(lam) == 1 and abs(lam[0]) <= 0.05
          and len(ntype) == 2 and abs(ntype[0] + 1.0) <= 0.2
          and abs(ntype[1] - 1.0) <= 0.2)
    assert report("4", ok, f"ctl={[round(float(w), 4) for w in ctl]} "
                           f"(+-2.6 +- 0.1), "
                           f"lambda={[round(float(w), 4) for w in lam]}, "
                           f"ntype={[round(float(w), 4) for w in ntype]} "
                           "(+-1 +- 0.2)")


def test_criterion_5_density_dependence(ctl_medium, lambda_medium, ntype_medium):
    etas = (0.01, 0.05, 0.1, 0.2)
    ctx = context(ntype_medium)
    n_vals = evaluate(ctx.medium, etas, [ctx.delta_p], [33.6], ctx.stack,
                      ctx.beam).delta_plus_lambda
    ok_n = bool(np.all(np.diff(n_vals) < 0)) and n_vals[1] > n_vals[2]
    flat = []
    for medium in (lambda_medium, ctl_medium):
        ctx = context(medium)
        vals = evaluate(ctx.medium, etas, [ctx.delta_p], [33.6], ctx.stack,
                        ctx.beam).delta_plus_lambda
        flat.append(bool(np.all(np.abs(vals - vals[0]) <= 1e-6 * abs(vals[0]))))
    ok = ok_n and all(flat)
    assert report("5", ok, f"ntype delta(eta)={np.round(n_vals, 3)} strictly "
                           f"decreasing: {ok_n}; lambda/ctl flat to 1e-6: {flat}")


def test_criterion_6_control_field_orderings():
    lower = []
    for a in (0.25, 0.5, 0.75):
        m = medium_from((a, a, 0.7, 0.7), eta=0.01)
        v = extremal_angles("spatial", [0.0], context(m))[1]
        lower.append(v[0])
    upper = []
    for a in (0.4, 0.7, 1.0):
        m = medium_from((0.5, 0.5, a, a), eta=0.01)
        v = extremal_angles("spatial", [0.0], context(m))[1]
        upper.append(v[0])
    ok = lower[0] < lower[1] < lower[2] and upper[0] > upper[1] > upper[2]
    assert report("6", ok, f"peak delta vs lower legs {np.round(lower, 2)} "
                           f"increasing; vs upper legs {np.round(upper, 2)} "
                           "decreasing (lambda units)")


@pytest.mark.xfail(strict=True, reason=(
    "closed-form evaluation gives ~24.6 lambda at detuning +-2.6, not 20 "
    "+-10%; the 20-lambda reading is not reproducible from the model "
    "(the same pipeline does match the quoted <=10 lambda at eta=0.1)"))
def test_criterion_7a_low_density_window_shift():
    m = medium_from((1.5, 3.0, 2.5, 0.9), eta=0.01)
    vals = extremal_angles("spatial", [-2.6, 2.6], context(m))[1]
    ok = bool(np.all((18.0 <= vals) & (vals <= 22.0)))
    assert report("7a", ok, f"max|delta| at detuning -2.6/+2.6 = "
                            f"{vals[0]:.2f}/{vals[1]:.2f} lambda "
                            "(target 20 +- 10%)")


def test_criterion_7_detuning_asymmetry(ctl_medium, ntype_medium):
    high_eta = extremal_angles("spatial", [-2.6, 2.6], context(ctl_medium))[1]
    ntype = replace(ntype_medium, eta=0.01)
    n_vals = extremal_angles("spatial", [-1.0, 0.0, 1.0], context(ntype))[1]
    ok_n = n_vals[0] > n_vals[1] and n_vals[2] > n_vals[1]
    # corroboration at eta=0.1: the window shift stays at or below ~10 lambda
    ok_high = bool(np.all(high_eta <= 11.0))
    ok = ok_n and ok_high
    assert report("7", ok, f"ntype max|delta| at -1/0/+1 gamma = "
                           f"{np.round(n_vals, 2)} (edges above center: {ok_n}); "
                           f"ctl eta=0.1 window shift {np.round(high_eta, 2)} "
                           "<= ~10 lambda")


def test_criterion_8_angular_positive_window_and_ratio(lambda_medium, ntype_medium):
    ctx_lam = context(lambda_medium, delta_p=0.1)
    theta_b = find_brewster((32.0, 36.0), ctx_lam)
    window = np.radians(np.linspace(theta_b - 0.5, theta_b + 0.5, 2001))
    tilt = ctx_lam.theta_minus(window)
    ok_pos = bool(np.all(tilt > 0))
    lam_max = extremal_angles("angular", [0.1], ctx_lam)[1]
    n_max = extremal_angles("angular", [0.1], context(ntype_medium))[1]
    ratio = lam_max[0] / n_max[0]
    ok = ok_pos and ratio >= 10.0
    assert report("8", ok, f"lambda tilt positive across brewster+-0.5deg "
                           f"(min {tilt.min():.2e}): {ok_pos}; lambda/ntype "
                           f"max-tilt ratio at matched detuning 0.1, eta 0.1: "
                           f"{ratio:.1f} (>=10)")


@pytest.mark.xfail(strict=True, reason=(
    "the per-detuning angular maximum peaks near 0.13 gamma and falls by "
    "0.2 gamma, so it cannot be increasing across {0.05, 0.1, 0.2}; the "
    "growth statement holds on [0, ~0.12] gamma only"))
def test_criterion_8b_angular_growth_with_detuning(lambda_medium):
    ctx = context(lambda_medium)
    vals = extremal_angles("angular", [0.05, 0.1, 0.2], ctx)[1]
    ok = vals[0] < vals[1] < vals[2]
    assert report("8b", ok, f"max tilt at 0.05/0.1/0.2 gamma = "
                            f"{vals[0]:.3e}/{vals[1]:.3e}/{vals[2]:.3e} "
                            "(required increasing)")


def test_criterion_9_oracle_equivalence(ctl_medium):
    beam = BeamParams(w0=W0, lam=LAM)
    candidates = [(t, d) for t in (20.0, 24.0, 28.0, 30.0, 32.0, 36.0, 40.0, 44.0)
                  for d in (0.0, 0.7, -1.3, 2.6, 4.0)]
    checked = 0
    worst = 0.0
    worst_mirror = 0.0
    for theta_deg, dp in candidates:
        if checked >= 20:
            break
        stack = LayerStack(eps2=1 + susceptibility(dp, ctl_medium))
        theta = math.radians(theta_deg)
        rp, rs = reflection_coefficients(theta, LAM, stack)
        if abs(rp) < 0.05 * abs(rs):
            continue
        closed = float(shift_kernel(theta, rp, rs, None, beam)[0])
        quad_plus, quad_minus = quadrature_shift(theta, stack, beam)
        worst = max(worst, abs(quad_plus - closed) / abs(closed))
        worst_mirror = max(worst_mirror,
                           abs(quad_plus + quad_minus) / abs(quad_plus))
        checked += 1
    ok = checked >= 20 and worst < 0.05 and worst_mirror < 1e-9
    assert report("9", ok, f"{checked} points: worst closed-vs-quadrature "
                           f"rel diff {worst:.2%} (<5%), worst mirror "
                           f"asymmetry {worst_mirror:.1e} (<1e-9)")


def test_criterion_10_structural_invariants():
    rng = np.random.default_rng(1234)
    n = 10_000
    a = rng.uniform(0.05, 5.0, (n, 4))
    p = rng.uniform(0.0, 2 * np.pi, (n, 4))
    o = a * np.exp(1j * p)
    omega = np.hypot(a[:, 2], a[:, 3])
    alpha = (np.conj(o[:, 0]) * o[:, 2] + np.conj(o[:, 1]) * o[:, 3]) / omega
    beta = (np.conj(o[:, 0]) * np.conj(o[:, 3])
            - np.conj(o[:, 1]) * np.conj(o[:, 2])) / omega
    lhs = (np.abs(alpha) ** 2 + np.abs(beta) ** 2) * omega ** 2
    rhs = (a[:, 0] ** 2 + a[:, 1] ** 2) * (a[:, 2] ** 2 + a[:, 3] ** 2)
    lagrange_worst = float(np.max(np.abs(lhs - rhs) / rhs))
    # spot-check the identity through the public constructor as well
    for i in range(0, n, 997):
        c = effective_couplings(a[i], p[i])
        assert c.zeta * c.omega_total ** 2 == pytest.approx(rhs[i], rel=1e-12)
    thetas = np.radians(np.linspace(0.1, 89.9, 1000))
    bound_ok = True
    for eps2 in (1.0, 1.44, 2.25, 3.0):
        rp, rs = reflection_coefficients(thetas, LAM, LayerStack(eps2=complex(eps2)))
        bound_ok &= bool(np.all(np.abs(rp) <= 1 + 1e-12)
                         and np.all(np.abs(rs) <= 1 + 1e-12))
    dps = np.linspace(-5, 5, 41)
    phase_ok = True
    for i in range(0, n, 499):
        m0 = MediumParams(1, 1, 0.1, effective_couplings(a[i], p[i]))
        m1 = MediumParams(1, 1, 0.1, effective_couplings(a[i], p[i] + 1.234))
        phase_ok &= bool(np.allclose(susceptibility(dps, m0),
                                     susceptibility(dps, m1),
                                     rtol=1e-9, atol=1e-15))
    ok = lagrange_worst < 1e-12 and bound_ok and phase_ok
    assert report("10", ok, f"lagrange identity worst rel err {lagrange_worst:.1e} "
                            f"on {n} random sets (<1e-12); lossless |r|<=1: "
                            f"{bound_ok}; global-phase invariance of chi: {phase_ok}")
