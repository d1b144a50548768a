"""The expression forms of the stack, shift and table kernels, kept as
references for the workspace kernels that replaced them.

Each function allocates its temporaries as numpy expressions do, so it is
the arithmetic the workspace kernels must reproduce bit for bit: the same
ufuncs in the same operand order, numpy scalars for scalar inputs.
"""

from dataclasses import replace

import numpy as np

from spinhall.multilayer import RESONANT_DENOMINATOR_FLOOR
from spinhall.shifts import BREWSTER_FLOOR, _CANCELLATION
from spinhall.sweep import SweepTable, _chunks
from spinhall.medium import susceptibility


# ---- multilayer ----

def _kz(eps, k0, kx):
    z = np.sqrt(k0 ** 2 * eps - kx ** 2 + 0j)
    return np.where(np.imag(z) < 0, -z, z)


def _wave_vectors(theta_i, lam, stack):
    k0 = 2 * np.pi / lam
    kx = np.real(np.sqrt(stack.eps1)) * k0 * np.sin(theta_i)
    return k0, kx, tuple(_kz(stack.eps(i), k0, kx) for i in (1, 2, 3))


def _admittances(kz, stack):
    return tuple(k / stack.eps(i) for i, k in enumerate(kz, 1)), kz


def _interface(qi, qj):
    return (qi - qj) / (qi + qj)


def _composite(a, b, phase):
    den = 1 + a * b * phase
    return (a + b * phase) / den, den


def amplitudes(theta_i, lam, stack):
    """``multilayer._amplitudes``: (rp, rs, min |denominator|)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, _, kz = _wave_vectors(theta_i, lam, stack)
        phase = np.exp(2j * kz[1] * stack.thickness_d)
        (rp, den_p), (rs, den_s) = (
            _composite(_interface(q1, q2), _interface(q2, q3), phase)
            for q1, q2, q3 in _admittances(kz, stack))
    return rp, rs, np.minimum(np.abs(den_p), np.abs(den_s))


def reflection_derivative(theta_i, lam, stack):
    """``multilayer.stack_reflection_derivative``: (drp, drs)."""
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k0, kx, kz = _wave_vectors(theta_i, lam, stack)
        dkx = np.real(np.sqrt(stack.eps1)) * k0 * np.cos(theta_i)
        dkz = tuple(-kx * dkx / k for k in kz)
        phase = np.exp(2j * kz[1] * stack.thickness_d)
        dphase = 2j * stack.thickness_d * dkz[1] * phase
        for (q1, q2, q3), (dq1, dq2, dq3) in zip(_admittances(kz, stack),
                                                _admittances(dkz, stack)):
            t, n, s, m = q1 + q2, q1 - q2, q2 + q3, q2 - q3
            u, w = dq1 * q2 - q1 * dq2, dq2 * q3 - q2 * dq3
            out.append((2 * u * (s * s - (m * phase) ** 2)
                        + 4 * q1 * q2 * (2 * w * phase + m * s * dphase))
                       / (s * t + n * m * phase) ** 2)
    return out[0], out[1]


# ---- shifts ----

def _centroid(cot, x, den, scale, beam):
    k1w2 = beam.k1 * beam.w0 ** 2
    delta_plus = -k1w2 * np.real(x) * cot / den
    theta_minus = k1w2 * np.imag(x) * cot / den / beam.rayleigh
    normal = np.isinf(cot) | np.isinf(den) | (np.abs(x) <= _CANCELLATION * scale)
    return np.where(normal, 0.0, delta_plus), np.where(normal, 0.0, theta_minus)


def shift_kernel(theta_i, rp, rs, drp, beam):
    """``shifts.shift_kernel``, both orders: (delta_plus, theta_minus)."""
    rp = np.asarray(rp, dtype=complex)
    abs_rp = np.abs(rp)
    ok = abs_rp >= BREWSTER_FLOOR
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        one_plus = 1 + np.asarray(rs, dtype=complex) / np.where(ok, rp, 1.0)
        cot = np.cos(theta_i) / np.sin(theta_i)
        den = beam.k1 * (beam.k1 * beam.w0 ** 2) + np.abs(one_plus * cot) ** 2
        if drp is not None:
            den = den + (np.abs(drp) / abs_rp) ** 2
        delta_plus, theta_minus = (np.where(ok, s, np.nan) for s in
                                   _centroid(cot, one_plus, den, 1.0, beam))
        if drp is None:
            return delta_plus, theta_minus
        cleared = np.broadcast_to(~ok, delta_plus.shape)
        if cleared.any():
            rp_, rs_, drp_, cot_ = (np.broadcast_to(a, cleared.shape)[cleared]
                                    for a in (rp, rs, drp, cot))
            both = rp_ + rs_
            den_ = ((beam.k1 * beam.w0) ** 2 * np.abs(rp_) ** 2
                    + np.abs(drp_) ** 2 + np.abs(cot_ * both) ** 2)
            delta_plus[cleared], theta_minus[cleared] = _centroid(
                cot_, np.conj(rp_) * both, den_, np.abs(rp_) ** 2, beam)
    return delta_plus, theta_minus


# ---- sweep ----

def fill_block(table, start, thetas_deg, detunings, etas, medium, stack, beam):
    """``sweep._fill_block``: one chunk's blocks and rows, through
    ``np.where`` copies of the columns."""
    thetas_rad = np.radians(thetas_deg)
    chi = susceptibility(detunings, medium, etas)
    rp, rs, dmin = amplitudes(thetas_rad, beam.lam,
                              replace(stack, eps2=1.0 + chi[:, None]))
    abs_rp, abs_rs = np.abs(rp), np.abs(rs)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta_plus, theta_minus = shift_kernel(thetas_rad, rp, rs, None, beam)
        ratio = abs_rs / abs_rp
    resonant = ((dmin < RESONANT_DENOMINATOR_FLOOR)
                | ~np.isfinite(rp) | ~np.isfinite(rs))
    bad = resonant | (abs_rp < BREWSTER_FLOOR)
    blocks = slice(start // rp.shape[1], start // rp.shape[1] + len(detunings))
    for i, value in enumerate((detunings, etas, chi.real, chi.imag)):
        table.blocks[i, blocks] = value
    rows = slice(start, start + rp.size)
    for i, value in enumerate((abs_rp, abs_rs, np.where(bad, np.nan, ratio),
                               np.where(bad, np.nan, delta_plus / beam.lam),
                               np.where(bad, np.nan, theta_minus))):
        table.points[i, rows] = value.reshape(-1)
    table.codes[rows] = np.where(resonant, 1, 2 * bad).reshape(-1)


def evaluate(medium, etas, detunings, thetas_deg, stack, beam):
    """``sweep.evaluate`` over the same chunks, filled by ``fill_block``."""
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    thetas_deg = np.asarray(thetas_deg, dtype=float)
    per_detuning = thetas_deg.ndim == 2
    row = thetas_deg.shape[-1]
    etas = np.array([medium.eta] if etas is None else etas, dtype=float)
    n = len(detunings)
    table = SweepTable.empty(len(etas) * n * row, thetas_deg)
    for chunk, _ in _chunks(len(etas) * n, row):
        blocks = np.arange(chunk.start, chunk.stop)
        fill_block(table, chunk.start * row,
                   thetas_deg[blocks % n] if per_detuning else thetas_deg,
                   detunings[blocks % n], etas[blocks // n], medium, stack, beam)
    return table
