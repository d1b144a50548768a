"""Fresnel reflection of the three-layer glass / atomic-vapor / glass stack.

Layer 1 is the upper glass window the probe arrives through, layer 2 the
intracavity medium of thickness ``d``, layer 3 the lower window.  With
the normal admittances q = kz/eps (TM) or kz (TE), Im(kz) >= 0 so that
evanescent and absorbed waves decay into the stack,

    r_ij = (q_i - q_j) / (q_i + q_j),   r = (r12 + r23 P) / (1 + r12 r23 P)

with P = exp(2i k2z d).  Angular derivatives are this algebra's chain
rule (dkx/dtheta = sqrt(eps1) k0 cos(theta), dkz/dtheta = -kx kx'/kz):
closed form, no step size.

The public API is two functions of a scalar, evaluated as its one-element
row, or an array of angles: ``reflection_coefficients`` gives (rp, rs) and
raises ResonantDenominator where the stack is singular;
``stack_reflection_derivative`` gives their angular derivatives.  The
evaluator of ``spinhall.sweep`` calls the unchecked core ``_amplitudes``,
and tables flag singular points instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantDenominator
from .workspace import Workspace

__all__ = [
    "LayerStack",
    "reflection_coefficients",
    "stack_reflection_derivative",
]

RESONANT_DENOMINATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class LayerStack:
    """Permittivities of the three layers and the inner thickness in meters.

    ``thickness_d = 0`` is allowed and collapses the stack to the single
    1->3 interface.
    """

    eps2: complex
    eps1: complex = 2.25 + 0j
    eps3: complex = 2.25 + 0j
    thickness_d: float = 0.4e-6

    def __post_init__(self):
        if self.thickness_d < 0:
            raise ValueError("thickness_d must be >= 0")
        if np.real(self.eps1) <= 0 or np.real(self.eps3) <= 0:
            raise ValueError("Re(eps1) and Re(eps3) must be > 0")

    def eps(self, layer: int) -> complex:
        return (self.eps1, self.eps2, self.eps3)[layer - 1]


def _kz(eps, k0, kx, work=None):
    """Normal wave-vector component on the decaying branch Im >= 0, taken
    from ``work``."""
    work = Workspace() if work is None else work
    z = work.like(eps, kx, dtype=complex)
    with work.scratch():
        kx2 = np.square(kx, out=work.like(kx))
        if z is not None and isinstance(eps, np.ndarray):
            # into the block, numpy would buffer both operands (256 KB for a
            # table chunk), so kx^2 is cast to complex on z's shape first
            kx2 = np.positive(kx2, out=work.take(z.shape, complex))
        # (c + 0j) - kx^2 has the bits of c - kx^2 + 0j: either turns only
        # a -0.0 part into +0.0, and the constant is one value per row
        z = np.subtract(k0 ** 2 * eps + 0j, kx2, out=z)
    z = np.sqrt(z, out=z)
    return np.negative(z, out=z, where=z.imag < 0)


def _wave_vectors(theta_i, lam, stack, work=None):
    """k0, kx and the normal components (k1z, k2z, k3z) at theta_i; kx and
    the kz are taken from ``work``."""
    work = Workspace() if work is None else work
    k0 = 2 * np.pi / lam
    kx = np.sin(theta_i, out=work.like(theta_i))
    kx = np.multiply(np.real(np.sqrt(stack.eps1)) * k0, kx, out=kx)
    return k0, kx, tuple(_kz(stack.eps(i), k0, kx, work) for i in (1, 2, 3))


def _admittances(kz, stack):
    """(TM, TE) admittances kz/eps and kz of the layers; linear, so dkz maps alike."""
    return tuple(k / stack.eps(i) for i, k in enumerate(kz, 1)), kz


def _composite(q1, q2, q3, phase, r, work):
    """The stack coefficient r = (r12 + r23 P) / (1 + r12 r23 P), with the
    interface coefficients r_ij = (q_i - q_j) / (q_i + q_j), written into
    ``r``, and its denominator, taken from ``work``."""
    x = np.subtract(q1, q2, out=work.take(phase.shape, complex))
    den = np.add(q1, q2, out=work.take(phase.shape, complex))
    r = np.divide(x, den, out=r)  # r12 until the numerator is formed
    y = np.divide(np.subtract(q2, q3, out=x), np.add(q2, q3, out=den),
                  out=work.take(phase.shape, complex))
    den = np.add(1, np.multiply(np.multiply(r, y, out=x), phase, out=den), out=den)
    y = np.add(r, np.multiply(y, phase, out=x), out=y)
    return np.divide(y, den, out=r), den


def reflection_coefficients(theta_i, lam: float, stack: LayerStack):
    """Composite (rp, rs) of the three-layer stack.

    ``theta_i`` may be a scalar or an ndarray of angles in radians; the
    return values match its shape.  Raises ResonantDenominator when a
    composite denominator falls below the numeric floor or a coefficient
    is not finite (an overflowing interface coefficient, or a NaN
    denominator), the rule tables flag by.
    """
    rp, rs, dmin = _amplitudes(theta_i, lam, stack)
    _raise_if_resonant(rp, rs, dmin)
    return rp, rs


def _raise_if_resonant(rp, rs, dmin):
    """ResonantDenominator where a table would flag a point resonant."""
    if np.any(_resonant(*np.atleast_1d(rp, rs, dmin))):
        raise ResonantDenominator("stack denominator below floor "
                                  f"{RESONANT_DENOMINATOR_FLOOR} or not finite")


def _resonant(rp, rs, dmin, work=None):
    """Mask, taken from ``work``, of the points a table flags resonant: a
    denominator below RESONANT_DENOMINATOR_FLOOR, or rp or rs not finite."""
    work = Workspace() if work is None else work
    resonant = np.less(dmin, RESONANT_DENOMINATOR_FLOOR, out=work.like(dmin, dtype=bool))
    finite = work.like(dmin, dtype=bool)
    for r in (rp, rs):
        finite = np.isfinite(r, out=finite)
        resonant |= np.logical_not(finite, out=finite)
    return resonant


def _amplitudes(theta_i, lam, stack, work=None):
    """Vectorized core: (rp, rs, min |denominator|) without error checks
    or warnings; a value that overflows comes out non-finite.

    The results and every intermediate are taken from ``work``, the
    workspace of the caller's chunk loop, so the results hold until that
    caller hands the arrays out again; with ``work = None`` numpy allocates
    them.  Scalar theta_i and eps2 give numpy scalars, their row's bits."""
    work = Workspace() if work is None else work
    scalar = np.ndim(theta_i) == np.ndim(stack.eps2) == 0
    theta_i = np.atleast_1d(theta_i)  # a scalar angle is evaluated as a row
    shape = np.broadcast(theta_i, stack.eps2).shape
    rp, rs, dmin = work.take(shape, complex), work.take(shape, complex), work.take(shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"), work.scratch():
        _, _, kz = _wave_vectors(theta_i, lam, stack, work)
        phase = work.take(shape, complex)
        with work.scratch():
            phase = np.multiply(np.multiply(2j, kz[1], out=work.take(shape, complex)),
                                stack.thickness_d, out=phase)
        phase = np.exp(phase, out=phase)
        den_s = work.take(shape)
        with work.scratch():  # TE: the admittances are the kz
            rs, den = _composite(*kz, phase, rs, work)
            den_s = np.abs(den, out=den_s)
        tm = [np.divide(k, stack.eps(i), out=work.take(k.shape, complex))
              for i, k in enumerate(kz, 1)]
        rp, den = _composite(*tm, phase, rp, work)
        dmin = np.minimum(np.abs(den, out=work.take(shape)), den_s, out=dmin)
    return (rp[0], rs[0], dmin[0]) if scalar else (rp, rs, dmin)


def stack_reflection_derivative(theta_i, lam: float, stack: LayerStack):
    """d(rp)/dtheta and d(rs)/dtheta in closed form, shaped like theta_i:
    the chain rule through r with r12 = n/t, r23 = m/s (t, n = q1 +- q2;
    s, m = q2 +- q3) and the denominators cleared, so it stays finite
    where r23 alone overflows,

        dr = [2u (s^2 - m^2 P^2) + 4 q1 q2 (2w P + m s P')] / (s t + n m P)^2,

    u = q1' q2 - q1 q2', w = q2' q3 - q2 q3', P' = 2i d k2z' P; infinite
    where some kz vanishes (a critical angle), and non-finite, without a
    warning, where a term overflows.  Scalars give their row's bits.
    """
    scalar = np.ndim(theta_i) == np.ndim(stack.eps2) == 0
    theta_i = np.atleast_1d(theta_i)  # a scalar angle is evaluated as a row
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
    return (out[0][0], out[1][0]) if scalar else (out[0], out[1])
