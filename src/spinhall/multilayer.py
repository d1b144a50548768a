"""Fresnel reflection of the three-layer glass / atomic-vapor / glass stack.

Layer 1 is the upper glass window the probe arrives through, layer 2 the
intracavity medium of thickness ``d``, layer 3 the lower window.  With
the normal admittances q = kz/eps (TM) or kz (TE), Im(kz) >= 0 so that
evanescent and absorbed waves decay into the stack,

    r_ij = (q_i - q_j) / (q_i + q_j),   r = (r12 + r23 P) / (1 + r12 r23 P)

with P = exp(2i k2z d).  Angular derivatives are this algebra's chain
rule (dkx/dtheta = sqrt(eps1) k0 cos(theta), dkz/dtheta = -kx kx'/kz):
closed form, no step size.

The public API is two functions of a scalar or an array of angles:
``reflection_coefficients`` gives (rp, rs) and raises ResonantDenominator
where the stack is singular; ``stack_reflection_derivative`` gives their
angular derivatives.  Tables call the unchecked core ``_amplitudes`` and
flag singular points instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantDenominator

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


def _kz(eps, k0, kx):
    """Normal wave-vector component on the decaying branch Im >= 0."""
    z = np.sqrt(k0 ** 2 * eps - kx ** 2 + 0j)
    return np.where(np.imag(z) < 0, -z, z)


def _wave_vectors(theta_i, lam, stack):
    """k0, kx and the normal components (k1z, k2z, k3z) at theta_i."""
    k0 = 2 * np.pi / lam
    kx = np.real(np.sqrt(stack.eps1)) * k0 * np.sin(theta_i)
    return k0, kx, tuple(_kz(stack.eps(i), k0, kx) for i in (1, 2, 3))


def _admittances(kz, stack):
    """(TM, TE) admittances kz/eps and kz of the layers; linear, so dkz maps alike."""
    return tuple(k / stack.eps(i) for i, k in enumerate(kz, 1)), kz


def _interface(qi, qj):
    """Single-interface coefficient of the i -> j interface."""
    return (qi - qj) / (qi + qj)


def _composite(a, b, phase):
    """Stack coefficient from the interface coefficients, and its denominator."""
    den = 1 + a * b * phase
    return (a + b * phase) / den, den


def reflection_coefficients(theta_i, lam: float, stack: LayerStack):
    """Composite (rp, rs) of the three-layer stack.

    ``theta_i`` may be a scalar or an ndarray of angles in radians; the
    return values match its shape.  Raises ResonantDenominator when a
    composite denominator falls below the numeric floor or a coefficient
    is not finite (an overflowing interface coefficient, or a NaN
    denominator), the rule tables flag by.
    """
    rp, rs, dmin = _amplitudes(theta_i, lam, stack)
    if (np.any(dmin < RESONANT_DENOMINATOR_FLOOR)
            or not (np.all(np.isfinite(rp)) and np.all(np.isfinite(rs)))):
        raise ResonantDenominator("stack denominator below floor "
                                  f"{RESONANT_DENOMINATOR_FLOOR} or not finite")
    return rp, rs


def _amplitudes(theta_i, lam, stack):
    """Vectorized core: (rp, rs, min |denominator|) without error checks."""
    _, _, kz = _wave_vectors(theta_i, lam, stack)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phase = np.exp(2j * kz[1] * stack.thickness_d)
        (rp, den_p), (rs, den_s) = (
            _composite(_interface(q1, q2), _interface(q2, q3), phase)
            for q1, q2, q3 in _admittances(kz, stack))
    return rp, rs, np.minimum(np.abs(den_p), np.abs(den_s))


def stack_reflection_derivative(theta_i, lam: float, stack: LayerStack):
    """d(rp)/dtheta and d(rs)/dtheta in closed form, shaped like theta_i:
    the chain rule through r with r12 = n/t, r23 = m/s (t, n = q1 +- q2;
    s, m = q2 +- q3) and the denominators cleared, so it stays finite
    where r23 alone overflows,

        dr = [2u (s^2 - m^2 P^2) + 4 q1 q2 (2w P + m s P')] / (s t + n m P)^2,

    u = q1' q2 - q1 q2', w = q2' q3 - q2 q3', P' = 2i d k2z' P; infinite
    where some kz vanishes (a critical angle).
    """
    k0, kx, kz = _wave_vectors(theta_i, lam, stack)
    dkx = np.real(np.sqrt(stack.eps1)) * k0 * np.cos(theta_i)
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
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
