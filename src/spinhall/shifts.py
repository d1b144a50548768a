"""Spin-dependent spatial and angular displacements of the reflected beam.

For a horizontally polarized Gaussian probe the two circular components
separate transversally on reflection.  ``shift_kernel`` is the one
pointwise shift: from the stack coefficients (rp, rs), scalars or arrays
alike, it gives the closed-form displacement

    delta+- = -+ k1 w0^2 Re[1 + rs/rp] cot(theta)
              / (k1^2 w0^2 + |(1 + rs/rp) cot(theta)|^2)

and the matching angular (momentum-space) tilt carries Im[1 + rs/rp]
and an extra 1/rayleigh_range.  The in-plane angular-spread term
|d ln rp / dtheta|^2 is intentionally left out of this denominator: at
a true zero of rp it diverges and would cap the lossless-cavity peak
well below the half-waist bound w0/2 that the resonant cavity in fact
attains.  The oracle below keeps the full first-order field, spread
term included, so the truncation is measured rather than hidden.

The oracle takes the reflected field at the beam waist,

    E+- ~ exp(-(x^2+y^2)/w0^2) [rp - 2i x rp' / (k1 w0^2)
                                 -+ 2 y cot(theta) (rp + rs) / (k1 w0^2)],

whose intensity is a Gaussian times a quadratic in (x, y).  Its
centroid over the whole plane is therefore an exact Gaussian moment,

    delta+- = -+ (1/k1) cot(theta) Re[rp* (rp + rs)]
              / (|rp|^2 + (|rp'|^2 + cot(theta)^2 |rp + rs|^2) / (k1 w0)^2),

the closed form with the spread term |rp'|^2 put back and multiplied
through by |rp|^2, so it stays finite where rp vanishes.  ``moment_kernel``
evaluates it from (rp, rs, rp') as ``shift_kernel`` does the closed form;
the test suite checks it against a 2-D Gauss-Legendre quadrature of the
same field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilayer
from .errors import InvalidAngle
from .multilayer import LayerStack, reflection_coefficients

__all__ = [
    "BeamParams",
    "moment_kernel",
    "shift_kernel",
    "shift_from_beam_integral",
]

BREWSTER_FLOOR = 1e-12
_CANCELLATION = 32 * np.finfo(float).eps  # relative rounding of rp + rs


@dataclass(frozen=True)
class BeamParams:
    """Gaussian probe geometry; lengths in meters.

    ``eps_incident`` is the (real) permittivity of the medium the beam
    travels in, so k1 = sqrt(eps_incident) * k0.
    """

    w0: float
    lam: float
    eps_incident: float = 2.25

    def __post_init__(self):
        if self.w0 <= 0 or self.lam <= 0:
            raise ValueError("w0 and lam must be > 0")
        if self.eps_incident <= 0:
            raise ValueError("eps_incident must be > 0")
        # the stack squares k0, the shift w0 and k1 w0
        if not all(x * x < np.inf for x in (self.k0, self.w0, self.k1 * self.w0)):
            raise ValueError("lam and w0 out of range: the squares of k0 = 2 pi / lam, "
                             "w0 and k1 w0 must be finite")

    @property
    def k0(self) -> float:
        return 2 * np.pi / self.lam

    @property
    def k1(self) -> float:
        return float(np.sqrt(self.eps_incident)) * self.k0

    @property
    def rayleigh(self) -> float:
        return np.pi * self.w0 ** 2 / self.lam


def _cancels(total, scale):
    """Where rp + rs is rounding only: ``total`` = rp + rs within
    _CANCELLATION of ``scale`` = |rp|, or 1 + rs/rp within it of 1."""
    return np.abs(total) <= _CANCELLATION * scale


def shift_kernel(theta_i, rp, rs, beam: BeamParams):
    """Vectorized (delta_plus, theta_minus) from raw coefficients.

    ``theta_i``, ``rp`` and ``rs`` are scalars or arrays that broadcast
    together.  Entries with |rp| below BREWSTER_FLOOR, where the
    first-order expansion is unreliable, come out as NaN; tables flag them.
    Toward normal incidence, where cot(theta) or |(1 + rs/rp) cot|^2
    overflows or 1 + rs/rp is rounding only, both shifts take their limit 0.
    """
    rp = np.asarray(rp, dtype=complex)
    ok = np.abs(rp) >= BREWSTER_FLOOR
    safe_rp = np.where(ok, rp, 1.0)
    k1w2 = beam.k1 * beam.w0 ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        one_plus = 1 + np.asarray(rs, dtype=complex) / safe_rp
        cot = np.cos(theta_i) / np.sin(theta_i)
        den = beam.k1 * k1w2 + np.abs(one_plus * cot) ** 2
        delta_plus = -k1w2 * np.real(one_plus) * cot / den
        theta_minus = k1w2 * np.imag(one_plus) * cot / den / beam.rayleigh
        normal = np.isinf(cot) | np.isinf(den) | _cancels(one_plus, 1.0)
    return (np.where(ok, np.where(normal, 0.0, delta_plus), np.nan),
            np.where(ok, np.where(normal, 0.0, theta_minus), np.nan))


def moment_kernel(theta_i, rp, rs, drp, beam: BeamParams):
    """Vectorized delta_plus of the exact Gaussian moment (delta_minus is
    -delta_plus) from ``theta_i``, ``rp``, ``rs`` and ``drp`` = d rp / d theta,
    scalars or arrays that broadcast together.  Finite where rp vanishes;
    the limit 0 where the spread term is infinite (toward normal incidence,
    at a critical angle or as w0 -> 0) or rp + rs is rounding only."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        both = rp + rs
        cot = np.cos(theta_i) / np.sin(theta_i)
        spread = ((np.abs(drp) ** 2 + np.abs(cot * both) ** 2)
                  / (beam.k1 * beam.w0) ** 2)
        delta = (-cot * np.real(np.conj(rp) * both) / beam.k1
                 / (np.abs(rp) ** 2 + spread))
        return np.where(np.isinf(spread) | _cancels(both, np.abs(rp)), 0.0, delta)


def shift_from_beam_integral(theta_i: float, stack: LayerStack, beam: BeamParams):
    """(delta_plus, delta_minus) of ``moment_kernel`` at one angle of a
    stack, evaluated on a one-angle row as a table row is.  An angle outside
    (0, pi/2) raises InvalidAngle before the stack is evaluated."""
    if not 0.0 < theta_i < np.pi / 2:
        raise InvalidAngle(f"theta_i must lie in (0, pi/2), got {theta_i}")
    row = np.array([theta_i])
    rp, rs = reflection_coefficients(row, beam.lam, stack)
    # looked up at call time, so a wrapper bound on the module sees the call
    drp, _ = multilayer.stack_reflection_derivative(row, beam.lam, stack)
    delta = float(moment_kernel(row, rp, rs, drp, beam)[0])
    return delta, -delta
