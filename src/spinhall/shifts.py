"""Spin-dependent spatial and angular displacements of the reflected beam.

For a horizontally polarized Gaussian probe the two circular components
separate transversally on reflection.  To first order in 1/(k1 w0) the
reflected field at the beam waist is

    E+- ~ exp(-(x^2+y^2)/w0^2) [rp - 2i x rp' / (k1 w0^2)
                                 -+ 2 y cot(theta) (rp + rs) / (k1 w0^2)],

a Gaussian times a linear form, so its centroid is an exact Gaussian
moment.  With X = 1 + rs/rp and den = k1^2 w0^2 + |X cot|^2 + |rp'/rp|^2,
delta+- = -+ k1 w0^2 Re[X] cot / den, and the k-space centroid of the
same field tilts the minus component inside the glass by 2 Im[X] cot / den.
``shift_kernel(theta, rp, rs, drp, beam)``, over scalars or arrays, gives
delta_plus and theta_minus, which is k1/k0 times that glass-side tilt:
k1 w0^2 Im[X] cot / den over the vacuum Rayleigh range pi w0^2 / lam.

``drp = None`` drops the in-plane angular-spread term |rp'/rp|^2: the
paper's truncated closed form, whose peak near a lossless zero of rp is
exactly the half-waist bound w0/2.  ``drp`` = rp' keeps it: the full first
order, whose peak there is lower.  Where |rp| < BREWSTER_FLOOR the
truncated shift is NaN; the full first order is then the moment multiplied
through by |rp|^2, which stays finite where rp vanishes, rp' = 0 included:

    delta+- = -+ (1/k1) cot Re[rp* (rp + rs)]
              / (|rp|^2 + (|rp'|^2 + cot^2 |rp + rs|^2) / (k1 w0)^2).

The tests check both centroids against quadratures of the same field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilayer
from .errors import InvalidAngle
from .multilayer import LayerStack, reflection_coefficients

__all__ = ["BeamParams", "shift_kernel", "shift_from_beam_integral"]

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


def _centroid(cot, x, den, scale, beam: BeamParams):
    """(delta_plus, theta_minus) = k1 w0^2 cot (-Re x, Im x / rayleigh) / den,
    or their limit 0 toward normal incidence: where cot or den is infinite,
    or where x is rounding only (|x| within _CANCELLATION of ``scale``)."""
    k1w2 = beam.k1 * beam.w0 ** 2
    delta_plus = -k1w2 * np.real(x) * cot / den
    theta_minus = k1w2 * np.imag(x) * cot / den / beam.rayleigh
    normal = np.isinf(cot) | np.isinf(den) | (np.abs(x) <= _CANCELLATION * scale)
    return np.where(normal, 0.0, delta_plus), np.where(normal, 0.0, theta_minus)


def shift_kernel(theta_i, rp, rs, drp, beam: BeamParams):
    """Vectorized (delta_plus, theta_minus) from raw coefficients.

    ``theta_i``, ``rp``, ``rs`` and ``drp`` are scalars or arrays that
    broadcast together.  ``drp = None`` gives the paper's truncated shift,
    ``drp`` = d rp / d theta (any value, 0 included) the full first order.
    Where |rp| is below BREWSTER_FLOOR the truncated shift is NaN (tables
    flag it), while the full first order takes the moment multiplied
    through by |rp|^2, which stays finite.  Toward normal incidence, where
    cot(theta) or the denominator overflows or 1 + rs/rp is rounding only,
    both shifts take their limit 0.
    """
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


def shift_from_beam_integral(theta_i: float, stack: LayerStack, beam: BeamParams):
    """(delta_plus, delta_minus) of the full first-order ``shift_kernel``
    at one angle of a stack, evaluated on a one-angle row as a table row is.
    An angle outside (0, pi/2) raises InvalidAngle before the stack is
    evaluated."""
    if not 0.0 < theta_i < np.pi / 2:
        raise InvalidAngle(f"theta_i must lie in (0, pi/2), got {theta_i}")
    row = np.array([theta_i])
    rp, rs = reflection_coefficients(row, beam.lam, stack)
    # looked up at call time, so a wrapper bound on the module sees the call
    drp, _ = multilayer.stack_reflection_derivative(row, beam.lam, stack)
    delta = float(shift_kernel(row, rp, rs, drp, beam)[0][0])
    return delta, -delta
