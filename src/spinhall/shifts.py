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
through by |rp|^2, so it stays finite where rp vanishes.  The test suite
checks it against a 2-D Gauss-Legendre quadrature of the same field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilayer
from .errors import InvalidAngle
from .multilayer import LayerStack, reflection_coefficients

__all__ = [
    "BeamParams",
    "GridSpec",
    "shift_kernel",
    "shift_from_beam_integral",
]

BREWSTER_FLOOR = 1e-12
MIN_WINDOW_HALF_WIDTHS = 6  # full window must span >= 6 beam half-widths


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


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product Gauss-Legendre quadrature layout: the node count
    per axis and the half window; the test suite's reference integral of
    the oracle's field uses it."""

    nodes: int = 201
    half_extent_w0: float = 4.0  # half window in units of w0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if 2 * self.half_extent_w0 < MIN_WINDOW_HALF_WIDTHS:
            raise ValueError(
                f"window must span >= {MIN_WINDOW_HALF_WIDTHS} beam half-widths")


def shift_kernel(theta_i, rp, rs, beam: BeamParams):
    """Vectorized (delta_plus, theta_minus) from raw coefficients.

    ``theta_i``, ``rp`` and ``rs`` are scalars or arrays that broadcast
    together.  Entries with |rp| below BREWSTER_FLOOR, where the
    first-order expansion is unreliable, come out as NaN; tables flag them.
    """
    rp = np.asarray(rp, dtype=complex)
    ok = np.abs(rp) >= BREWSTER_FLOOR
    safe_rp = np.where(ok, rp, 1.0)
    one_plus = 1 + np.asarray(rs, dtype=complex) / safe_rp
    cot = np.cos(theta_i) / np.sin(theta_i)
    k1w2 = beam.k1 * beam.w0 ** 2
    den = beam.k1 * k1w2 + np.abs(one_plus * cot) ** 2
    delta_plus = np.where(ok, -k1w2 * np.real(one_plus) * cot / den, np.nan)
    theta_minus = np.where(
        ok, k1w2 * np.imag(one_plus) * cot / den / beam.rayleigh, np.nan)
    return delta_plus, theta_minus


def shift_from_beam_integral(theta_i: float, stack: LayerStack, beam: BeamParams):
    """Centroid displacements (delta_plus, delta_minus) of the first-order
    reflected field, as its exact Gaussian moment.

    Independent check on the closed form: the field is built from the
    stack coefficients and the angular derivative of rp, and its intensity
    centroid over the whole plane is evaluated in closed form.  An angle
    outside (0, pi/2) raises InvalidAngle before the stack is evaluated.
    """
    if not 0.0 < theta_i < np.pi / 2:
        raise InvalidAngle(f"theta_i must lie in (0, pi/2), got {theta_i}")
    rp, rs = reflection_coefficients(theta_i, beam.lam, stack)
    # looked up at call time, so a wrapper bound on the module sees the call
    drp, _ = multilayer.stack_reflection_derivative(theta_i, beam.lam, stack)
    cot = np.cos(theta_i) / np.sin(theta_i)
    both = rp + rs
    spread = (abs(drp) ** 2 + abs(cot * both) ** 2) / (beam.k1 * beam.w0) ** 2
    delta = float(-cot * np.real(np.conj(rp) * both) / beam.k1
                  / (abs(rp) ** 2 + spread))
    return delta, -delta
