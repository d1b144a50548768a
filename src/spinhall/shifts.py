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

from .workspace import Workspace

__all__ = ["BeamParams", "shift_kernel"]

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


def _centroid(cot, x, den, scale, beam: BeamParams, delta_plus, theta_minus, work):
    """(delta_plus, theta_minus) = k1 w0^2 cot (-Re x, Im x / rayleigh) / den,
    written into the arrays given, or their limit 0 toward normal incidence:
    where cot or den is infinite, or where x is rounding only (|x| within
    _CANCELLATION of ``scale``)."""
    k1w2 = beam.k1 * beam.w0 ** 2
    with work.scratch():
        a, b = work.take(x.shape), work.like(x, cot)
        a = np.multiply(-k1w2, x.real, out=a)
        b = np.multiply(a, cot, out=b)
        delta_plus = np.divide(b, den, out=delta_plus)
        a = np.multiply(k1w2, x.imag, out=a)
        b = np.multiply(a, cot, out=b)
        theta_minus = np.divide(b, den, out=theta_minus)
        theta_minus = np.divide(theta_minus, beam.rayleigh, out=theta_minus)
        normal = np.isinf(den, out=work.take(den.shape, bool))
        normal |= np.isinf(cot)
        normal |= np.less_equal(np.abs(x, out=a), _CANCELLATION * scale,
                                out=work.take(x.shape, bool))
        np.copyto(delta_plus, 0.0, where=normal)
        np.copyto(theta_minus, 0.0, where=normal)
    return delta_plus, theta_minus


def shift_kernel(theta_i, rp, rs, drp, beam: BeamParams, work=None, abs_rp=None):
    """Vectorized (delta_plus, theta_minus) from raw coefficients.

    ``theta_i``, ``rp``, ``rs`` and ``drp`` are scalars or arrays that
    broadcast together.  ``drp = None`` gives the paper's truncated shift,
    ``drp`` = d rp / d theta (any value, 0 included) the full first order.
    Where |rp| is below BREWSTER_FLOOR the truncated shift is NaN (tables
    flag it), while the full first order takes the moment multiplied
    through by |rp|^2, which stays finite.  Toward normal incidence, where
    cot(theta) or the denominator overflows or 1 + rs/rp is rounding only,
    both shifts take their limit 0.

    The two results and every intermediate are taken from ``work``, the
    workspace of the caller's chunk loop, so the results hold until that
    caller hands the arrays out again; with ``work = None`` numpy allocates
    them.  ``abs_rp`` is |rp| where the caller has it already, shaped like
    rp; else the kernel takes it.  Each scalar input is evaluated as its
    one-element row; scalars alone give 0-d arrays.
    """
    work = Workspace() if work is None else work
    shape = np.broadcast(theta_i, rs, rp, *(() if drp is None else (drp,))).shape
    theta_i, rp, rs = np.atleast_1d(theta_i, np.asarray(rp, dtype=complex),
                                    np.asarray(rs, dtype=complex))
    drp, abs_rp = (None if x is None else np.atleast_1d(x) for x in (drp, abs_rp))
    rows = shape or (1,)
    delta_plus, theta_minus = work.take(rows), work.take(rows)
    with work.scratch():
        abs_rp = np.abs(rp, out=work.take(rp.shape)) if abs_rp is None else abs_rp
        ok = np.greater_equal(abs_rp, BREWSTER_FLOOR, out=work.take(rp.shape, bool))
        below = np.logical_not(ok, out=ok)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # 1 + rs / rp, with rp taken as 1 below the floor
            one_plus = np.divide(rs, rp, out=work.like(rs, rp, dtype=complex))
            np.divide(rs, 1.0, out=one_plus, where=below)
            one_plus = np.add(1, one_plus, out=one_plus)
            cot = work.like(theta_i)
            with work.scratch():
                cot = np.divide(np.cos(theta_i, out=work.like(theta_i)),
                                np.sin(theta_i, out=work.like(theta_i)), out=cot)
            den = work.like(one_plus, cot)
            with work.scratch():
                den = np.abs(np.multiply(one_plus, cot, out=work.like(one_plus, cot,
                                                                      dtype=complex)),
                             out=den)
            den = np.add(beam.k1 * (beam.k1 * beam.w0 ** 2), np.square(den, out=den),
                         out=den)
            if drp is not None:
                spread = work.like(drp, rp)
                with work.scratch():
                    spread = np.divide(np.abs(drp, out=work.like(drp)), abs_rp, out=spread)
                den = np.add(den, np.square(spread, out=spread), out=work.take(rows))
            delta_plus, theta_minus = _centroid(cot, one_plus, den, 1.0, beam,
                                                delta_plus, theta_minus, work)
            np.copyto(delta_plus, np.nan, where=below)
            np.copyto(theta_minus, np.nan, where=below)
            if drp is not None and below.any():
                cleared = np.broadcast_to(below, delta_plus.shape)
                rp_, rs_, drp_, cot_ = (np.broadcast_to(a, cleared.shape)[cleared]
                                        for a in (rp, rs, drp, cot))
                both = rp_ + rs_
                den_ = ((beam.k1 * beam.w0) ** 2 * np.abs(rp_) ** 2
                        + np.abs(drp_) ** 2 + np.abs(cot_ * both) ** 2)
                delta_plus[cleared], theta_minus[cleared] = _centroid(
                    cot_, np.conj(rp_) * both, den_, np.abs(rp_) ** 2, beam,
                    np.empty(len(both)), np.empty(len(both)), work)
    return delta_plus.reshape(shape), theta_minus.reshape(shape)
