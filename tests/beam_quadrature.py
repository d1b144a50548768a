"""Numerical references for ``spinhall.shifts.shift_kernel``.

The first-order reflected field at the beam waist is

    E+- ~ exp(-(x^2+y^2)/w0^2) [rp - 2i x rp' / (k1 w0^2)
                                 -+ 2 y cot(theta) (rp + rs) / (k1 w0^2)],

and its angular spectrum

    E~-+ ~ exp(-(kx^2+ky^2) w0^2/4) [rp - rp' kx / k1 -+ i ky cot(theta) (rp + rs) / k1].

``centroids`` integrates the field's intensity centroid on the tensor
grid of ``GridSpec`` by 2-D Gauss-Legendre quadrature, and
``quadrature_shift`` again on the doubled grid; a relative change beyond
QUADRATURE_REL_CHANGE raises QuadratureNotConverged.  ``kspace_tilts``
integrates the spectrum's ky centroid, the tilt inside the glass.  The
kernel evaluates both centroids as closed-form Gaussian moments; the
tests hold them against each other.

``truncated_kernel`` and ``cleared_moment`` keep the two closed forms the
kernel replaced: the paper's truncated shift divided through by rp, with
its NaN below BREWSTER_FLOOR, and the full first-order moment multiplied
through by |rp|^2.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from spinhall.multilayer import reflection_coefficients, stack_reflection_derivative
from spinhall.shifts import BREWSTER_FLOOR, BeamParams

QUADRATURE_REL_CHANGE = 1e-3
MIN_WINDOW_HALF_WIDTHS = 6  # full window must span >= 6 beam half-widths


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product Gauss-Legendre quadrature layout: the node count
    per axis and the half window."""

    nodes: int = 201
    half_extent_w0: float = 4.0  # half window in units of w0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if 2 * self.half_extent_w0 < MIN_WINDOW_HALF_WIDTHS:
            raise ValueError(
                f"window must span >= {MIN_WINDOW_HALF_WIDTHS} beam half-widths")


class QuadratureNotConverged(Exception):
    """Doubling the quadrature grid moved the beam centroid by more than
    the allowed relative change."""


@cache
def legendre_nodes(n: int):
    """Gauss-Legendre (nodes, weights) on [-1, 1], once per node count."""
    return np.polynomial.legendre.leggauss(n)


def centroids(theta_i, rp, rs, drp, beam, grid: GridSpec = GridSpec()):
    """Intensity centroids (delta_plus, delta_minus) of the field built
    from the raw coefficients, on one quadrature grid."""
    nodes, weights = legendre_nodes(grid.nodes)
    half = grid.half_extent_w0 * beam.w0
    x = nodes * half
    w = weights * half
    X, Y = np.meshgrid(x, x, indexing="ij")
    W2 = np.outer(w, w)
    envelope = np.exp(-(X ** 2 + Y ** 2) / beam.w0 ** 2)
    u = 2.0 / (beam.k1 * beam.w0 ** 2)
    cot = np.cos(theta_i) / np.sin(theta_i)
    out = []
    for sign in (+1.0, -1.0):
        field = envelope * (rp - 1j * u * X * drp
                            - sign * u * Y * cot * (rp + rs))
        intensity = np.abs(field) ** 2
        out.append(float(np.sum(W2 * Y * intensity) / np.sum(W2 * intensity)))
    return tuple(out)


def quadrature_shift(theta_i, stack, beam, grid: GridSpec = GridSpec()):
    """(delta_plus, delta_minus) of a stack at one angle, from the doubled
    grid once it agrees with ``grid``."""
    rp, rs = reflection_coefficients(theta_i, beam.lam, stack)
    drp, _ = stack_reflection_derivative(theta_i, beam.lam, stack)
    coarse = centroids(theta_i, rp, rs, drp, beam, grid)
    fine = centroids(theta_i, rp, rs, drp, beam,
                     GridSpec(2 * grid.nodes, grid.half_extent_w0))
    scale = max(abs(fine[0]), BREWSTER_FLOOR * beam.w0)
    if abs(fine[0] - coarse[0]) > QUADRATURE_REL_CHANGE * scale:
        raise QuadratureNotConverged(
            f"centroid moved by {abs(fine[0] - coarse[0]):.3e} m on grid doubling")
    return fine


def kspace_tilts(theta_i, rp, rs, drp, beam, grid: GridSpec = GridSpec()):
    """Tilts (Theta_plus, Theta_minus) inside the glass: the ky centroids
    of the angular spectrum built from the raw coefficients, divided by
    k1, on one quadrature grid.  The spectrum is twice as wide in units
    of 1/w0 as the field is in units of w0, so the window doubles too."""
    nodes, weights = legendre_nodes(grid.nodes)
    half = 2 * grid.half_extent_w0 / beam.w0
    k = nodes * half
    w = weights * half
    KX, KY = np.meshgrid(k, k, indexing="ij")
    W2 = np.outer(w, w)
    envelope = np.exp(-(KX ** 2 + KY ** 2) * beam.w0 ** 2 / 4)
    cot = np.cos(theta_i) / np.sin(theta_i)
    out = []
    for sign in (+1.0, -1.0):
        spectrum = envelope * (rp - drp * KX / beam.k1
                               + sign * 1j * KY * cot * (rp + rs) / beam.k1)
        intensity = np.abs(spectrum) ** 2
        out.append(float(np.sum(W2 * KY * intensity) / np.sum(W2 * intensity))
                   / beam.k1)
    return tuple(out)


# ---- the closed forms ``shift_kernel`` replaced, kept as references ----

_CANCELLATION = 32 * np.finfo(float).eps


def truncated_kernel(theta_i, rp, rs, beam: BeamParams):
    """The paper's truncated (delta_plus, theta_minus), divided through by
    rp: NaN where |rp| < BREWSTER_FLOOR, and the limit 0 where cot(theta)
    or the denominator overflows or 1 + rs/rp is rounding only."""
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
        normal = (np.isinf(cot) | np.isinf(den)
                  | (np.abs(one_plus) <= _CANCELLATION))
    return (np.where(ok, np.where(normal, 0.0, delta_plus), np.nan),
            np.where(ok, np.where(normal, 0.0, theta_minus), np.nan))


def cleared_moment(theta_i, rp, rs, drp, beam: BeamParams):
    """The full first-order (delta_plus, theta_minus) multiplied through by
    |rp|^2: -Re z and Im z / rayleigh, with z = cot rp* (rp + rs) / (k1 D)
    and D = |rp|^2 + (|drp|^2 + cot^2 |rp + rs|^2) / (k1 w0)^2.  No limits."""
    cot = np.cos(theta_i) / np.sin(theta_i)
    both = rp + rs
    D = (np.abs(rp) ** 2
         + (np.abs(drp) ** 2 + np.abs(cot * both) ** 2) / (beam.k1 * beam.w0) ** 2)
    z = cot * np.conj(rp) * both / (beam.k1 * D)
    return -np.real(z), np.imag(z) / beam.rayleigh
