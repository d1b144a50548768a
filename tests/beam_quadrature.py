"""Numerical reference for the oracle: the intensity centroid of the
first-order reflected field by 2-D Gauss-Legendre quadrature.

The field at the beam waist is

    E+- ~ exp(-(x^2+y^2)/w0^2) [rp - 2i x rp' / (k1 w0^2)
                                 -+ 2 y cot(theta) (rp + rs) / (k1 w0^2)],

integrated on the tensor grid of ``spinhall.shifts.GridSpec`` and again
on the doubled grid; a relative change beyond QUADRATURE_REL_CHANGE
raises QuadratureNotConverged.  ``shift_from_beam_integral`` evaluates
the same centroid as a closed-form Gaussian moment; the tests hold the
two against each other.
"""

from functools import cache

import numpy as np

from spinhall.multilayer import reflection_coefficients, stack_reflection_derivative
from spinhall.shifts import BREWSTER_FLOOR, GridSpec

QUADRATURE_REL_CHANGE = 1e-3


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
