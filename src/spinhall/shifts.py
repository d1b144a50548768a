"""Spin-dependent spatial and angular displacements of the reflected beam.

For a horizontally polarized Gaussian probe the two circular components
separate transversally on reflection.  The closed-form displacement used
here is

    delta+- = -+ k1 w0^2 Re[1 + rs/rp] cot(theta)
              / (k1^2 w0^2 + |(1 + rs/rp) cot(theta)|^2)

and the matching angular (momentum-space) tilt carries Im[1 + rs/rp]
and an extra 1/rayleigh_range.  The in-plane angular-spread term
|d ln rp / dtheta|^2 is intentionally left out of this denominator: at
a true zero of rp it diverges and would cap the lossless-cavity peak
well below the half-waist bound w0/2 that the resonant cavity in fact
attains.  The quadrature oracle below keeps the full first-order field,
spread term included, so the truncation is measured rather than hidden.

The oracle synthesizes the reflected field at the beam waist,

    E+- ~ exp(-(x^2+y^2)/w0^2) [rp - 2i x rp' / (k1 w0^2)
                                 -+ 2 y cot(theta) (rp + rs) / (k1 w0^2)],

and integrates the intensity centroid with tensor Gauss-Legendre
quadrature.  Sums are evaluated with pairwise reduction, so results do
not depend on evaluation chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BrewsterSingularity, QuadratureNotConverged
from .multilayer import LayerStack, ReflectionPair, stack_reflection

__all__ = [
    "BeamParams",
    "GridSpec",
    "ShiftResult",
    "spatial_shift",
    "angular_shift",
    "shift_from_beam_integral",
]

BREWSTER_FLOOR = 1e-12
QUADRATURE_REL_CHANGE = 1e-3
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
    """Tensor-product Gauss-Legendre quadrature layout for the oracle."""

    nodes: int = 201
    half_extent_w0: float = 4.0  # half window in units of w0

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if 2 * self.half_extent_w0 < MIN_WINDOW_HALF_WIDTHS:
            raise ValueError(
                f"window must span >= {MIN_WINDOW_HALF_WIDTHS} beam half-widths")


@dataclass(frozen=True)
class ShiftResult:
    """Spatial shifts (meters), angular tilt (dimensionless) and the
    reflection diagnostics they came from."""

    delta_plus: float
    delta_minus: float
    theta_minus: float
    ratio_sp: complex       # rs / rp
    log_derivative: complex  # (d rp / dtheta) / rp

    @property
    def theta_plus(self) -> float:
        return -self.theta_minus


def shift_kernel(theta_i, rp, rs, beam: BeamParams):
    """Vectorized (delta_plus, theta_minus) from raw coefficients.

    Entries with |rp| below the Brewster floor come out as NaN; callers
    decide whether that is an error (pointwise) or a flag (sweeps).
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


def spatial_shift(theta_i: float, refl: ReflectionPair, beam: BeamParams) -> ShiftResult:
    """Transverse spin splitting of the reflected beam at one angle."""
    if abs(refl.rp) < BREWSTER_FLOOR:
        raise BrewsterSingularity(
            f"|rp| = {abs(refl.rp):.3e} below {BREWSTER_FLOOR}; "
            "first-order expansion unreliable")
    delta_plus, theta_minus = shift_kernel(theta_i, refl.rp, refl.rs, beam)
    return ShiftResult(
        delta_plus=float(delta_plus),
        delta_minus=-float(delta_plus),
        theta_minus=float(theta_minus),
        ratio_sp=refl.rs / refl.rp,
        log_derivative=refl.dp_dtheta / refl.rp,
    )


def angular_shift(theta_i: float, refl: ReflectionPair, beam: BeamParams) -> float:
    """Angular tilt of the left-circular component (the right-circular
    one is its negative)."""
    return spatial_shift(theta_i, refl, beam).theta_minus


@lru_cache(maxsize=None)
def _legendre_nodes(n: int):
    """Read-only Gauss-Legendre (nodes, weights) on [-1, 1], computed once
    per node count and process."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _centroids(theta_i, refl, beam, grid: GridSpec):
    """Intensity centroids (delta_plus, delta_minus) of the synthesized
    first-order reflected field at the waist plane."""
    nodes, weights = _legendre_nodes(grid.nodes)
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
        field = envelope * (refl.rp
                            - 1j * u * X * refl.dp_dtheta
                            - sign * u * Y * cot * (refl.rp + refl.rs))
        intensity = np.abs(field) ** 2
        out.append(float(np.sum(W2 * Y * intensity) / np.sum(W2 * intensity)))
    return tuple(out)


def shift_from_beam_integral(theta_i: float, stack: LayerStack, beam: BeamParams,
                             quadrature: GridSpec = GridSpec()):
    """Centroid displacements (delta_plus, delta_minus) by 2-D quadrature.

    Independent check on the closed form: the reflected field is built
    from the stack coefficients and their angular derivative, and its
    intensity centroid is integrated numerically.  The grid is doubled
    once; a relative change beyond QUADRATURE_REL_CHANGE raises
    QuadratureNotConverged.
    """
    refl = stack_reflection(theta_i, beam.lam, stack)
    coarse = _centroids(theta_i, refl, beam, quadrature)
    fine = _centroids(theta_i, refl, beam,
                      GridSpec(2 * quadrature.nodes, quadrature.half_extent_w0))
    scale = max(abs(fine[0]), BREWSTER_FLOOR * beam.w0)
    if abs(fine[0] - coarse[0]) > QUADRATURE_REL_CHANGE * scale:
        raise QuadratureNotConverged(
            f"centroid moved by {abs(fine[0] - coarse[0]):.3e} m on grid doubling")
    return fine
