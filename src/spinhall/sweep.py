"""Evaluation tables, Brewster / sign-flip location and window finding.

Every table is one broadcast of the detuning axis against the angle
axis: ``evaluate`` computes the susceptibility once per detuning chunk,
passes ``eps2 = 1 + chi[:, None]`` through the stack so the angle-only
terms are shared by every detuning, and writes the rows by index.
Chunks hold whole angle rows and at most CHUNK_POINTS points; a pool of
``threads`` workers evaluates them, and the table is bit-identical for
any thread count.  Singular points (Brewster floor, resonant stack
denominator) are flagged in their row instead of aborting the table.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidAngle, NoMinimumInWindow, NoSignChange
from .medium import ControlFieldSet, MediumParams, effective_couplings, susceptibility
from .multilayer import LayerStack, _amplitudes, RESONANT_DENOMINATOR_FLOOR
from .shifts import BeamParams, BREWSTER_FLOOR, shift_kernel

__all__ = [
    "ScanContext",
    "SweepGrid",
    "SweepTable",
    "evaluate",
    "sweep",
    "find_brewster",
    "find_sign_flip",
    "find_transparency_windows",
    "extremal_angles",
    "max_shift_vs_detuning",
    "shift_vs_density",
]

GOLDEN_TOL_DEG = 1e-4
WINDOW_REFINE_TOL = 1e-3  # gamma units
FLAG_BREWSTER = "brewster_singularity"
FLAG_RESONANT = "resonant_denominator"
CHUNK_POINTS = 65_536  # points per evaluation chunk: ~1 MB per complex temporary

COLUMNS = ("theta_deg", "detuning", "eta", "chi1", "chi2", "abs_rp", "abs_rs",
           "ratio_sp", "delta_plus_lambda", "theta_minus", "flags")


@dataclass(frozen=True)
class ScanContext:
    """Physics bundle for pointwise evaluation at a fixed detuning."""

    medium: MediumParams
    stack: LayerStack
    beam: BeamParams
    delta_p: float = 0.0

    def stack_at(self) -> LayerStack:
        """Stack with the intracavity permittivity set for this detuning."""
        chi = susceptibility(self.delta_p, self.medium)
        return replace(self.stack, eps2=1.0 + chi)

    def coefficients(self, theta):
        """(rp, rs) at angle(s) theta in radians."""
        rp, rs, _ = _amplitudes(theta, self.beam.lam, self.stack_at())
        return rp, rs

    def abs_rp(self, theta):
        return np.abs(self.coefficients(theta)[0])

    def delta_plus(self, theta):
        """Spatial shift (meters) of the right-circular component."""
        rp, rs = self.coefficients(theta)
        return shift_kernel(theta, rp, rs, self.beam)[0]

    def theta_minus(self, theta):
        """Angular tilt of the left-circular component."""
        rp, rs = self.coefficients(theta)
        return shift_kernel(theta, rp, rs, self.beam)[1]


@dataclass(frozen=True)
class SweepGrid:
    """Evaluation grid; angles in degrees, detunings in gamma units.

    ``eta_list`` expands the density column; ``amplitude_list`` (control
    field sets) stacks whole sub-tables in order, slowest axis first:
    rows run (amplitude, eta, detuning, theta) from slow to fast.
    """

    theta_range: tuple  # (min_deg, max_deg, count)
    detuning_range: tuple  # (min_gamma, max_gamma, count)
    eta_list: Optional[Sequence[float]] = None
    amplitude_list: Optional[Sequence[ControlFieldSet]] = None

    def __post_init__(self):
        for name, (lo, hi, count) in (("theta_range", self.theta_range),
                                      ("detuning_range", self.detuning_range)):
            if count < 2:
                raise ValueError(f"{name} count must be >= 2")
            if not lo < hi:
                raise ValueError(f"{name} needs min < max")

    def thetas_deg(self):
        lo, hi, n = self.theta_range
        return np.linspace(lo, hi, int(n))

    def detunings(self):
        lo, hi, n = self.detuning_range
        return np.linspace(lo, hi, int(n))


@dataclass
class SweepTable:
    """Column store of sweep results; one row per grid point."""

    theta_deg: np.ndarray
    detuning: np.ndarray
    eta: np.ndarray
    chi1: np.ndarray
    chi2: np.ndarray
    abs_rp: np.ndarray
    abs_rs: np.ndarray
    ratio_sp: np.ndarray
    delta_plus_lambda: np.ndarray
    theta_minus: np.ndarray
    flags: list

    def __len__(self):
        return len(self.theta_deg)

    @property
    def flagged_count(self) -> int:
        return sum(1 for f in self.flags if f)

    def column(self, name: str):
        return getattr(self, name)

    def rows(self):
        for i in range(len(self)):
            yield tuple(self.column(c)[i] for c in COLUMNS)

    @classmethod
    def empty(cls, n: int) -> "SweepTable":
        z = [np.zeros(n) for _ in range(10)]
        return cls(*z, flags=[""] * n)


def _fill_block(table: SweepTable, start: int, thetas_deg, detunings,
                eta: float, medium: MediumParams, stack: LayerStack,
                beam: BeamParams):
    """Evaluate one chunk at one (medium, eta) and write its rows from
    ``start``: the detuning vector against either a shared 1-D angle row
    or one angle row per detuning, theta fastest."""
    thetas_rad = np.radians(thetas_deg)
    chi = susceptibility(detunings, replace(medium, eta=eta))[:, None]
    rp, rs, dmin = _amplitudes(thetas_rad, beam.lam, replace(stack, eps2=1.0 + chi))
    abs_rp, abs_rs = np.abs(rp), np.abs(rs)
    with np.errstate(invalid="ignore", divide="ignore"):
        delta_plus, theta_minus = shift_kernel(thetas_rad, rp, rs, beam)
        ratio = abs_rs / abs_rp
    # a non-finite rp or rs (an overflowing interface coefficient, or a
    # NaN denominator) is a resonant denominator too
    resonant = ((dmin < RESONANT_DENOMINATOR_FLOOR)
                | ~np.isfinite(rp) | ~np.isfinite(rs))
    bad = resonant | (abs_rp < BREWSTER_FLOOR)
    values = {"theta_deg": thetas_deg, "detuning": detunings[:, None],
              "eta": eta, "chi1": chi.real, "chi2": chi.imag,
              "abs_rp": abs_rp, "abs_rs": abs_rs,
              "ratio_sp": np.where(bad, np.nan, ratio),
              "delta_plus_lambda": np.where(bad, np.nan, delta_plus / beam.lam),
              "theta_minus": np.where(bad, np.nan, theta_minus)}
    rows = slice(start, start + rp.size)
    for name, value in values.items():
        table.column(name)[rows].reshape(rp.shape)[...] = value
    for i in np.flatnonzero(bad):
        table.flags[start + i] = FLAG_RESONANT if resonant.flat[i] else FLAG_BREWSTER


def evaluate(media: Sequence[MediumParams], etas: Optional[Sequence[float]],
             detunings, thetas_deg, stack: LayerStack, beam: BeamParams,
             threads: int = 1) -> SweepTable:
    """Table over explicit axes; every table in the package comes from here.

    Rows run (medium, eta, detuning, theta), slowest first.  ``etas=None``
    keeps each medium's own density.  ``thetas_deg`` is one angle row
    shared by every detuning (1-D: the full product) or one row per
    detuning (shape ``(len(detunings), k)``).  The detunings are cut into
    chunks of whole angle rows, at most CHUNK_POINTS points each, which
    ``threads`` worker threads evaluate; rows are written by index, so
    the table does not depend on the thread count.  Angles outside
    (0, 90) degrees raise InvalidAngle before anything is evaluated.
    """
    detunings = np.atleast_1d(np.asarray(detunings, dtype=float))
    thetas_deg = np.asarray(thetas_deg, dtype=float)
    if not np.all((thetas_deg > 0.0) & (thetas_deg < 90.0)):
        raise InvalidAngle("incidence angles must lie in (0, 90) degrees")
    per_detuning = thetas_deg.ndim == 2
    if per_detuning and len(thetas_deg) != len(detunings):
        raise ValueError("a 2-D thetas_deg needs one row per detuning")
    row = thetas_deg.shape[-1]
    step = max(1, CHUNK_POINTS // max(row, 1))
    tasks = []
    start = 0
    for m in media:
        for eta in ([m.eta] if etas is None else etas):
            for lo in range(0, len(detunings), step):
                chunk = detunings[lo:lo + step]
                angles = thetas_deg[lo:lo + step] if per_detuning else thetas_deg
                tasks.append((start, angles, chunk, float(eta), m))
                start += len(chunk) * row
    table = SweepTable.empty(start)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda task: _fill_block(table, *task, stack, beam), tasks))
    return table


def sweep(grid: SweepGrid, medium: MediumParams, stack: LayerStack,
          beam: BeamParams, threads: int = 1) -> SweepTable:
    """Evaluate susceptibility, reflection and shifts over the full grid.

    Row order is (amplitude set, eta, detuning, theta), theta fastest.
    Per-point singularities are flagged, never raised.
    """
    media = ([replace(medium, couplings=effective_couplings(fs))
              for fs in grid.amplitude_list] if grid.amplitude_list else [medium])
    return evaluate(media, grid.eta_list or None, grid.detunings(),
                    grid.thetas_deg(), stack, beam, threads)


def _golden_minimize(f: Callable, a, b, tol: float):
    """Golden-section minima of f on the brackets [a[k], b[k]], in lockstep.

    ``f(t, rows)`` evaluates the objective of the brackets ``rows`` (an
    index array) at the points ``t``, one point per row.  Each row runs the
    scalar golden-section update sequence, so its result does not depend on
    the other rows; a row stops once its own b - a <= tol, and each step
    evaluates the new interior point of every row still active in one call.
    Returns the midpoints of the final brackets.
    """
    inv_phi = (np.sqrt(5) - 1) / 2
    inv_phi2 = (3 - np.sqrt(5)) / 2
    a = np.array(a, dtype=float, ndmin=1)
    b = np.array(b, dtype=float, ndmin=1)
    c = a + inv_phi2 * (b - a)
    d = a + inv_phi * (b - a)
    rows = np.arange(len(a))
    fc, fd = np.split(f(np.concatenate([c, d]), np.concatenate([rows, rows])), 2)
    active = rows[b - a > tol]
    while active.size:
        left = fc[active] < fd[active]
        lo, hi = active[left], active[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = a[lo] + inv_phi2 * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + inv_phi * (b[hi] - a[hi])
        fnew = f(np.where(left, c[active], d[active]), active)
        fc[lo], fd[hi] = fnew[left], fnew[~left]
        active = active[b[active] - a[active] > tol]
    return 0.5 * (a + b)


def find_brewster(theta_window_deg: tuple, ctx: ScanContext,
                  coarse: int = 201, tol_deg: float = GOLDEN_TOL_DEG) -> float:
    """Angle (degrees) minimizing |rp| inside the window.

    The window is scanned on a coarse grid; the minimum must be interior
    (otherwise NoMinimumInWindow) and is then refined by golden section
    inside its bracketing cell.
    """
    lo, hi = theta_window_deg
    grid = np.linspace(lo, hi, coarse)
    vals = ctx.abs_rp(np.radians(grid))
    i = int(np.argmin(vals))
    if i == 0 or i == coarse - 1 or not (vals[i] < vals[0] and vals[i] < vals[-1]):
        raise NoMinimumInWindow(f"|rp| has no interior minimum in {theta_window_deg}")
    f = lambda t_deg, rows: ctx.abs_rp(np.radians(t_deg))
    return _golden_minimize(f, grid[i - 1], grid[i + 1], tol_deg)[0]


def find_sign_flip(theta_deg, delta, ctx: ScanContext,
                   tol_deg: float = GOLDEN_TOL_DEG) -> float:
    """Angle (degrees) where the tabulated spatial shift changes sign.

    ``theta_deg``/``delta`` are a table slice providing the bracket; the
    crossing is refined by bisection on the sign of the shift.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    delta = np.asarray(delta, dtype=float)
    sign = np.sign(delta)
    ok = np.isfinite(delta) & (sign != 0)
    idx = None
    prev = None
    for i in range(len(delta)):
        if not ok[i]:
            continue
        if prev is not None and sign[i] != sign[prev]:
            idx = (prev, i)
            break
        prev = i
    if idx is None:
        raise NoSignChange("no sign change in the supplied slice")
    a, b = theta_deg[idx[0]], theta_deg[idx[1]]
    fa = float(ctx.delta_plus(np.radians(a)))
    while b - a > tol_deg:
        mid = 0.5 * (a + b)
        fm = float(ctx.delta_plus(np.radians(mid)))
        if np.isnan(fm) or fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _refine_minimum(f: Callable[[float], float], a: float, b: float, c: float,
                    tol: float, max_iter: int = 60):
    """Successive parabolic refinement of a bracketed minimum (a < b < c,
    f(b) smallest); falls back to a golden step when the parabola
    degenerates or leaves the bracket."""
    fa, fb, fc = f(a), f(b), f(c)
    for _ in range(max_iter):
        if c - a < tol:
            break
        denom = (b - a) * (fb - fc) - (b - c) * (fb - fa)
        if denom != 0:
            x = b - 0.5 * ((b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)) / denom
        else:
            x = np.nan
        if not (a < x < c) or not np.isfinite(x) or abs(x - b) < 1e-15:
            x = 0.5 * (a + c) if abs(b - a) > abs(c - b) else 0.5 * (b + c)
            if abs(x - b) < 1e-15:
                break
        fx = f(x)
        if fx < fb:
            if x < b:
                c, fc = b, fb
            else:
                a, fa = b, fb
            b, fb = x, fx
        else:
            if x < b:
                a, fa = x, fx
            else:
                c, fc = x, fx
    return b


def find_transparency_windows(medium: MediumParams, detuning_range: tuple,
                              n_grid: int = 4801,
                              tol: float = WINDOW_REFINE_TOL) -> list:
    """Detunings where the medium is closest to transparent.

    Interior local minima of |chi(delta_p)| on a dense grid, each refined
    by successive parabolic interpolation to better than ``tol`` gamma.
    The magnitude (rather than the absorption alone) is used so the
    located windows are the points of minimal total response, where both
    dispersion and absorption are small; for this medium those are the
    operating points of enhanced beam shift.  May return an empty list.
    """
    lo, hi = detuning_range
    if medium.eta == 0:
        return []
    dps = np.linspace(lo, hi, n_grid)
    mag = np.abs(susceptibility(dps, medium))
    f = lambda dp: float(np.abs(susceptibility(float(dp), medium)))
    interior = (mag[1:-1] < mag[:-2]) & (mag[1:-1] <= mag[2:])
    return sorted(_refine_minimum(f, dps[i - 1], dps[i], dps[i + 1], tol)
                  for i in np.flatnonzero(interior) + 1)


def extremal_angles(kind: str, detunings, ctx_base: ScanContext,
                    theta_window_deg: tuple = (30.0, 38.0), coarse: int = 801):
    """Per-detuning extremum over incidence angle: (angles_deg, values).

    ``kind`` is "spatial" (largest |delta_plus|, valued in units of the
    wavelength) or "angular" (largest theta_minus).  The coarse scan is
    one broadcast of the detunings against the angle grid, with
    ``eps2 = 1 + chi[:, None]`` as in the table kernel; the best grid
    point of every detuning is then refined by one lockstep golden
    section over all detunings, and the refined angle is kept only where
    it beats the grid.  Each detuning takes the steps a search of its
    own would take; an empty detuning list gives empty arrays.
    """
    if kind not in ("spatial", "angular"):
        raise ValueError("kind must be 'spatial' or 'angular'")
    lo, hi = theta_window_deg
    grid_rad = np.radians(np.linspace(lo, hi, coarse))
    detunings = np.asarray(detunings, dtype=float)
    stack, beam = ctx_base.stack, ctx_base.beam
    eps2 = 1.0 + susceptibility(detunings, ctx_base.medium)

    def objective(t, eps):
        rp, rs, _ = _amplitudes(t, beam.lam, replace(stack, eps2=eps))
        delta_plus, theta_minus = shift_kernel(t, rp, rs, beam)
        return -np.abs(delta_plus) if kind == "spatial" else -theta_minus

    vals = objective(grid_rad, eps2[:, None])
    vals = np.where(np.isfinite(vals), vals, np.inf)
    i = np.argmin(vals, axis=1)
    grid_best = -vals[np.arange(len(i)), i]
    t_best = _golden_minimize(lambda t, rows: objective(t, eps2[rows]),
                              grid_rad[np.maximum(i - 1, 0)],
                              grid_rad[np.minimum(i + 1, coarse - 1)],
                              np.radians(GOLDEN_TOL_DEG))
    refined = -objective(t_best, eps2)
    better = refined > grid_best
    best = np.where(better, refined, grid_best)
    angles = np.where(better, t_best, grid_rad[i])
    return np.degrees(angles), best / beam.lam if kind == "spatial" else best


def max_shift_vs_detuning(kind: str, detunings, ctx_base: ScanContext,
                          theta_window_deg: tuple = (30.0, 38.0),
                          coarse: int = 801):
    """(detunings, values) of the per-detuning extremum; see extremal_angles."""
    detunings = np.asarray(detunings, dtype=float)
    return detunings, extremal_angles(kind, detunings, ctx_base,
                                      theta_window_deg, coarse)[1]


def shift_vs_density(etas, theta_fixed_deg: float, ctx: ScanContext):
    """delta_plus (units of the wavelength) versus density parameter at a
    fixed angle and the context's detuning."""
    etas = np.asarray(etas, dtype=float)
    theta = np.radians(theta_fixed_deg)
    out = np.empty_like(etas)
    for i, eta in enumerate(etas):
        c = replace(ctx, medium=replace(ctx.medium, eta=float(eta)))
        out[i] = float(c.delta_plus(theta)) / ctx.beam.lam
    return etas, out
