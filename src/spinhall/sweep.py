"""Evaluation tables, Brewster and extremum angles, and window finding.

Every table is one broadcast of its (eta, detuning) blocks against the
angle axis: ``evaluate`` computes the susceptibility of a chunk of
blocks, passes ``eps2 = 1 + chi[:, None]`` through the stack so the
angle-only terms are shared by every block, and writes each block's
fields once and its points by row index (see ``SweepTable``).

Every stack evaluation but ``reflection_coefficients`` goes through
``_stack_rows``: the table fill, the extremum scans and ``ScanContext``
at the truncated order, in chunks of whole angle rows of at most
CHUNK_POINTS points on the calling thread, and the oracle's one angle
``_point`` at full order.  A table of more than one chunk and an
extremum scan take each chunk's arrays from one ``Workspace`` block,
allocated when they start and dropped when they return, so the chunks
reuse the same pages; the others let numpy allocate.  Singular points
(Brewster floor, resonant stack denominator) are flagged in their row
instead of aborting the table.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import multilayer
from .errors import InvalidAngle, NoMinimumInWindow, SpinHallError
from .medium import MediumParams, _coherence_polynomials, susceptibility
from .multilayer import LayerStack, RESONANT_DENOMINATOR_FLOOR, _amplitudes
from .shifts import BeamParams, BREWSTER_FLOOR, shift_kernel
from .workspace import Workspace

__all__ = [
    "ScanContext",
    "SweepTable",
    "evaluate",
    "find_brewster",
    "find_transparency_windows",
    "extremal_angles",
    "shift_from_beam_integral",
]

GOLDEN_TOL_DEG = 1e-4
_COEFF_ROUNDING = 1e-13  # relative rounding of a window-polynomial coefficient
FLAG_BREWSTER = "brewster_singularity"
FLAG_RESONANT = "resonant_denominator"
CHUNK_POINTS = 32_768  # points per evaluation chunk: 512 KB per complex temporary

FLAG_KINDS = ("", FLAG_RESONANT, FLAG_BREWSTER)  # indexed by a row's flag code
_FLAG_TEXT = np.array(FLAG_KINDS)
_FLAG_TEXT.flags.writeable = False

BLOCK_FIELDS = ("detuning", "eta", "chi1", "chi2")  # once per angle row
POINT_FIELDS = ("abs_rp", "abs_rs", "ratio_sp", "delta_plus_lambda", "theta_minus")
COLUMNS = ("theta_deg", *BLOCK_FIELDS, *POINT_FIELDS, "flags")


def _chunk_blocks(row: int) -> int:
    """Blocks of ``row`` points in one chunk: CHUNK_POINTS // row, one at least."""
    return max(1, CHUNK_POINTS // max(row, 1))


def _chunks(blocks: int, row: int):
    """Slices that cover range(blocks) in order, each of at most
    _chunk_blocks(row) blocks; one empty slice for no blocks."""
    step = _chunk_blocks(row)
    for lo in range(0, max(blocks, 1), step):
        yield slice(lo, min(lo + step, blocks))


def _stack_rows(thetas_rad, stack: LayerStack, beam: BeamParams, work: Workspace,
                full: bool = False):
    """(rp, rs, min |denominator|, |rp|, rp') of ``stack`` at ``thetas_rad``,
    all but rp' from ``work``; rp', the kernel's drp, is None unless ``full``."""
    rp, rs, dmin = _amplitudes(thetas_rad, beam.lam, stack, work)
    drp = None
    if full:  # through the module, so the wrapper of perfbench/tracer.py sees it
        drp, _ = multilayer.stack_reflection_derivative(thetas_rad, beam.lam, stack)
    return rp, rs, dmin, np.abs(rp, out=work.like(rp))[()], drp


def _point(theta_i, stack: LayerStack, beam: BeamParams):
    """(rp, rs, |rp|, rp') at one angle of a stack, the bits of a table row
    at that point; ResonantDenominator where a table would flag it."""
    rp, rs, dmin, abs_rp, drp = _stack_rows(theta_i, stack, beam, Workspace(), full=True)
    multilayer._raise_if_resonant(rp, rs, dmin)
    return rp, rs, abs_rp, drp


def shift_from_beam_integral(theta_i: float, stack: LayerStack, beam: BeamParams):
    """(delta_plus, delta_minus) of the full first-order ``shift_kernel`` at
    one angle of a stack; an angle outside (0, pi/2) raises InvalidAngle
    before the stack is evaluated."""
    if not 0.0 < theta_i < np.pi / 2:
        raise InvalidAngle(f"theta_i must lie in (0, pi/2), got {theta_i}")
    rp, rs, abs_rp, drp = _point(theta_i, stack, beam)
    delta = float(shift_kernel(theta_i, rp, rs, drp, beam, None, abs_rp)[0])
    return delta, -delta


@dataclass(frozen=True)
class ScanContext:
    """Physics bundle for pointwise evaluation at a fixed detuning: any
    number of angles is evaluated in rows of at most CHUNK_POINTS angles
    at ``stack_at()``, so every value has the bits of the table row at the
    same point."""

    medium: MediumParams
    stack: LayerStack
    beam: BeamParams
    delta_p: float = 0.0

    @cached_property
    def _stack(self) -> LayerStack:
        return replace(self.stack, eps2=1.0 + susceptibility(self.delta_p, self.medium))

    def stack_at(self) -> LayerStack:
        """Stack with the intracavity permittivity set for this detuning."""
        return self._stack

    def _values(self, theta, shifts: bool) -> list:
        """[rp, rs, |rp|], or with ``shifts`` the truncated [delta_plus,
        theta_minus], at angle(s) theta in radians, each shaped like theta."""
        flat = np.asarray(theta, dtype=float).reshape(-1)
        out = [np.empty(flat.shape, dtype)
               for dtype in ((float, float) if shifts else (complex, complex, float))]
        for lo in range(0, flat.size, CHUNK_POINTS):
            t = flat[lo:lo + CHUNK_POINTS]
            rp, rs, _, abs_rp, drp = _stack_rows(t, self.stack_at(), self.beam, Workspace())
            values = (shift_kernel(t, rp, rs, drp, self.beam, None, abs_rp) if shifts
                      else (rp, rs, abs_rp))
            for o, v in zip(out, values):
                o[lo:lo + t.size] = v
        return [o.reshape(np.shape(theta)) for o in out]

    def coefficients(self, theta):
        """(rp, rs) at angle(s) theta in radians, shaped like theta."""
        return tuple(self._values(theta, False)[:2])

    def abs_rp(self, theta):
        return self._values(theta, False)[2]

    def delta_plus(self, theta):
        """Spatial shift (meters) of the right-circular component."""
        return self._values(theta, True)[0]

    def theta_minus(self, theta):
        """Angular tilt of the left-circular component."""
        return self._values(theta, True)[1]


@dataclass(frozen=True)
class RowIndex:
    """The value index of each row of a column whose row r holds value
    (r // repeat) % period; ``index[rows]`` gives it for a slice of rows."""

    repeat: int
    period: int
    length: int

    def __len__(self):
        return self.length

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.arange(*rows.indices(self.length)) // self.repeat % self.period


@dataclass
class SweepTable:
    """Sweep results stored by their structure.

    Rows run (block, angle), angle fastest, with one block per (eta,
    detuning).  ``theta_rows`` holds the angles in degrees, one row
    shared by every block, shape (1, k), or one row per detuning, shape
    (detunings, k), which block b reads as row b % len(theta_rows).
    ``blocks`` holds BLOCK_FIELDS once per block, ``points`` POINT_FIELDS
    once per row, and ``codes`` each row's flag as an index into
    FLAG_KINDS.  ``column(name)``, and the attribute of the same name,
    give any column of COLUMNS as a flat read-only array.
    """

    theta_rows: np.ndarray
    blocks: np.ndarray
    points: np.ndarray
    codes: np.ndarray

    def __len__(self):
        return len(self.codes)

    def __getattr__(self, name):
        if name in COLUMNS:
            return self.column(name)
        raise AttributeError(name)

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self.codes))

    @property
    def flag_counts(self) -> dict:
        """Rows flagged by each kind of flag."""
        counts = np.bincount(self.codes, minlength=len(FLAG_KINDS)).tolist()
        return dict(zip(FLAG_KINDS[1:], counts[1:]))

    def indexed_columns(self) -> list:
        """(values, index) of each column of COLUMNS: row r holds values[r]
        where index is None, else values[index[r]].  The block fields share
        one RowIndex, and a column with as many values as rows has none.
        The flags' values are FLAG_KINDS up to the highest code in use."""
        n, k = len(self), self.theta_rows.shape[1]
        thetas = self.theta_rows.reshape(-1)
        per_block = None if k == 1 else RowIndex(k, self.blocks.shape[1], n)
        return ([(thetas, None if len(thetas) == n else RowIndex(1, len(thetas), n))]
                + [(values, per_block) for values in self.blocks]
                + [(values, None) for values in self.points]
                + [(_FLAG_TEXT[:self.codes.max(initial=0) + 1], self.codes)])

    def column(self, name: str) -> np.ndarray:
        if name in POINT_FIELDS:  # stored per row
            flat = self.points[POINT_FIELDS.index(name)].view()
        else:
            values, index = self.indexed_columns()[COLUMNS.index(name)]
            flat = values if index is None else values.take(index[:len(self)])
        flat.flags.writeable = False
        return flat

    def rows(self):
        """Row tuples in order: the numeric values, then the flag."""
        columns = [self.column(c) for c in COLUMNS[:-1]]
        for i, code in enumerate(self.codes.tolist()):
            yield tuple(c[i] for c in columns) + (FLAG_KINDS[code],)

    @classmethod
    def empty(cls, n: int, thetas_deg) -> "SweepTable":
        """A zero-filled table of n rows over the angle row(s) thetas_deg."""
        theta_rows = np.array(thetas_deg, dtype=float, ndmin=2)
        k = theta_rows.shape[1]
        return cls(theta_rows, np.zeros((len(BLOCK_FIELDS), n // k if k else 0)),
                   np.zeros((len(POINT_FIELDS), n)), np.zeros(n, np.uint8))


def _fill_block(table: SweepTable, start: int, thetas_deg, detunings,
                etas, medium: MediumParams, stack: LayerStack,
                beam: BeamParams, work: Workspace):
    """Evaluate one chunk of blocks and write its blocks and rows from
    row ``start``: block i at ``detunings[i]`` and density ``etas[i]``,
    against either a shared 1-D angle row or one angle row per block,
    theta fastest.  chi takes one susceptibility call for the chunk; the
    chunk's arrays are taken from ``work`` and handed back on return."""
    with work.scratch():
        thetas_rad = np.radians(thetas_deg, out=work.take(np.shape(thetas_deg)))
        chi = susceptibility(detunings, medium, etas)
        rp, rs, dmin, abs_rp, drp = _stack_rows(
            thetas_rad, replace(stack, eps2=1.0 + chi[:, None]), beam, work)
        rows = slice(start, start + rp.size)
        abs_rp_column, abs_rs, ratio, delta, tilt = (
            column[rows].reshape(rp.shape) for column in table.points)
        np.copyto(abs_rp_column, abs_rp)
        np.abs(rs, out=abs_rs)
        with np.errstate(invalid="ignore", divide="ignore"):
            delta_plus, theta_minus = shift_kernel(thetas_rad, rp, rs, drp, beam, work, abs_rp)
            np.divide(abs_rs, abs_rp, out=ratio)
        np.divide(delta_plus, beam.lam, out=delta)
        np.copyto(tilt, theta_minus)
        # a non-finite rp or rs (an overflowing interface coefficient, or a
        # NaN denominator) is a resonant denominator too
        resonant = np.less(dmin, RESONANT_DENOMINATOR_FLOOR, out=work.take(rp.shape, bool))
        finite = work.take(rp.shape, bool)
        for r in (rp, rs):
            finite = np.isfinite(r, out=finite)
            resonant |= np.logical_not(finite, out=finite)
        bad = np.less(abs_rp, BREWSTER_FLOOR, out=work.take(rp.shape, bool))
        bad |= resonant
        for column in (ratio, delta, tilt):
            np.copyto(column, np.nan, where=bad)
        codes = table.codes[rows].reshape(rp.shape)  # FLAG_KINDS: 1 resonant, 2 Brewster
        np.copyto(codes, bad)
        np.add(codes, codes, out=codes)
        np.copyto(codes, 1, where=resonant)
        blocks = slice(start // rp.shape[1], start // rp.shape[1] + len(detunings))
    for i, value in enumerate((detunings, etas, chi.real, chi.imag)):
        table.blocks[i, blocks] = value


def evaluate(medium: MediumParams, etas: Optional[Sequence[float]],
             detunings, thetas_deg, stack: LayerStack, beam: BeamParams) -> SweepTable:
    """Table over explicit axes; every table in the package comes from here.

    Rows run (eta, detuning, theta), slowest first.  ``etas=None`` keeps
    the medium's own density.  ``thetas_deg`` is one angle row
    shared by every detuning (1-D: the full product) or one row per
    detuning (shape ``(len(detunings), k)``).  The (eta, detuning)
    blocks form one flat axis, cut into the chunks of ``_chunks`` (whole
    angle rows, at most CHUNK_POINTS points), so a chunk may span etas;
    each chunk writes its blocks and rows by index.  Angles outside
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
    etas = np.array([medium.eta] if etas is None else etas, dtype=float)
    n = len(detunings)
    table = SweepTable.empty(len(etas) * n * row, thetas_deg)
    if not len(table):
        return table
    # chunks after the first reuse the block; a single chunk has nothing to
    # reuse, and numpy allocates its small arrays faster than a block
    step = _chunk_blocks(row)
    work = Workspace(step * row if len(etas) * n > step else 0)
    for chunk in _chunks(len(etas) * n, row):
        blocks = np.arange(chunk.start, chunk.stop)
        _fill_block(table, chunk.start * row,
                    thetas_deg[blocks % n] if per_detuning else thetas_deg,
                    detunings[blocks % n], etas[blocks // n], medium, stack, beam,
                    work)
    return table


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
                  coarse: int = 201) -> float:
    """Angle (degrees) minimizing |rp| inside the window.

    The window is scanned on a coarse grid (in chunks, by ``ctx``); the
    minimum must be interior (otherwise NoMinimumInWindow) and is then
    refined by golden section to GOLDEN_TOL_DEG inside its bracketing
    cell.
    """
    lo, hi = theta_window_deg
    grid = np.linspace(lo, hi, coarse)
    vals = ctx.abs_rp(np.radians(grid))
    i = int(np.argmin(vals))
    if i == 0 or i == coarse - 1 or not (vals[i] < vals[0] and vals[i] < vals[-1]):
        raise NoMinimumInWindow(f"|rp| has no interior minimum in {theta_window_deg}")
    f = lambda t_deg, rows: ctx.abs_rp(np.radians(t_deg))
    return _golden_minimize(f, grid[i - 1], grid[i + 1], GOLDEN_TOL_DEG)[0]


def _sign_changes(p: list, hi: float) -> list:
    """[(x, rising)] at each x in (0, hi) where the real polynomial p
    (coefficients, highest power first) changes sign.

    p is monotone between neighbouring sign changes of p', so each piece
    between them whose ends differ in sign holds one, which bisection
    narrows down to neighbouring floats.
    """
    def f(x):  # Horner's rule
        y = 0.0
        for c in p:
            y = y * x + c
        return y

    n = len(p) - 1
    inner = _sign_changes([c * (n - k) for k, c in enumerate(p[:-1])], hi) if n > 1 else []
    knots = [0.0, *(x for x, _ in inner), hi]
    values = [f(x) for x in knots]
    out = []
    for a, b, fa, fb in zip(knots, knots[1:], values, values[1:]):
        if fa < 0 < fb or fb < 0 < fa:
            x = 0.5 * (a + b)
            while a < x < b:
                a, b = (a, x) if (f(x) > 0) == (fb > 0) else (x, b)
                x = 0.5 * (a + b)
            out.append((x, fb > 0))
    return out


def _critical_terms(num, den):
    """(n' d, n d') for n(u) = |num|^2, d(u) = |den|^2 in u = delta_p^2:
    num(-x) = -conj(num(x)) and den(-x) = conj(den(x)), so both squares
    are even in delta_p."""
    n, d = (np.convolve(p, p.conj()).real[::2] for p in (num, den))
    return np.convolve(np.polyder(n), d), np.convolve(n, np.polyder(d))


def find_transparency_windows(medium: MediumParams, detuning_range: tuple) -> list:
    """Detunings where the medium is closest to transparent: the local
    minima of |chi(delta_p)| strictly inside the range.

    chi is a cubic num over a quartic den and |chi| is even in delta_p, so
    the minima are exact: +-sqrt(u) at each u > 0 where q = n' d - n d',
    the sign of d|chi|^2/du, turns from negative to positive, and 0 where
    q > 0 as u -> 0.  Coefficients of q within rounding of their terms
    are zero, and its powers of u (those of delta_p that num and den
    share, as for beta = 0) are divided out, so that no multiple root is
    split into spurious ones.  |chi|, not the absorption alone, is used:
    both dispersion and absorption are small there, the operating points
    of enhanced beam shift.  May return an empty list; raises
    SpinHallError where a coefficient of q overflows.
    """
    if medium.eta == 0:
        return []
    num, den = _coherence_polynomials(medium)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.polysub(*_critical_terms(num, den))
    if not np.all(np.isfinite(q)):
        raise SpinHallError("the transparency-window polynomial of this medium "
                            "overflows")
    q[np.abs(q) <= _COEFF_ROUNDING * sum(_critical_terms(np.abs(num), np.abs(den)))] = 0.0
    q = np.trim_zeros(q, "b").tolist()
    lo, hi = map(float, detuning_range)
    # u runs to the larger end squared, or to the largest float where that
    # overflows: an infinite end would stop the last bisection at inf
    u_max = min(max(lo * lo, hi * hi), sys.float_info.max)
    x = [u ** 0.5 for u, rising in _sign_changes(q, u_max) if rising]
    windows = [-v for v in reversed(x)] + [0.0] * (q[-1] > 0) + x
    return [w for w in windows if lo < w < hi]


def extremal_angles(kind: str, detunings, ctx_base: ScanContext,
                    theta_window_deg: tuple = (30.0, 38.0), coarse: int = 801):
    """Per-detuning extremum over incidence angle: (angles_deg, values).

    ``kind`` is "spatial" (largest |delta_plus|, valued in units of the
    wavelength) or "angular" (largest theta_minus).  A coarse scan, a
    chunk of detunings against the angle grid at a time, keeps each one's
    best grid point; one lockstep golden section over all, in chunks too,
    refines them, kept where it beats the grid.  So the working set does
    not grow with the detunings, and each takes the steps of a search of
    its own; no detunings give empty arrays.
    """
    if kind not in ("spatial", "angular"):
        raise ValueError("kind must be 'spatial' or 'angular'")
    lo, hi = theta_window_deg
    grid_rad = np.radians(np.linspace(lo, hi, coarse))
    detunings = np.asarray(detunings, dtype=float)
    stack, beam = ctx_base.stack, ctx_base.beam
    eps2 = 1.0 + susceptibility(detunings, ctx_base.medium)
    # one workspace for the scan: the largest coarse chunk or golden step
    work = Workspace(max(min(_chunk_blocks(coarse), len(detunings)) * coarse,
                         min(_chunk_blocks(1), 2 * len(detunings))))

    def objective(t, eps):  # taken from work: read it before the next take
        rp, rs, _, abs_rp, drp = _stack_rows(t, replace(stack, eps2=eps), beam, work)
        delta_plus, theta_minus = shift_kernel(t, rp, rs, drp, beam, work, abs_rp)
        if kind == "spatial":
            return np.negative(np.abs(delta_plus, out=delta_plus), out=delta_plus)
        return np.negative(theta_minus, out=theta_minus)

    def at_points(t, rows):  # the objective at t[j] against eps2[rows[j]]
        out = np.empty(len(t))
        for chunk in _chunks(len(t), 1):
            with work.scratch():
                out[chunk] = objective(t[chunk], eps2[rows[chunk]])
        return out

    i = np.empty(len(detunings), np.intp)
    grid_best = np.empty(len(detunings))
    for chunk in _chunks(len(detunings), coarse):
        with work.scratch():
            vals = objective(grid_rad, eps2[chunk, None])
            finite = np.isfinite(vals, out=work.take(vals.shape, bool))
            np.copyto(vals, np.inf, where=np.logical_not(finite, out=finite))
            i[chunk] = np.argmin(vals, axis=1)
            grid_best[chunk] = -vals[np.arange(len(vals)), i[chunk]]
    t_best = _golden_minimize(at_points, grid_rad[np.maximum(i - 1, 0)],
                              grid_rad[np.minimum(i + 1, coarse - 1)],
                              np.radians(GOLDEN_TOL_DEG))
    refined = -at_points(t_best, np.arange(len(detunings)))
    better = refined > grid_best
    best = np.where(better, refined, grid_best)
    angles = np.where(better, t_best, grid_rad[i])
    return np.degrees(angles), best / beam.lam if kind == "spatial" else best

