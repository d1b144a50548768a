"""Command-line interface: single-point queries, sweeps and dataset recipes.

Exit status: 0 on success, 2 on configuration/validation problems, 3
when more than MAX_FLAG_FRACTION of the evaluated points had to be
flagged as numerically singular.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import (RunConfig, RunManifest, atomic_output, check_table_points,
                     load_config)
from .errors import InvalidAngle, SpinHallError, ValidationError
from .medium import susceptibility
from .shifts import BREWSTER_FLOOR, shift_kernel
from .sweep import (COLUMNS, FLAG_BREWSTER, FLAG_KINDS, ScanContext, SweepTable,
                    _point, evaluate, extremal_angles, find_brewster,
                    find_transparency_windows)
# not called here; bound for perfbench/tracer.py and its binding test until
# ROADMAP item 3
from .sweep import max_shift_vs_detuning, shift_from_beam_integral, sweep  # noqa: F401

MAX_FLAG_FRACTION = 0.1
CSV_FLOAT = "%.8e"  # 9 significant digits, lowercase exponent
CSV_TIE = 1e-5  # scaled mantissas this close to a half integer take "%.8e" %
WRITE_ROWS = 2048  # rows per written block, small enough to stay in L2 cache

# one CSV value: "%.8e" text padded with NUL to 16 bytes, then ','; the
# fast path writes sign or NUL, "d.", 4 + 4 digits, "e+dd", NUL
_SLOT = np.dtype({"names": ["sign", "lead", "high", "low", "exponent", "end"],
                  "formats": ["u1", "<u2", "<u4", "<u4", "<u4", "<u2"],
                  "offsets": [0, 1, 3, 7, 11, 15], "itemsize": 17})
_SLOT_TEXT = np.dtype({"names": ["text"], "formats": ["S16"], "offsets": [0],
                       "itemsize": 17})
_COMMA = np.frombuffer(b"\0,", "<u2")[0]
_LEAD = np.array([b"%d." % d for d in range(10)]).view("<u2")
_DIGITS2 = np.array([b"%02d" % i for i in range(100)]).view("<u2").astype(np.uint32)
_DIGITS4 = (_DIGITS2[:, None] | _DIGITS2 << 16).ravel()  # "0000" ... "9999"
# by 22 + k for the scale 10^k, |k| <= 22: exact powers and the exponent 8 - k
_SCALE_UP = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])
_SCALE_DOWN = np.array([float(10 ** max(-k, 0)) for k in range(-22, 23)])
_EXPONENT = np.array([b"e%+03d" % (8 - k) for k in range(-22, 23)]).view("<u4")

JSON_FLOAT = float.__repr__  # the JSON fallback; the fast path writes its bytes

ORACLE_COLUMNS = ("theta_deg", "detuning", "delta_closed_lambda",
                  "delta_quad_plus_lambda", "delta_quad_minus_lambda",
                  "rel_diff")


def _blocks(n_rows: int):
    """Row slices of at most WRITE_ROWS rows that cover a table of n_rows."""
    for lo in range(0, n_rows, WRITE_ROWS):
        yield slice(lo, min(lo + WRITE_ROWS, n_rows))


def _row_count(data) -> int:
    values, index = data[0]
    return len(values if index is None else index)


def _csv_slots(values, slots) -> None:
    """Fill ``slots``, a (rows, cols) array of _SLOT, with the ``%.8e`` text
    of the float block ``values``.

    The fast path scales |x| by one exact power of ten, s = |x| 10^k with
    k = 8 - floor(log10 |x|) held to |k| <= 22, and writes the nine digits
    of rint(s) with the exponent 8 - k.  s carries one rounding, under
    1.2e-7 absolute, so rint(s) is the correctly rounded mantissa unless s
    lies within CSV_TIE of a half integer or outside [1e8, 1e9 - 1/2).
    Those values, which include zeros, non-finite values and exponents
    beyond the exact powers, are written by ``"%.8e" %`` instead.
    """
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.fmin(np.fmax(8.0 - np.floor(np.log10(a)), -22.0), 22.0)
        power = (k + 22.0).astype(np.intp)
        s = a * _SCALE_UP.take(power) / _SCALE_DOWN.take(power)
        m = np.rint(s)
        slow = ~((s >= 1e8) & (s < 999_999_999.5 - CSV_TIE)
                 & (np.abs(s - m) < 0.5 - CSV_TIE))
    m[slow] = 1e8
    m = m.astype(np.uint32)
    lead = m // 100_000_000
    m -= lead * 100_000_000
    high = m // 10_000
    slots["sign"] = (values < 0).view(np.uint8) * np.uint8(45)  # '-'
    slots["lead"] = _LEAD.take(lead)
    slots["high"] = _DIGITS4.take(high)
    slots["low"] = _DIGITS4.take(m - high * 10_000)
    slots["exponent"] = _EXPONENT.take(power)
    slots["end"] = _COMMA
    if slow.any():
        text = [CSV_FLOAT % v for v in values[slow].tolist()]
        slots.view(_SLOT_TEXT)["text"][slow] = text


def _text_slots(texts, separator: bytes, dtype):
    """Each byte string of ``texts`` NUL-padded and followed by ``separator``,
    in slots of the fewest ``dtype`` units that hold the longest, as a
    (texts, units) array."""
    units = -(-(max(map(len, texts), default=0) + len(separator)) // dtype.itemsize)
    width = units * dtype.itemsize
    padded = [text.ljust(width - len(separator), b"\0") + separator for text in texts]
    return np.array(padded, f"S{width}").view(dtype).reshape(len(texts), units)


class _Layout(NamedTuple):
    """How one format lays a table's rows out in a buffer of ``unit``s.

    A row is ``head``, then one NUL-padded slot per value, each ending in
    ``separator``, whose last unit ``end`` replaces.  ``numbers(values,
    units)`` fills ``units`` (rows, cols * number_units) with the slots of
    the float block ``values`` (rows, cols); ``quote`` gives the text of a
    string.  The table's first row drops its first ``drop`` bytes.
    """
    unit: np.dtype
    head: np.ndarray
    end: int
    separator: bytes
    number_units: int
    numbers: Callable
    quote: Callable
    drop: int


@functools.cache
def _layout(fmt: str) -> _Layout:
    """The row layout of ``fmt``, built once per process.  CSV numbers are
    _SLOT text; JSON numbers are ``jsontext`` slots, the bytes of
    ``float.__repr__`` and JSON_FLOAT's fallback, and strings their JSON
    text, in the layout of ``json.dumps(payload, indent=2)``."""
    if fmt == "csv":
        return _Layout(np.dtype(np.uint8), np.zeros(0, np.uint8), ord("\n"), b",",
                       _SLOT.itemsize,
                       lambda values, units: _csv_slots(values, units.view(_SLOT)),
                       str.encode, 0)
    from . import jsontext  # on first use: CSV-only runs never compile it
    return _Layout(jsontext.WORD, jsontext.ROW_HEAD, jsontext.ROW_END,
                   jsontext.SEPARATOR, jsontext.SLOT_WORDS,
                   lambda values, units: jsontext.number_rows(values, units, JSON_FLOAT),
                   lambda text: json.dumps(text).encode(), 1)


def _slot_tables(data, layout: _Layout) -> list:
    """Per column of ``data``: None for a per-row column, else the text
    slots of its distinct values, one row each, as ``layout`` units and
    as wide as the column's widest text needs.  The numbers of every such
    column are formatted in one (values, 1) block."""
    floats = [values for values, index in data
              if index is not None and values.dtype.kind == "f"]
    numbered = iter([])
    if floats:  # jsontext cannot shape an empty block
        units = np.empty((sum(map(len, floats)), layout.number_units), layout.unit)
        layout.numbers(np.concatenate(floats)[:, None], units)
        numbered = iter(units.tobytes().translate(None, b"\0")
                        .split(layout.separator)[:-1])

    def texts(values):
        if values.dtype.kind == "f":
            return list(itertools.islice(numbered, len(values)))
        return [layout.quote(t) for t in values.tolist()]

    return [None if index is None
            else _text_slots(texts(values), layout.separator, layout.unit)
            for values, index in data]


def _runs(data, tables, number_width: int) -> list:
    """The runs of adjacent columns of ``data`` that a row block writes
    together, as (start, stop, columns, index, slots): the per-row columns
    between two indexed ones (index None, no slots; ``number_width`` units a
    value) or the columns that share one index object, whose ``tables``
    side by side are the slots.  start:stop are the run's units in a row."""
    groups = []
    for j, (_, index) in enumerate(data):
        if groups and index is groups[-1][-1]:
            groups[-1][0].append(j)
        else:
            groups.append(([j], index))
    runs, start = [], 0
    for columns, index in groups:
        slots = (None if index is None else tables[columns[0]] if len(columns) == 1
                 else np.concatenate([tables[j] for j in columns], axis=1))
        stop = start + (number_width * len(columns) if slots is None
                        else slots.shape[1])
        runs.append((start, stop, columns, index, slots))
        start = stop
    return runs


def _write_table(out, data, layout: _Layout) -> None:
    """The rows of the columns ``data`` to the binary handle ``out``, laid
    out by ``layout``: CSV lines, or the "rows" list of JSON without its
    brackets.  An indexed column is the text of its values, formatted
    once, in slots as wide as its widest.  Per block of rows, the per-row
    columns are formatted and the indexed ones take their slots, in one
    reused buffer, which is written with the NULs removed."""
    n_rows = _row_count(data)
    if not n_rows:
        return
    runs = _runs(data, _slot_tables(data, layout), layout.number_units)
    head = len(layout.head)
    width = head + runs[-1][1]
    buf = bytearray(layout.unit.itemsize * width * min(WRITE_ROWS, n_rows))
    for rows in _blocks(n_rows):
        units = np.frombuffer(buf, layout.unit, (rows.stop - rows.start) * width)
        units = units.reshape(-1, width)
        units[:, :head] = layout.head
        for start, stop, columns, index, slots in runs:
            if index is None:
                layout.numbers(np.stack([data[j][0][rows] for j in columns], axis=1),
                               units[:, head + start:head + stop])
            else:
                units[:, head + start:head + stop] = slots.take(index[rows], axis=0)
        units[:, -1] = layout.end
        if not rows.start:
            buf[:layout.drop] = bytes(layout.drop)
        text = buf if units.nbytes == len(buf) else buf[:units.nbytes]
        out.write(text.translate(None, b"\0"))


def _check_header(header_comment: bool, fmt: str) -> None:
    if header_comment and fmt == "json":
        raise ValidationError("--manifest-header applies to CSV output only; "
                              "JSON carries the manifest in the file")


def _write_rows(path: Path, columns, data, manifest: RunManifest,
                header_comment: bool, fmt: str) -> None:
    """Stream a table to ``path`` block by block, replacing it atomically.

    ``data`` holds one (values, index) pair per name of ``columns``: row r
    of a column is values[r] when index is None, else values[index[r]],
    and ``index[rows]`` gives the indices of a slice of rows.  Values are
    floats, or strings, which have an index.  CSV values are the bytes of
    ``%.8e``; JSON has the bytes of ``json.dumps(payload, indent=2)`` for
    payload {"columns", "rows", "manifest"}, non-finite values written as
    null.  A manifest header with JSON raises ValidationError before the
    file is opened.
    """
    _check_header(header_comment, fmt)
    n_rows = _row_count(data)
    with atomic_output(path) as fh:
        if fmt == "json":
            fh.buffer.write(('{\n  "columns": [\n'
                             + ",\n".join(f"    {json.dumps(c)}" for c in columns)
                             + '\n  ],\n  "rows": [').encode())
            _write_table(fh.buffer, data, _layout("json"))
            fh.buffer.write((("\n  ]" if n_rows else "]") + ',\n  "manifest": '
                             + manifest.to_json().replace("\n", "\n  ")
                             + "\n}\n").encode())
            return
        if header_comment:
            fh.buffer.writelines(f"# {line}\n".encode()
                                 for line in manifest.to_json().splitlines())
        fh.buffer.write((",".join(columns) + "\n").encode())
        _write_table(fh.buffer, data, _layout("csv"))


def _write_output(cfg: RunConfig, args, manifest: RunManifest, columns,
                  data) -> Path:
    """Data file, then its manifest; a failed manifest takes the data file
    with it, so a failed command leaves neither."""
    out = Path(args.out or cfg.output.out)
    _write_rows(out, columns, data, manifest,
                cfg.output.manifest_header or args.manifest_header,
                args.format or cfg.output.format)
    try:
        manifest.write(out)
    except BaseException:
        out.unlink(missing_ok=True)
        raise
    return out


def _emit_table(table: SweepTable, cfg: RunConfig, args, argv) -> int:
    counts = table.flag_counts
    flagged = sum(counts.values())
    manifest = RunManifest.for_run(argv, cfg, len(table), flagged, counts)
    out = _write_output(cfg, args, manifest, COLUMNS, table.indexed_columns())
    print(f"wrote {len(table)} rows to {out} ({flagged} flagged)")
    return _flag_status(len(table), flagged)


def _flag_status(rows: int, flagged: int) -> int:
    """Exit status 3 when more than MAX_FLAG_FRACTION of ``rows`` are
    flagged, else 0."""
    return 3 if rows and flagged / rows > MAX_FLAG_FRACTION else 0


def _context(cfg: RunConfig, detuning: float, eta=None) -> ScanContext:
    medium, stack, beam = cfg.build()
    if eta is not None:
        medium = replace(medium, eta=float(eta))
    return ScanContext(medium, stack, beam, delta_p=float(detuning))


def _parse_grid(text: str, points_per_angle: int = 1):
    """(T0, T1, N) from --grid, held to the rule of a config-file grid, to
    angles in (0, 90) degrees and, with ``points_per_angle`` rows per
    angle, to the table-size limit."""
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValidationError(f"--grid expects T0,T1,N, got {text!r}") from None
    if n < 2 or not lo < hi:
        raise ValidationError(f"--grid needs T0 < T1 and N >= 2, got {text!r}")
    if not (0.0 < lo and hi < 90.0):
        raise InvalidAngle("incidence angles must lie in (0, 90) degrees")
    check_table_points(n, points_per_angle)
    return lo, hi, n


def _etas(args):
    """The eta axis of a command: --eta when given, else the medium's."""
    return None if args.eta is None else [args.eta]


def _table(cfg: RunConfig, thetas_deg, detunings, etas) -> SweepTable:
    medium, stack, beam = cfg.build()
    return evaluate(medium, etas, detunings, thetas_deg, stack, beam)


def _axis(rng) -> np.ndarray:
    """The points of a [min, max, count] range."""
    lo, hi, n = rng
    return np.linspace(lo, hi, int(n))


def cmd_susceptibility(cfg, args, argv):
    table = _table(cfg, [args.theta], _axis(cfg.sweep.detuning), _etas(args))
    chi0 = susceptibility(args.detuning, _context(cfg, 0.0, args.eta).medium)
    print(f"chi({args.detuning:g}) = {chi0.real:.6e} {chi0.imag:+.6e}i")
    return _emit_table(table, cfg, args, argv)


def cmd_shift(cfg, args, argv):
    thetas = _axis(_parse_grid(args.grid)) if args.grid else [args.theta]
    table = _table(cfg, thetas, [args.detuning], _etas(args))
    if len(table) == 1:
        print(f"delta_plus = {table.delta_plus_lambda[0]:.6e} lambda, "
              f"Theta_minus = {table.theta_minus[0]:.6e}")
    return _emit_table(table, cfg, args, argv)


def cmd_sweep(cfg, args, argv):
    etas = _etas(args) or cfg.sweep.eta_list
    thetas = (_parse_grid(args.grid, cfg.sweep.detuning[2] * len(etas or [None]))
              if args.grid else cfg.sweep.theta_deg)
    table = _table(cfg, _axis(thetas), _axis(cfg.sweep.detuning), etas)
    return _emit_table(table, cfg, args, argv)


def cmd_brewster(cfg, args, argv):
    lo, hi, n = _parse_grid(args.grid) if args.grid else (30.0, 38.0, 201)
    theta_b = find_brewster((lo, hi), _context(cfg, args.detuning, args.eta),
                            coarse=n)
    print(f"brewster angle = {theta_b:.6f} deg at detuning {args.detuning:g}")
    table = _table(cfg, [theta_b], [args.detuning], _etas(args))
    return _emit_table(table, cfg, args, argv)


def cmd_windows(cfg, args, argv):
    medium = _context(cfg, 0.0, args.eta).medium
    lo, hi, _ = cfg.sweep.detuning
    windows = find_transparency_windows(medium, (lo, hi))
    print("transparency windows (gamma):",
          " ".join(f"{w:+.4f}" for w in windows) or "none")
    table = _table(cfg, [args.theta], windows, _etas(args))
    return _emit_table(table, cfg, args, argv)


def cmd_oracle(cfg, args, argv):
    ctx = _context(cfg, args.detuning, args.eta)
    beam = ctx.beam
    theta = np.radians(args.theta)
    rp, rs, abs_rp, drp = _point(theta, ctx.stack_at(), beam)
    closed = float(shift_kernel(theta, rp, rs, None, beam, None, abs_rp)[0])
    quad_plus = float(shift_kernel(theta, rp, rs, drp, beam, None, abs_rp)[0])
    rel = abs(quad_plus - closed) / max(abs(closed), 1e-300)
    print(f"closed = {closed / beam.lam:.6e} lambda, moment = "
          f"{quad_plus / beam.lam:.6e} lambda, rel diff = {rel:.3e}")
    row = (args.theta, args.detuning, closed / beam.lam, quad_plus / beam.lam,
           -quad_plus / beam.lam, rel)
    # the closed form is NaN below the floor, as in a table row
    counts = dict.fromkeys(FLAG_KINDS[1:], 0)
    counts[FLAG_BREWSTER] = int(abs_rp < BREWSTER_FLOOR)
    flagged = sum(counts.values())
    _write_output(cfg, args, RunManifest.for_run(argv, cfg, 1, flagged, counts),
                  ORACLE_COLUMNS, [(np.array([v], dtype=float), None) for v in row])
    return _flag_status(1, flagged)


def _angular_maximum(cfg: RunConfig, detunings):
    """One angle row per detuning: where Theta_minus peaks."""
    return extremal_angles("angular", detunings, _context(cfg, 0.0))[0][:, None]


DENSE_THETA = np.linspace(30.0, 38.0, 801)
FULL_DETUNING = np.linspace(-6.0, 6.0, 601)
LINE_DETUNING = np.linspace(-6.0, 6.0, 1201)

# target: (preset, theta axis in degrees, detuning axis, eta axis); a
# callable theta axis maps (config, detunings) to one angle row per
# detuning, and an eta axis of None keeps the config's density
RECIPES = {
    "fig2a": ("fig2-ctl", [33.69], LINE_DETUNING, None),
    "fig2b": ("fig2-ctl", DENSE_THETA, [0.0], None),
    "fig2d": ("fig2-ctl", np.linspace(33.0, 34.4, 1401), [0.0], None),
    "fig2e": ("fig2-ctl", DENSE_THETA, FULL_DETUNING, None),
    "fig2f": ("fig2-ctl", DENSE_THETA, FULL_DETUNING, [0.01]),
    "fig3a": ("fig3-lambda", [33.69], LINE_DETUNING, None),
    "fig3b": ("fig3-lambda", DENSE_THETA, [-0.1, 0.0, 0.1], None),
    "fig3c": ("fig3-lambda", DENSE_THETA, FULL_DETUNING, None),
    "fig4a": ("fig4-ntype", [33.69], LINE_DETUNING, None),
    "fig4b": ("fig4-ntype", DENSE_THETA, [0.0], [0.05, 0.1]),
    "fig4c": ("fig4-ntype", [33.6, 33.7], [0.0], np.linspace(0.01, 0.2, 50)),
    "fig4f": ("fig4-ntype", DENSE_THETA, FULL_DETUNING, None),
    "fig5a": ("fig3-lambda", DENSE_THETA, [0.0, 0.05, 0.1], None),
    "fig5b": ("fig3-lambda", _angular_maximum, np.linspace(0.0, 0.2, 41), None),
    "fig5c": ("fig4-ntype", DENSE_THETA, [0.05, 0.1, 0.2], None),
    "fig5d": ("fig4-ntype", _angular_maximum, np.linspace(-2.0, 2.0, 81), None),
}


def recipe_table(target: str, cfg: RunConfig) -> SweepTable:
    """The table of one ``reproduce`` target under ``cfg``."""
    _, thetas, detunings, etas = RECIPES[target]
    if callable(thetas):
        thetas = thetas(cfg, detunings)
    return _table(cfg, thetas, detunings, etas)


def cmd_reproduce(cfg, args, argv):
    if args.target not in RECIPES:
        raise ValidationError(f"unknown reproduce target {args.target!r}")
    if args.preset is None and args.config is None:
        cfg = load_config(preset=RECIPES[args.target][0])
    table = recipe_table(args.target, cfg)
    if args.out is None:
        args.out = f"{args.target}.{args.format or cfg.output.format}"
    return _emit_table(table, cfg, args, argv)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--preset", help="named parameter preset")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--theta", type=float, default=None,
                   help="incidence angle in degrees (default 33.69)")
    p.add_argument("--detuning", type=float, default=None,
                   help="probe detuning in gamma units (default 0)")
    p.add_argument("--eta", type=float, default=None,
                   help="density parameter override (gamma units)")
    p.add_argument("--out", default=None, help="output data file")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--grid", default=None, help="angle grid T0,T1,N (degrees)")
    p.add_argument("--threads", type=int, default=None,
                   help="has no effect; tables are evaluated on one thread")
    p.add_argument("--manifest-header", action="store_true",
                   help="prefix the CSV with '#'-commented manifest lines")


# flags a command does not read: given to it, they exit 2, not ignored
UNREAD_FLAGS = {"susceptibility": ("grid",), "windows": ("grid",),
                "oracle": ("grid",), "sweep": ("theta", "detuning"),
                "reproduce": ("eta", "grid", "theta", "detuning")}

# a value such as -1e-3 or -inf, which argparse would take for an option
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$",
                              re.IGNORECASE)

COMMANDS = {
    "susceptibility": cmd_susceptibility,
    "shift": cmd_shift,
    "sweep": cmd_sweep,
    "brewster": cmd_brewster,
    "windows": cmd_windows,
    "oracle": cmd_oracle,
    "reproduce": cmd_reproduce,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of
    ``main`` in the process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="spinhall",
        description="Spin-dependent beam shifts of a probe reflected from a "
                    "glass / atomic-vapor / glass cavity")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        _add_common(p)
        if name == "reproduce":
            p.add_argument("target", help="dataset name, e.g. fig2d")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        for flag in UNREAD_FLAGS.get(args.command, ()):
            if getattr(args, flag) is not None:
                raise ValidationError(f"--{flag} has no effect on {args.command}")
        args.theta = 33.69 if args.theta is None else args.theta
        args.detuning = 0.0 if args.detuning is None else args.detuning
        if not 0.0 < args.theta < 90.0:
            raise InvalidAngle("incidence angles must lie in (0, 90) degrees")
        if args.eta is not None and not 0 <= args.eta < float("inf"):
            raise ValidationError("--eta must be finite and >= 0")
        if not np.isfinite(args.detuning):
            raise ValidationError("--detuning must be finite")
        cfg = load_config(path=args.config, preset=args.preset)
        _check_header(args.manifest_header or cfg.output.manifest_header,
                      args.format or cfg.output.format)
        if args.threads is not None:
            print("note: --threads has no effect; tables are evaluated on one "
                  "thread", file=sys.stderr)
        return COMMANDS[args.command](cfg, args, argv)
    except (SpinHallError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
