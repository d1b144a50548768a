"""Command-line interface: single-point queries, sweeps and dataset recipes.

Exit status: 0 on success, 2 on configuration/validation problems, 3
when more than MAX_FLAG_FRACTION of the evaluated points had to be
flagged as numerically singular.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (RunConfig, RunManifest, atomic_output, check_table_points,
                     load_config)
from .errors import InvalidAngle, SpinHallError, ValidationError
from .medium import susceptibility
from .shifts import GridSpec, shift_from_beam_integral, shift_kernel
from .sweep import (COLUMNS, ScanContext, SweepGrid, SweepTable,
                    evaluate, extremal_angles, find_brewster,
                    find_transparency_windows, sweep)
# not called here: fig5b/5d call extremal_angles, so they enter no
# sweep.solver span.  Bound for perfbench/tracer.py and its binding test
# until the tracer is re-pointed (ROADMAP item 3)
from .sweep import max_shift_vs_detuning  # noqa: F401

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

ORACLE_COLUMNS = ("theta_deg", "detuning", "delta_closed_lambda",
                  "delta_quad_plus_lambda", "delta_quad_minus_lambda",
                  "rel_diff")


def _blocks(n_rows: int):
    """Row slices of at most WRITE_ROWS rows that cover a table of n_rows."""
    for lo in range(0, n_rows, WRITE_ROWS):
        yield slice(lo, lo + WRITE_ROWS)


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


def _write_csv(out, numeric, flags) -> None:
    """CSV rows of ``numeric`` and ``flags`` to the binary handle ``out``.

    Per block, each row is one _SLOT per value and the NUL-padded end of
    the line (flag and newline), written with the NULs removed.
    """
    width = 17 * len(numeric)
    if flags is None:
        flags = [None] * len(numeric[0])
    kinds = list(dict.fromkeys(flags))
    code = {flag: i for i, flag in enumerate(kinds)}
    tails = np.array([b"\n" if flag is None else f",{flag}\n".encode()
                      for flag in kinds])
    for rows in _blocks(len(numeric[0])):
        values = np.stack([column[rows] for column in numeric], axis=1)
        buf = np.empty((len(values), width + tails.itemsize), np.uint8)
        _csv_slots(values, buf[:, :width].view(_SLOT))
        buf[:, width - 1] = 0  # the line's end replaces the last ','
        codes = np.fromiter(map(code.__getitem__, flags[rows]), np.intp, len(values))
        buf[:, width:].view(tails.dtype)[:, 0] = tails.take(codes)
        out.write(buf.tobytes().translate(None, b"\0"))


def _write_rows(path: Path, columns, numeric, flags, manifest: RunManifest,
                header_comment: bool, fmt: str) -> None:
    """Stream a table to ``path`` block by block, replacing it atomically.

    ``numeric`` holds one float array per leading column of ``columns``;
    ``flags`` is the trailing string column, or None when there is none.
    CSV values are the bytes of ``%.8e``; JSON has the layout of
    ``json.dumps(payload, indent=2)`` for payload {"columns", "rows",
    "manifest"}, non-finite values written as null.
    """
    n_rows = len(numeric[0])
    with atomic_output(path) as fh:
        if fmt == "json":
            row = "    [\n" + ",\n".join(["      %s"] * len(columns)) + "\n    ]"
            fh.write('{\n  "columns": [\n'
                     + ",\n".join(f"    {json.dumps(c)}" for c in columns)
                     + '\n  ],\n  "rows": [')
            sep = "\n"
            quoted = {}
            for rows in _blocks(n_rows):
                block = []
                for column in numeric:
                    part = column[rows]
                    values = part.tolist()
                    for i in np.flatnonzero(~np.isfinite(part)):
                        values[i] = "null"
                    block.append(values)
                if flags is not None:
                    part = flags[rows]
                    for flag in set(part).difference(quoted):
                        quoted[flag] = json.dumps(flag)
                    block.append(list(map(quoted.__getitem__, part)))
                fh.write(sep + ",\n".join(map(row.__mod__, zip(*block))))
                sep = ",\n"
            fh.write(("\n  ]" if n_rows else "]") + ',\n  "manifest": '
                     + manifest.to_json().replace("\n", "\n  ") + "\n}\n")
            return
        if header_comment:
            fh.buffer.writelines(f"# {line}\n".encode()
                                 for line in manifest.to_json().splitlines())
        fh.buffer.write((",".join(columns) + "\n").encode())
        _write_csv(fh.buffer, numeric, flags)


def _write_output(cfg: RunConfig, args, manifest: RunManifest, columns,
                  numeric, flags) -> Path:
    """Data file, then its manifest; a failed manifest takes the data file
    with it, so a failed command leaves neither."""
    out = Path(args.out or cfg.output.out)
    _write_rows(out, columns, numeric, flags, manifest,
                cfg.output.manifest_header or args.manifest_header,
                args.format or cfg.output.format)
    try:
        manifest.write(out)
    except BaseException:
        out.unlink(missing_ok=True)
        raise
    return out


def _emit_table(table: SweepTable, cfg: RunConfig, args, argv) -> int:
    manifest = RunManifest.for_run(argv, cfg, len(table), table.flagged_count)
    out = _write_output(cfg, args, manifest, COLUMNS,
                        [table.column(c) for c in COLUMNS[:-1]], table.flags)
    print(f"wrote {len(table)} rows to {out} ({table.flagged_count} flagged)")
    if len(table) and table.flagged_count / len(table) > MAX_FLAG_FRACTION:
        return 3
    return 0


def _context(cfg: RunConfig, detuning: float, eta=None) -> ScanContext:
    medium, stack, beam = cfg.build()
    if eta is not None:
        medium = replace(medium, eta=float(eta))
    return ScanContext(medium, stack, beam, delta_p=float(detuning))


def _parse_grid(text: str, points_per_angle: int = 1):
    """(T0, T1, N) from --grid, held to the rule of a config-file grid and,
    with ``points_per_angle`` rows per angle, to the table-size limit."""
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValidationError(f"--grid expects T0,T1,N, got {text!r}") from None
    if n < 2 or not lo < hi:
        raise ValidationError(f"--grid needs T0 < T1 and N >= 2, got {text!r}")
    check_table_points(n, points_per_angle)
    return lo, hi, n


def _etas(args):
    """The eta axis of a command: --eta when given, else the medium's."""
    return None if args.eta is None else [args.eta]


def _table(cfg: RunConfig, thetas_deg, detunings, etas, threads: int) -> SweepTable:
    medium, stack, beam = cfg.build()
    return evaluate([medium], etas, detunings, thetas_deg, stack, beam, threads)


def cmd_susceptibility(cfg, args, argv):
    lo, hi, n = cfg.sweep.detuning
    table = _table(cfg, [args.theta], np.linspace(lo, hi, int(n)), _etas(args),
                   args.threads)
    chi0 = susceptibility(args.detuning, _context(cfg, 0.0, args.eta).medium)
    print(f"chi({args.detuning:g}) = {chi0.real:.6e} {chi0.imag:+.6e}i")
    return _emit_table(table, cfg, args, argv)


def cmd_shift(cfg, args, argv):
    thetas = np.linspace(*_parse_grid(args.grid)) if args.grid else [args.theta]
    table = _table(cfg, thetas, [args.detuning], _etas(args), args.threads)
    if len(table) == 1:
        print(f"delta_plus = {table.delta_plus_lambda[0]:.6e} lambda, "
              f"Theta_minus = {table.theta_minus[0]:.6e}")
    return _emit_table(table, cfg, args, argv)


def cmd_sweep(cfg, args, argv):
    medium, stack, beam = cfg.build()
    etas = _etas(args) or cfg.sweep.eta_list
    theta_rng = (_parse_grid(args.grid, cfg.sweep.detuning[2] * len(etas or [None]))
                 if args.grid else tuple(cfg.sweep.theta_deg))
    grid = SweepGrid(theta_range=theta_rng,
                     detuning_range=tuple(cfg.sweep.detuning), eta_list=etas)
    table = sweep(grid, medium, stack, beam, threads=args.threads)
    return _emit_table(table, cfg, args, argv)


def cmd_brewster(cfg, args, argv):
    window = _parse_grid(args.grid)[:2] if args.grid else (30.0, 38.0)
    theta_b = find_brewster(window, _context(cfg, args.detuning, args.eta))
    print(f"brewster angle = {theta_b:.6f} deg at detuning {args.detuning:g}")
    table = _table(cfg, [theta_b], [args.detuning], _etas(args), args.threads)
    return _emit_table(table, cfg, args, argv)


def cmd_windows(cfg, args, argv):
    medium = _context(cfg, 0.0, args.eta).medium
    lo, hi, _ = cfg.sweep.detuning
    windows = find_transparency_windows(medium, (lo, hi))
    print("transparency windows (gamma):",
          " ".join(f"{w:+.4f}" for w in windows) or "none")
    table = _table(cfg, [args.theta], windows or [0.0], _etas(args), args.threads)
    return _emit_table(table, cfg, args, argv)


def cmd_oracle(cfg, args, argv):
    if not 0.0 < args.theta < 90.0:
        raise InvalidAngle("incidence angles must lie in (0, 90) degrees")
    medium, stack, beam = cfg.build()
    ctx = _context(cfg, args.detuning, args.eta)
    layered = ctx.stack_at()
    theta = np.radians(args.theta)
    rp, rs = ctx.coefficients(theta)
    closed = float(shift_kernel(theta, rp, rs, beam)[0])
    quad_plus, quad_minus = shift_from_beam_integral(theta, layered, beam, GridSpec())
    rel = abs(quad_plus - closed) / max(abs(closed), 1e-300)
    print(f"closed = {closed / beam.lam:.6e} lambda, quadrature = "
          f"{quad_plus / beam.lam:.6e} lambda, rel diff = {rel:.3e}")
    row = (args.theta, args.detuning, closed / beam.lam, quad_plus / beam.lam,
           quad_minus / beam.lam, rel)
    _write_output(cfg, args, RunManifest.for_run(argv, cfg, 1, 0), ORACLE_COLUMNS,
                  [np.array([v], dtype=float) for v in row], None)
    return 0


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


def recipe_table(target: str, cfg: RunConfig, threads: int = 1) -> SweepTable:
    """The table of one ``reproduce`` target under ``cfg``."""
    _, thetas, detunings, etas = RECIPES[target]
    if callable(thetas):
        thetas = thetas(cfg, detunings)
    return _table(cfg, thetas, detunings, etas, threads)


def cmd_reproduce(cfg, args, argv):
    if args.target not in RECIPES:
        raise ValidationError(f"unknown reproduce target {args.target!r}")
    if args.preset is None and args.config is None:
        cfg = load_config(preset=RECIPES[args.target][0])
    table = recipe_table(args.target, cfg, args.threads)
    if args.out is None:
        args.out = f"{args.target}.csv"
    return _emit_table(table, cfg, args, argv)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--preset", help="named parameter preset")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--theta", type=float, default=33.69,
                   help="incidence angle in degrees")
    p.add_argument("--detuning", type=float, default=0.0,
                   help="probe detuning in gamma units")
    p.add_argument("--eta", type=float, default=None,
                   help="density parameter override (gamma units)")
    p.add_argument("--out", default=None, help="output data file")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--grid", default=None, help="angle grid T0,T1,N (degrees)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads; a table is split into fixed-size chunks")
    p.add_argument("--manifest-header", action="store_true",
                   help="prefix the CSV with '#'-commented manifest lines")


COMMANDS = {
    "susceptibility": cmd_susceptibility,
    "shift": cmd_shift,
    "angular": cmd_shift,  # same row schema; the tilt column is always present
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
        _add_common(p)
        if name == "reproduce":
            p.add_argument("target", help="dataset name, e.g. fig2d")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        if args.eta is not None and not 0 <= args.eta < float("inf"):
            raise ValidationError("--eta must be finite and >= 0")
        if not np.isfinite(args.detuning):
            raise ValidationError("--detuning must be finite")
        cfg = load_config(path=args.config, preset=args.preset)
        return COMMANDS[args.command](cfg, args, argv)
    except (SpinHallError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
