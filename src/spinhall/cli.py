"""Command-line interface: single-point queries, sweeps and dataset recipes.

Exit status: 0 on success, 2 on configuration/validation problems, 3
when more than MAX_FLAG_FRACTION of the evaluated points had to be
flagged as numerically singular.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, RunManifest, load_config
from .errors import SpinHallError, ValidationError
from .medium import susceptibility
from .shifts import GridSpec, shift_from_beam_integral, shift_kernel
from .sweep import (COLUMNS, ScanContext, SweepGrid, SweepTable, evaluate,
                    extremal_angles, find_brewster, find_transparency_windows,
                    sweep)
# bound here for perfbench/tracer.py, which wraps the solvers cli can call
from .sweep import max_shift_vs_detuning  # noqa: F401

MAX_FLAG_FRACTION = 0.1
FLOAT_FORMAT = "{:.8e}"  # 9 significant digits, lowercase exponent

ORACLE_COLUMNS = ("theta_deg", "detuning", "delta_closed_lambda",
                  "delta_quad_plus_lambda", "delta_quad_minus_lambda",
                  "rel_diff")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return FLOAT_FORMAT.format(float(value))


def _write_rows(path: Path, columns, rows, manifest: RunManifest,
                header_comment: bool, fmt: str) -> None:
    if fmt == "json":
        import json
        payload = {"columns": list(columns),
                   "rows": [[(None if isinstance(v, float) and not np.isfinite(v)
                              else v) for v in row] for row in rows],
                   "manifest": json.loads(manifest.to_json())}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    lines = []
    if header_comment:
        for line in manifest.to_json().splitlines():
            lines.append("# " + line)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_table(table: SweepTable, cfg: RunConfig, args, argv) -> int:
    manifest = RunManifest.for_run(argv, cfg, len(table), table.flagged_count)
    out = Path(args.out or cfg.output.out)
    _write_rows(out, COLUMNS, list(table.rows()), manifest,
                cfg.output.manifest_header or args.manifest_header,
                args.format or cfg.output.format)
    manifest.write(out)
    print(f"wrote {len(table)} rows to {out} ({table.flagged_count} flagged)")
    if len(table) and table.flagged_count / len(table) > MAX_FLAG_FRACTION:
        return 3
    return 0


def _context(cfg: RunConfig, detuning: float, eta=None) -> ScanContext:
    medium, stack, beam = cfg.build()
    if eta is not None:
        medium = replace(medium, eta=float(eta))
    return ScanContext(medium, stack, beam, delta_p=float(detuning))


def _parse_grid(text: str):
    """(T0, T1, N) from --grid, held to the rule of a config-file grid."""
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValidationError(f"--grid expects T0,T1,N, got {text!r}") from None
    if n < 2 or not lo < hi:
        raise ValidationError(f"--grid needs T0 < T1 and N >= 2, got {text!r}")
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
    theta_rng = _parse_grid(args.grid) if args.grid else tuple(cfg.sweep.theta_deg)
    grid = SweepGrid(theta_range=theta_rng,
                     detuning_range=tuple(cfg.sweep.detuning),
                     eta_list=_etas(args) or cfg.sweep.eta_list)
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
    manifest = RunManifest.for_run(argv, cfg, 1, 0)
    out = Path(args.out or cfg.output.out)
    _write_rows(out, ORACLE_COLUMNS, [row], manifest,
                cfg.output.manifest_header or args.manifest_header,
                args.format or cfg.output.format)
    manifest.write(out)
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


def build_parser() -> argparse.ArgumentParser:
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
