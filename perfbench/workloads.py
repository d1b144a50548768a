"""The three workloads: inputs generated from a seed, and output checks.

The program sees only argv and the generated config files.  Checks read
the files the CLI wrote and recompute values through spinhall's
pointwise public API, which the caller makes importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HEADER = ("theta_deg,detuning,eta,chi1,chi2,abs_rp,abs_rs,ratio_sp,"
          "delta_plus_lambda,theta_minus,flags")
ORACLE_HEADER = ("theta_deg,detuning,delta_closed_lambda,"
                 "delta_quad_plus_lambda,delta_quad_minus_lambda,rel_diff")
PRESETS = ("fig2-ctl", "fig3-lambda", "fig4-ntype")
ETA_POOL = (0.02, 0.05, 0.1, 0.15, 0.2)

# Recomputed table values must agree with the file to this relative
# tolerance.  The CSV keeps 9 significant digits (rounding <= 5e-9); the
# rest covers last-ulp differences between array and scalar evaluation.
REL_TOL = 1e-6
SAMPLE_ROWS = 300
# README: closed form and quadrature agree within 5% where |rp| >= 0.05|rs|.
ORACLE_REL_BOUND = 0.05
ORACLE_DOMAIN = 0.05
BREWSTER_WINDOW = (30.0, 38.0)

# point_queries: fixed counts per kind, each kind spread evenly over the
# presets, so every seed draws the same mix of costs.
# The counts put each percentile inside a group of similar cost.  Of the 100
# timed queries, the 10 slowest are fig2a, fig5d and the first of twelve
# susceptibility tables (601 one-point blocks each), so p90 falls inside
# the susceptibility group.  Ranks 39-62 from the top are the brewster and
# windows solver queries, so p50 falls in the middle of them.
POINT_MIX = (("fig2a", 2), ("fig5d", 3), ("susceptibility", 12), ("fig5b", 3),
             ("oracle", 12), ("fig3b", 1), ("fig5a", 1), ("fig4b", 1),
             ("fig2d", 1), ("fig4c", 1), ("shift_grid", 1), ("windows", 12),
             ("brewster", 12), ("shift", 38))
REPRODUCE_ROWS = {"fig2a": 1201, "fig2d": 1401, "fig3b": 2403, "fig4b": 1602,
                  "fig4c": 100, "fig5a": 2403, "fig5b": 41, "fig5d": 81}
SUSCEPTIBILITY_ROWS = 601  # default sweep.detuning count
SHIFT_GRID_POINTS = 401


@dataclass(frozen=True)
class Grid:
    """A rectangular (eta, detuning, theta) grid, theta fastest."""

    preset: str
    thetas: tuple
    detunings: tuple
    etas: tuple
    config: str | None = None

    @property
    def rows(self) -> int:
        return len(self.etas) * self.detunings[2] * self.thetas[2]

    def point(self, k: int):
        n_theta, n_dp = self.thetas[2], self.detunings[2]
        block, i = divmod(k, n_theta)
        e, j = divmod(block, n_dp)
        return (self.etas[e], float(np.linspace(*self.detunings)[j]),
                float(np.linspace(*self.thetas)[i]))


@dataclass
class Command:
    argv: list
    out: Path
    kind: str
    preset: str
    rows: int | None = None
    theta: float = 0.0
    detuning: float = 0.0
    eta: float | None = None
    grid: Grid | None = None  # kind "grid": the table the command writes
    sample: list = field(default_factory=list)  # grid rows to recompute


@dataclass
class Plan:
    commands: list
    setup: dict
    digest_key: str | None = None


def _grid_command(grid: Grid, argv: list, out: Path, seed: int) -> Command:
    sample = sorted(random.Random(seed).sample(range(grid.rows), SAMPLE_ROWS))
    return Command(argv + ["--out", str(out)], out, "grid", grid.preset,
                   grid.rows, grid=grid, sample=sample)


def fig2e_plan(seed: int, work: Path) -> Plan:
    grid = Grid("fig2-ctl", (30.0, 38.0, 801), (-6.0, 6.0, 601), (0.1,))
    cmd = _grid_command(grid, ["reproduce", "fig2e", "--threads", "1"],
                        work / "fig2e.csv", seed)
    return Plan([cmd], {"preset": grid.preset}, "fig2e")


def eta_grid_plan(preset: str, etas, work: Path, seed: int = 0) -> Plan:
    """Writes the generated config file as a side effect."""
    config = work / "eta_grid.config.json"
    grid = Grid(preset, (30.0, 38.0, 201), (-6.0, 6.0, 201), tuple(etas),
                str(config))
    config.write_text(json.dumps({"sweep": {
        "theta_deg": list(grid.thetas), "detuning": list(grid.detunings),
        "eta_list": list(grid.etas)}}), encoding="utf-8")
    cmd = _grid_command(grid, ["sweep", "--preset", preset, "--config", str(config),
                               "--format", "json", "--threads", "2"],
                        work / "eta_grid.json", seed)
    return Plan([cmd], {"preset": preset, "path": str(config)},
                eta_grid_key(preset, etas))


def eta_grid_key(preset: str, etas) -> str:
    return f"eta_grid:{preset}:" + ",".join(f"{e:g}" for e in etas)


def eta_grid_variants():
    """Every (preset, eta triple) the seed can choose."""
    triples = [(a, b, c) for i, a in enumerate(ETA_POOL)
               for j, b in enumerate(ETA_POOL[i + 1:], i + 1)
               for c in ETA_POOL[j + 1:]]
    return [(p, t) for p in PRESETS for t in triples]


def point_plan(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    queries = [(kind, PRESETS[i % len(PRESETS)])
               for kind, count in POINT_MIX for i in range(count)]
    rng.shuffle(queries)
    # The first query of a fresh process pays lazy first-call set-up; it is
    # always an oracle query and is reported apart from the percentiles.
    queries.insert(0, ("oracle", rng.choice(PRESETS)))
    commands = [_point_command(kind, preset, rng, work / f"q{i:03d}.csv")
                for i, (kind, preset) in enumerate(queries)]
    return Plan(commands, {"preset": commands[0].preset})


def _point_command(kind: str, preset: str, rng: random.Random, out: Path) -> Command:
    if kind in REPRODUCE_ROWS:
        return Command(["reproduce", kind, "--out", str(out)], out, "table",
                       "", rows=REPRODUCE_ROWS[kind])
    theta = round(rng.uniform(30.0, 38.0), 6)
    detuning = round(rng.uniform(-2.0, 2.0), 6)
    eta = rng.choice((None, 0.05, 0.1, 0.15, 0.2))
    rows = 1
    extra = []
    if kind == "oracle":
        # keep away from the Brewster dip (32-35 deg for |detuning| <= 1)
        theta = round(rng.uniform(30.0, 31.5) if rng.random() < 0.5
                      else rng.uniform(36.0, 38.0), 6)
        detuning = round(rng.uniform(-1.0, 1.0), 6)
    elif kind == "shift_grid":
        lo, hi = round(rng.uniform(30.0, 32.0), 4), round(rng.uniform(35.0, 38.0), 4)
        extra = ["--grid", f"{lo},{hi},{SHIFT_GRID_POINTS}"]
        rows = SHIFT_GRID_POINTS
        kind = "table"
    elif kind == "brewster":
        detuning = round(rng.uniform(-1.0, 1.0), 6)
        eta = None
    elif kind == "susceptibility":
        rows = SUSCEPTIBILITY_ROWS
    elif kind == "windows":
        rows = None  # one row per window found, read from stdout
    argv = ["shift" if kind == "table" else kind,
            "--preset", preset, "--theta", repr(theta),
            "--detuning", repr(detuning), "--out", str(out)] + extra
    if eta is not None:
        argv += ["--eta", repr(eta)]
    return Command(argv, out, kind, preset, rows, theta, detuning, eta)


def plan(workload: str, seed: int, work: Path) -> Plan:
    if workload == "fig2e_csv":
        return fig2e_plan(seed, work)
    if workload == "eta_grid_json":
        preset, etas = random.Random(seed).choice(eta_grid_variants())
        return eta_grid_plan(preset, etas, work, seed)
    if workload == "point_queries":
        return point_plan(seed, work)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks

@dataclass
class Outcome:
    ok: bool
    rows: int = 0
    flagged: int = 0
    digest: str | None = None
    note: str = ""


class Reference:
    """Pointwise recomputation through spinhall's public API."""

    def __init__(self):
        import spinhall
        self.api = spinhall
        self._built = {}

    def build(self, preset: str, config: str | None = None):
        key = (preset, config)
        if key not in self._built:
            cfg = self.api.load_config(path=config, preset=preset)
            self._built[key] = cfg.build()
        return self._built[key]

    def context(self, preset, detuning, eta=None, config=None):
        medium, stack, beam = self.build(preset, config)
        if eta is not None:
            medium = replace(medium, eta=float(eta))
        return self.api.ScanContext(medium, stack, beam, delta_p=float(detuning))

    def row(self, ctx, theta_deg: float):
        """The ten numeric table columns, or only the first five when the
        stack denominator is resonant."""
        api = self.api
        chi = api.susceptibility(ctx.delta_p, ctx.medium)
        head = [theta_deg, ctx.delta_p, ctx.medium.eta, chi.real, chi.imag]
        theta = math.radians(theta_deg)
        try:
            rp, rs = api.reflection_coefficients(theta, ctx.beam.lam, ctx.stack_at())
        except api.ResonantDenominator:
            return head
        with np.errstate(divide="ignore", invalid="ignore"):
            return head + [abs(rp), abs(rs), abs(rs) / abs(rp),
                           float(ctx.delta_plus(theta)) / ctx.beam.lam,
                           float(ctx.theta_minus(theta))]


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare(values, expected, flagged: bool) -> bool:
    n = 5 if flagged else len(expected)
    return len(values) >= n and all(_close(v, e) for v, e in zip(values[:n], expected[:n]))


def _manifest(out: Path) -> dict:
    return json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))


def check_grid(cmd: Command, ref: Reference) -> Outcome:
    """Row count, header, NaN flags, manifest flag count, a seeded sample
    recomputed pointwise, and the data digest (reported, not gated)."""
    grid = cmd.grid
    data = cmd.out.read_bytes()
    if cmd.out.suffix == ".csv":
        lines = data.split(b"\n")
        if lines[-1] != b"" or lines[0].decode() != HEADER:
            return Outcome(False, note="bad header or missing final newline")
        body = lines[1:-1]
        flagged = sum(1 for line in body if not line.endswith(b","))
        unflagged_nan = any(b"nan" in line and line.endswith(b",") for line in body)
        rows = len(body)
        digest = hashlib.sha256(data).hexdigest()

        def values(k):
            fields = body[k].decode().split(",")
            return [float(v) for v in fields[:-1]], fields[-1] != ""
    else:
        cut = data.rfind(b',\n  "manifest": ')
        digest = hashlib.sha256(data[:cut]).hexdigest()
        payload = json.loads(data)
        if ",".join(payload["columns"]) != HEADER:
            return Outcome(False, note="bad columns")
        body = payload["rows"]
        flagged = sum(1 for row in body if row[-1])
        unflagged_nan = any(None in row and not row[-1] for row in body)
        rows = len(body)

        def values(k):
            row = body[k]
            return [math.nan if v is None else float(v) for v in row[:-1]], bool(row[-1])
    manifest = _manifest(cmd.out)
    problems = []
    if rows != grid.rows or manifest["row_count"] != rows:
        problems.append(f"{rows} rows, expected {grid.rows}")
    if unflagged_nan:
        problems.append("NaN without a flag")
    if manifest["flagged_count"] != flagged:
        problems.append(f"{flagged} flags, manifest says {manifest['flagged_count']}")
    if not problems:
        for k in cmd.sample:
            eta, dp, theta = grid.point(k)
            got, is_flagged = values(k)
            expected = ref.row(ref.context(grid.preset, dp, eta, grid.config), theta)
            if not _compare(got, expected, is_flagged):
                problems.append(f"row {k} differs from the pointwise API")
                break
    return Outcome(not problems, rows, flagged, digest, "; ".join(problems))


def _read_table(cmd: Command):
    lines = cmd.out.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def check_point(cmd: Command, stdout: str, ref: Reference) -> Outcome:
    """Per-command checks of point_queries (README.md, "Output checks")."""
    header, rows = _read_table(cmd)
    manifest = _manifest(cmd.out)
    expected_rows = cmd.rows
    if cmd.kind == "windows":
        found = stdout.split("transparency windows (gamma):", 1)[1]
        found = found.split("\n", 1)[0].split()
        expected_rows = max(1, len([w for w in found if w != "none"]))
    want_header = ORACLE_HEADER if cmd.kind == "oracle" else HEADER
    flagged = 0 if cmd.kind == "oracle" else sum(1 for r in rows if r[-1])
    problems = []
    if header != want_header:
        problems.append("bad header")
    if len(rows) != expected_rows or manifest["row_count"] != len(rows):
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if manifest["flagged_count"] != flagged:
        problems.append("flag count differs from the manifest")
    note = ""
    if not problems and cmd.kind in ("shift", "brewster", "oracle"):
        ctx = ref.context(cmd.preset, cmd.detuning, cmd.eta)
        values = [float(v) for v in rows[0][:10]]
        if cmd.kind == "shift":
            if not _compare(values, ref.row(ctx, cmd.theta), bool(rows[0][-1])):
                problems.append("shift row differs from the pointwise API")
        elif cmd.kind == "brewster":
            problems += _brewster_problems(ctx, values[0])
        else:
            rp, rs = ctx.coefficients(math.radians(cmd.theta))
            if abs(rp) < ORACLE_DOMAIN * abs(rs):
                note = "oracle point outside |rp| >= 0.05|rs|, not gated"
            elif not values[5] <= ORACLE_REL_BOUND:
                problems.append(f"oracle rel diff {values[5]:.3g} > {ORACLE_REL_BOUND}")
    return Outcome(not problems, len(rows), flagged, None,
                   "; ".join(problems) or note)


def _brewster_problems(ctx, theta_b: float) -> list:
    lo, hi = BREWSTER_WINDOW
    if not lo < theta_b < hi:
        return [f"brewster angle {theta_b} outside {BREWSTER_WINDOW}"]
    f = lambda t: float(ctx.abs_rp(math.radians(t)))
    fb = f(theta_b)
    if not (fb <= f(theta_b - 0.01) and fb <= f(theta_b + 0.01)
            and fb < f(lo) and fb < f(hi)):
        return [f"brewster angle {theta_b} is not an interior minimum of |rp|"]
    return []


def check(cmd: Command, query: dict, ref: Reference) -> Outcome:
    if query["rc"] != 0:
        return Outcome(False, note=f"exit {query['rc']} {query['error']}".strip())
    if not cmd.out.is_file():
        return Outcome(False, note="no output file")
    if cmd.kind == "grid":
        return check_grid(cmd, ref)
    return check_point(cmd, query["stdout"], ref)
