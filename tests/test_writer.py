"""The streaming table writer against the row-based writer it replaced.

``reference_write`` is the former ``cli._write_rows``: it materialises the
row tuples, formats every value on its own and writes one string.  The
streaming writer must give the same bytes for CSV (with and without the
manifest header) and JSON, on real tables, on the oracle's six-column
row and on arbitrary values straddling the writer's block boundary.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinhall.cli as cli
from spinhall import LayerStack, RunManifest, evaluate, load_config
from spinhall.cli import ORACLE_COLUMNS, main
from spinhall.sweep import COLUMNS, FLAG_BREWSTER, FLAG_RESONANT, SweepGrid, sweep

FLOAT_FORMAT = "{:.8e}"  # 9 significant digits, lowercase exponent
MANIFEST_CUT = b',\n  "manifest": '


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return FLOAT_FORMAT.format(float(value))


def reference_write(path, columns, rows, manifest, header_comment, fmt):
    if fmt == "json":
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


def rows_of(numeric, flags):
    """Row tuples as ``SweepTable.rows`` yields them: numpy scalars, then the flag."""
    tail = [(f,) for f in flags] if flags is not None else [()] * len(numeric[0])
    return [tuple(col[i] for col in numeric) + tail[i] for i in range(len(tail))]


def both_writers(tmp_path, columns, numeric, flags, header, fmt):
    """(streamed bytes, reference bytes) of one table under one manifest."""
    manifest = RunManifest.for_run(["test"], load_config(), len(numeric[0]), 0)
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    cli._write_rows(new, columns, numeric, flags, manifest, header, fmt)
    reference_write(old, columns, rows_of(numeric, flags), manifest, header, fmt)
    return new.read_bytes(), old.read_bytes()


def table_columns(table):
    return [table.column(c) for c in COLUMNS[:-1]], table.flags


@pytest.fixture(scope="module")
def flagged_table():
    """An eta_list sweep plus a Brewster grid: NaN cells and both flag kinds."""
    cfg = load_config(preset="fig2-ctl")
    medium, stack, beam = cfg.build()
    grid = SweepGrid((30.0, 38.0, 41), (-2.0, 2.0, 9), eta_list=(0.05, 0.1))
    table = sweep(grid, medium, stack, beam)
    brewster = math.degrees(math.atan(1 / 1.5))
    flagged = evaluate([medium], None, [0.0, 1.0], [brewster, brewster + 1e-12],
                       LayerStack(eps2=1.0 + 0j), beam)
    assert flagged.flagged_count == 2
    numeric = [np.concatenate([a, b]) for a, b in zip(table_columns(table)[0],
                                                      table_columns(flagged)[0])]
    return numeric, table.flags + flagged.flags


class TestAgainstReference:
    @pytest.mark.parametrize("fmt, header", [("csv", False), ("csv", True),
                                             ("json", False)])
    @pytest.mark.parametrize("chunk", [65_536, 40, 1])
    def test_table_bytes(self, fmt, header, chunk, flagged_table, tmp_path,
                         monkeypatch):
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk)
        new, old = both_writers(tmp_path, COLUMNS, *flagged_table, header, fmt)
        assert new == old

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_oracle_row_bytes(self, fmt, tmp_path):
        for row in [(30.0, 0.5, 1.25e-3, 1.2500001e-3, -0.0, 2.5e-9),
                    (33.69, -1.0, math.nan, math.inf, -math.inf, 5e-324)]:
            numeric = [np.array([v]) for v in row]
            new, old = both_writers(tmp_path, ORACLE_COLUMNS, numeric, None, True, fmt)
            assert new == old

    def test_empty_table(self, tmp_path):
        numeric = [np.zeros(0) for _ in COLUMNS[:-1]]
        for fmt in ("csv", "json"):
            new, old = both_writers(tmp_path, COLUMNS, numeric, [], False, fmt)
            assert new == old

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           values=st.lists(st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                                -2.2250738585e-313, 2.2250738585072014e-308,
                                1e300, -1e-300, 1.0, 123456789.0])),
               min_size=1, max_size=64),
           chunk=st.integers(1, 7), oracle=st.booleans(),
           fmt=st.sampled_from(["csv", "json"]), header=st.booleans())
    def test_any_values_any_block_size(self, data, values, chunk, oracle, fmt,
                                       header, tmp_path_factory):
        columns = ORACLE_COLUMNS if oracle else COLUMNS
        width = len(columns) - (not oracle)
        n = data.draw(st.integers(0, 3 * chunk + 1), label="rows")
        cells = [values[k % len(values)] for k in range(n * width)]
        numeric = [np.array(cells[j::width], dtype=float) for j in range(width)]
        flags = None if oracle else data.draw(st.lists(
            st.sampled_from(["", FLAG_BREWSTER, FLAG_RESONANT, 'odd "flag" é']),
            min_size=n, max_size=n), label="flags")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CHUNK_POINTS", chunk)
            new, old = both_writers(tmp_path_factory.mktemp("w"), columns, numeric,
                                    flags, header, fmt)
        assert new == old


class TestCliAgainstReference:
    def test_sweep_json_before_manifest(self, tmp_path):
        out = tmp_path / "out.json"
        argv = ["sweep", "--preset", "fig3-lambda", "--grid", "33,34,7",
                "--format", "json", "--out", str(out)]
        assert main(argv) == 0
        cfg = load_config(preset="fig3-lambda")
        medium, stack, beam = cfg.build()
        lo, hi, n = cfg.sweep.detuning
        detunings = np.linspace(lo, hi, int(n))
        table = evaluate([medium], cfg.sweep.eta_list or None, detunings,
                         np.linspace(33.0, 34.0, 7), stack, beam)
        ref = tmp_path / "ref.json"
        manifest = RunManifest.for_run(argv, cfg, len(table), table.flagged_count)
        reference_write(ref, COLUMNS, list(table.rows()), manifest, False, "json")
        got, want = out.read_bytes(), ref.read_bytes()
        assert got[:got.rfind(MANIFEST_CUT)] == want[:want.rfind(MANIFEST_CUT)]
        got_manifest = json.loads(got)["manifest"]
        assert got_manifest == json.loads(Path(f"{out}.manifest.json").read_text())
        want_manifest = json.loads(want)["manifest"]
        for m in (got_manifest, want_manifest):
            m.pop("timestamp_utc")
        assert got_manifest == want_manifest

    def test_oracle_csv_and_json(self, tmp_path):
        base = ["oracle", "--preset", "fig2-ctl", "--theta", "33.5",
                "--detuning", "0.5", "--manifest-header"]
        as_json, as_csv = tmp_path / "o.json", tmp_path / "o.csv"
        ref = tmp_path / "ref.csv"
        assert main(base + ["--format", "json", "--out", str(as_json)]) == 0
        assert main(base + ["--out", str(as_csv)]) == 0
        payload = json.loads(as_json.read_text())
        assert payload["columns"] == list(ORACLE_COLUMNS)
        row = tuple(payload["rows"][0])  # JSON floats round-trip exactly
        sidecar = Path(f"{as_csv}.manifest.json")
        manifest = RunManifest(**json.loads(sidecar.read_text()))
        reference_write(ref, ORACLE_COLUMNS, [row], manifest, True, "csv")
        assert as_csv.read_bytes() == ref.read_bytes()


# sha256 of `spinhall reproduce <target> --threads 1`, unchanged since the seed
# for fig2d and since the fig5b rows became real angle-of-maximum rows
GOLDEN_SHA256 = {
    "fig2d": "087a8708109d9b71e1a6df2f2969cf0c7b6eebc3a345740498696ec6ac725488",
    "fig5b": "7c81b7c3656a62f06c04dd1a8093b75ec7f0a00a02b092d76f5d6852c00148b9",
}


@pytest.mark.parametrize("target", sorted(GOLDEN_SHA256))
def test_reproduce_golden_digest(target, tmp_path):
    out = tmp_path / f"{target}.csv"
    assert main(["reproduce", target, "--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[target]
