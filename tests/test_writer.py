"""The streaming table writer against the row-based writer it replaced.

``reference_write`` is the former ``cli._write_rows``: it materialises the
row tuples, formats every value on its own and writes one string.  The
streaming writer must give the same bytes for CSV (with and without the
manifest header) and JSON, on real tables, on the oracle's six-column
row and on arbitrary values straddling the writer's block boundary.  Its
vectorised ``%.8e`` formatter must match ``"%.8e" %`` on any 64-bit
pattern, on rounding ties and on decade edges, and its JSON numbers must
match ``repr`` likewise, on powers of two, near-ties and subnormals too.
"""

import hashlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinhall.cli as cli
from spinhall import (LayerStack, RunManifest, ValidationError, evaluate,
                      jsontext, load_config)
from spinhall.cli import ORACLE_COLUMNS, main
from spinhall.config import config_from_dict
from spinhall.sweep import (COLUMNS, FLAG_BREWSTER, FLAG_RESONANT, RowIndex,
                            SweepTable)

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


def flat_data(columns, flags=None):
    """Writer columns of per-row float values and, when ``flags`` is given,
    the trailing flag column as its distinct strings and a code per row."""
    data = [(np.asarray(c, dtype=float), None) for c in columns]
    if flags is not None:
        kinds = list(dict.fromkeys(flags)) or [""]
        data.append((np.array(kinds), np.array([kinds.index(f) for f in flags],
                                               dtype=np.intp)))
    return data


def rows_of(data):
    """Row tuples as ``SweepTable.rows`` yields them: numpy scalars, each
    column expanded through its index."""
    n = cli._row_count(data)
    return list(zip(*(values if index is None else values[index[:n]]
                      for values, index in data)))


def both_writers(tmp_path, columns, data, header, fmt):
    """(streamed bytes, reference bytes) of one table under one manifest."""
    manifest = RunManifest.for_run(["test"], load_config(), cli._row_count(data), 0)
    new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
    cli._write_rows(new, columns, data, manifest, header, fmt)
    reference_write(old, columns, rows_of(data), manifest, header, fmt)
    return new.read_bytes(), old.read_bytes()


def flag_column(codes):
    """The flag column that ``SweepTable.indexed_columns`` gives for ``codes``."""
    table = SweepTable.empty(len(codes), [0.0])
    table.codes[:] = codes
    return table.indexed_columns()[-1]


@pytest.fixture(scope="module")
def flagged_tables():
    """Structured tables with NaN cells and Brewster flags, over a 1-D
    angle row and over one angle row per detuning, two etas each."""
    cfg = load_config(preset="fig2-ctl")
    medium, _, beam = cfg.build()
    brewster = math.degrees(math.atan(1 / 1.5))
    axes = [(np.linspace(-2.0, 2.0, 9),
             np.append(np.linspace(30.0, 38.0, 41), [brewster, brewster + 1e-12])),
            ([0.0, 0.5, 1.0], [[brewster, 34.0], [33.0, brewster], [36.0, 37.0]])]
    tables = [evaluate(medium, [0.05, 0.1], detunings, thetas,
                       LayerStack(eps2=1.0 + 0j), beam) for detunings, thetas in axes]
    assert [table.flagged_count for table in tables] == [4, 2]
    # codes that use no flag, resonant only, brewster only or both, whose
    # flag columns hold one, two, three and three kinds; and no rows
    tables += [replace(tables[0], codes=np.resize(np.array(kinds, np.uint8),
                                                  len(tables[0])))
               for kinds in ([0], [0, 1], [0, 2], [0, 1, 2])]
    tables.append(SweepTable.empty(0, [33.0, 34.0]))
    return [table.indexed_columns() for table in tables]


class TestAgainstReference:
    @pytest.mark.parametrize("fmt, header", [("csv", False), ("csv", True),
                                             ("json", False)])
    @pytest.mark.parametrize("chunk", [65_536, 40, 1])
    def test_table_bytes(self, fmt, header, chunk, flagged_tables, tmp_path,
                         monkeypatch):
        monkeypatch.setattr(cli, "WRITE_ROWS", chunk)
        for data in flagged_tables:
            new, old = both_writers(tmp_path, COLUMNS, data, header, fmt)
            assert new == old

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_oracle_row_bytes(self, fmt, tmp_path):
        for row in [(30.0, 0.5, 1.25e-3, 1.2500001e-3, -0.0, 2.5e-9),
                    (33.69, -1.0, math.nan, math.inf, -math.inf, 5e-324)]:
            new, old = both_writers(tmp_path, ORACLE_COLUMNS,
                                    flat_data([[v] for v in row]), fmt == "csv", fmt)
            assert new == old

    def test_empty_table(self, tmp_path):
        data = flat_data([np.zeros(0) for _ in COLUMNS[:-1]], flags=[])
        for fmt in ("csv", "json"):
            new, old = both_writers(tmp_path, COLUMNS, data, False, fmt)
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
        header = header and fmt == "csv"  # JSON carries no manifest header
        columns = ORACLE_COLUMNS if oracle else COLUMNS
        width = len(columns) - (not oracle)
        n = data.draw(st.integers(0, 3 * chunk + 1), label="rows")
        cells = [values[k % len(values)] for k in range(n * width)]
        numeric = [np.array(cells[j::width], dtype=float) for j in range(width)]
        flags = None if oracle else data.draw(st.lists(
            st.sampled_from(["", FLAG_BREWSTER, FLAG_RESONANT, 'odd "flag" é']),
            min_size=n, max_size=n), label="flags")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "WRITE_ROWS", chunk)
            new, old = both_writers(tmp_path_factory.mktemp("w"), columns,
                                    flat_data(numeric, flags), header, fmt)
        assert new == old

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           values=st.lists(st.one_of(
               st.floats(allow_nan=True, allow_infinity=True),
               st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                                5e-324, -2.2250738585e-313, 2.2250738585072014e-308,
                                1e300, -1e-300, 0.5, 2.0, 1e16, 123456789.5,
                                9.999999995, 33.69])),
               min_size=1, max_size=24),
           k=st.integers(1, 9), blocks=st.integers(0, 5),
           per_detuning=st.booleans(), chunk=st.integers(1, 7),
           fmt=st.sampled_from(["csv", "json"]), header=st.booleans())
    def test_structured_table_any_block_size(self, data, values, k, blocks,
                                             per_detuning, chunk, fmt, header,
                                             tmp_path_factory):
        """A table laid out as SweepTable.indexed_columns lays it out: an
        angle column of k repeating values (or one row of them per block),
        four block columns sharing one index, five per-row columns and the
        flag column of codes that use no flag, one kind or both, every value drawn from a pool that repeats NaN, -0.0,
        subnormals and values the fast paths leave to the fallback; blocks
        of 1-7 rows end inside an angle row."""
        header = header and fmt == "csv"
        n = k * blocks
        pool = lambda count, offset: np.array(
            [values[(offset + 5 * i) % len(values)] for i in range(count)], dtype=float)
        period = k * blocks if per_detuning else k
        per_block = RowIndex(k, blocks, n)
        table = [(pool(period, 0), RowIndex(1, period, n))]
        table += [(pool(blocks, 1 + j), per_block) for j in range(4)]
        table += [(pool(n, 7 + j), None) for j in range(5)]
        kinds = data.draw(st.sampled_from([[0], [0, 1], [0, 2], [0, 1, 2]]),
                          label="kinds")
        codes = data.draw(st.lists(st.sampled_from(kinds), min_size=n, max_size=n),
                          label="codes")
        table.append(flag_column(codes))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "WRITE_ROWS", chunk)
            new, old = both_writers(tmp_path_factory.mktemp("w"), COLUMNS, table,
                                    header, fmt)
        assert new == old

    def test_json_manifest_header_raises(self, tmp_path):
        data = flat_data([[1.0] for _ in ORACLE_COLUMNS])
        manifest = RunManifest.for_run(["test"], load_config(), 1, 0)
        with pytest.raises(ValidationError, match="manifest-header"):
            cli._write_rows(tmp_path / "out.json", ORACLE_COLUMNS, data, manifest,
                            True, "json")
        assert list(tmp_path.iterdir()) == []


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
        table = evaluate(medium, cfg.sweep.eta_list or None, detunings,
                         np.linspace(33.0, 34.0, 7), stack, beam)
        ref = tmp_path / "ref.json"
        manifest = RunManifest.for_run(argv, cfg, len(table), table.flagged_count,
                                       table.flag_counts)
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
                "--detuning", "0.5"]
        as_json, as_csv = tmp_path / "o.json", tmp_path / "o.csv"
        ref = tmp_path / "ref.csv"
        assert main(base + ["--format", "json", "--out", str(as_json)]) == 0
        assert main(base + ["--manifest-header", "--out", str(as_csv)]) == 0
        payload = json.loads(as_json.read_text())
        assert payload["columns"] == list(ORACLE_COLUMNS)
        row = tuple(payload["rows"][0])  # JSON floats round-trip exactly
        sidecar = Path(f"{as_csv}.manifest.json")
        manifest = RunManifest(**json.loads(sidecar.read_text()))
        reference_write(ref, ORACLE_COLUMNS, [row], manifest, True, "csv")
        assert as_csv.read_bytes() == ref.read_bytes()


# argv text the manifest's config block must not be confused with
TRICKY_TEXT = st.sampled_from(['"config": null', '\n  "config": null',
                               '  "config": null,', 'back\\slash "quoted"',
                               "non-ASCII \u00e9\u00df\u2713 \U0001f600", ""])
# a number and its value of another type, which json.dumps writes apart
INT_OR_FLOAT = st.integers(1, 3) | st.integers(1, 3).map(float) | st.floats(0.1, 3.0)


@st.composite
def manifests(draw):
    """A manifest of ``RunManifest.for_run`` over a drawn config, command
    and flag counts."""
    cfg = config_from_dict({
        "medium": {"eta": draw(INT_OR_FLOAT, label="eta"),
                   "gamma_b": draw(INT_OR_FLOAT, label="gamma_b"),
                   "amplitudes": draw(st.lists(INT_OR_FLOAT, min_size=4,
                                               max_size=4), label="amplitudes")},
        "beam": {"w0_lambdas": draw(st.sampled_from([50, 50.0, 7.5]))},
        "sweep": {"eta_list": draw(st.none() | st.lists(INT_OR_FLOAT, min_size=1,
                                                        max_size=2))},
        # made a file name: a NUL byte or a path that names no file is refused
        "output": {"out": draw((st.text() | TRICKY_TEXT).map(
            lambda text: text.replace("\0", "") + ".csv"), label="out"),
                   "format": draw(st.sampled_from(["csv", "json"])),
                   "manifest_header": draw(st.booleans())}})
    command = draw(st.lists(st.text() | TRICKY_TEXT, max_size=6), label="command")
    counts = {FLAG_RESONANT: draw(st.integers(0, 5)),
              FLAG_BREWSTER: draw(st.integers(0, 5))}
    return RunManifest.for_run(command, cfg, draw(st.integers(0, 10**6)),
                               sum(counts.values()), counts)


class TestManifestText:
    @settings(max_examples=150, deadline=None)
    @given(manifest=manifests(), other=INT_OR_FLOAT, data=st.data())
    def test_to_json_is_json_dumps(self, manifest, other, data, tmp_path_factory):
        """``to_json`` gives the bytes of json.dumps over the fields, for a
        config seen before or not, after a caller edits the manifest's
        config, and with no config; the JSON output embeds it as
        ``json.dumps(payload, indent=2)`` lays it out."""
        def dumps(m):
            return json.dumps(vars(m), indent=2, sort_keys=True)

        assert manifest.to_json() == dumps(manifest)
        assert manifest.to_json() == dumps(manifest)  # the kept config text
        manifest.config["medium"]["eta"] = other  # 1, 1.0 or another value
        assert manifest.to_json() == dumps(manifest)
        bare = replace(manifest, config=data.draw(st.none() | st.just({}), label="config"))
        assert bare.to_json() == dumps(bare)
        row = flat_data([[1.0] for _ in ORACLE_COLUMNS])
        for m in (manifest, bare):
            for fmt, header in (("json", False), ("csv", True)):
                new, old = (tmp_path_factory.mktemp("m") / name
                            for name in ("new", "old"))
                cli._write_rows(new, ORACLE_COLUMNS, row, m, header, fmt)
                reference_write(old, ORACLE_COLUMNS, rows_of(row), m, header, fmt)
                assert new.read_bytes() == old.read_bytes()

    def test_manifests_share_no_config(self):
        cfg = load_config(preset="fig2-ctl")
        first, second = (RunManifest.for_run(["shift"], cfg, 1, 0) for _ in range(2))
        assert first.config == second.config == cfg.to_dict()
        first.config["medium"]["eta"] = 0.5
        first.config["beam"] = None
        assert second.config == cfg.to_dict()
        assert RunManifest.for_run(["shift"], cfg, 1, 0).config == cfg.to_dict()


def csv_lines(*columns, flags=None):
    """Data lines of ``columns`` (and ``flags``) as the CSV writer writes them."""
    out = io.BytesIO()
    cli._write_table(out, flat_data(columns, flags), cli._layout("csv"))
    return out.getvalue().decode().splitlines()


def percent_lines(*columns, fmt="%.8e", flags=None):
    tail = [[f] for f in flags] if flags is not None else [[]] * len(columns[0])
    return [",".join([fmt % v for v in row] + t)
            for row, t in zip(zip(*(np.asarray(c, dtype=float).tolist()
                                     for c in columns)), tail)]


def ulps(values, n):
    """``values`` and their neighbours up to ``n`` ulps away on each side."""
    out, up, down = [values], values, values
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert csv_lines(values) == percent_lines(values)

    def test_ties(self):
        rng = np.random.default_rng(5)
        mantissas = rng.integers(10**8, 10**9, 4000) + 0.5
        exponents = rng.integers(-25, 25, 4000).astype(float)
        ties = mantissas * 10.0 ** exponents
        values = ulps(np.concatenate([ties, -ties]), 1)
        assert csv_lines(values) == percent_lines(values)

    def test_decade_edges_and_powers_of_ten(self):
        k = np.arange(-30.0, 31.0)
        values = np.concatenate([ulps((1e9 - 0.5) * 10.0 ** k, 8),
                                 ulps(10.0 ** np.arange(-320.0, 309.0), 1),
                                 [9.999999995, -9.999999995, 99999999.95]])
        assert csv_lines(values) == percent_lines(values)

    def test_all_values_take_the_fallback(self, monkeypatch):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300,
                  -1e300, 1.5e-15, 2.5e31, 123456789.5, 9.999999995]
        flags = ["", FLAG_BREWSTER] * 6
        assert csv_lines(values, values[::-1], flags=flags) == percent_lines(
            values, values[::-1], flags=flags)
        # the fallback is the only writer of an upper-case exponent
        monkeypatch.setattr(cli, "CSV_FLOAT", "%.8E")
        assert csv_lines(values, values[::-1], flags=flags) == percent_lines(
            values, values[::-1], fmt="%.8E", flags=flags)

    def test_no_value_takes_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(6)
        values = ((rng.integers(10**8, 10**9, 3000) + 0.25)
                  * 10.0 ** rng.integers(-22, 22, 3000) * rng.choice([-1, 1], 3000))
        columns = (values, np.linspace(30.0, 38.0, 3000), values[::-1])
        want = percent_lines(*columns, flags=[FLAG_RESONANT] * 3000)
        monkeypatch.setattr(cli, "CSV_FLOAT", "%.8E")
        assert csv_lines(*columns, flags=[FLAG_RESONANT] * 3000) == want


def json_rows(*columns, flags=None):
    """Rows of ``columns`` (and ``flags``) as the JSON writer writes them."""
    out = io.BytesIO()
    cli._write_table(out, flat_data(columns, flags), cli._layout("json"))
    return out.getvalue().decode()


def repr_rows(*columns, fmt=repr, flags=None):
    """The same rows in the layout of ``json.dumps(..., indent=2)``, each
    finite value written by ``fmt`` and the others as null."""
    rows = []
    for i, row in enumerate(zip(*(np.asarray(c, dtype=float).tolist()
                                  for c in columns))):
        cells = [fmt(v) if math.isfinite(v) else "null" for v in row]
        cells += [] if flags is None else [json.dumps(flags[i])]
        rows.append("    [\n" + ",\n".join("      " + c for c in cells) + "\n    ]")
    return "\n" + ",\n".join(rows) if rows else ""


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestJsonFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert json_rows(values) == repr_rows(values)
        assert json_rows(values, values[::-1]) == repr_rows(values, values[::-1])

    def test_powers_of_two(self):
        values = signed(ulps(2.0 ** np.arange(-1074.0, 1024.0), 2))
        assert json_rows(values) == repr_rows(values)

    def test_decade_edges(self):
        edges = signed(ulps(np.array([1e-5, 1e-4, 1e15, 1e16, 2.0 ** 53]), 8))
        decades = signed(ulps(10.0 ** np.arange(-300.0, 300.0), 2))
        assert json_rows(edges) == repr_rows(edges)
        assert json_rows(decades) == repr_rows(decades)

    @pytest.mark.parametrize("digits", [16, 17])
    def test_near_ties(self, digits):
        # decimals with one more digit than the shortest form, ending in 5
        rng = np.random.default_rng(digits)
        mantissas = rng.integers(10 ** (digits - 2), 10 ** (digits - 1), 3000) * 10 + 5
        exponents = rng.integers(-40, 40, 3000)
        ties = np.array([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(),
                                                            exponents.tolist())])
        values = signed(ulps(ties, 1))
        assert json_rows(values) == repr_rows(values)

    def test_subnormals_zeros_and_non_finite(self):
        rng = np.random.default_rng(7)
        subnormal = rng.integers(1, 2 ** 52, 2000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            signed(subnormal), [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                2.2250738585072014e-308, 2.225073858507201e-308]])
        assert json_rows(values) == repr_rows(values)
        assert json_rows([math.nan], [math.inf], [-math.inf]) == (
            "\n    [\n      null,\n      null,\n      null\n    ]")

    def test_all_values_take_the_fallback(self, monkeypatch):
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300,
                  -1e300, 0.5, 2.0, 1e16, -2.5e17]
        flags = ["", FLAG_BREWSTER] * 6
        columns = (values, values[::-1])
        assert json_rows(*columns, flags=flags) == repr_rows(*columns, flags=flags)
        # the fallback is the only writer of a marked value
        monkeypatch.setattr(cli, "JSON_FLOAT", lambda v: "~" + repr(v))
        assert json_rows(*columns, flags=flags) == repr_rows(
            *columns, fmt=lambda v: "~" + repr(v), flags=flags)

    def test_no_value_takes_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(8)
        values = (rng.uniform(1.0, 10.0, 3000) * 10.0 ** rng.integers(-12, 12, 3000)
                  * rng.choice([-1, 1], 3000))
        columns = (values, np.linspace(30.0, 38.0, 3000), values[::-1])
        want = repr_rows(*columns, flags=[FLAG_RESONANT] * 3000)
        monkeypatch.setattr(cli, "JSON_FLOAT", lambda v: "~" + repr(v))
        assert json_rows(*columns, flags=[FLAG_RESONANT] * 3000) == want


# `spinhall reproduce <target>` writes <target>.csv with these
# digests; CI checks all of them with `sha256sum -c`
GOLDEN_SHA256 = dict(line.split()[::-1] for line in (
    Path(__file__).with_name("golden_sha256.txt").read_text().splitlines()))


# a config file with no parameter keeps the target's preset
FORMAT_ONLY = {"output": {"format": "csv"}}


@pytest.mark.parametrize("target, config", [
    pytest.param(target, config, id=target if config is None else f"{target}-format-only")
    for target in ("fig2d", "fig4c", "fig5b") for config in (None, FORMAT_ONLY)])
def test_reproduce_golden_digest(target, config, tmp_path):
    out = tmp_path / f"{target}.csv"
    argv = ["reproduce", target, "--out", str(out)]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[out.name]


# sha256 of the CSV of the --grid branch of sweep: 601 detunings x 5 angles
SWEEP_GRID_SHA256 = "e8c7b15c720276cdd82c78615899baf44ab57390c743fe4480da6aa0b7257361"


def test_sweep_grid_golden_digest(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--preset", "fig3-lambda", "--grid", "33,34,5", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_GRID_SHA256


# sha256 of the bytes before the manifest of two JSON files (the manifest
# carries a timestamp): `reproduce fig2d --format json` and a three-eta
# `sweep --config` over ETA_GRID
GOLDEN_JSON_SHA256 = dict(line.split()[::-1] for line in (
    Path(__file__).with_name("golden_json_sha256.txt").read_text().splitlines()))
ETA_GRID = {"sweep": {"theta_deg": [30.0, 38.0, 41], "detuning": [-6.0, 6.0, 31],
                      "eta_list": [0.02, 0.05, 0.1]}}


@pytest.mark.parametrize("name", ["fig2d.json", "eta_grid.json"])
def test_json_golden_data_digest(name, tmp_path):
    out = tmp_path / name
    if name == "fig2d.json":
        argv = ["reproduce", "fig2d", "--format", "json"]
    else:
        config = tmp_path / "eta_grid.config.json"
        config.write_text(json.dumps(ETA_GRID))
        argv = ["sweep", "--preset", "fig2-ctl", "--config", str(config),
                "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    digest = hashlib.sha256(data[:data.rfind(MANIFEST_CUT)]).hexdigest()
    assert digest == GOLDEN_JSON_SHA256[name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eta_grid_slots_fit_their_text(fmt):
    """Each indexed column of the ETA_GRID table is laid out at its own
    width: its widest text plus the separator, rounded up to a byte (CSV)
    or an 8-byte word (JSON).  The table is unflagged, so its flag column
    holds only ""."""
    medium, stack, beam = load_config(preset="fig2-ctl").build()
    axes = ETA_GRID["sweep"]
    table = evaluate(medium, axes["eta_list"], np.linspace(*axes["detuning"]),
                     np.linspace(*axes["theta_deg"]), stack, beam)
    data = table.indexed_columns()
    assert table.flagged_count == 0 and data[-1][0].tolist() == [""]
    if fmt == "csv":
        separator, unit = b",", 1
        text = lambda v: _fmt(v).encode()
    else:
        separator, unit = jsontext.SEPARATOR, 8
        text = lambda v: json.dumps(v).encode()
    tables = cli._slot_tables(data, cli._layout(fmt))
    assert [slots is None for slots in tables] == [index is None for _, index in data]
    for (values, index), slots in zip(data, tables):
        if index is None:
            continue
        texts = [text(v) for v in values.tolist()]
        width = -(-(max(map(len, texts)) + len(separator)) // unit) * unit
        raw = slots.view(np.uint8)
        assert raw.shape == (len(values), width)
        assert [row.tobytes().replace(b"\0", b"") for row in raw] == [
            t + separator for t in texts]
