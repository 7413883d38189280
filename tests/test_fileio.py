import csv
import hashlib
import io
import json
import math
import os
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from spatial_outliers import (
    ComparisonReport,
    DetectionResult,
    Edge,
    ParseError,
    PointSite,
    PolygonSite,
    SiteComparison,
    SiteScore,
    SpatialDataset,
    WeightParams,
    compare_models,
    detect_outliers,
    load_edges,
    load_polygons,
    load_sites,
    render_report,
    write_report,
)
from spatial_outliers import dataset as dataset_module
from spatial_outliers import fileio as fileio_module
from spatial_outliers.cli import main
from spatial_outliers.fileio import (
    render_comparison_csv,
    render_detection_csv,
    write_edges_csv,
    write_polygons_json,
    write_sites_csv,
)
from spatial_outliers.fixtures import (
    SURVEY_ATTRIBUTE,
    SURVEY_RADIUS,
    VILLAGE_ATTRIBUTE,
    VILLAGE_RADIUS,
    write_fixture_files,
)

from conftest import grid_polygons, strict_json, unit_square


class TestLoadSites:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,illit_f\n27,3.5,2.0,26\n", encoding="utf-8")
        (site,) = load_sites(path)
        assert site.id == "27"
        assert (site.x, site.y) == (3.5, 2.0)
        assert site.attributes == {"illit_f": 26.0}

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,v\n", encoding="utf-8")
        assert load_sites(path) == ()

    def test_bad_coordinate_names_line(self, tmp_path):
        # a quoted id over two lines: rows below it, and the row itself, are
        # named by the physical line they start on
        path = tmp_path / "sites.csv"
        for text, line in (
            ("id,x,y,v\nA,1,2,3\nB,abc,2,3\n", 3),
            ('id,x,y,v\n"a\nb",0,0,1\nc,zz,0,1\n', 4),
            ('id,x,y,v\nA,1,2,3\n"a\r\nb",zz,0,1\n', 3),
            # an id quoted over four lines, then a clean row, then the fault
            ('id,x,y,v\n"a\n\n\nb",0,0,1\nc,1,1,1\nd,zz,0,1\n', 7),
        ):
            path.write_bytes(text.encode())
            with pytest.raises(ParseError) as err:
                load_sites(path)
            assert err.value.line == line
            assert "not a number" in str(err.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,v\nA,1,2,3\nA,4,5,6\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate site id"):
            load_sites(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="missing header"):
            load_sites(path)

    def test_wrong_leading_columns(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("name,lon,lat\nA,1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="must start with id,x,y"):
            load_sites(path)

    def test_a_blank_first_line_is_the_header(self, tmp_path):
        # blank rows are dropped only after the header is taken
        path = tmp_path / "lead.csv"
        path.write_text("\nid,x,y,v\na,0,0,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_sites(path)
        assert str(err.value) == f"{path}:1: header must start with id,x,y, got []"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, newline):
        path = tmp_path / "bom.csv"
        text = newline.join(["id,x,y,v", "a,0,0,1", "b,1,0,2", ""])
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_sites(path) == (PointSite("a", 0.0, 0.0, {"v": 1.0}),
                                    PointSite("b", 1.0, 0.0, {"v": 2.0}))

    def test_a_bad_byte_after_a_byte_order_mark_names_its_file_offset(self, tmp_path):
        path = tmp_path / "bom.csv"
        data = b"\xef\xbb\xbfid,x,y,v\na,0,0,1\nb,\xff,0,1\n"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            load_sites(path)
        offset = data.index(b"\xff")  # counted in the file's bytes, the mark's included
        assert str(err.value) == f"{path}:3: not UTF-8: byte 0xff at offset {offset}"

    @pytest.mark.parametrize("header, message", [
        ("id,x,y,v,v", "column 5: duplicate column name 'v'"),
        ("id,x,y,x", "column 4: duplicate column name 'x'"),
        ("id,x,y,", "column 4: empty column name"),
        ("id,x,y,v, ,w", "column 5: empty column name"),
    ])
    def test_header_names_must_be_non_empty_and_distinct(self, tmp_path, header, message):
        path = tmp_path / "sites.csv"
        width = header.count(",") + 1
        path.write_text(f"{header}\nA,0,0{',1' * (width - 3)}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_sites(path)
        assert err.value.line == 1

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,v\nA,1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected 4 columns"):
            load_sites(path)
        path.write_text('id,x,y,v\n"a\n\nb",0,0,1\n\nc,1,2\n', encoding="utf-8")
        with pytest.raises(ParseError, match="expected 4 columns") as err:
            load_sites(path)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"id,x,y,v\nA,1,2,3\nB,\xff,2,3\n", 3),
            (b"id,x,y,v\r\nA,1,2,3\r\nB,1,\xc3(,3\r\n", 3),
            (b"id,x,y,v\rA,1,2,3\rB,1,2,3\rC,1,2,\x80\r", 4),
            (b"\xffid,x,y,v\n", 1),
            (b"id,x,y,v\n" + b"".join(b"S%d,1,2,3\n" % k for k in range(3000)) + b"\xff", 3002),
            # the whole file is decoded before any row is parsed, so a bad
            # byte past the first 8 KiB still wins over an earlier bad row
            (b"id,x,y,v\nA,abc,2,3\n" + b"".join(b"S%d,1,2,3\n" % k for k in range(1000))
             + b"Z,1,2,\xff\n", 1003),
        ],
        ids=["lf", "crlf", "cr", "header", "past-first-read", "bad-row-first"],
    )
    def test_undecodable_bytes_name_their_line(self, tmp_path, data, line):
        path = tmp_path / "sites.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            load_sites(path)
        assert err.value.line == line
        assert err.value.path == str(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,x,y,v\nA,0,0,1\nB,{big},0,2\n", 3),
            ("id,x,y,{big}\nA,0,0,1\n", 1),
            ('id,x,y,v\nA,0,0,"1\n{big}"\n', 3),
        ],
        ids=["row", "header", "quoted-over-two-lines"],
    )
    def test_fields_past_the_csv_limit_name_their_line(self, tmp_path, text, line):
        path = tmp_path / "sites.csv"
        path.write_text(text.format(big="9" * (csv.field_size_limit() + 1)), encoding="utf-8")
        with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as err:
            load_sites(path)
        assert err.value.line == line
        assert err.value.path == str(path)


class TestLoadEdges:
    def test_parallel_rows_kept(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(
            "from,to,length,cost\nA,B,1.0,1.0\nA,B,1.0,1.0\n", encoding="utf-8"
        )
        edges = load_edges(path)
        assert len(edges) == 2

    def test_zero_length_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,length,cost\nA,B,0,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="length must be positive"):
            load_edges(path)

    def test_zero_cost_allowed(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,length,cost\nA,B,2.5,0\n", encoding="utf-8")
        (edge,) = load_edges(path)
        assert edge.cost == 0.0

    def test_negative_cost_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,length,cost\nA,B,2.5,-1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="cost must be non-negative"):
            load_edges(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,weight\nA,B,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header must be from,to,length,cost"):
            load_edges(path)

    def test_a_blank_first_line_is_the_header(self, tmp_path):
        path = tmp_path / "lead.csv"
        path.write_text("\nfrom,to,length,cost\na,b,1,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert str(err.value) == f"{path}:1: header must be from,to,length,cost, got []"

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbffrom,to,length,cost\na,b,1.5,0\n")
        assert load_edges(path) == (Edge("a", "b", 1.5, 0.0),)

    def test_a_fault_after_an_id_over_several_lines_names_its_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text('from,to,length,cost\n"a\n\nb",c,1,1\nc,d,1,1\nd,e,0,1\n',
                        encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_edges(path)
        assert str(err.value) == f"{path}:6: length must be positive, got 0.0"

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"from,to,length,cost\nA,B,1,1\nA,C,1,1\nB,\xfe,1,1\n")
        with pytest.raises(ParseError, match="not UTF-8: byte 0xfe") as err:
            load_edges(path)
        assert err.value.line == 4
        assert err.value.path == str(path)

    def test_fields_past_the_csv_limit_name_their_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        big = "A" * (csv.field_size_limit() + 1)
        path.write_text(f"from,to,length,cost\nA,B,1,1\nA,{big},1,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as err:
            load_edges(path)
        assert err.value.line == 3
        assert err.value.path == str(path)


# ------------------------------------------- row parsers against a reference


def _reference_float(path, line_no, column, raw):
    try:
        if "_" in raw:
            raise ValueError
        value = float(raw)
    except ValueError:
        raise ParseError(path, line_no, f"column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"column {column!r}: non-finite value {raw!r}")
    return value


def _reference_rows(path):
    """A CSV file's stripped header, then its rows as (line, row), for a file
    whose only line breaks are newlines: each row starts one line after the
    line breaks of the row before it."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        yield [h.strip() for h in next(reader)]
        line_no = 2
        for row in reader:
            yield line_no, row
            line_no += 1 + sum(field.count("\n") for field in row)


def reference_load_sites(path):
    """load_sites converting one field at a time (valid UTF-8, newline line
    breaks, and column names neither empty nor repeated)."""
    rows = _reference_rows(path)
    header = next(rows)
    if header[:3] != ["id", "x", "y"]:
        raise ParseError(path, 1, f"header must start with id,x,y, got {header[:3]}")
    sites, seen = [], set()
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(path, line_no, f"expected {len(header)} columns, got {len(row)}")
        site_id = row[0].strip()
        if not site_id:
            raise ParseError(path, line_no, "empty site id")
        if site_id in seen:
            raise ParseError(path, line_no, f"duplicate site id {site_id!r}")
        seen.add(site_id)
        x = _reference_float(path, line_no, "x", row[1])
        y = _reference_float(path, line_no, "y", row[2])
        attributes = {
            name: _reference_float(path, line_no, name, raw)
            for name, raw in zip(header[3:], row[3:])
        }
        sites.append(PointSite(id=site_id, x=x, y=y, attributes=attributes))
    return tuple(sites)


def reference_load_edges(path):
    """load_edges converting one field at a time (valid UTF-8, newline line breaks)."""
    rows = _reference_rows(path)
    header = next(rows)
    if header != ["from", "to", "length", "cost"]:
        raise ParseError(path, 1, f"header must be from,to,length,cost, got {header}")
    edges = []
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(path, line_no, f"expected 4 columns, got {len(row)}")
        source, target = row[0].strip(), row[1].strip()
        if not source or not target:
            raise ParseError(path, line_no, "empty endpoint id")
        length = _reference_float(path, line_no, "length", row[2])
        cost = _reference_float(path, line_no, "cost", row[3])
        if length <= 0:
            raise ParseError(path, line_no, f"length must be positive, got {length}")
        if cost < 0:
            raise ParseError(path, line_no, f"cost must be non-negative, got {cost}")
        edges.append(Edge(source=source, target=target, length=length, cost=cost))
    return tuple(edges)


def parsed(load, path):
    """What load returns, or the message of the ParseError it raises."""
    try:
        return "ok", load(path)
    except ParseError as exc:
        return "raised", str(exc)


# half the fields are numbers, so many rows get past their first fields;
# the rest are strings float() treats specially or rejects, in any column
numeric_fields = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from([
        "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e308",
        "-1e308", "", " ", " 2.5 ", "\t-3\t", "abc", "1.2.3", "0x1", "--1",
    ]),
    st.sampled_from(["1_0", " 1_0.5", "2e1_0"]),  # float() accepts these
)
# ids are mostly distinct, so duplicates do not end most tables early; one
# is quoted over three lines
row_ids = st.one_of(st.integers(0, 99).map(str),
                    st.sampled_from(["", " ", " a ", "d_1", "q\n\nr"]))
# fields of a clean row: numbers every loader takes, edge lengths included
clean_fields = st.one_of(st.floats(2.0 ** -20, 2.0 ** 40).map(repr), st.integers(1, 99).map(str))


@st.composite
def csv_tables(draw, id_columns, header):
    """A CSV document: header, then up to 40 rows of ids and numeric fields.

    Now and then blank lines come before the header.  Most rows are clean:
    distinct ids, some quoted over two lines, and numbers every loader
    takes.  The others may be blank, be one field short or long, or hold
    any id and any field, so a fault can come after many clean rows.
    """
    width = len(header)
    rows = [[]] * draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2])) + [header]
    for k in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 24)):
            ids = [draw(st.sampled_from([f"c{k}.{j}", f"c{k}\n{j}"])) for j in range(id_columns)]
            rows.append(ids + [draw(clean_fields) for _ in range(width - id_columns)])
            continue
        if draw(st.integers(0, 9)) == 0:
            rows.append([])
            continue
        size = width + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1]))
        row = [draw(row_ids) for _ in range(min(id_columns, size))]
        row += [draw(numeric_fields) for _ in range(size - len(row))]
        rows.append(row)
    return rows


def _written(rows, path=None, quoting=csv.QUOTE_MINIMAL):
    path = path or Path(tempfile.mkdtemp()) / "table.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n", quoting=quoting).writerows(rows)
    return path


@given(st.integers(0, 3).flatmap(
    lambda attrs: csv_tables(1, ["id", "x", "y", *(f"a{k}" for k in range(attrs))])
))
def test_load_sites_matches_field_by_field_reference(rows):
    path = _written(rows)
    try:
        assert parsed(load_sites, path) == parsed(reference_load_sites, path)
    finally:
        path.unlink()
        path.parent.rmdir()


@given(csv_tables(2, ["from", "to", "length", "cost"]))
def test_load_edges_matches_field_by_field_reference(rows):
    path = _written(rows)
    try:
        assert parsed(load_edges, path) == parsed(reference_load_edges, path)
    finally:
        path.unlink()
        path.parent.rmdir()


@pytest.mark.parametrize("load, id_columns, header", [
    (load_sites, 1, ["id", "x", "y", "a0"]),
    (load_edges, 2, ["from", "to", "length", "cost"]),
])
@given(data=st.data())
def test_quoting_every_field_changes_no_table_and_no_error(load, id_columns, header, data):
    # the quoted copy is always walked; the plain one is split unless it holds a
    # quote or starts with a blank line
    rows = data.draw(csv_tables(id_columns, header))
    path = _written(rows)
    try:
        plain = parsed(load, path)
        _written(rows, path, quoting=csv.QUOTE_ALL)
        assert '"' in path.read_text(encoding="utf-8")
        assert parsed(load, path) == plain
    finally:
        path.unlink()
        path.parent.rmdir()


@pytest.mark.parametrize("load, reference, header, row", [
    (load_sites, reference_load_sites, "id,x,y,v", "a,1e308,1e308,1e308"),
    (load_edges, reference_load_edges, "from,to,length,cost", "a,b,1e308,1e308"),
])
def test_finite_fields_whose_sum_overflows_are_accepted(tmp_path, load, reference, header, row):
    path = tmp_path / "table.csv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    assert parsed(load, path) == parsed(reference, path)
    assert parsed(load, path)[0] == "ok"


def _bench_size_texts():
    """A clean sites CSV of 1,024 sites and a clean edges CSV of 2,048 edges,
    with fields as the points benchmarks write them."""
    rng = random.Random(1)
    sites = [f"s{k},{rng.uniform(0, 64)!r},{rng.uniform(0, 64)!r},{rng.gauss(50, 10)!r}"
             for k in range(1024)]
    edges = [f"s{rng.randrange(1024)},s{rng.randrange(1024)},{rng.uniform(0.5, 3)!r},"
             f"{rng.uniform(0, 4)!r}" for _ in range(2048)]
    return {load_sites: ["id,x,y,v", *sites], load_edges: ["from,to,length,cost", *edges]}


# rows with one fault each, for line 600 of a clean bench-size file
FAULTY_ROWS = [
    (load_sites, "t,zz,0,1", "column 'x': not a number: 'zz'"),
    (load_sites, "t,0,1_0,1", "column 'y': not a number: '1_0'"),
    (load_sites, "t,0,inf,1", "column 'y': non-finite value 'inf'"),
    (load_sites, "t,0,0,nan", "column 'v': non-finite value 'nan'"),
    (load_sites, "t,0,0,-1e999", "column 'v': non-finite value '-1e999'"),
    (load_sites, " ,0,0,1", "empty site id"),
    (load_sites, "s7,0,0,1", "duplicate site id 's7'"),
    (load_sites, "t,0,0", "expected 4 columns, got 3"),
    (load_sites, "t,0,0,1,2", "expected 4 columns, got 5"),
    (load_sites, "t,0,0," + "9" * (csv.field_size_limit() + 1),
     "malformed CSV: field larger than field limit"),
    (load_edges, "a,b,0,1", "length must be positive, got 0.0"),
    (load_edges, "a,b,-0.0,1", "length must be positive, got -0.0"),
    (load_edges, "a,b,1,-2", "cost must be non-negative, got -2.0"),
    (load_edges, "a,b,1,Infinity", "column 'cost': non-finite value 'Infinity'"),
    (load_edges, "a,b,2_0,1", "column 'length': not a number: '2_0'"),
    (load_edges, "a, ,1,1", "empty endpoint id"),
    (load_edges, "a,b,1", "expected 4 columns, got 3"),
]


class TestColumnarPass:
    """Clean files convert column by column; only a faulty one is walked row by
    row, and every file is decoded once."""

    @staticmethod
    def _spies():
        return (mock.patch.object(fileio_module, name, wraps=getattr(fileio_module, name))
                for name in ("_read_text", "_csv_rows"))

    @pytest.mark.parametrize("load", [load_sites, load_edges])
    def test_a_clean_bench_size_file_is_not_walked(self, tmp_path, load):
        lines = _bench_size_texts()[load]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        decode, walk = self._spies()
        with decode as decoded, walk as walked:
            table = load(path)
        assert (decoded.call_count, walked.call_count) == (1, 0)
        assert len(table) == len(lines) - 1
        reference = reference_load_sites if load is load_sites else reference_load_edges
        assert table == reference(path)

    @pytest.mark.parametrize("load, row, message", FAULTY_ROWS,
                             ids=[f"{load.__name__}:{row[:12]}" for load, row, _ in FAULTY_ROWS])
    def test_a_faulty_file_is_walked_once(self, tmp_path, load, row, message):
        lines = _bench_size_texts()[load]
        lines[599] = row
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        decode, walk = self._spies()
        with decode as decoded, walk as walked, pytest.raises(ParseError) as err:
            load(path)
        assert (decoded.call_count, walked.call_count) == (1, 1)
        assert str(err.value).startswith(f"{path}:600: {message}")

    @pytest.mark.parametrize("load", [load_sites, load_edges])
    @pytest.mark.parametrize("blank_chunks", [0, 1, 2])
    @pytest.mark.parametrize("fault", [None, "too wide", "not a number"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_rows_past_the_first_chunk(self, tmp_path, load, blank_chunks, fault, quoted):
        # after the header come chunks of 256 blank lines, which both paths
        # must read past, then rows over more than two chunks, one of them
        # faulty past the first.  Quoted ids ("p,00001") send the text to the
        # row walk; plain text is split by str methods, and walked only when faulty
        chunk = 256
        lines = _bench_size_texts()[load][: 2 * chunk + 4]
        lines[1:1] = [""] * (blank_chunks * chunk)
        bad = (blank_chunks + 1) * chunk + 3  # a 0-based index past the first chunk
        if fault == "too wide":
            lines[bad] += ",9"
        elif fault == "not a number":
            fields = lines[bad].split(",")
            fields[2] = "zz"
            lines[bad] = ",".join(fields)
        if quoted:
            lines[1:] = [f'"p,{k:05d}",{line.split(",", 1)[1]}' if line else line
                         for k, line in enumerate(lines[1:])]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reference = reference_load_sites if load is load_sites else reference_load_edges
        spy = mock.patch.object(fileio_module, "_csv_rows", wraps=fileio_module._csv_rows)
        if fault is None:
            with spy as walk:
                assert load(path) == reference(path)
            assert walk.call_count == quoted
            assert len(load(path)) == 2 * chunk + 3
            return
        with pytest.raises(ParseError) as expected:
            reference(path)
        assert str(expected.value).startswith(f"{path}:{bad + 1}: ")
        with spy as walk, pytest.raises(ParseError) as err:
            load(path)
        assert walk.call_count == 1
        assert str(err.value) == str(expected.value)

    # the characters the reader treats as special, or that str.splitlines
    # would take for a line end
    _ALPHABET = ["a", "1", ".", " ", ",", '"', "\r", "\n", "\r\n", "\0", "\x85", "\x0c",
                 "\u2028"]

    @given(st.lists(st.sampled_from(_ALPHABET), max_size=40).map("".join))
    @example("")
    def test_split_columns_equal_the_reader_pass(self, text):
        # the split refuses text with a quote or a NUL, or whose first line is blank
        if '"' in text or "\0" in text or text[:1] in ("", "\r", "\n"):
            assert fileio_module._csv_columns(text) is None
            return
        # the oracle: the CSV reader's stripped header and non-blank rows as
        # columns, or None when a row is not as wide as the header
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        rows = [row for row in rows if row]
        table = None
        if all(len(row) == len(header) for row in rows):
            table = [h.strip() for h in header], [[row[k] for row in rows]
                                                  for k in range(len(header))]
        assert fileio_module._csv_columns(text) == table

    @pytest.mark.parametrize("text, table", [
        ("\na,b\n1,2\n", None),  # the split refuses a blank first line
        ("id,x,y,v\n", (["id", "x", "y", "v"], [[], [], [], []])),
        ("a , b\r1,2\r\r3,4\r", (["a", "b"], [["1", "3"], ["2", "4"]])),
        ("a,b\n\n1, 2\r\n3,4", (["a", "b"], [["1", "3"], [" 2", "4"]])),
        ("a,b\n1,2\n3\n", None),
        ("a,b\n1,2,3\n", None),
        ("a,b\n1,2,3\n4\n", None),  # as many fields as two rows of two
    ], ids=["blank first line", "header only", "CR line ends", "no final newline",
            "too narrow", "too wide", "too wide then too narrow"])
    def test_split_columns_pinned_cases(self, text, table):
        assert fileio_module._csv_columns(text) == table

    @pytest.mark.parametrize("quote", ["", '"'], ids=["split", "reader"])
    @pytest.mark.parametrize("where", ["header", "row"])
    def test_a_field_past_the_size_limit_gives_none_on_both_paths(self, quote, where):
        # plain text gives None from the split; quoted text is walked, and the
        # walk names the field's line
        limit = 8
        texts = {
            size: (f"id,{'h' * size}\n{quote}a{quote},1\n" if where == "header"
                   else f"id,x\n{quote}a{quote},{'1' * size}\n")
            for size in (limit, limit + 1)
        }
        saved = csv.field_size_limit(limit)
        try:
            if not quote:
                assert fileio_module._csv_columns(texts[limit]) is not None
                assert fileio_module._csv_columns(texts[limit + 1]) is None
                return
            assert len([*fileio_module._csv_rows("t.csv", texts[limit])]) == 2
            with pytest.raises(ParseError, match="field larger than field limit") as err:
                [*fileio_module._csv_rows("t.csv", texts[limit + 1])]
            assert err.value.line == (1 if where == "header" else 2)
        finally:
            csv.field_size_limit(saved)


@pytest.mark.parametrize("command", ["detect", "compare"])
def test_each_ring_area_is_summed_once_per_cli_call(tmp_path, command, capsys):
    holed = PolygonSite(
        id="holed",
        exterior=unit_square("h", ox=10.0, oy=10.0, size=4.0).exterior,
        holes=(unit_square("h", ox=11.0, oy=11.0).exterior,),
        attributes={"v": 7.0},
    )
    sites = (*grid_polygons(3).sites, holed)
    path = tmp_path / "polys.json"
    write_polygons_json(sites, path)
    with mock.patch.object(
        dataset_module, "_ring_sums", wraps=dataset_module._ring_sums
    ) as spy:
        assert main([command, "--polygons", str(path), "--attribute", "v",
                     "--regime", "polygon"]) == 0
    capsys.readouterr()
    assert spy.call_count == 9 + 2


def test_load_polygons_converts_each_ring_once(tmp_path):
    holed = PolygonSite(
        id="holed",
        exterior=unit_square("h", ox=10.0, oy=10.0, size=4.0).exterior,
        holes=(unit_square("h", ox=11.0, oy=11.0).exterior,),
        attributes={"v": 7.0},
    )
    path = tmp_path / "polys.json"
    write_polygons_json((*grid_polygons(2).sites, holed), path)
    # one spy under both modules' names, in case the loader imports the helper
    spy = mock.Mock(wraps=dataset_module._normalize_ring)
    with mock.patch.object(dataset_module, "_normalize_ring", spy), \
            mock.patch.object(fileio_module, "_normalize_ring", spy, create=True):
        assert len(load_polygons(path)) == 5
    assert spy.call_count == 4 + 2


class TestLoadPolygons:
    def test_unit_square_record(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "sq",
                        "rings": [[[0, 0], [1, 0], [1, 1], [0, 1]]],
                        "attributes": {"v": 3},
                    }
                ]
            ),
            encoding="utf-8",
        )
        (poly,) = load_polygons(path)
        assert poly.id == "sq"
        assert len(poly.exterior) == 4
        assert poly.attributes == {"v": 3.0}

    def test_two_vertex_ring_rejected(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(
            json.dumps([{"id": "bad", "rings": [[[0, 0], [1, 1]]]}]),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="at least 3 distinct vertices"):
            load_polygons(path)

    def test_closed_ring_normalized(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(
            json.dumps(
                [{"id": "sq", "rings": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}]
            ),
            encoding="utf-8",
        )
        (poly,) = load_polygons(path)
        assert len(poly.exterior) == 4

    def test_duplicate_id_rejected(self, tmp_path):
        record = {"id": "p", "rings": [[[0, 0], [1, 0], [0, 1]]]}
        path = tmp_path / "polys.json"
        path.write_text(json.dumps([record, record]), encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate site id"):
            load_polygons(path)

    def test_zero_area_ring_rejected(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(
            json.dumps([{"id": "p", "rings": [[[0, 0], [1, 1], [2, 2]]]}]),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="zero-area ring"):
            load_polygons(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_polygons(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rings": [[["x", 0], [1, 0], [0, 1]]]}, "ring coordinates must be numbers"),
            ({"attributes": {"v": "hi"}}, "attribute values must be numbers"),
            ({"rings": [[[None, 0], [1, 0], [0, 1]]]}, "ring coordinates must be numbers"),
            ({"attributes": [1]}, "attributes must be an object"),
            ({"rings": [[[10 ** 400, 0], [1, 0], [0, 1]]]}, "ring coordinates must be numbers"),
            ({"attributes": {"v": None}}, "attribute values must be numbers"),
            # float() takes booleans and strings; the file format does not
            ({"rings": [[[True, 0], [1, 0], [0, 1]]]}, "ring coordinates must be numbers"),
            ({"rings": [[[0, 0], ["1_0", "1"], [0, 1]]]}, "ring coordinates must be numbers"),
            ({"attributes": {"v": "2_5"}}, "attribute values must be numbers"),
            ({"attributes": {"v": False}}, "attribute values must be numbers"),
            ({"id": True}, "bad site id True"),
            ({"rings": []}, "rings must be a non-empty list"),
            ({"rings": [[1, 2]]}, "ring must be a list of [x, y] pairs"),
        ],
    )
    def test_bad_value_names_its_record(self, tmp_path, fields, message):
        good = {"id": "a", "rings": [[[0, 0], [1, 0], [0, 1]]], "attributes": {"v": 1}}
        path = tmp_path / "polys.json"
        path.write_text(json.dumps([good, {**good, "id": "b", **fields}]), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f":record 1: {message}")):
            load_polygons(path)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({}, ":1: document must be a list of polygon records"),
            ([1], ":record 0: polygon record must be an object"),
            ([{"id": "b"}], ":record 0: missing key 'rings'"),
            ([{"rings": [[[0, 0], [1, 0], [0, 1]]]}], ":record 0: missing key 'id'"),
        ],
    )
    def test_bad_document_shape_names_its_place(self, tmp_path, document, message):
        path = tmp_path / "polys.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_polygons(path)
        assert str(err.value) == f"{path}{message}"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"rings": [[[0, 0], [{}, 0], [0, 1]]]', "ring coordinates must be finite"),
            (
                '"rings": [[[0, 0], [4, 0], [4, 4], [0, 4]], [[1, 1], [1, 2], [{}, 1.5], [1, 0]]]',
                "ring coordinates must be finite",
            ),
            ('"rings": [[[0, 0], [1, 0], [0, 1]]], "attributes": {{"v": {}}}',
             "attribute values must be finite"),
        ],
        ids=["exterior", "hole", "attribute"],
    )
    def test_non_finite_value_names_its_record(self, tmp_path, literal, fields, message):
        good = '{"id": "a", "rings": [[[0, 0], [1, 0], [0, 1]]], "attributes": {"v": 1}}'
        path = tmp_path / "polys.json"
        path.write_text(f'[{good}, {{"id": "b", {fields.format(literal)}}}]', encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f":record 1: {message}")):
            load_polygons(path)

    @pytest.mark.parametrize(
        "data",
        [b'[{"id": "p", "rings": [], "attributes": {"v": "\xff"}}]', b"[" + b"9" * 5000 + b"]"],
    )
    def test_undecodable_document_rejected(self, tmp_path, data):
        path = tmp_path / "polys.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            load_polygons(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_undecodable_byte_names_its_line_and_offset(self, tmp_path, newline):
        path = tmp_path / "polys.json"
        data = f'[{newline}{{"id": "p", "attributes": {{"v": "'.encode() + b'\xff"}}]'
        path.write_bytes(data)
        offset = data.index(b"\xff")
        with pytest.raises(ParseError, match=f":2: not UTF-8: byte 0xff at offset {offset}$"):
            load_polygons(path)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # RFC 8259 section 8.1 lets a parser ignore one
        path = tmp_path / "bom.json"
        record = {"id": "p", "rings": [[[0, 0], [1, 0], [0, 1]]], "attributes": {"v": 1}}
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps([record]).encode())
        (polygon,) = load_polygons(path)
        assert (polygon.id, polygon.attributes) == ("p", {"v": 1.0})

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_syntax_error_names_its_line_whatever_the_line_ends(self, tmp_path, newline):
        path = tmp_path / "polys.json"
        path.write_bytes(newline.join(["[", '{"id": "p"}', '{"id": "q"}', "]"]).encode())
        with pytest.raises(ParseError, match=":3: Expecting ',' delimiter$"):
            load_polygons(path)

    def test_hole_ring_parsed(self, tmp_path):
        path = tmp_path / "polys.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "id": "p",
                        "rings": [
                            [[0, 0], [4, 0], [4, 4], [0, 4]],
                            [[1, 1], [2, 1], [2, 2], [1, 2]],
                        ],
                    }
                ]
            ),
            encoding="utf-8",
        )
        (poly,) = load_polygons(path)
        assert len(poly.holes) == 1


class TestRoundTrips:
    def test_fixture_files_reload_identically(self, tmp_path, network, village, survey):
        write_fixture_files(tmp_path)
        reloaded_net = SpatialDataset(
            sites=load_sites(tmp_path / "network_sites.csv"),
            edges=load_edges(tmp_path / "network_edges.csv"),
        )
        assert reloaded_net == network
        assert SpatialDataset(sites=load_sites(tmp_path / "village_sites.csv")) == village
        assert SpatialDataset(sites=load_sites(tmp_path / "survey_sites.csv")) == survey

    def test_awkward_floats_survive(self, tmp_path):
        from spatial_outliers import PointSite

        sites = (
            PointSite(id="a", x=0.1, y=1e-17, attributes={"v": 2.5000000000000004}),
            PointSite(id="b", x=12345678.9012345, y=-0.30000000000000004,
                      attributes={"v": 1e300}),
        )
        path = tmp_path / "sites.csv"
        write_sites_csv(sites, path, ("v",))
        assert load_sites(path) == sites

    def test_edges_round_trip(self, tmp_path, network):
        path = tmp_path / "edges.csv"
        write_edges_csv(network.edges, path)
        assert load_edges(path) == network.edges

    @given(st.lists(
        st.text(alphabet=',"\r\n :ab', min_size=1).filter(lambda t: t == t.strip()),
        min_size=1, max_size=6, unique=True,
    ))
    @example(["c\rd", "two\nlines", "cr\r\nlf", "a,b", 'say "hi"', "a b", "c: d", "e"])
    def test_ids_that_need_quotes_survive(self, ids):
        with tempfile.TemporaryDirectory() as directory:
            sites = tuple(PointSite(id=sid, x=0.0, y=float(k), attributes={"v": 1.0})
                          for k, sid in enumerate(ids))
            edges = tuple(Edge(a, b, 2.0, 0.0) for a in ids for b in ids)
            write_sites_csv(sites, os.path.join(directory, "sites.csv"))
            write_edges_csv(edges, os.path.join(directory, "edges.csv"))
            assert load_sites(os.path.join(directory, "sites.csv")) == sites
            assert load_edges(os.path.join(directory, "edges.csv")) == edges

    @pytest.mark.parametrize("bad", ["", " a", "a ", "\ta", "a\n", "\r"])
    def test_ids_the_loaders_would_change_are_refused(self, tmp_path, bad):
        # the loaders strip ids and refuse empty ones, so the writers refuse both
        sites = (PointSite("b", 0.0, 0.0, {"v": 1.0}), PointSite(bad, 1.0, 0.0, {"v": 1.0}))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_sites_csv(sites, tmp_path / "sites.csv")
        for edge in (Edge("b", bad, 1.0, 0.0), Edge(bad, "b", 1.0, 0.0)):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                write_edges_csv((edge,), tmp_path / "edges.csv")

    @pytest.mark.parametrize("first, second", [(1, "1"), ("1", 1), ("a", "a"), (2, 2)])
    def test_ids_that_write_the_same_text_are_refused(self, tmp_path, first, second):
        # load_sites refuses a repeated id, and 1 and "1" both write 1
        sites = (PointSite(first, 0.0, 0.0, {"v": 1.0}), PointSite(second, 1.0, 0.0, {"v": 1.0}))
        with pytest.raises(ValueError, match=re.escape(repr(second))):
            write_sites_csv(sites, tmp_path / "sites.csv")
        assert not (tmp_path / "sites.csv").exists()

    @pytest.mark.parametrize("names", [
        [""], [" v"], ["w "], ["\tw"], ["id"], ["x"], ["y"], ["v"], [1, "1"],
    ])
    def test_attribute_names_the_loader_would_change_are_refused(self, tmp_path, names):
        # load_sites strips header names and refuses empty and repeated ones,
        # and the names 1 and "1" both write 1
        sites = (PointSite("a", 0.0, 0.0, {"v": 1.0, **{name: 2.0 for name in names}}),)
        with pytest.raises(ValueError, match=re.escape(repr(str(names[-1])))):
            write_sites_csv(sites, tmp_path / "sites.csv", ("v", *names))
        assert not (tmp_path / "sites.csv").exists()
        write_sites_csv(sites, tmp_path / "sites.csv", ("v",))
        value = sites[0].attributes["v"]
        assert load_sites(tmp_path / "sites.csv") == (PointSite("a", 0.0, 0.0, {"v": value}),)

    def test_polygons_round_trip(self, tmp_path):
        grid = grid_polygons(2)
        path = tmp_path / "polys.json"
        write_polygons_json(grid.sites, path)
        assert load_polygons(path) == grid.sites

    @pytest.mark.parametrize("site, message", [
        (PointSite("a", math.nan, 0.0, {"v": 1.0}), "site 'a': column 'x': non-finite value nan"),
        (PointSite(1, 0.0, -math.inf, {"v": 1.0}), "site 1: column 'y': non-finite value -inf"),
        (PointSite("a", 0.0, 0.0, {"v": math.inf}), "site 'a': column 'v': non-finite value inf"),
        (PointSite("a", 0.0, 0.0, {"w": 1.0}), "site 'a' has no attribute 'v'"),
        # load_sites reads each field as a float; '1' and True would write text
        # that is not one, 10**400 one that is inf, and '2' would read back as 2.0
        (PointSite("a", "1", 0.0, {"v": 1.0}), "site 'a': column 'x': not a number: '1'"),
        (PointSite("a", 0.0, True, {"v": 1.0}), "site 'a': column 'y': not a number: True"),
        pytest.param(PointSite("a", 10**400, 0.0, {"v": 1.0}),
                     f"site 'a': column 'x': non-finite value {10**400!r}", id="int-past-floats"),
        (PointSite("a", 0.0, 0.0, {"v": "2"}), "site 'a': column 'v': not a number: '2'"),
    ])
    def test_sites_the_loader_would_refuse_are_refused(self, tmp_path, site, message):
        sites = (PointSite("b", 0.0, 0.0, {"v": 1.0}), site)
        with pytest.raises(ValueError, match=re.escape(message)):
            write_sites_csv(sites, tmp_path / "sites.csv", ("v",))
        assert not (tmp_path / "sites.csv").exists()

    @pytest.mark.parametrize("length, cost", [
        (0.0, 1.0), (-0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
        (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_edges_the_loader_would_refuse_are_refused(self, tmp_path, length, cost):
        edges = (Edge("a", "b", 1.0, 0.0), Edge("a", 2, length, cost))
        with pytest.raises(ValueError, match=re.escape(
                f"edge 'a'-2: length must be positive and cost non-negative, both finite, "
                f"got {length!r} and {cost!r}")):
            write_edges_csv(edges, tmp_path / "edges.csv")
        assert not (tmp_path / "edges.csv").exists()

    @pytest.mark.parametrize("polygons, message", [
        ((unit_square(True),), "polygon id True is not a str or int"),
        ((unit_square(1.0),), "polygon id 1.0 is not a str or int"),
        ((unit_square(""),), "polygon id '' is not a str or int"),
        ((unit_square("a"), unit_square("a", ox=2.0)), "polygon id 'a' is not a str or int"),
        ((unit_square(1), unit_square(1, ox=2.0)), "polygon id 1 is not a str or int"),
        ((unit_square("a", ox=math.nan),), "polygon 'a': ring coordinates must be finite: "
                                           "((nan, 0.0), (nan, 0.0), (nan, 1.0), (nan, 1.0))"),
        ((unit_square("a", attributes={"v": -math.inf}),),
         "polygon 'a': attribute 'v': non-finite value -inf"),
        # load_polygons refuses these rings, and PolygonSite reads True as 1.0
        ((PolygonSite("a", ((0, 0), (1, 0), (2, 0))),),
         "polygon 'a': zero-area ring: ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))"),
        ((PolygonSite("a", ((True, 0), (1, 0), (1, 1))),),
         "polygon 'a': ring needs at least 3 distinct vertices: ((1.0, 0.0), (1.0, 0.0), (1.0, 1.0))"),
        ((unit_square("a", attributes={"v": "1"}),), "polygon 'a': attribute 'v': not a number: '1'"),
        pytest.param((unit_square("a", attributes={"v": 10**400}),),
                     f"polygon 'a': attribute 'v': non-finite value {10**400!r}",
                     id="int-past-floats"),
    ])
    def test_polygons_the_loader_would_refuse_are_refused(self, tmp_path, polygons, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            write_polygons_json(polygons, tmp_path / "polys.json")
        assert not (tmp_path / "polys.json").exists()

    # every writer refuses what its loader refuses, and writes what it reads back equal
    @given(st.data())
    def test_each_writer_refuses_or_reads_back(self, data):
        value = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
        ids = st.sampled_from(["a", "b", "c d", 1, 2])
        sites = data.draw(st.lists(st.builds(
            PointSite, ids, value, value, st.dictionaries(st.just("v"), value)),
            max_size=4))
        edges = data.draw(st.lists(st.builds(Edge, ids, ids, value, value), max_size=4))
        polygons = data.draw(st.lists(st.builds(
            unit_square, ids | st.sampled_from([True, "", 1.5]),
            st.sampled_from([0.0, -3.5, 1e9, math.nan, math.inf]),
            attributes=st.dictionaries(st.sampled_from(["v", "w"]), value)), max_size=4))
        cases = [
            (write_sites_csv, load_sites, sites, ("v",),
             tuple(PointSite(str(s.id), s.x, s.y, dict(s.attributes)) for s in sites)),
            (write_edges_csv, load_edges, edges, (),
             tuple(Edge(str(e.source), str(e.target), e.length, e.cost) for e in edges)),
            (write_polygons_json, load_polygons, polygons, (), tuple(polygons)),
        ]
        with tempfile.TemporaryDirectory() as directory:
            for k, (write, load, records, extra, expected) in enumerate(cases):
                path = os.path.join(directory, f"file{k}")
                try:
                    write(records, path, *extra)
                except ValueError:
                    assert not os.path.exists(path)
                    continue
                assert load(path) == expected


@pytest.fixture(scope="module")
def survey_results():
    from spatial_outliers.fixtures import survey_dataset

    survey = survey_dataset()
    params = WeightParams(radius=SURVEY_RADIUS, theta=2.0)
    weighted = detect_outliers(survey, SURVEY_ATTRIBUTE, params,
                               mode="weighted", regime="buffer")
    classical = detect_outliers(survey, SURVEY_ATTRIBUTE, params,
                                mode="classical", regime="buffer")
    return classical, weighted


class TestDetectionReport:
    def test_sorted_by_z_with_known_extremes(self, survey_results):
        _, weighted = survey_results
        lines = render_detection_csv(weighted).splitlines()
        assert lines[0] == "site_id,actual,expected,diff,z,outlier"
        data = [l for l in lines[1:] if not l.startswith("#")]
        assert data[0].startswith("216,")
        assert data[-1].startswith("30,")
        zs = [float(row.split(",")[4]) for row in data]
        assert zs == sorted(zs)
        first = data[0].split(",")
        assert float(first[4]) == pytest.approx(-2.74, abs=0.005)
        assert len(first[4].split(".")[1]) == 6  # fixed 6-decimal rendering
        assert first[5] == "true"
        last = data[-1].split(",")
        assert float(last[4]) == pytest.approx(2.57, abs=0.005)

    def test_empty_result_is_header_plus_skipped(self):
        empty = DetectionResult(
            attribute="v", scores=(), mu=math.nan, sigma=math.nan,
            theta=2.0, skipped=("a", "b"),
        )
        text = render_detection_csv(empty)
        lines = text.splitlines()
        assert lines[0] == "site_id,actual,expected,diff,z,outlier"
        assert lines[-1] == "# skipped: a,b"
        assert not any(line[0].isdigit() for line in lines[1:-1] if line)

    def test_tied_rows_keep_id_order(self):
        # scores out of key order, four of them tied on z: rows sort by z,
        # then by site_id_key (ints before strs), in both formats
        scores = tuple(SiteScore(sid, 1.0, 1.0, 0.0, z, False)
                       for sid, z in (("b", 0.5), ("a", 0.5), (10, 0.5), ("c", -1.0), (9, 0.5)))
        result = DetectionResult(attribute="v", scores=scores, mu=0.0, sigma=1.0, theta=2.0)
        want = ["c", "9", "10", "a", "b"]
        rows = render_detection_csv(result).splitlines()[1:-1]
        assert [row.split(",")[0] for row in rows] == want
        payload = strict_json(render_report(result, "json"))
        assert [str(row["site_id"]) for row in payload["scores"]] == want

    def test_byte_deterministic(self, survey_results):
        _, weighted = survey_results
        assert render_detection_csv(weighted) == render_detection_csv(weighted)

    def test_json_is_valid_and_ordered(self, survey_results):
        _, weighted = survey_results
        payload = strict_json(render_report(weighted, "json"))
        assert payload["attribute"] == SURVEY_ATTRIBUTE
        zs = [row["z"] for row in payload["scores"]]
        assert zs == sorted(zs)
        assert payload["scores"][0]["site_id"] == "216"

    def test_write_report_creates_file(self, tmp_path, survey_results):
        _, weighted = survey_results
        out = tmp_path / "report.csv"
        write_report(weighted, "csv", out)
        assert out.read_text(encoding="utf-8") == render_detection_csv(weighted)

    def test_unknown_format_rejected(self, survey_results):
        _, weighted = survey_results
        with pytest.raises(ValueError):
            render_report(weighted, "xml")

    def test_unknown_result_type_rejected(self):
        with pytest.raises(TypeError, match="cannot render object"):
            render_report(object())


class TestComparisonReport:
    def test_village_improvement_row(self, village):
        params = WeightParams(radius=VILLAGE_RADIUS, theta=2.0)
        classical = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                                    mode="classical", regime="buffer")
        weighted = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                                   mode="weighted", regime="buffer")
        text = render_comparison_csv(compare_models(classical, weighted))
        row27 = next(l for l in text.splitlines() if l.startswith("27,"))
        cols = row27.split(",")
        assert float(cols[2]) == pytest.approx(45.0, abs=1e-6)
        assert float(cols[3]) == pytest.approx(28.0, abs=1e-6)
        assert float(cols[7]) == pytest.approx(98.89, abs=0.01)

    def test_undefined_improvement_renders_empty(self):
        result_c = DetectionResult(
            attribute="v",
            scores=(SiteScore("x", 0.0, 0.0, 0.0, 0.0, False),),
            mu=0.0, sigma=1.0, theta=2.0,
        )
        result_w = DetectionResult(
            attribute="v",
            scores=(SiteScore("x", 0.0, -0.3, 0.3, 0.0, False),),
            mu=0.0, sigma=1.0, theta=2.0,
        )
        text = render_comparison_csv(compare_models(result_c, result_w))
        row = next(l for l in text.splitlines() if l.startswith("x,"))
        assert row.endswith(",")
        payload = strict_json(render_report(compare_models(result_c, result_w), "json"))
        assert payload["per_site"][0]["improvement_pct"] is None


def _undefined_improvement_report():
    """A comparison whose one row has no improvement: classical was exact."""
    def result(diff):
        score = SiteScore("x", 0.0, -diff, diff, 0.0, False)
        return DetectionResult(attribute="v", scores=(score,), mu=0.0, sigma=1.0, theta=2.0)

    return compare_models(result(0.0), result(0.3))


def _csv_cell(value):
    """A JSON report value as the CSV report prints it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _infinite_improvement_report():
    """A comparison whose one improvement is -inf: classical's squared error
    1e-320 is that far below weighted's 1."""
    scores = [SiteScore("x", 0.0, -diff, diff, 0.0, False) for diff in (1e-160, 1.0)]
    return compare_models(*(
        DetectionResult(attribute="v", scores=(s,), mu=0.0, sigma=1.0, theta=2.0)
        for s in scores
    ))


def test_non_finite_report_values_are_json_null():
    empty = DetectionResult(attribute="v", scores=(), mu=math.nan, sigma=math.nan, theta=2.0)
    payload = strict_json(render_report(empty, "json"))
    assert payload["mu"] is None and payload["sigma"] is None
    report = _infinite_improvement_report()
    assert report.per_site[0].improvement_pct == report.mean_improvement_pct == -math.inf
    payload = strict_json(render_report(report, "json"))
    assert payload["per_site"][0]["improvement_pct"] is None
    assert payload["mean_improvement_pct"] is None


_DETECTION = DetectionResult("v", (SiteScore("a", 1.0, 0.5, 0.5, 0.25, False),), 0.0, 1.0, 2.0)
_COMPARISON = ComparisonReport(
    "v", (SiteComparison("a", 1.0, 0.5, 0.75, 0.25, 0.0625, 0.1875, 75.0),), 75.0, 75.0,
)


def _report_records(field, value):
    """The JSON records holding field, from each one-site report with field set to value."""
    records = []
    for report, rows in ((_DETECTION, "scores"), (_COMPARISON, "per_site")):
        row = getattr(report, rows)[0]
        if field in row._fields:
            report = replace(report, **{rows: (row._replace(**{field: value}),)})
            records.append(strict_json(render_report(report, "json"))[rows][0])
        elif hasattr(report, field):
            records.append(strict_json(render_report(replace(report, **{field: value}), "json")))
    return records


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", [
    "actual", "expected", "diff", "z", "mu", "sigma", "theta",
    "expected_classical", "expected_weighted", "sq_error_classical", "sq_error_weighted",
    "sq_error_delta", "improvement_pct", "mean_improvement_pct", "mean_sq_error_reduction_pct",
])
def test_every_non_finite_report_float_is_json_null(field, value):
    records = _report_records(field, value)
    assert records and records == [{**r, field: None} for r in _report_records(field, 1.5)]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field", ["actual", "expected", "diff", "z"])
def test_every_non_finite_detection_float_is_an_empty_csv_field(field, value):
    row = _DETECTION.scores[0]
    finite = render_report(_DETECTION, "csv").splitlines()[1]
    assert finite == "a,1.000000,0.500000,0.500000,0.250000,false"
    report = replace(_DETECTION, scores=(row._replace(**{field: value}),))
    cells = finite.split(",")
    cells[row._fields.index(field)] = ""
    assert render_report(report, "csv").splitlines()[1] == ",".join(cells)


@given(st.lists(st.one_of(st.text(alphabet=',"\r\n ab7', min_size=1), st.integers())))
def test_ids_are_quoted_where_csv_writer_quotes_them(ids):
    buffer = io.StringIO()
    csv.writer(buffer).writerow([*ids, 1])
    assert buffer.getvalue() == ",".join([*fileio_module._csv_ids(ids), "1"]) + "\r\n"


def test_non_finite_report_values_are_empty_csv_fields():
    empty = DetectionResult(attribute="v", scores=(), mu=math.nan, sigma=math.nan, theta=2.0)
    assert render_report(empty, "csv").splitlines()[1:] == ["# mu= sigma= theta=2.000000"]
    lines = render_report(_infinite_improvement_report(), "csv").splitlines()
    assert lines[1].endswith(",") and lines[2] == "# mean_improvement_pct="


@pytest.mark.parametrize("which", ["classical", "weighted", "village", "undefined", "infinite"])
def test_csv_and_json_reports_give_the_same_rows(which, survey_results, village):
    if which == "village":
        params = WeightParams(radius=VILLAGE_RADIUS)
        report = compare_models(*(
            detect_outliers(village, VILLAGE_ATTRIBUTE, params, mode=mode, regime="buffer")
            for mode in ("classical", "weighted")
        ))
    elif which == "undefined":
        report = _undefined_improvement_report()
    elif which == "infinite":
        report = _infinite_improvement_report()
    else:
        report = survey_results[which == "weighted"]
    header, *rows = (
        line.split(",") for line in render_report(report, "csv").splitlines()
        if not line.startswith("#")
    )
    payload = strict_json(render_report(report, "json"))
    records = payload["scores" if isinstance(report, DetectionResult) else "per_site"]
    assert len(records) == len(rows) > 0
    for record, cells in zip(records, rows):
        assert list(record) == header
        assert [_csv_cell(value) for value in record.values()] == cells
    # and the summary: "# name=value" comment fields against the same JSON keys
    summary = [
        field.split("=") for line in render_report(report, "csv").splitlines()
        if line.startswith("# ") and "=" in line for field in line[2:].split(" ")
    ]
    assert summary and all(_csv_cell(payload[name]) == cell for name, cell in summary)


# CLI arguments of the bundled fixtures' reports, after the fixture directory
# is substituted for {d}
FIXTURE_ARGS = {
    "network": [
        "--sites", "{d}/network_sites.csv", "--edges", "{d}/network_edges.csv",
        "--regime", "combined", "--radius", "2",
        "--alpha", "0.5", "--beta", "0.25", "--delta", "0.25", "--cost-limit", "10",
    ],
    "village": ["--sites", "{d}/village_sites.csv", "--regime", "buffer", "--radius", "25"],
    "survey": ["--sites", "{d}/survey_sites.csv", "--regime", "buffer", "--radius", "6"],
}

# sha256 of each fixture's JSON reports; these bytes must not change
FIXTURE_JSON_DIGESTS = {
    ("network", "classical"): "eea732a69fda0e5ca7ff63b25fe84ac318b7c68f1ce4d98d48b7efa555c8df21",
    ("network", "weighted"): "1abf068f2b2f7809c3e03ccce0bd8d3c98e426474e77592e4ffa1c0b344f7ad8",
    ("network", "compare"): "a629e643870138ed62f5da508a54088efd349cc85c74637db86eaa9b2a15e345",
    ("village", "classical"): "aad555807d6e273bb08e47a700f3384c89efe9b0c900c16c50efc1128885c8de",
    ("village", "weighted"): "e104a4c33b32df940c38f6ef090c09ffeed3eb74113acf2f8cbc312f1bf15c1a",
    ("village", "compare"): "1b20693838ab19267b4b2b409186c15b053ed3e35cad373d553dd79cb376c393",
    ("survey", "classical"): "12f521c5f5061e04c27cef1a1295815fde6ec0f58daa6a56c05366360dd0acba",
    ("survey", "weighted"): "9c3c337e6fefa3f612cfd6320763d31a76ede8ddb573fb16ff47e8adf22ec25b",
    ("survey", "compare"): "6b4070830cc894e762caa92fbcf3e5006adf1395470fbbaac667c725ceb08a3d",
}


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    write_fixture_files(directory)
    return directory


@pytest.mark.parametrize("name, report", sorted(FIXTURE_JSON_DIGESTS))
def test_fixture_json_reports_keep_their_bytes(name, report, fixture_files, capsys):
    command = ["compare"] if report == "compare" else ["detect", "--mode", report]
    args = [arg.replace("{d}", str(fixture_files)) for arg in FIXTURE_ARGS[name]]
    assert main([*command, *args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    strict_json(out)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIXTURE_JSON_DIGESTS[name, report]
