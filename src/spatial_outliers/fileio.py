"""File formats: delimited site/edge tables, polygon documents, reports.

Sites and edges travel as headered CSV, polygons as JSON records with rings
and attributes, reports as sorted CSV (6-decimal numbers) or JSON.  Input is
decoded as UTF-8 once, less a leading BOM (_read_text).  Plain CSV text (no
quote, no NUL, a first line that is not blank) is split by str methods into
columns (_csv_columns) and converted column by column; any other text, and a
table whose columns fail a check, is walked row by row by the CSV reader
(_csv_rows), which names the first fault and its line or builds the table.
Every CSV field written is quoted by one rule (_csv_ids), output is UTF-8
with newline line endings, and identical inputs give identical bytes.
"""

import csv
import io
import json
import math
import re
from itertools import chain, repeat

from .dataset import Edge, PointSite, PolygonSite, site_id_key
from .dataset import _geometry, _zero_area
from .detect import ComparisonReport, DetectionResult
from .errors import ParseError


def _parse_float(path, line_no, column, raw) -> float:
    try:
        if "_" in raw:  # float() tolerates 1_000; the file format does not
            raise ValueError
        value = float(raw)
    except ValueError:
        raise ParseError(path, line_no, f"column {column!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_no, f"column {column!r}: non-finite value {raw!r}")
    return value


def _line_number(before: str) -> int:
    """The line that follows the text `before`; lines end at \n, \r\n or \r, as in csv."""
    return before.count("\n") + before.count("\r") - before.count("\r\n") + 1


def _read_text(path) -> str:
    """The file decoded as UTF-8 once, less a leading BOM; a bad byte raises naming its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")  # a BOM, as spreadsheets write
    except UnicodeDecodeError as exc:
        line = _line_number(data[: exc.start].decode("utf-8"))
        message = f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise ParseError(path, line, message) from None


def _csv_rows(path, text):
    """The row walk: a CSV text's stripped header, then its non-blank rows as (line, row).

    line is the physical line a row starts on.  A missing header, a row not
    as wide as the header and a row the CSV reader rejects (a field past
    csv.field_size_limit, or a NUL byte before Python 3.11) raise ParseError
    naming their line; the loaders walk each text whose columns they cannot use.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(path, 1, "missing header")
        yield [h.strip() for h in header]
        width = len(header)
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(path, line_no, f"expected {width} columns, got {len(row)}")
            yield line_no, row
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, f"malformed CSV: {exc}") from None


def _csv_columns(text):
    """A plain CSV text's stripped header and non-blank rows as columns, split by
    str methods; None for other text, a row not as wide as the header or a field
    past csv.field_size_limit.  Plain text has no quote, no NUL and no blank first
    line, so no field spans a line or holds a comma: the split gives the reader's fields.
    """
    if '"' in text or "\0" in text or text[:1] in ("", "\r", "\n"):
        return None
    rows = [*filter(None, text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))]
    commas = rows[0].count(",")
    if set(map(str.count, rows, repeat(","))) != {commas}:
        return None
    fields = ",".join(rows).split(",")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:  # no field outgrows its text
        return None
    width = commas + 1
    return [h.strip() for h in fields[:width]], [fields[k::width] for k in range(width, 2 * width)]


def _float_columns(columns):
    """Numeric columns as lists of floats; None when a field fails _parse_float."""
    if any("_" in "".join(column) for column in columns):
        return None
    try:
        floats = [[*map(float, column)] for column in columns]
    except ValueError:
        return None
    return floats if all(map(math.isfinite, chain(*floats))) else None


# the leading columns of every sites file, and the columns of every edges file
_SITE_HEADER = ["id", "x", "y"]
_EDGE_HEADER = ["from", "to", "length", "cost"]


def _site_columns(path, header) -> list[str]:
    """A sites header's column names after id; a header load_sites refuses raises."""
    if header[:3] != _SITE_HEADER:
        raise ParseError(path, 1, f"header must start with {','.join(_SITE_HEADER)}, "
                                  f"got {header[:3]}")
    for k, name in enumerate(header):
        if not name:
            raise ParseError(path, 1, f"column {k + 1}: empty column name")
        if name in header[:k]:
            raise ParseError(path, 1, f"column {k + 1}: duplicate column name {name!r}")
    return header[1:]


def load_sites(path) -> tuple[PointSite, ...]:
    """Read point sites from CSV with columns id,x,y,<attr>,..."""
    text = _read_text(path)
    table = _csv_columns(text)
    if table is not None:
        attr_names = _site_columns(path, table[0])[2:]
        ids = [*map(str.strip, table[1][0])]
        numbers = _float_columns(table[1][1:])
        if all(ids) and len(set(ids)) == len(ids) and numbers is not None:
            # each row ends in its id, so there are rows without attributes too; zip drops it
            attributes = map(dict, map(zip, repeat(attr_names), zip(*numbers[2:], ids)))
            return tuple(map(PointSite, ids, numbers[0], numbers[1], attributes))
    rows = _csv_rows(path, text)
    columns = _site_columns(path, next(rows))
    sites, seen = [], set()
    for line_no, row in rows:
        site_id = row[0].strip()
        if not site_id:
            raise ParseError(path, line_no, "empty site id")
        if site_id in seen:
            raise ParseError(path, line_no, f"duplicate site id {site_id!r}")
        seen.add(site_id)
        x, y, *values = [_parse_float(path, line_no, column, raw)
                         for column, raw in zip(columns, row[1:])]
        sites.append(PointSite(site_id, x, y, dict(zip(columns[2:], values))))
    return tuple(sites)


def _site_attributes(path) -> list[str]:
    """The attribute names a sites file's header declares, for a file with no row to carry them."""
    return _site_columns(path, next(_csv_rows(path, _read_text(path))))[2:]


def load_edges(path) -> tuple[Edge, ...]:
    """Read edges from CSV with columns from,to,length,cost.

    Repeated rows for the same pair are kept as parallel connections.
    """
    text = _read_text(path)
    table = _csv_columns(text)
    if table is not None and table[0] == _EDGE_HEADER:
        ends = [[*map(str.strip, column)] for column in table[1][:2]]
        numbers = _float_columns(table[1][2:])
        if (all(chain(*ends)) and numbers is not None
                and min(numbers[0], default=1.0) > 0 and min(numbers[1], default=0.0) >= 0):
            # tuple.__new__ is what Edge._make calls, without a frame per edge
            return tuple(map(tuple.__new__, repeat(Edge), zip(*ends, *numbers)))
    rows = _csv_rows(path, text)
    header = next(rows)
    if header != _EDGE_HEADER:
        raise ParseError(path, 1, f"header must be {','.join(_EDGE_HEADER)}, got {header}")
    edges = []
    for line_no, (source, target, raw_length, raw_cost) in rows:
        source, target = source.strip(), target.strip()
        if not source or not target:
            raise ParseError(path, line_no, "empty endpoint id")
        length = _parse_float(path, line_no, "length", raw_length)
        cost = _parse_float(path, line_no, "cost", raw_cost)
        if length <= 0:
            raise ParseError(path, line_no, f"length must be positive, got {length}")
        if cost < 0:
            raise ParseError(path, line_no, f"cost must be non-negative, got {cost}")
        edges.append(Edge(source, target, length, cost))
    return tuple(edges)


# the types json.loads gives numbers; float() also takes strings and booleans
_JSON_NUMBERS = {int, float}


def load_polygons(path) -> tuple[PolygonSite, ...]:
    """Read polygon sites from a JSON list of {id, rings, attributes}."""
    text = _read_text(path)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, _line_number(text[: exc.pos]), exc.msg) from None
    except ValueError as exc:  # overlong integers
        raise ParseError(path, 1, str(exc)) from None
    if not isinstance(document, list):
        raise ParseError(path, 1, "document must be a list of polygon records")
    polygons = []
    seen = set()
    for index, record in enumerate(document):
        where = f"record {index}"
        if not isinstance(record, dict):
            raise ParseError(path, where, "polygon record must be an object")
        try:
            site_id = record["id"]
            rings = record["rings"]
        except KeyError as exc:
            raise ParseError(path, where, f"missing key {exc.args[0]!r}") from None
        if type(site_id) not in (str, int) or site_id == "":  # not a boolean
            raise ParseError(path, where, f"bad site id {site_id!r}")
        if site_id in seen:
            raise ParseError(path, where, f"duplicate site id {site_id!r}")
        seen.add(site_id)
        if not isinstance(rings, list) or not rings:
            raise ParseError(path, where, "rings must be a non-empty list")
        for ring in rings:
            if not isinstance(ring, list) or any(
                not isinstance(v, list) or len(v) != 2 for v in ring
            ):
                raise ParseError(path, where, "ring must be a list of [x, y] pairs")
        values = {}  # filled after the ring checks: ring faults are named first
        try:
            if not _JSON_NUMBERS.issuperset(map(type, chain(*chain(*rings)))):
                raise TypeError
            polygon = PolygonSite(
                id=site_id, exterior=rings[0], holes=tuple(rings[1:]), attributes=values
            )
        except (TypeError, OverflowError):  # OverflowError: an integer past the float range
            raise ParseError(path, where, "ring coordinates must be numbers") from None
        if any(len(set(ring)) < 3 for ring in (polygon.exterior, *polygon.holes)):
            raise ParseError(path, where, "ring needs at least 3 distinct vertices")
        attributes = record.get("attributes", {})
        if not isinstance(attributes, dict):
            raise ParseError(path, where, "attributes must be an object")
        try:
            if not _JSON_NUMBERS.issuperset(map(type, attributes.values())):
                raise TypeError
            values.update((str(k), float(v)) for k, v in attributes.items())
        except (TypeError, OverflowError):
            raise ParseError(path, where, "attribute values must be numbers") from None
        ring_areas, _, _, reason = _geometry(polygon)
        if any(map(_zero_area, ring_areas)):
            raise ParseError(path, where, "zero-area ring")
        if reason == "non-finite vertex":  # json.loads takes NaN, Infinity and 1e999
            raise ParseError(path, where, "ring coordinates must be finite")
        if not all(map(math.isfinite, values.values())):
            raise ParseError(path, where, "attribute values must be finite")
        polygons.append(polygon)
    return tuple(polygons)


def _id_field(sid, seen=None) -> str:
    """A site id as text for a file; one the loaders would change, or a text in seen, raises."""
    text = str(sid)
    if not text or text != text.strip():
        raise ValueError(f"site id {sid!r} is empty or starts or ends with whitespace")
    if seen is not None:
        if text in seen:
            raise ValueError(f"site id {sid!r} writes {text!r}, as an earlier site id does")
        seen.add(text)
    return text


def write_sites_csv(sites, path, attribute_names=None) -> None:
    """Emit sites as CSV; float repr keeps reload byte-exact.  An attribute
    name or an id text that load_sites would change or reject raises ValueError."""
    if attribute_names is None:
        attribute_names = tuple(sites[0].attributes) if sites else ()
    header = [*_SITE_HEADER, *map(str, attribute_names)]
    for k, name in enumerate(header[3:], 3):
        if not name or name != name.strip() or name in header[:k]:
            raise ValueError(
                f"attribute name {name!r} is empty, has whitespace at an end or repeats")
    seen = set()
    rows = (
        [_id_field(site.id, seen), repr(site.x), repr(site.y)]
        + [repr(float(site.attributes[name])) for name in attribute_names]
        for site in sites
    )
    _write_text(_csv_text([header, *rows]), path)


def write_edges_csv(edges, path) -> None:
    rows = ([_id_field(edge.source), _id_field(edge.target), repr(edge.length), repr(edge.cost)]
            for edge in edges)
    _write_text(_csv_text([_EDGE_HEADER, *rows]), path)


def write_polygons_json(polygons, path) -> None:
    records = [
        {
            "id": polygon.id,
            "rings": [[[x, y] for x, y in ring] for ring in (polygon.exterior, *polygon.holes)],
            "attributes": dict(polygon.attributes),
        }
        for polygon in polygons
    ]
    _write_text(json.dumps(records, indent=2) + "\n", path)


# the report formats; each report's columns, in the field order of SiteScore
# and SiteComparison, and the ComparisonReport fields its summary gives
REPORT_FORMATS = ("csv", "json")
_DETECTION_COLUMNS = ("site_id", "actual", "expected", "diff", "z", "outlier")
_COMPARISON_COLUMNS = (
    "site_id", "actual", "expected_classical", "expected_weighted",
    "sq_error_classical", "sq_error_weighted", "sq_error_delta", "improvement_pct",
)
_COMPARISON_SUMMARY = ("mean_improvement_pct", "mean_sq_error_reduction_pct")


def _fmt(value) -> str:
    if value is None or not math.isfinite(value):  # empty, as JSON gives null
        return ""
    return f"{value:.6f}"


# RFC 4180: a field holding the delimiter, the quote or a line break is quoted
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_ids(ids) -> list[str]:
    """Site ids, or any fields, as CSV fields, each quoted where RFC 4180 asks.

    One search over all the ids together spares a search per id when none needs quotes.
    """
    fields = list(map(str, ids))
    if _NEEDS_QUOTES("".join(fields)):
        fields = ['"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES(f) else f for f in fields]
    return fields


def _csv_text(rows) -> str:
    """Rows of fields as CSV lines, each field quoted by _csv_ids."""
    return "".join(",".join(_csv_ids(row)) + "\n" for row in rows)


def _neighbor_table(header, neighborhoods) -> str:
    """CLI neighbors and weights output as CSV, one row per center and entry.

    neighborhoods lists (center, entries) in output order; an entry is
    (neighbor,) or (neighbor, weight), and weights print as report floats
    do.  Centers without entries are named in a `# no neighbors:` footnote.
    """
    rows = [[center, neighbor, *map(_fmt, weight)]
            for center, entries in neighborhoods for neighbor, *weight in entries]
    lonely = _csv_ids(center for center, entries in neighborhoods if not entries)
    footnote = "# no neighbors: " + ",".join(lonely) + "\n" if lonely else ""
    return _csv_text([header, *rows]) + footnote


def _score_rows(result: DetectionResult):
    return sorted(result.scores, key=lambda s: (s.z, site_id_key(s.site)))


def render_detection_csv(result: DetectionResult) -> str:
    lines = [",".join(_DETECTION_COLUMNS)]
    rows = _score_rows(result)
    ids = _csv_ids([row.site for row in rows])
    for site, (_, actual, expected, diff, z, is_outlier) in zip(ids, rows):
        lines.append(
            f"{site},{_fmt(actual)},{_fmt(expected)},{_fmt(diff)},{_fmt(z)},"
            f"{'true' if is_outlier else 'false'}"
        )
    lines.append(
        f"# mu={_fmt(result.mu)} sigma={_fmt(result.sigma)} theta={_fmt(result.theta)}"
    )
    if result.skipped:
        lines.append("# skipped: " + ",".join(_csv_ids(result.skipped)))
    return "\n".join(lines) + "\n"


def render_comparison_csv(report: ComparisonReport) -> str:
    lines = [",".join(_COMPARISON_COLUMNS)]
    ids = _csv_ids([row.site for row in report.per_site])
    for site, (_, *values) in zip(ids, report.per_site):
        lines.append(",".join([site, *map(_fmt, values)]))
    lines += [f"# {name}={_fmt(getattr(report, name))}" for name in _COMPARISON_SUMMARY]
    return "\n".join(lines) + "\n"


# RFC 8259 has no NaN or Infinity: a non-finite float is null in a JSON report
def _json_safe(value):
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return None
    return value


def _json_record(columns, row) -> dict:
    return dict(zip(columns, map(_json_safe, row)))


def render_detection_json(result: DetectionResult) -> str:
    payload = {
        "attribute": result.attribute,
        "theta": _json_safe(result.theta),
        "mu": _json_safe(result.mu),
        "sigma": _json_safe(result.sigma),
        "scores": [_json_record(_DETECTION_COLUMNS, score) for score in _score_rows(result)],
        "skipped": list(result.skipped),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_comparison_json(report: ComparisonReport) -> str:
    payload = {
        "attribute": report.attribute,
        "per_site": [_json_record(_COMPARISON_COLUMNS, row) for row in report.per_site],
        **{name: _json_safe(getattr(report, name)) for name in _COMPARISON_SUMMARY},
    }
    return json.dumps(payload, indent=2) + "\n"


def render_report(result, fmt: str = "csv") -> str:
    """Render a detection or comparison result in the requested format."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be {' or '.join(REPORT_FORMATS)}, got {fmt!r}")
    if isinstance(result, DetectionResult):
        return render_detection_csv(result) if fmt == "csv" else render_detection_json(result)
    if isinstance(result, ComparisonReport):
        return render_comparison_csv(result) if fmt == "csv" else render_comparison_json(result)
    raise TypeError(f"cannot render {type(result).__name__}")


def _write_text(text: str, path) -> None:
    """Write text to path as UTF-8 with newline line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def write_report(result, fmt: str, path) -> None:
    """Write a rendered report to path."""
    _write_text(render_report(result, fmt), path)
