import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import spatial_outliers
from spatial_outliers import (
    SpatialDataset, WeightParams, compare_models, detect_outliers, render_report,
)
from spatial_outliers.cli import build_parser, main
from spatial_outliers.dataset import site_id_key
from spatial_outliers.fileio import write_polygons_json
from spatial_outliers.fixtures import write_fixture_files

from conftest import (
    EXTREME_FACTOR_CASES,
    OVERFLOWING_DIFFERENCE_CASES,
    OVERFLOWING_SQUARE_CASES,
    grid_polygons,
    overflowing_improvements_dataset,
    row_dataset,
    strict_json,
)


@pytest.fixture()
def fixture_dir(tmp_path):
    write_fixture_files(tmp_path / "data")
    return tmp_path / "data"


def _p(path):
    return str(path)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_detect_without_inputs(self, capsys):
        assert main(["detect"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_coefficients(self, fixture_dir, capsys):
        code = main([
            "detect", "--sites", _p(fixture_dir / "network_sites.csv"),
            "--regime", "buffer", "--radius", "2",
            "--alpha", "0.5", "--beta", "0.2", "--delta", "0.1",
        ])
        assert code == 2
        assert "must equal 1" in capsys.readouterr().err

    def test_polygon_regime_on_points(self, fixture_dir, capsys):
        code = main([
            "detect", "--sites", _p(fixture_dir / "network_sites.csv"),
            "--regime", "polygon",
        ])
        assert code == 2
        capsys.readouterr()

    def test_buffer_regime_needs_radius(self, fixture_dir, capsys):
        code = main([
            "detect", "--sites", _p(fixture_dir / "network_sites.csv"),
            "--regime", "buffer",
        ])
        assert code == 2
        capsys.readouterr()

    def test_sites_and_polygons_together(self, fixture_dir, tmp_path, capsys):
        polys = tmp_path / "p.json"
        polys.write_text("[]", encoding="utf-8")
        code = main([
            "validate", "--sites", _p(fixture_dir / "network_sites.csv"),
            "--polygons", _p(polys),
        ])
        assert code == 2
        capsys.readouterr()

    def test_edges_with_polygons(self, fixture_dir, tmp_path, capsys):
        polys = tmp_path / "p.json"
        polys.write_text("[]", encoding="utf-8")
        code = main([
            "validate", "--polygons", _p(polys),
            "--edges", _p(fixture_dir / "network_edges.csv"),
        ])
        assert code == 2
        assert "error: --edges applies to point datasets only" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_two_attributes_need_attribute(self, command, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("id,x,y,u,v\na,0,0,1,2\nb,1,0,3,4\n", encoding="utf-8")
        assert main([command, "--sites", _p(sites), "--regime", "buffer", "--radius", "2"]) == 2
        err = capsys.readouterr().err
        assert "error: --attribute is required; dataset declares u,v\nusage: " in err


@pytest.mark.parametrize("command", ["detect", "compare"])
def test_sites_without_an_attribute_exit_one(command, tmp_path, capsys):
    # no option can supply an attribute the file does not have: a data error
    sites = tmp_path / "sites.csv"
    sites.write_text("id,x,y\na,0,0\nb,1,0\n", encoding="utf-8")
    assert main([command, "--sites", _p(sites), "--regime", "buffer", "--radius", "2"]) == 1
    assert capsys.readouterr() == ("", "error: dataset declares no attribute\n")


@pytest.mark.parametrize("command, attribute", [
    ("detect", ["--attribute", "v"]), ("detect", []), ("compare", []),
], ids=["detect --attribute v", "detect", "compare"])
def test_a_header_only_sites_file_gives_the_empty_report(command, attribute, tmp_path, capsys):
    # the header declares v, though no row carries it
    sites = tmp_path / "sites.csv"
    sites.write_text("id,x,y,v\n", encoding="utf-8")
    argv = [command, "--sites", _p(sites), *attribute, "--regime", "buffer", "--radius", "2"]
    assert main(argv) == 0
    empty, params = SpatialDataset((), attribute_names=("v",)), WeightParams(radius=2.0)
    result = detect_outliers(empty, "v", params, "weighted", "buffer")
    if command == "compare":
        result = compare_models(detect_outliers(empty, "v", params, "classical", "buffer"), result)
    assert capsys.readouterr() == (render_report(result), "")


def test_a_header_only_sites_file_declares_only_its_header_attributes(tmp_path, capsys):
    sites = tmp_path / "sites.csv"
    sites.write_text("id,x,y,v\n", encoding="utf-8")
    assert main(["detect", "--sites", _p(sites), "--attribute", "w", "--radius", "2"]) == 1
    assert capsys.readouterr() == ("", "error: attribute 'w' not declared\n")


class TestValidate:
    def test_clean_dataset(self, fixture_dir, capsys):
        code = main([
            "validate",
            "--sites", _p(fixture_dir / "network_sites.csv"),
            "--edges", _p(fixture_dir / "network_edges.csv"),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_exit_one(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("id,x,y,v\nA,0,0,1\nB,1,0,2\n", encoding="utf-8")
        edges = tmp_path / "edges.csv"
        edges.write_text("from,to,length,cost\nA,Z,1,1\n", encoding="utf-8")
        code = main(["validate", "--sites", _p(sites), "--edges", _p(edges)])
        assert code == 1
        assert "dangling endpoint 'Z'" in capsys.readouterr().out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("id,x,y,v\nA,oops,0,1\n", encoding="utf-8")
        assert main(["validate", "--sites", _p(sites)]) == 1
        assert "not a number" in capsys.readouterr().err

    def test_undecodable_sites_exit_one(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_bytes(b"id,x,y,v\nA,0,0,1\nB,\xff,0,2\n")
        assert main(["validate", "--sites", _p(sites)]) == 1
        assert f"{sites}:3: not UTF-8: byte 0xff" in capsys.readouterr().err

    def test_csv_field_past_the_limit_exit_one(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("id,x,y,v\nA,0,0,1\nB," + "1" * 140_000 + ",0,2\n", encoding="utf-8")
        assert main(["validate", "--sites", _p(sites)]) == 1
        assert f"{sites}:3: malformed CSV: field larger than field limit" in capsys.readouterr().err

    def test_polygon_value_error_exit_one(self, tmp_path, capsys):
        polys = tmp_path / "polys.json"
        polys.write_text(
            json.dumps([{"id": "p", "rings": [[["x", 0], [1, 0], [0, 1]]]}]),
            encoding="utf-8",
        )
        assert main(["validate", "--polygons", _p(polys)]) == 1
        assert "record 0: ring coordinates must be numbers" in capsys.readouterr().err

    def test_polygon_non_finite_exit_one(self, tmp_path, capsys):
        polys = tmp_path / "polys.json"
        polys.write_text(
            '[{"id": "p", "rings": [[[0, 0], [NaN, 0], [0, 1]]], "attributes": {"v": Infinity}}]',
            encoding="utf-8",
        )
        assert main(["validate", "--polygons", _p(polys)]) == 1
        captured = capsys.readouterr()
        assert f"{polys}:record 0: ring coordinates must be finite" in captured.err
        assert captured.out == ""

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["validate", "--sites", _p(tmp_path / "nope.csv")]) == 1
        capsys.readouterr()


class TestNeighbors:
    def test_graph_regime(self, fixture_dir, capsys):
        code = main([
            "neighbors",
            "--sites", _p(fixture_dir / "network_sites.csv"),
            "--edges", _p(fixture_dir / "network_edges.csv"),
            "--regime", "graph",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "center,neighbor"
        assert [line for line in lines if line.startswith("A,")] == ["A,B", "A,D", "A,E"]

    def test_buffer_regime(self, fixture_dir, capsys):
        code = main([
            "neighbors",
            "--sites", _p(fixture_dir / "network_sites.csv"),
            "--regime", "buffer", "--radius", "2",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "center,neighbor"
        assert [line for line in lines if line.startswith("A,")] == ["A,B", "A,H", "A,J", "A,K"]

    @pytest.mark.parametrize("command", ["neighbors", "weights"])
    def test_graph_regime_on_polygons_is_a_usage_error(self, command, tmp_path, capsys):
        polys = tmp_path / "grid.json"
        write_polygons_json(grid_polygons(3).sites, polys)
        code = main([command, "--polygons", _p(polys), "--regime", "graph"])
        assert code == 2
        assert "graph regime requires a point dataset" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("neighbors", ["--alpha", "0.3"]), ("neighbors", ["--theta", "0"]),
    ("neighbors", ["--attribute", "v"]), ("neighbors", ["--cost-limit", "4"]),
    ("weights", ["--attribute", "nope"]), ("weights", ["--theta", "3"]),
])
def test_options_a_command_does_not_read_are_unrecognized(command, option, fixture_dir, capsys):
    code = main([
        command, "--sites", _p(fixture_dir / "network_sites.csv"),
        "--regime", "buffer", "--radius", "2", *option,
    ])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err


# every subcommand's options in help order; DEFAULTS gives those not None
HELP_ORDER = {
    "validate": "--sites --edges --polygons",
    "neighbors": "--sites --edges --polygons --radius --regime --out",
    "weights": "--sites --edges --polygons --radius --regime"
               " --alpha --beta --delta --gamma --cost-limit --out",
    "detect": "--sites --edges --polygons --radius --regime --alpha --beta --delta --gamma"
              " --cost-limit --attribute --theta --mode --out --format",
    "compare": "--sites --edges --polygons --radius --regime --alpha --beta --delta --gamma"
               " --cost-limit --attribute --theta --out --format",
    "fixtures": "--out",
}
DEFAULTS = {"--alpha": 1.0, "--beta": 0.0, "--delta": 0.0, "--gamma": 0.5, "--theta": 2.0,
            "--mode": "weighted", "--format": "csv"}
VALUES = {"--regime": "buffer", "--mode": "classical", "--format": "json"}


def test_top_level_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())  # lines wrap with the terminal width
    assert usage.startswith("usage: spatial-outliers [-h] {" + ",".join(HELP_ORDER) + "} ... ")


@pytest.mark.parametrize("command", HELP_ORDER)
def test_help_lists_each_option_once_in_order(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert " ".join(out.split()).startswith(f"usage: spatial-outliers {command} [-h] ")
    assert re.findall(r"^  (--[\w-]+)", out, re.M) == HELP_ORDER[command].split()


@pytest.mark.parametrize("command", HELP_ORDER)
def test_options_default_as_before(command):
    defaults = {flag[2:].replace("-", "_"): DEFAULTS.get(flag)
                for flag in HELP_ORDER[command].split()}
    if command == "fixtures":
        defaults["out"] = "."
    assert vars(build_parser().parse_args([command])) == {"command": command, **defaults}


@pytest.mark.parametrize("command", HELP_ORDER)
def test_options_of_other_commands_are_unrecognized(command, capsys):
    others = set(" ".join(HELP_ORDER.values()).split()) - set(HELP_ORDER[command].split())
    for flag in sorted(others):
        option = [flag, VALUES.get(flag, "1")]
        assert main([command, *option]) == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class TestWeights:
    def test_weight_rows(self, fixture_dir, capsys):
        code = main([
            "weights",
            "--sites", _p(fixture_dir / "village_sites.csv"),
            "--regime", "buffer", "--radius", "25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "center,neighbor,weight"
        assert "27,29,0.410000" in out
        assert "27,42,0.050000" in out

    def test_isolated_sites_footnoted(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text(
            "id,x,y,v\nA,0,0,1\nB,1,0,2\nfar,99,99,3\n", encoding="utf-8"
        )
        code = main([
            "weights", "--sites", _p(sites), "--regime", "buffer", "--radius", "2",
        ])
        assert code == 0
        assert "# no neighbors: far" in capsys.readouterr().out


class TestDetect:
    def test_happy_path_writes_report(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "detect",
            "--sites", _p(fixture_dir / "network_sites.csv"),
            "--edges", _p(fixture_dir / "network_edges.csv"),
            "--regime", "graph", "--attribute", "v", "--theta", "2",
            "--out", _p(out),
        ])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("site_id,actual,expected,diff,z,outlier")
        capsys.readouterr()

    def test_files_with_a_byte_order_mark_give_the_same_report(self, fixture_dir, tmp_path,
                                                               capsys):
        # spreadsheets' "CSV UTF-8" export starts the file with one
        for name in ("network_sites.csv", "network_edges.csv"):
            (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (fixture_dir / name).read_bytes())
        reports = []
        for directory in (fixture_dir, tmp_path):
            assert main([
                "detect",
                "--sites", _p(directory / "network_sites.csv"),
                "--edges", _p(directory / "network_edges.csv"),
                "--regime", "graph", "--attribute", "v",
            ]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] != ""

    def test_crlf_line_ends_give_the_lf_report(self, fixture_dir, tmp_path):
        lf = fixture_dir / "survey_sites.csv"
        crlf = tmp_path / "survey_crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        reports = []
        for sites in (lf, crlf):
            out = tmp_path / f"{sites.stem}_report.csv"
            assert main([
                "detect", "--sites", _p(sites), "--regime", "buffer", "--radius", "6",
                "--out", _p(out),
            ]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] != b""

    def test_stdout_json(self, fixture_dir, capsys):
        code = main([
            "detect",
            "--sites", _p(fixture_dir / "survey_sites.csv"),
            "--regime", "buffer", "--radius", "6", "--format", "json",
        ])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        flagged = {row["site_id"] for row in payload["scores"] if row["outlier"]}
        assert flagged == {"17", "216", "238", "26", "317", "511", "302", "239", "30"}

    def test_classical_mode(self, fixture_dir, capsys):
        code = main([
            "detect",
            "--sites", _p(fixture_dir / "survey_sites.csv"),
            "--regime", "buffer", "--radius", "6", "--mode", "classical",
            "--format", "json",
        ])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        flagged = {row["site_id"] for row in payload["scores"] if row["outlier"]}
        assert flagged == {"17", "216", "238", "26", "317", "28", "29", "30"}

    def test_polygon_detect(self, tmp_path, capsys):
        grid = grid_polygons(3)
        polys = tmp_path / "grid.json"
        write_polygons_json(grid.sites, polys)
        code = main([
            "detect", "--polygons", _p(polys), "--attribute", "v",
            "--regime", "polygon",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("site_id,")

    def test_overflowing_path_costs_exit_zero(self, tmp_path, capsys):
        from spatial_outliers.fileio import write_edges_csv, write_sites_csv
        from conftest import overflowing_costs_dataset

        ds = overflowing_costs_dataset()
        sites, edges = tmp_path / "sites.csv", tmp_path / "edges.csv"
        write_sites_csv(ds.sites, sites)
        write_edges_csv(ds.edges, edges)
        argv = ["detect", "--sites", _p(sites), "--edges", _p(edges),
                "--regime", "combined", "--radius", "2"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert report.endswith("# skipped: B\n")
        # no path is usable, as when the cost limit rules every path out
        assert main(argv + ["--cost-limit", "1"]) == 0
        assert capsys.readouterr().out == report


@pytest.mark.parametrize("blend", [[], ["--alpha", "0.5", "--beta", "0.25", "--delta", "0.25"]])
@pytest.mark.parametrize("case", sorted(EXTREME_FACTOR_CASES))
def test_factor_sums_out_of_range_exit_cleanly(case, blend, tmp_path, capsys):
    from spatial_outliers.fileio import write_edges_csv, write_sites_csv

    build, regime, radius = EXTREME_FACTOR_CASES[case]
    ds = build()
    sites, edges = tmp_path / "sites.csv", tmp_path / "edges.csv"
    write_sites_csv(ds.sites, sites)
    write_edges_csv(ds.edges, edges)
    inputs = ["--sites", _p(sites), "--edges", _p(edges)]
    assert main(["validate", *inputs]) == 0
    capsys.readouterr()
    argv = [*inputs, "--regime", regime, "--radius", radius, *blend]
    # the numeric columns of each report: weight; actual, expected, diff, z
    for command, columns in (("weights", slice(2, 3)), ("detect", slice(1, 5))):
        code = main([command, *argv])
        out, err = capsys.readouterr()
        assert "Traceback" not in err and "nan" not in out and "inf" not in out
        if regime == "buffer":
            assert code == 1
            assert "no usable weighting factor" in err
            assert out == ""
        else:
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:] if line[0] != "#"]
            assert rows and all(
                math.isfinite(float(v)) for row in rows for v in row[columns]
            )


@pytest.mark.parametrize("case", sorted(OVERFLOWING_DIFFERENCE_CASES))
def test_differences_outside_the_float_range_exit_one(case, tmp_path, capsys):
    from spatial_outliers.fileio import write_sites_csv

    sites = tmp_path / "sites.csv"
    write_sites_csv(row_dataset(*OVERFLOWING_DIFFERENCE_CASES[case]).sites, sites)
    assert main(["validate", "--sites", _p(sites)]) == 0
    capsys.readouterr()
    argv = ["--sites", _p(sites), "--radius", "1", "--regime", "buffer"]
    for command in (["detect"], ["detect", "--format", "json"], ["compare"]):
        assert main([*command, *argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == (
            "error: differences outside the float range: "
            "a difference, their sum or a deviation from their mean overflows\n"
        )


@pytest.mark.parametrize("case", sorted(OVERFLOWING_SQUARE_CASES))
def test_squared_errors_outside_the_float_range_exit_one(case, tmp_path, capsys):
    from spatial_outliers.fileio import write_sites_csv

    build, radius = OVERFLOWING_SQUARE_CASES[case]
    sites = tmp_path / "sites.csv"
    write_sites_csv(build().sites, sites)
    assert main(["validate", "--sites", _p(sites)]) == 0
    capsys.readouterr()
    argv = ["--sites", _p(sites), "--radius", radius, "--regime", "buffer"]
    assert main(["detect", *argv]) == 0
    capsys.readouterr()
    for fmt in ("csv", "json"):
        assert main(["compare", *argv, "--format", fmt]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err == (
            "error: squared errors outside the float range: "
            "a squared difference or their sum overflows\n"
        )


def test_improvements_summing_past_the_float_range_exit_one(tmp_path, capsys):
    from spatial_outliers.fileio import write_sites_csv

    sites = tmp_path / "sites.csv"
    write_sites_csv(overflowing_improvements_dataset().sites, sites)
    assert main(["validate", "--sites", _p(sites)]) == 0
    capsys.readouterr()
    argv = ["compare", "--sites", _p(sites), "--radius", "3.5", "--regime", "buffer"]
    for fmt in ("csv", "json"):
        report = tmp_path / f"report.{fmt}"
        for out in ([], ["--out", _p(report)]):
            assert main([*argv, "--format", fmt, *out]) == 1
            assert capsys.readouterr() == (
                "", "error: improvement percentages outside the float range: their sum overflows\n"
            )
        assert not report.exists()


@pytest.mark.parametrize("command", ["validate", "detect", "compare"])
@pytest.mark.parametrize("side", [1e154, 1e120])
def test_polygons_too_large_for_floats_exit_one(command, side, tmp_path, capsys):
    from conftest import huge_squares_dataset

    polys = tmp_path / "huge.json"
    write_polygons_json(huge_squares_dataset(side).sites, polys)
    argv = [command, "--polygons", _p(polys)]
    if command != "validate":
        argv += ["--attribute", "v", "--regime", "polygon"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    for i in range(3):
        assert f"site 'p{i}': polygon 'p{i}': area or centroid overflows" in out + err


class TestCompare:
    def test_village_compare_contains_both_expectations(self, fixture_dir, capsys):
        code = main([
            "compare",
            "--sites", _p(fixture_dir / "village_sites.csv"),
            "--regime", "buffer", "--radius", "25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        row27 = next(l for l in out.splitlines() if l.startswith("27,"))
        cols = row27.split(",")
        assert float(cols[1]) == pytest.approx(26.0)              # actual
        assert float(cols[2]) == pytest.approx(45.0, abs=1e-6)    # classical
        assert float(cols[3]) == pytest.approx(28.0, abs=1e-6)    # weighted
        assert float(cols[4]) == pytest.approx(361.0, abs=1e-6)   # 19^2
        assert float(cols[5]) == pytest.approx(4.0, abs=1e-6)     # 2^2
        assert float(cols[7]) == pytest.approx(98.89, abs=0.01)


# ids that csv.writer quotes: a comma, a quote, a line feed, a carriage return
QUOTED_IDS = ["a,b", 'say "hi"', "two\nlines", "c\rd"]
# ids that need no quotes but would be ambiguous in a space- or colon-separated list
SPACED_IDS = ["a b", "c: d", "e", "f: g h"]


def _csv_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _report_ids(text, footer):
    """The ids of each report row, read back by csv.reader, and those after footer."""
    body, _, tail = text.partition("\n" + footer) if footer else (text, "", "")
    header, *rows = csv.reader(io.StringIO(body))
    rows = [row for row in rows if not row[0].startswith("# ")]
    assert all(len(row) == len(header) for row in rows)
    return rows, next(csv.reader(io.StringIO(tail)), [])


@pytest.mark.parametrize("command, footer, ids", [
    ("detect", "# skipped: ", QUOTED_IDS), ("compare", None, QUOTED_IDS),
    ("weights", "# no neighbors: ", QUOTED_IDS), ("neighbors", "# no neighbors: ", QUOTED_IDS),
    ("neighbors", "# no neighbors: ", SPACED_IDS),
], ids=[
    "detect-# skipped: ", "compare-None", "weights-# no neighbors: ",
    "neighbors-# no neighbors: ", "neighbors-spaced",
])
def test_ids_that_need_quotes_read_back_from_every_csv_report(
    command, footer, ids, tmp_path, capsys
):
    # four sites within the radius of each other, and two isolated ones
    sites = tmp_path / "sites.csv"
    sites.write_text(_csv_text([
        ["id", "x", "y", "v"],
        *([sid, 0.0 + k % 2, 0.0 + k // 2, 2.0 ** k] for k, sid in enumerate(ids)),
        ["far, east", 99.0, 0.0, 3.0], ["far\"west", -99.0, 0.0, 5.0],
    ]), encoding="utf-8")
    assert main([command, "--sites", _p(sites), "--regime", "buffer", "--radius", "2"]) == 0
    rows, footnoted = _report_ids(capsys.readouterr().out, footer)
    assert {row[0] for row in rows} == set(ids)
    assert sorted(footnoted) == ([] if footer is None else ['far"west', "far, east"])
    if command in ("weights", "neighbors"):
        assert [(row[0], row[1]) for row in rows] == [
            (a, b) for a in sorted(ids) for b in sorted(ids) if a != b
        ]


# a 3x3 tiling and two isolated squares, their ids ints and strs in no order
MIXED_TILE_IDS = [10, "b", 2, 7, "a", "c", 1, "z", 30]
MIXED_LONE_IDS = ["k", 5]


def _id_cell(cell):
    return int(cell) if cell.isdigit() else cell


@pytest.mark.parametrize("command", ["neighbors", "weights", "detect"])
def test_mixed_int_and_str_ids_list_in_key_order(command, tmp_path, capsys):
    records = [
        {"id": sid, "rings": [[[j, i], [j + 1, i], [j + 1, i + 1], [j, i + 1]]],
         "attributes": {"v": float(k * k % 7)}}
        for k, (sid, (i, j)) in enumerate(zip(
            MIXED_TILE_IDS + MIXED_LONE_IDS,
            [(i, j) for i in range(3) for j in range(3)] + [(20, 20), (-20, -20)]))
    ]
    polygons = tmp_path / "tiles.json"
    polygons.write_text(json.dumps(records), encoding="utf-8")
    lone = sorted(MIXED_LONE_IDS, key=site_id_key)  # [5, "k"]
    argv = [command, "--polygons", _p(polygons), "--regime", "polygon"]
    if command == "detect":
        assert main([*argv, "--format", "json"]) == 0
        assert strict_json(capsys.readouterr().out)["skipped"] == lone
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("\n# skipped: 5,k\n")
        return
    assert main(argv) == 0
    rows, footnoted = _report_ids(capsys.readouterr().out, "# no neighbors: ")
    assert list(map(_id_cell, footnoted)) == lone
    pairs = [(_id_cell(row[0]), _id_cell(row[1])) for row in rows]
    centers = list(dict.fromkeys(center for center, _ in pairs))
    assert centers == sorted(MIXED_TILE_IDS, key=site_id_key)
    lists = [[neighbor for c, neighbor in pairs if c == center] for center in centers]
    assert all(found == sorted(found, key=site_id_key) for found in lists)
    assert lists[centers.index("a")] == [7, "b", "c", "z"]


def test_duplicate_sites_column_exits_one(tmp_path, capsys):
    sites = tmp_path / "sites.csv"
    sites.write_text("id,x,y,v,v\nA,0,0,1,2\nB,1,0,2,3\n", encoding="utf-8")
    assert main(["detect", "--sites", _p(sites), "--regime", "buffer", "--radius", "2"]) == 1
    assert f"{sites}:1: column 5: duplicate column name 'v'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "compare"])
def test_constant_attribute_exits_one_without_report(command, tmp_path, capsys):
    # rounded weight products of 3.7 can sum to 3.7 plus an ulp; that noise
    # must not be standardized into z-scores
    sites = tmp_path / "sites.csv"
    sites.write_text(
        "id,x,y,v\n"
        + "".join(f"s{i}{j},{i},{j},3.7\n" for i in range(4) for j in range(4)),
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    code = main([
        command, "--sites", _p(sites), "--regime", "buffer", "--radius", "1.5",
        "--out", _p(out),
    ])
    assert code == 1
    assert "no spread beyond rounding" in capsys.readouterr().err
    assert not out.exists()


class TestFixturesCommand:
    def test_writes_all_files(self, tmp_path, capsys):
        code = main(["fixtures", "--out", _p(tmp_path / "bundle")])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 4
        for name in ("network_sites.csv", "network_edges.csv",
                     "village_sites.csv", "survey_sites.csv"):
            assert (tmp_path / "bundle" / name).exists()

    def test_written_fixtures_validate(self, tmp_path, capsys):
        main(["fixtures", "--out", _p(tmp_path)])
        capsys.readouterr()
        for args in (
            ["validate", "--sites", _p(tmp_path / "network_sites.csv"),
             "--edges", _p(tmp_path / "network_edges.csv")],
            ["validate", "--sites", _p(tmp_path / "village_sites.csv")],
            ["validate", "--sites", _p(tmp_path / "survey_sites.csv")],
        ):
            assert main(args) == 0
            assert capsys.readouterr().out.strip() == "ok"


def _without_site_packages(*args):
    """Run python -S with the package root as its only PYTHONPATH entry.

    The process can import the standard library and the package, nothing installed.
    """
    package_root = os.path.dirname(os.path.dirname(spatial_outliers.__file__))
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, encoding="utf-8",
        env={**os.environ, "PYTHONPATH": package_root}, check=False,
    )


def test_importing_the_package_loads_only_the_standard_library():
    listed = _without_site_packages(
        "-c", "import sys, spatial_outliers, spatial_outliers.cli; print(*sys.modules)")
    assert listed.returncode == 0, listed.stderr
    loaded = {name.partition(".")[0] for name in listed.stdout.split()}
    assert loaded - set(sys.stdlib_module_names) == {"spatial_outliers", "__main__"}


def test_calls_in_one_process_match_fresh_processes(fixture_dir, tmp_path, monkeypatch,
                                                     capsys):
    # in-process callers such as the benchmark make many calls in a row: no
    # state may carry from one call, usage errors included, to the next.  Each
    # fresh process runs without site-packages, so each call also shows that
    # the command line runs on the standard library alone
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    survey = ["--sites", _p(fixture_dir / "survey_sites.csv"), "--regime", "buffer"]
    network = ["--sites", _p(fixture_dir / "network_sites.csv"),
               "--edges", _p(fixture_dir / "network_edges.csv")]
    blend = ["--radius", "2", "--alpha", "0.5", "--beta", "0.25", "--delta", "0.25"]
    bad = tmp_path / "bad_sites.csv"
    bad.write_text("id,x,y,v\na,0,0,1\nb,zz,0,2\nc,1,1,3\n", encoding="utf-8")
    tiles = tmp_path / "tiles.json"
    write_polygons_json(grid_polygons(3).sites, tiles)
    quoted = tmp_path / "quoted_sites.csv"  # quoted ids send the file to the row walk
    quoted.write_text('id,x,y,v\n"a,1",0,0,1\n"b",1,0,2\n"c",0,1,4\n"d",1,1,3\n',
                      encoding="utf-8")
    header_only = tmp_path / "header_only_sites.csv"
    header_only.write_text("id,x,y,v\n", encoding="utf-8")
    calls = [
        (0, ["detect", *survey, "--radius", "6", "--mode", "classical"]),
        (2, ["detect", *survey, "--radius", "6", "--mode", "bogus"]),
        (0, ["detect", *survey, "--radius", "6"]),
        (0, ["validate", *network]),
        # buffer tables on one cell: cells too small for the coordinates, and
        # an infinite radius
        (0, ["detect", *survey, "--radius", "1e-300"]),
        (0, ["neighbors", "--sites", _p(fixture_dir / "village_sites.csv"),
             "--regime", "buffer", "--radius", "inf"]),
        (0, ["weights", *network, "--regime", "combined", *blend]),
        # weighted buffer and graph scoring: the two regimes that skip the cost search
        (0, ["detect", *network, "--mode", "weighted", "--regime", "buffer", "--radius", "2"]),
        (0, ["detect", *network, "--mode", "weighted", "--regime", "graph", "--radius", "2"]),
        # weighted combined scoring with the cost search; 0.01 is below every
        # edge cost, so the cost factor drops and the blend rescales
        (0, ["detect", *network, "--mode", "weighted", "--regime", "combined", *blend,
             "--cost-limit", "4"]),
        (0, ["detect", *network, "--mode", "weighted", "--regime", "combined", *blend,
             "--cost-limit", "0.01"]),
        (2, ["detect", *survey, "--radius", "6", "--theta", "0"]),
        # a malformed input is a data error naming its line: a bad number on
        # line 3, after a clean row
        (1, ["detect", "--sites", _p(bad), "--regime", "buffer", "--radius", "6"]),
        (0, ["detect", "--sites", _p(quoted), "--regime", "buffer", "--radius", "2"]),
        (0, ["detect", "--sites", _p(header_only), "--attribute", "v", "--radius", "2"]),
        # the default blend: combined at delta 0, which runs no cost search
        (0, ["detect", *network, "--radius", "2"]),
        (0, ["validate", "--polygons", _p(tiles)]),
        (0, ["compare", "--polygons", _p(tiles), "--regime", "polygon"]),
        *((0, [command, "--help"]) for command in HELP_ORDER),
    ]
    for code, argv in calls:
        got = main(argv), *capsys.readouterr()
        fresh = _without_site_packages("-m", "spatial_outliers.cli", *argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert got[0] == code, (argv, got[2])
        if _p(bad) in argv:
            assert got[2].startswith(f"error: {bad}:3: ")
