import json
import math
import os
import subprocess
import sys

import pytest

import spatial_outliers
from spatial_outliers.cli import main
from spatial_outliers.fixtures import write_fixture_files

from conftest import EXTREME_FACTOR_CASES, OVERFLOWING_DIFFERENCE_CASES, row_dataset


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
        out = capsys.readouterr().out
        assert "A: B D E" in out

    def test_buffer_regime(self, fixture_dir, capsys):
        code = main([
            "neighbors",
            "--sites", _p(fixture_dir / "network_sites.csv"),
            "--regime", "buffer", "--radius", "2",
        ])
        assert code == 0
        assert "A: B H J K" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["neighbors", "weights"])
    def test_graph_regime_on_polygons_is_a_usage_error(self, command, tmp_path, capsys):
        from spatial_outliers.fileio import write_polygons_json
        from conftest import grid_polygons

        polys = tmp_path / "grid.json"
        write_polygons_json(grid_polygons(3).sites, polys)
        code = main([command, "--polygons", _p(polys), "--regime", "graph"])
        assert code == 2
        assert "graph regime requires a point dataset" in capsys.readouterr().err


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

    def test_stdout_json(self, fixture_dir, capsys):
        code = main([
            "detect",
            "--sites", _p(fixture_dir / "survey_sites.csv"),
            "--regime", "buffer", "--radius", "6", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
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
        payload = json.loads(capsys.readouterr().out)
        flagged = {row["site_id"] for row in payload["scores"] if row["outlier"]}
        assert flagged == {"17", "216", "238", "26", "317", "28", "29", "30"}

    def test_polygon_detect(self, tmp_path, capsys):
        from spatial_outliers.fileio import write_polygons_json
        from conftest import grid_polygons

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


@pytest.mark.parametrize("command", ["validate", "detect", "compare"])
@pytest.mark.parametrize("side", [1e154, 1e120])
def test_polygons_too_large_for_floats_exit_one(command, side, tmp_path, capsys):
    from spatial_outliers.fileio import write_polygons_json
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


def test_calls_in_one_process_match_fresh_processes(fixture_dir, capsys):
    # in-process callers such as the benchmark make many calls in a row: no
    # state may carry from one call, usage errors included, to the next
    survey = _p(fixture_dir / "survey_sites.csv")
    calls = [
        ["detect", "--sites", survey, "--regime", "buffer", "--radius", "6",
         "--mode", "classical"],
        ["detect", "--sites", survey, "--regime", "buffer", "--radius", "6",
         "--mode", "bogus"],
        ["detect", "--sites", survey, "--regime", "buffer", "--radius", "6"],
        ["validate", "--sites", _p(fixture_dir / "network_sites.csv"),
         "--edges", _p(fixture_dir / "network_edges.csv")],
    ]
    package_root = os.path.dirname(os.path.dirname(spatial_outliers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )}
    codes = []
    for argv in calls:
        code = main(argv)
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "spatial_outliers.cli", *argv],
            capture_output=True, encoding="utf-8", env=env, check=False,
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 2, 0, 0]
