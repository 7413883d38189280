import json
import math
import re

import pytest

from spatial_outliers import (
    DetectionResult,
    ParseError,
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

from conftest import grid_polygons


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
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,v\nA,1,2,3\nB,abc,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_sites(path)
        assert err.value.line == 3
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

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text("id,x,y,v\nA,1,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="expected 4 columns"):
            load_sites(path)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"id,x,y,v\nA,1,2,3\nB,\xff,2,3\n", 3),
            (b"id,x,y,v\r\nA,1,2,3\r\nB,1,\xc3(,3\r\n", 3),
            (b"id,x,y,v\rA,1,2,3\rB,1,2,3\rC,1,2,\x80\r", 4),
            (b"\xffid,x,y,v\n", 1),
            (b"id,x,y,v\n" + b"".join(b"S%d,1,2,3\n" % k for k in range(3000)) + b"\xff", 3002),
        ],
        ids=["lf", "crlf", "cr", "header", "past-first-read"],
    )
    def test_undecodable_bytes_name_their_line(self, tmp_path, data, line):
        path = tmp_path / "sites.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as err:
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

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_bytes(b"from,to,length,cost\nA,B,1,1\nA,C,1,1\nB,\xfe,1,1\n")
        with pytest.raises(ParseError, match="not UTF-8: byte 0xfe") as err:
            load_edges(path)
        assert err.value.line == 4
        assert err.value.path == str(path)


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
        ],
    )
    def test_bad_value_names_its_record(self, tmp_path, fields, message):
        good = {"id": "a", "rings": [[[0, 0], [1, 0], [0, 1]]], "attributes": {"v": 1}}
        path = tmp_path / "polys.json"
        path.write_text(json.dumps([good, {**good, "id": "b", **fields}]), encoding="utf-8")
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

    def test_polygons_round_trip(self, tmp_path):
        grid = grid_polygons(2)
        path = tmp_path / "polys.json"
        write_polygons_json(grid.sites, path)
        assert load_polygons(path) == grid.sites


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

    def test_byte_deterministic(self, survey_results):
        _, weighted = survey_results
        assert render_detection_csv(weighted) == render_detection_csv(weighted)

    def test_json_is_valid_and_ordered(self, survey_results):
        _, weighted = survey_results
        payload = json.loads(render_report(weighted, "json"))
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
        payload = json.loads(render_report(compare_models(result_c, result_w), "json"))
        assert payload["per_site"][0]["improvement_pct"] is None
