import dataclasses
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from spatial_outliers import (
    DegenerateDistanceError,
    Edge,
    GeometryError,
    NeighborFactors,
    ParseError,
    PointSite,
    PolygonSite,
    SiteComparison,
    SiteLookupError,
    SiteScore,
    SpatialDataset,
    WeightParams,
    buffer_neighbors,
    detect_outliers,
    load_edges,
    load_polygons,
    polygon_adjacent_neighbors,
    polygon_area,
    polygon_centroid,
    site_distance,
    validate_dataset,
)
from spatial_outliers import dataset as dataset_module
from spatial_outliers.dataset import MIN_RING_AREA

from conftest import huge_squares_dataset, unit_square


def shoelace(vertices):
    """Independent area oracle: straight shoelace over a closed ring."""
    total = 0.0
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


TRIANGLE = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))

# projected coordinates (metres east and north) put rings far from the origin
FAR_ORIGINS = [(1e6 + 0.1, 2e6 + 0.3), (123456.7, 7654321.9), (5e7, 5e7)]


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area(unit_square("s")) == pytest.approx(1.0)

    def test_right_triangle_matches_oracle(self):
        poly = PolygonSite(id="t", exterior=TRIANGLE)
        assert shoelace(list(TRIANGLE)) == pytest.approx(2.0)
        assert polygon_area(poly) == pytest.approx(2.0)

    def test_square_with_centered_hole(self):
        hole = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75))
        poly = PolygonSite(id="s", exterior=unit_square("x").exterior, holes=(hole,))
        # outer minus hole by the oracle: 1.0 - 0.25
        assert shoelace(list(hole)) == pytest.approx(0.25)
        assert polygon_area(poly) == pytest.approx(0.75)

    def test_collinear_ring_rejected(self):
        poly = PolygonSite(id="bad", exterior=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        with pytest.raises(GeometryError):
            polygon_area(poly)

    @pytest.mark.parametrize("ox, oy", FAR_ORIGINS)
    def test_far_from_origin(self, ox, oy):
        tri = PolygonSite(id="t", exterior=((ox, oy), (ox + 3.0, oy), (ox, oy + 3.0)))
        assert polygon_area(tri) == pytest.approx(4.5, rel=1e-12)
        line = PolygonSite(id="l", exterior=((ox, oy), (ox + 1.0, oy + 1.0), (ox + 2.0, oy + 2.0)))
        with pytest.raises(GeometryError):
            polygon_area(line)
        assert "degenerate exterior ring" in " ".join(validate_dataset(SpatialDataset(sites=(line,))))

    @pytest.mark.parametrize("side", [1e154, 1e120])
    def test_overflowing_geometry_rejected(self, side):
        for square in huge_squares_dataset(side).sites:
            for fn in (polygon_area, polygon_centroid):
                with pytest.raises(GeometryError, match="overflows the float range"):
                    fn(square)

    def test_non_finite_vertex_rejected(self):
        poly = PolygonSite(id="p", exterior=((0.0, 0.0), (math.inf, 0.0), (0.0, 1.0)))
        with pytest.raises(GeometryError, match="non-finite vertex"):
            polygon_area(poly)

    @pytest.mark.parametrize("x", [math.inf, -math.inf])
    def test_hole_with_infinite_area_names_its_vertex(self, x):
        # the hole's shoelace sum is +-inf, so the net area is -inf, not zero
        poly = PolygonSite(
            id="p",
            exterior=unit_square("p", size=4.0).exterior,
            holes=(((1.0, 1.0), (1.0, 2.0), (x, 1.5), (1.0, 0.0)),),
        )
        assert dataset_module._geometry(poly)[0][1] == math.inf
        with pytest.raises(GeometryError, match="non-finite vertex"):
            polygon_area(poly)

    def test_hole_swallowing_exterior_rejected(self):
        poly = PolygonSite(
            id="bad",
            exterior=unit_square("x").exterior,
            holes=(unit_square("x").exterior,),
        )
        with pytest.raises(GeometryError):
            polygon_area(poly)


class TestPolygonCentroid:
    def test_unit_square(self):
        assert polygon_centroid(unit_square("s")) == pytest.approx((0.5, 0.5))

    def test_right_triangle(self):
        # centroid of a triangle is the vertex mean: (2/3, 2/3)
        poly = PolygonSite(id="t", exterior=TRIANGLE)
        assert polygon_centroid(poly) == pytest.approx((2.0 / 3.0, 2.0 / 3.0))

    def test_translated_square(self):
        poly = unit_square("s", ox=10.0, oy=10.0)
        assert polygon_centroid(poly) == pytest.approx((10.5, 10.5))

    @pytest.mark.parametrize("ox, oy", FAR_ORIGINS)
    def test_far_from_origin(self, ox, oy):
        tri = PolygonSite(id="t", exterior=((ox, oy), (ox + 3.0, oy), (ox, oy + 3.0)))
        assert polygon_centroid(tri) == pytest.approx((ox + 1.0, oy + 1.0), rel=0, abs=1e-6)

    def test_sliver_centroid_moves_with_the_sliver(self):
        # shoelace terms of this sliver cancel to its 5e-10 area
        ring = ((1.0, 0.0), (2.0, 2.8176947764319844e-32), (1.0, 1e-09))
        cx, cy = polygon_centroid(PolygonSite(id="p", exterior=ring))
        moved = PolygonSite(id="p", exterior=tuple((x, y + 5.0) for x, y in ring))
        assert polygon_centroid(moved) == pytest.approx((cx, cy + 5.0), rel=1e-9, abs=1e-12)

    def test_hole_pulls_centroid_away(self):
        # hole in the right half pulls the centroid left
        hole = ((0.6, 0.4), (0.9, 0.4), (0.9, 0.6), (0.6, 0.6))
        poly = PolygonSite(id="s", exterior=unit_square("x").exterior, holes=(hole,))
        cx, _ = polygon_centroid(poly)
        assert cx < 0.5


@st.composite
def star_polygons(draw):
    """Simple (non-self-intersecting) polygons star-shaped around origin."""
    n = draw(st.integers(min_value=3, max_value=10))
    angles = sorted(
        draw(
            st.lists(
                st.floats(0.0, 2.0 * math.pi - 0.2, allow_nan=False),
                min_size=n, max_size=n, unique=True,
            )
        )
    )
    radii = draw(
        st.lists(st.floats(0.5, 3.0, allow_nan=False), min_size=n, max_size=n)
    )
    ring = tuple(
        (r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)
    )
    return PolygonSite(id="p", exterior=ring)


def _transformed(poly, dx=0.0, dy=0.0, angle=0.0, scale=1.0):
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    ring = tuple(
        (scale * (x * cos_a - y * sin_a) + dx, scale * (x * sin_a + y * cos_a) + dy)
        for x, y in poly.exterior
    )
    return PolygonSite(id=poly.id, exterior=ring)


class TestGeometryProperties:
    @given(star_polygons(), st.floats(-50, 50), st.floats(-50, 50))
    def test_area_translation_invariant(self, poly, dx, dy):
        try:
            base = polygon_area(poly)
        except GeometryError:
            return  # radii collapsed to a sliver; nothing to check
        moved = polygon_area(_transformed(poly, dx=dx, dy=dy))
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(star_polygons(), st.floats(0.0, 2.0 * math.pi))
    def test_area_rotation_invariant(self, poly, angle):
        try:
            base = polygon_area(poly)
        except GeometryError:
            return
        rotated = polygon_area(_transformed(poly, angle=angle))
        assert rotated == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(star_polygons(), st.floats(0.1, 10.0))
    def test_area_scales_quadratically(self, poly, scale):
        try:
            base = polygon_area(poly)
        except GeometryError:
            return
        scaled = polygon_area(_transformed(poly, scale=scale))
        assert scaled == pytest.approx(base * scale * scale, rel=1e-9)

    @given(star_polygons(), st.floats(-50, 50), st.floats(-50, 50))
    def test_centroid_translation_equivariant(self, poly, dx, dy):
        try:
            cx, cy = polygon_centroid(poly)
        except GeometryError:
            return
        mx, my = polygon_centroid(_transformed(poly, dx=dx, dy=dy))
        assert (mx, my) == pytest.approx((cx + dx, cy + dy), rel=1e-9, abs=1e-6)


def _geometry(poly):
    """Centroid and area of poly, or the error each raises, for comparison."""
    out = []
    for fn in (polygon_centroid, polygon_area):
        try:
            out.append(fn(poly))
        except GeometryError as exc:
            out.append((type(exc), str(exc)))
    return out


class TestGeometryMemo:
    """Centroid and area are remembered on the polygon, invisibly."""

    @given(star_polygons(), st.one_of(st.none(), st.floats(0.1, 0.9)))
    def test_repeated_calls_match_a_fresh_copy(self, poly, hole_scale):
        if hole_scale is not None:
            # a shrunken copy of a star-shaped ring lies strictly inside it
            hole = tuple((hole_scale * x, hole_scale * y) for x, y in poly.exterior)
            poly = dataclasses.replace(poly, holes=(hole,))
        first = _geometry(poly)
        assert _geometry(poly) == first
        assert _geometry(poly) == first
        assert _geometry(dataclasses.replace(poly)) == first

    @pytest.mark.parametrize(
        "poly",
        [
            PolygonSite(id="line", exterior=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))),
            PolygonSite(
                id="eaten",
                exterior=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
                holes=(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),),
            ),
        ],
        ids=["collinear", "hole-eats-exterior"],
    )
    def test_degenerate_ring_raises_on_every_call(self, poly):
        for _ in range(3):
            with pytest.raises(GeometryError):
                polygon_centroid(poly)
            with pytest.raises(GeometryError):
                polygon_area(poly)

    def test_memo_is_invisible_to_equality_and_repr(self):
        hole = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75))
        used = PolygonSite(id="s", exterior=unit_square("x").exterior, holes=(hole,))
        polygon_centroid(used)
        polygon_area(used)
        fresh = PolygonSite(id="s", exterior=unit_square("x").exterior, holes=(hole,))
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert used != dataclasses.replace(fresh, id="t")


def test_geometry_is_one_record_per_polygon():
    hole = ((0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75))
    poly = PolygonSite(id="s", exterior=unit_square("x").exterior, holes=(hole,))
    polygon_centroid(poly)
    polygon_area(poly)
    assert validate_dataset(SpatialDataset(sites=(poly,))) == []
    fields = {f.name for f in dataclasses.fields(poly)}
    assert set(vars(poly)) - fields == {"_geometry"}


class TestSiteDistance:
    def test_three_four_five(self):
        a = PointSite(id="a", x=0.0, y=0.0)
        b = PointSite(id="b", x=3.0, y=4.0)
        assert site_distance(a, b) == pytest.approx(5.0)

    def test_coincident_points_rejected(self):
        a = PointSite(id="a", x=3.0, y=4.0)
        b = PointSite(id="b", x=3.0, y=4.0)
        with pytest.raises(DegenerateDistanceError):
            site_distance(a, b)

    def test_polygon_centroid_distance(self):
        # centroids (0.5, 0.5) and (3.5, 0.5): distance 3 by the oracle
        a = unit_square("a")
        b = unit_square("b", ox=3.0)
        assert site_distance(a, b) == pytest.approx(3.0)

    def test_identical_polygons_rejected(self):
        with pytest.raises(DegenerateDistanceError):
            site_distance(unit_square("a"), unit_square("b"))

    @given(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    )
    def test_symmetric_and_positive(self, p, q):
        a = PointSite(id="a", x=p[0], y=p[1])
        b = PointSite(id="b", x=q[0], y=q[1])
        if (a.x, a.y) == (b.x, b.y):
            with pytest.raises(DegenerateDistanceError):
                site_distance(a, b)
            return
        assert site_distance(a, b) == site_distance(b, a) > 0.0


def _point(sid, x, y, v=1.0):
    return PointSite(id=sid, x=x, y=y, attributes={"v": v})


class TestValidateDataset:
    def test_network_fixture_is_clean(self, network):
        assert validate_dataset(network) == []

    def test_village_and_survey_fixtures_are_clean(self, village, survey):
        assert validate_dataset(village) == []
        assert validate_dataset(survey) == []

    def test_dangling_endpoint(self):
        ds = SpatialDataset(
            sites=(_point("A", 0, 0), _point("B", 1, 0)),
            edges=(Edge("A", "Z", 1.0, 1.0),),
        )
        report = validate_dataset(ds)
        assert len(report) == 1
        assert "dangling endpoint 'Z'" in report[0]

    def test_coincident_sites(self):
        ds = SpatialDataset(sites=(_point("A", 3.0, 4.0), _point("B", 3.0, 4.0)))
        report = validate_dataset(ds)
        assert len(report) == 1
        assert "coincident sites" in report[0]

    def test_coincident_pairs_follow_site_order(self):
        spots = [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (1.0, 1.0), (-0.0, 0.0)]
        ds = SpatialDataset(
            sites=tuple(_point(sid, x, y) for sid, (x, y) in zip("ABCDE", spots))
        )
        assert validate_dataset(ds) == [
            "sites 'A' and 'C': coincident sites at (0.0, 0.0)",
            "sites 'A' and 'E': coincident sites at (0.0, 0.0)",
            "sites 'B' and 'D': coincident sites at (1.0, 1.0)",
            "sites 'C' and 'E': coincident sites at (0.0, 0.0)",
        ]

    def test_missing_attribute(self):
        ds = SpatialDataset(
            sites=(_point("A", 0, 0), PointSite(id="B", x=1.0, y=0.0)),
            attribute_names=("v",),
        )
        assert any("missing attribute 'v'" in v for v in validate_dataset(ds))

    def test_degenerate_ring(self):
        bad = PolygonSite(id="P", exterior=((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))
        ds = SpatialDataset(sites=(bad, unit_square("Q", ox=5.0)))
        assert any("degenerate exterior ring" in v for v in validate_dataset(ds))

    def test_non_finite_vertex(self):
        # the loaders reject one; a polygon built in code reaches validation
        bad = PolygonSite(id="P", exterior=((0.0, 0.0), (1.0, 0.0), (math.nan, 1.0)))
        ds = SpatialDataset(sites=(bad, unit_square("Q", ox=5.0)))
        assert validate_dataset(ds) == ["site 'P': exterior ring has non-finite vertex"]

    def test_self_intersecting_ring(self):
        # two boundary segments dip below y=0 and cross the base edge
        crossed = PolygonSite(
            id="P",
            exterior=((0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (2.0, -1.0), (0.0, 3.0)),
        )
        ds = SpatialDataset(sites=(crossed,))
        assert any("self-intersecting" in v for v in validate_dataset(ds))

    def test_zero_area_bowtie_reported_as_degenerate(self):
        bowtie = PolygonSite(
            id="P", exterior=((0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0))
        )
        ds = SpatialDataset(sites=(bowtie,))
        assert any("degenerate exterior ring" in v for v in validate_dataset(ds))

    @pytest.mark.parametrize("side", [1e154, 1e120])
    def test_overflowing_geometry_named_for_each_site(self, side):
        # at 1e120 the centroids overflow to (inf, inf): not a coincidence
        assert validate_dataset(huge_squares_dataset(side)) == [
            f"site 'p{i}': polygon 'p{i}': area or centroid overflows the float range"
            for i in range(3)
        ]

    def test_coincident_polygon_centroids(self):
        # concentric squares of different size share a centroid
        a = unit_square("A")
        b = PolygonSite(
            id="B",
            exterior=((-0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (-0.5, 1.5)),
        )
        ds = SpatialDataset(sites=(a, b))
        assert any("coincident centroids" in v for v in validate_dataset(ds))

    def test_bad_edges(self):
        ds = SpatialDataset(
            sites=(_point("A", 0, 0), _point("B", 1, 0)),
            edges=(
                Edge("A", "A", 1.0, 1.0),
                Edge("A", "B", 0.0, 1.0),
                Edge("A", "B", 1.0, -2.0),
            ),
        )
        report = "\n".join(validate_dataset(ds))
        assert "self-loop" in report
        assert "length must be positive" in report
        assert "cost must be non-negative" in report

    @pytest.mark.parametrize("cost", [-2.0, math.inf, math.nan])
    def test_bad_cost_names_the_rule(self, cost):
        ds = SpatialDataset(
            sites=(_point("A", 0, 0), _point("B", 1, 0)),
            edges=(Edge("A", "B", 1.0, cost),),
        )
        assert validate_dataset(ds) == [
            f"edge 0 ('A'->'B'): cost must be non-negative and finite, got {cost}"
        ]

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan])
    def test_bad_length_names_the_rule(self, length):
        ds = SpatialDataset(
            sites=(_point("A", 0, 0), _point("B", 1, 0)),
            edges=(Edge("A", "B", length, 1.0),),
        )
        assert validate_dataset(ds) == [
            f"edge 0 ('A'->'B'): length must be positive and finite, got {length}"
        ]

    def test_mixed_kinds(self):
        ds = SpatialDataset(sites=(_point("A", 0, 0), unit_square("B", ox=4.0)))
        assert any("mixes point and polygon" in v for v in validate_dataset(ds))

    def test_duplicate_ids(self):
        ds = SpatialDataset(sites=(_point("A", 0, 0), _point("A", 1, 0)))
        assert any("duplicate site id" in v for v in validate_dataset(ds))

    def test_edges_on_polygon_dataset(self):
        ds = SpatialDataset(
            sites=(unit_square("A"), unit_square("B", ox=2.0)),
            edges=(Edge("A", "B", 1.0, 1.0),),
        )
        assert any("only valid for point datasets" in v for v in validate_dataset(ds))


def test_a_repeated_id_answers_for_its_first_site_everywhere():
    # site(), the locations, the buffer table and rook adjacency answer for
    # the first d at (0, 0), so its value is the first d's too; the second d
    # is nobody's neighbor, and each id is one center
    layout = (("d", 0.0, 0.0, 1.0), ("a", 1.0, 0.0, 2.0), ("b", 10.0, 0.0, 3.0),
              ("d", 11.0, 0.0, 100.0), ("e", 10.5, 0.5, 4.0))
    sites = tuple(PointSite(sid, x, y, {"v": v}) for sid, x, y, v in layout)
    dataset = SpatialDataset(sites=sites)
    assert dataset.site("d") is sites[0]
    assert dataset.site_ids() == ("d", "a", "b", "e")
    assert dataset.values("v") == {"d": 1.0, "a": 2.0, "b": 3.0, "e": 4.0}
    params = WeightParams(radius=1.5)
    assert {sid: buffer_neighbors(dataset, sid, 1.5) for sid in dataset.site_ids()} == {
        "d": {"a"}, "a": {"d"}, "b": {"e"}, "e": {"b"},
    }
    result = detect_outliers(dataset, "v", params, mode="classical", regime="buffer")
    assert [(s.site, s.actual, s.expected) for s in result.scores] == [
        ("a", 2.0, 1.0), ("b", 3.0, 4.0), ("d", 1.0, 2.0), ("e", 4.0, 3.0),
    ]
    # the same layout as unit squares: the second d touches b, the first does not
    squares = SpatialDataset(sites=tuple(
        unit_square(sid, ox=x, oy=y, attributes={"v": v}) for sid, x, y, v in layout
    ))
    assert {sid: polygon_adjacent_neighbors(squares, sid) for sid in squares.site_ids()} == {
        "d": {"a"}, "a": {"d"}, "b": set(), "e": set(),
    }
    result = detect_outliers(squares, "v", params, mode="classical", regime="polygon")
    assert [(s.site, s.expected) for s in result.scores] == [("a", 1.0), ("d", 2.0)]
    assert result.skipped == ("b", "e")
    # an isolated repeated id is skipped once
    isolated = SpatialDataset(sites=(*sites, PointSite("q", 50.0, 0.0, {"v": 5.0}),
                                     PointSite("q", 60.0, 0.0, {"v": 6.0})))
    assert isolated.site_ids() == ("d", "a", "b", "e", "q")
    result = detect_outliers(isolated, "v", params, mode="classical", regime="buffer")
    assert result.skipped == ("q",)
    # every site still needs the attribute, a repeated one too
    lacking = SpatialDataset(sites=(*sites, PointSite("d", 20.0, 0.0, {})), attribute_names=("v",))
    with pytest.raises(SiteLookupError, match="site 'd' has no attribute 'v'"):
        lacking.values("v")


def reference_validate_points(dataset):
    """validate_dataset for point sites, checking one site and edge at a time."""
    violations = []
    seen = set()
    for site in dataset.sites:
        if site.id in seen:
            violations.append(f"duplicate site id {site.id!r}")
        seen.add(site.id)
    locations = []
    for site in dataset.sites:
        if not (math.isfinite(site.x) and math.isfinite(site.y)):
            violations.append(f"site {site.id!r}: non-finite coordinates")
        else:
            locations.append((site.id, (site.x, site.y)))
    for (i, (id_i, loc_i)), (j, (id_j, loc_j)) in itertools.combinations(
        enumerate(locations), 2
    ):
        if loc_i == loc_j:
            violations.append(f"sites {id_i!r} and {id_j!r}: coincident sites at {loc_i}")
    for site in dataset.sites:
        for name in dataset.attribute_names:
            if name not in site.attributes:
                violations.append(f"site {site.id!r}: missing attribute {name!r}")
            elif not math.isfinite(site.attributes[name]):
                violations.append(f"site {site.id!r}: non-finite attribute {name!r}")
    for i, edge in enumerate(dataset.edges):
        ref = f"edge {i} ({edge.source!r}->{edge.target!r})"
        for endpoint in (edge.source, edge.target):
            if endpoint not in dataset:
                violations.append(f"{ref}: dangling endpoint {endpoint!r}")
        if edge.source == edge.target:
            violations.append(f"{ref}: self-loop")
        if not (math.isfinite(edge.length) and edge.length > 0):
            violations.append(f"{ref}: length must be positive and finite, got {edge.length}")
        if not (math.isfinite(edge.cost) and edge.cost >= 0):
            violations.append(f"{ref}: cost must be non-negative and finite, got {edge.cost}")
    return violations


_awkward = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.inf, -math.inf, math.nan])


@st.composite
def point_datasets(draw):
    """Point sites with repeated ids and spots, gaps in attributes, bad edges."""
    ids = st.one_of(st.sampled_from("ABCDE"), st.integers(0, 3))
    sites = tuple(
        PointSite(
            id=draw(ids),
            x=draw(_awkward),
            y=draw(_awkward),
            attributes=draw(st.dictionaries(st.sampled_from("vw"), _awkward)),
        )
        for _ in range(draw(st.integers(0, 6)))
    )
    # mostly real endpoints and usable numbers, so one bad field often stands alone
    endpoints = st.sampled_from([site.id for site in sites] * 3 + ["Z"])
    numbers = st.one_of(st.sampled_from([0.5, 3.0]), _awkward)
    edges = tuple(
        Edge(draw(endpoints), draw(endpoints), draw(numbers), draw(numbers))
        for _ in range(draw(st.integers(0, 5)))
    )
    return SpatialDataset(sites=sites, edges=edges, attribute_names=("v", "w"))


@given(point_datasets())
def test_point_validation_matches_one_at_a_time_reference(dataset):
    assert validate_dataset(dataset) == reference_validate_points(dataset)


_BIG_SQUARE = ((-100.0, -100.0), (100.0, -100.0), (100.0, 100.0), (-100.0, 100.0))


@st.composite
def edge_case_rings(draw):
    """Small rings that are collinear, repeat vertices, or have areas near MIN_RING_AREA."""
    kind = draw(st.sampled_from(["collinear", "repeated", "tiny"]))
    ox, oy = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    if kind == "collinear":
        dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        steps = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=6))
        return [[ox + t * dx, oy + t * dy] for t in steps]
    if kind == "repeated":
        corners = [[ox, oy], [ox + 2, oy], [ox, oy + 2]]
        return draw(st.lists(st.sampled_from(corners), min_size=3, max_size=6))
    # a right triangle of this area; the arithmetic is exact at these offsets
    area = draw(st.one_of(st.floats(1e-13, 1e-11), st.just(MIN_RING_AREA)))
    return [[ox, oy], [ox + 1, oy], [ox, oy + 2.0 * area]]


@given(edge_case_rings(), st.booleans())
def test_one_ring_rule_for_loader_validation_and_geometry(ring, as_hole):
    rings = [[list(v) for v in _BIG_SQUARE], ring] if as_hole else [ring]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polys.json"
        path.write_text(json.dumps([{"id": "p", "rings": rings}]), encoding="utf-8")
        try:
            load_polygons(path)
            loader_rejects = False
        except ParseError as exc:
            assert "zero-area ring" in str(exc) or "at least 3 distinct vertices" in str(exc)
            loader_rejects = True
    poly = PolygonSite(id="p", exterior=rings[0], holes=tuple(rings[1:]))
    problems = validate_dataset(SpatialDataset(sites=(poly,)))
    assert not any("self-intersecting" in problem for problem in problems)
    try:
        polygon_area(poly)
        area_raises = False
    except GeometryError:
        area_raises = True
    assert loader_rejects == bool(problems) == area_raises


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(p1, p2, q1, q2):
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0)


def reference_ring_self_intersects(ring):
    """Oracle: every pair of non-adjacent segments, one orientation call at a time."""
    n = len(ring)
    segments = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent through closure
            if _segments_cross(*segments[i], *segments[j]):
                return True
    return False


# a small lattice makes touches, collinear overlaps and repeated vertices common
_LATTICE = st.tuples(st.integers(0, 3).map(float), st.integers(0, 3).map(float))


@given(st.lists(st.one_of(_LATTICE, st.tuples(st.floats(), st.floats())),
                min_size=3, max_size=12).map(tuple))
# vertex differences overflow, so the closure pair's shared-vertex orientation is nan
@example(((1.7e308, -1e154), (-1.7e308, -1e154), (1e154, -1.7e308)))
# the start of edge 1 touches the interior of edge 3: no crossing
@example(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 2.0)))
def test_ring_crossing_matches_the_orientation_oracle(ring):
    assert dataset_module._ring_self_intersects(ring) == reference_ring_self_intersects(ring)


class TestRingNormalization:
    def test_closed_ring_accepted(self):
        closed = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0))
        poly = PolygonSite(id="p", exterior=closed)
        assert len(poly.exterior) == 4
        assert polygon_area(poly) == pytest.approx(1.0)

    def test_open_ring_unchanged(self):
        poly = unit_square("p")
        assert len(poly.exterior) == 4


class TestWeightParams:
    def test_defaults_are_valid(self):
        params = WeightParams()
        assert params.alpha == 1.0
        assert params.theta == 2.0

    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightParams(alpha=0.5, beta=0.2, delta=0.1)

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            WeightParams(alpha=1.5, beta=-0.5, delta=0.0)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            WeightParams(radius=0.0)

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            WeightParams(theta=-1.0)

    def test_bad_cost_limit(self):
        with pytest.raises(ValueError, match="cost_limit must be positive, got 0"):
            WeightParams(cost_limit=0)

    def test_simplex_interior_accepted(self):
        params = WeightParams(alpha=1 / 3, beta=1 / 3, delta=1 / 3, radius=2.0)
        assert params.cost_limit is None


RECORDS = [
    (
        Edge,
        {"source": "a", "target": "b", "length": 1.0, "cost": 2.0},
        "Edge(source='a', target='b', length=1.0, cost=2.0)",
    ),
    (
        NeighborFactors,
        {"center": "a", "neighbor": 7, "distance": 1.5, "connection_count": 2, "min_cost": None},
        "NeighborFactors(center='a', neighbor=7, distance=1.5, connection_count=2, min_cost=None)",
    ),
    (
        SiteScore,
        {"site": "a", "actual": 1.0, "expected": 0.5, "diff": 0.5, "z": 1.25, "is_outlier": True},
        "SiteScore(site='a', actual=1.0, expected=0.5, diff=0.5, z=1.25, is_outlier=True)",
    ),
    (
        SiteComparison,
        {
            "site": 3, "actual": 2.0, "expected_classical": 1.0, "expected_weighted": 1.5,
            "sq_error_classical": 1.0, "sq_error_weighted": 0.25, "sq_error_delta": 0.75,
            "improvement_pct": None,
        },
        "SiteComparison(site=3, actual=2.0, expected_classical=1.0, expected_weighted=1.5, "
        "sq_error_classical=1.0, sq_error_weighted=0.25, sq_error_delta=0.75, "
        "improvement_pct=None)",
    ),
]


class TestRecordContract:
    """The records built in bulk keep their names, fields, repr and immutability."""

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
    def test_fields_repr_and_immutability(self, cls, fields, text):
        record = cls(**fields)
        assert cls._fields == tuple(fields)
        assert record == cls(*fields.values()) == tuple(fields.values())
        assert {name: getattr(record, name) for name in cls._fields} == fields
        assert repr(record) == text
        with pytest.raises(AttributeError):
            record.__setattr__(cls._fields[0], "other")
        with pytest.raises(AttributeError):
            record.extra = 1
        assert hash(record) == hash(cls(**fields))
        assert record._replace(**{cls._fields[0]: "other"}) != record

    def test_loaded_edges_equal_edge_values(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("from,to,length,cost\na,b,1,2\nb,c,0.5,0\n", encoding="utf-8")
        assert load_edges(path) == (
            Edge(source="a", target="b", length=1.0, cost=2.0),
            Edge(source="b", target="c", length=0.5, cost=0.0),
        )
