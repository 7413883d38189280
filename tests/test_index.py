"""Differential tests: the prepared index against brute-force scans.

Every neighbor and factor lookup in the library goes through a per-dataset
index (a buffer table swept once per radius from a grid over cached
coordinates, or from one cell where the grid cannot index the sites, with
the ids whose queries walk the sites to raise where a scan raises; an edge
table of counts per endpoint and cheapest-edge adjacency over numbered
nodes with a Dijkstra pruned at the cost limit, polygon rook adjacency over
bounding-box and segment-box candidates).  The scans below are the
straightforward implementations the index replaced, kept only here; like
the index, they walk one site per id, the one SpatialDataset.site gives.
Each property requires both to give the same result, or to raise the same
error, on the same input.  The segment-overlap kernel is checked the same
way, against the per-pair overlap length it replaced.
"""

import contextlib
import gc
import heapq
import math
import struct
import weakref
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from spatial_outliers import (
    DegenerateDistanceError,
    DegenerateFactorsError,
    Edge,
    GeometryError,
    NoNeighborsError,
    PointSite,
    PolygonSite,
    SiteLookupError,
    SpatialDataset,
    SpatialOutlierError,
    WeightParams,
    buffer_neighbors,
    collect_factors,
    detect_outliers,
    direct_connection_count,
    graph_neighbors,
    min_cost,
    neighborhood_weights,
    polygon_adjacent_neighbors,
    polygon_area,
    site_distance,
)
from spatial_outliers import dataset as dataset_module, detect, neighborhood
from spatial_outliers.dataset import site_id_key, site_location
from spatial_outliers.fixtures import network_dataset
from spatial_outliers.neighborhood import BOUNDARY_TOLERANCE, NeighborFactors

from conftest import grid_point_dataset, grid_polygons, huge_squares_dataset, unit_square
from test_weights import (
    _SIMPLEX_CORNERS,
    _coeffs,
    _ref_combined_weights,
    _ref_lifted,
    _ref_normalized,
    _ref_total,
)


# ---------------------------------------------------------------- oracles


def scan_buffer(dataset, center, radius):
    center_site = dataset.site(center)
    return {
        site.id
        for site in dataset._index.values()
        if site.id != center and site_distance(center_site, site) <= radius
    }


def scan_graph(dataset, center):
    dataset.site(center)
    out = set()
    for edge in dataset.edges:
        if edge.source == center:
            out.add(edge.target)
        elif edge.target == center:
            out.add(edge.source)
    out.discard(center)
    return out


def polygons_share_boundary(a, b):
    """True when the two boundaries overlap along a positive length: the
    library's overlap kernel over every segment pair, no box excluding one.

    Touching at isolated points (a shared corner) does not qualify.
    """
    return neighborhood._segments_share_boundary(
        neighborhood._segment_records(a, None), neighborhood._segment_records(b, None)
    )


def scan_polygon(dataset, center):
    center_site = dataset.site(center)
    return {
        site.id
        for site in dataset._index.values()
        if site.id != center and polygons_share_boundary(center_site, site)
    }


def reference_overlap_length(p1, p2, q1, q2):
    """Length of the collinear overlap of two segments, measured along p1-p2, else 0."""
    ux, uy = p2[0] - p1[0], p2[1] - p1[1]
    length = math.hypot(ux, uy)
    if length <= BOUNDARY_TOLERANCE:
        return 0.0
    ux, uy = ux / length, uy / length
    off1 = abs((q1[0] - p1[0]) * uy - (q1[1] - p1[1]) * ux)
    off2 = abs((q2[0] - p1[0]) * uy - (q2[1] - p1[1]) * ux)
    if off1 > BOUNDARY_TOLERANCE or off2 > BOUNDARY_TOLERANCE:
        return 0.0
    t1 = (q1[0] - p1[0]) * ux + (q1[1] - p1[1]) * uy
    t2 = (q2[0] - p1[0]) * ux + (q2[1] - p1[1]) * uy
    lo = max(0.0, min(t1, t2))
    hi = min(length, max(t1, t2))
    return max(0.0, hi - lo)


def ring_segments(polygon):
    for ring in (polygon.exterior, *polygon.holes):
        n = len(ring)
        for i in range(n):
            yield ring[i], ring[(i + 1) % n]


def reference_share_boundary(a, b):
    return any(
        reference_overlap_length(p1, p2, q1, q2) > BOUNDARY_TOLERANCE
        for p1, p2 in ring_segments(a)
        for q1, q2 in ring_segments(b)
    )


def scan_connection_count(dataset, a, b):
    dataset.site(a)
    dataset.site(b)
    return sum(1 for edge in dataset.edges if {edge.source, edge.target} == {a, b})


def scan_costs(dataset, source):
    """Unbounded Dijkstra over a cheapest-edge adjacency built per call."""
    best = {}
    for edge in dataset.edges:
        if edge.source == edge.target:
            continue
        key = tuple(sorted((edge.source, edge.target), key=site_id_key))
        if key not in best or edge.cost < best[key]:
            best[key] = edge.cost
    adjacency = {}
    for (u, v), cost in best.items():
        adjacency.setdefault(u, []).append((v, cost))
        adjacency.setdefault(v, []).append((u, cost))
    dist = {source: 0.0}
    done = set()
    frontier = [(0.0, 0, source)]
    counter = 1
    while frontier:
        d, _, node = heapq.heappop(frontier)
        if node in done:
            continue
        done.add(node)
        for nbr, cost in adjacency.get(node, ()):
            nd = d + cost
            if nbr not in dist or nd < dist[nbr]:
                dist[nbr] = nd
                heapq.heappush(frontier, (nd, counter, nbr))
                counter += 1
    return dist


def scan_min_cost(dataset, a, b, cost_limit=None):
    dataset.site(a)
    dataset.site(b)
    return scan_cost(dataset, a, b, cost_limit)


def scan_cost(dataset, a, b, cost_limit=None):
    """scan_min_cost for any two ids, named sites or not."""
    cost = scan_costs(dataset, a).get(b)
    if cost is None or (cost_limit is not None and cost > cost_limit):
        return None
    return cost


def scan_collect_factors(dataset, center, neighbors, params):
    center_site = dataset.site(center)
    costs = scan_costs(dataset, center) if dataset.edges else {}
    out = []
    for neighbor in sorted(neighbors, key=site_id_key):
        neighbor_site = dataset.site(neighbor)
        cost = costs.get(neighbor)
        if cost is not None and params.cost_limit is not None and cost > params.cost_limit:
            cost = None
        out.append(
            NeighborFactors(
                center=center,
                neighbor=neighbor,
                distance=site_distance(center_site, neighbor_site),
                connection_count=scan_connection_count(dataset, center, neighbor),
                min_cost=cost,
            )
        )
    return out


def loop_collect_factors(dataset, center, neighbors, params):
    """collect_factors as one loop over the neighbors, a record per pass.

    This is the form the column passes replaced: same sort, same cost
    search, and the first neighbor in key order that is no site, has no
    location or sits on the center raises, through dataset.site or
    site_distance; a center with no location raises at the first neighbor.
    """
    center_site = dataset.site(center)
    ordered = dataset_module._key_sorted(neighbors)
    if not ordered:
        return []
    table = neighborhood._prepared(dataset, "edges", neighborhood._edge_table)
    costs = neighborhood._costs_from(table, center, ordered, params.cost_limit)
    out = []
    for neighbor, cost in zip(ordered, costs):
        neighbor_site = dataset.site(neighbor)
        cx, cy = site_location(center_site)
        x, y = site_location(neighbor_site)
        distance = math.hypot(cx - x, cy - y)
        if distance == 0.0:
            site_distance(center_site, neighbor_site)
        out.append(NeighborFactors(
            center, neighbor, distance, scan_connection_count(dataset, center, neighbor), cost,
        ))
    return out


def outcome(fn, *args, **kwargs):
    """The value fn returns, or the type of library error it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except SpatialOutlierError as exc:
        return "raised", type(exc)


def detail(fn, *args):
    """repr of what fn returns, or the type and message of the library error
    it raises; repr round-trips every float, nan included."""
    try:
        return "ok", repr(fn(*args))
    except SpatialOutlierError as exc:
        return "raised", type(exc), str(exc)


def error_text(fn, *args):
    """The message of the library error fn raises, or None."""
    try:
        fn(*args)
    except SpatialOutlierError as exc:
        return str(exc)
    return None


# ------------------------------------------------------------- strategies

# str ids from ASCII letters, digits and punctuation, Latin-1, a BMP CJK
# character and an astral code point; an explicit alphabet spares Hypothesis
# building its full unicode table, which can trip the too_slow health check
text_ids = st.text(alphabet="aZ0 _-éÿ中\U0001f600", max_size=3)

radii = st.one_of(
    st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
    st.sampled_from([5e-324, 1e-300, 1e-9, 0.1, 0.3, 1.0, 2.0, 1e12]),
    # no positive normal radius: the scan still raises on coinciding sites
    st.sampled_from([0.0, -1.0, math.nan, math.inf]),
)


@st.composite
def buffer_cases(draw):
    """Lattice sites exactly `radius` apart, plus arbitrary extra sites.

    Extras may be huge, infinite or NaN, so some layouts have no usable
    grid cells and put every site in one cell.
    """
    radius = draw(radii)
    ox, oy = draw(st.tuples(
        st.one_of(st.just(0.0), st.floats(-1e9, 1e9)),
        st.one_of(st.just(0.0), st.floats(-1e9, 1e9)),
    ))
    steps = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1, max_size=10, unique=True,
    ))
    points = [(ox + i * radius, oy + j * radius) for i, j in steps]
    points += draw(st.lists(
        st.tuples(st.floats(), st.floats()) | st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        max_size=4,
    ))
    sites = tuple(PointSite(id=k, x=x, y=y) for k, (x, y) in enumerate(points))
    return SpatialDataset(sites=sites), radius


@st.composite
def multigraphs(draw, max_sites=8, dangling=True):
    """Point sites on distinct integer spots with a multigraph over them.

    Endpoints may repeat (parallel edges), coincide (self-loops) and, with
    dangling, name no site.  Costs are non-negative and may be infinite,
    which validation rejects but the lookups and weightings still answer.
    """
    n = draw(st.integers(2, max_sites))
    spots = draw(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=n, max_size=n, unique=True,
    ))
    values = draw(st.lists(st.floats(0, 100), min_size=n, max_size=n))
    sites = tuple(
        PointSite(id=k, x=float(x), y=float(y), attributes={"v": v})
        for k, ((x, y), v) in enumerate(zip(spots, values))
    )
    cost = st.one_of(st.integers(0, 6).map(float), st.floats(0, 10), st.just(math.inf))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n - 1 + dangling), st.integers(0, n - 1 + dangling), cost),
        max_size=3 * n,
    ))
    edges = tuple(Edge(u, v, 1.0, c) for u, v, c in rows)
    return SpatialDataset(sites=sites, edges=edges, attribute_names=("v",))


@st.composite
def coincident_cases(draw):
    """Lattice sites where some spots hold several sites, and a radius.

    The scaled, shifted lattice keeps every coordinate small next to a
    positive radius, so the buffer grid indexes the sites; a negative or nan
    radius puts them all in one cell, and coinciding sites still raise.
    """
    step = draw(st.floats(0.01, 100))
    ox, oy = draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    spots = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1, max_size=8, unique=True,
    ))
    repeats = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=4))
    placed = draw(st.permutations(spots + repeats))
    radius = step * draw(st.sampled_from([0.5, 1.0, 1.5, 3.0, -1.0, math.nan]))
    sites = tuple(
        PointSite(id=k, x=ox + i * step, y=oy + j * step) for k, (i, j) in enumerate(placed)
    )
    return SpatialDataset(sites=sites), radius


@st.composite
def duplicate_id_cases(draw):
    """Lattice sites where some ids name several sites, and a radius.

    Spots may repeat too, under the same id or another one.
    """
    spots = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=10,
    ))
    ids = draw(st.lists(
        st.integers(0, len(spots) // 2), min_size=len(spots), max_size=len(spots),
    ))
    radius = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    sites = tuple(PointSite(id=k, x=float(i), y=float(j)) for k, (i, j) in zip(ids, spots))
    return SpatialDataset(sites=sites), radius


@st.composite
def mixed_id_multigraphs(draw):
    """multigraphs() with the sites renamed to distinct int and str ids."""
    dataset = draw(multigraphs(dangling=False))
    ids = draw(st.lists(
        st.one_of(st.integers(-50, 50), text_ids),
        min_size=len(dataset.sites), max_size=len(dataset.sites), unique=True,
    ))
    sites = tuple(
        PointSite(id=ids[site.id], x=site.x, y=site.y, attributes=site.attributes)
        for site in dataset.sites
    )
    edges = tuple(
        Edge(ids[edge.source], ids[edge.target], edge.length, edge.cost)
        for edge in dataset.edges
    )
    return SpatialDataset(sites=sites, edges=edges, attribute_names=("v",))


def _tiling(draw, cols, rows):
    """Quadrilaterals on a jittered, scaled and shifted unit lattice."""
    scale = draw(st.floats(0.01, 100))
    ox, oy = draw(st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)))
    jitter = draw(st.floats(0, 0.25))
    offsets = st.floats(-jitter, jitter)
    vertex = {}
    for i in range(cols + 1):
        for j in range(rows + 1):
            dx, dy = draw(st.tuples(offsets, offsets))
            vertex[i, j] = (ox + (i + dx) * scale, oy + (j + dy) * scale)
    values = draw(st.lists(st.floats(0, 100), min_size=cols * rows, max_size=cols * rows))
    sites = []
    for i in range(cols):
        for j in range(rows):
            ring = (vertex[i, j], vertex[i + 1, j], vertex[i + 1, j + 1], vertex[i, j + 1])
            sites.append(PolygonSite(
                id=f"{i}-{j}", exterior=ring, attributes={"v": values[i * rows + j]},
            ))
    return SpatialDataset(sites=tuple(sites), attribute_names=("v",))


@st.composite
def tilings(draw):
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return _tiling(draw, cols, rows), cols, rows


# lengths on either side of the tolerance, each exact as a distance from 0
NEAR_TOLERANCE = [
    0.0, 5e-324, BOUNDARY_TOLERANCE / 2, math.nextafter(BOUNDARY_TOLERANCE, 0.0),
    BOUNDARY_TOLERANCE, math.nextafter(BOUNDARY_TOLERANCE, 1.0), 2 * BOUNDARY_TOLERANCE,
]


@st.composite
def kernel_cases(draw):
    """Two rings built to meet the overlap kernel's edge cases.

    Ring a holds a segment p-q on the x axis from the origin, where
    projections are exact, or a general one.  Ring b then gets p-q reversed,
    or a collinear piece that overlaps it from p by a length near the
    tolerance, or either ring gets a copy of a vertex about the tolerance
    away; in a quarter of the cases a coordinate or two become nan or +-inf.
    Rings are swapped half the time, so each case is also measured along
    the other ring.
    """
    points = st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=4)
    a, b = draw(points), draw(points)
    if draw(st.booleans()):
        length = draw(st.sampled_from([1e-8, 1.0, 3.0]))
        p, q = (0.0, 0.0), (length, 0.0)
    else:
        p, q = draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10))), a[0]
    a[:1] = [p, q]
    kind = draw(st.sampled_from(["reversed", "overlap", "short", "none"]))
    at = draw(st.integers(0, len(b)))
    if kind == "reversed":
        b[at:at] = [q, p]
    elif kind == "overlap":  # from p on by d, and back past p
        d = draw(st.sampled_from(NEAR_TOLERANCE))
        reach = draw(st.sampled_from([0.5, 1.0, 2.0]))
        length = math.hypot(q[0] - p[0], q[1] - p[1]) or 1.0
        ux, uy = (q[0] - p[0]) / length, (q[1] - p[1]) / length
        piece = [(p[0] + d * ux, p[1] + d * uy), (p[0] - reach * ux, p[1] - reach * uy)]
        b[at:at] = piece if draw(st.booleans()) else piece[::-1]
    elif kind == "short":  # a segment no longer than about the tolerance
        ring = draw(st.sampled_from([a, b]))
        k = draw(st.integers(0, len(ring) - 1))
        d = draw(st.sampled_from(NEAR_TOLERANCE))
        x, y = ring[k]
        copies = [(x + d, y), (x, y - d), (x + d * 0.6, y + d * 0.8)]
        ring.insert(k + 1, draw(st.sampled_from(copies)))
    if draw(st.integers(0, 3)) == 0:
        for ring in draw(st.lists(st.sampled_from([a, b]), min_size=1, max_size=2)):
            k = draw(st.integers(0, len(ring) - 1))
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            ring[k] = (bad, ring[k][1]) if draw(st.booleans()) else (ring[k][0], bad)
    if draw(st.booleans()):
        a, b = b, a
    return PolygonSite(id="a", exterior=tuple(a)), PolygonSite(id="b", exterior=tuple(b))


@st.composite
def factor_datasets(draw):
    """Point multigraphs with mixed ids, or polygon tilings, with extra sites
    that copy the spot of an existing one under a new id, and polygons with
    no centroid (a collinear ring)."""
    if draw(st.booleans()):
        dataset = draw(st.one_of(multigraphs(), mixed_id_multigraphs()))
    else:
        dataset = draw(tilings())[0]
    sites = list(dataset.sites)
    for k, site in enumerate(draw(st.lists(st.sampled_from(sites), max_size=2))):
        sites.append(replace(site, id=f"copy{k}"))
    if dataset.kind == "polygon":
        for k in range(draw(st.integers(0, 2))):
            x, y = site_location(draw(st.sampled_from(sites[: len(dataset.sites)])))
            sites.append(PolygonSite(
                id=f"flat{k}", exterior=((x, y), (x + 0.1, y), (x + 0.2, y)),
                attributes={"v": 0.0},
            ))
    return SpatialDataset(
        sites=tuple(draw(st.permutations(sites))), edges=dataset.edges, attribute_names=("v",)
    )


# ----------------------------------------------------------------- properties


@given(buffer_cases())
def test_buffer_sets_match_scan(case):
    dataset, radius = case
    for center in dataset.site_ids():
        assert outcome(buffer_neighbors, dataset, center, radius) == outcome(
            scan_buffer, dataset, center, radius
        )


_BIT_FLOATS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
])


@given(*[st.one_of(_BIT_FLOATS, _EDGE_FLOATS, st.floats())] * 4)
@example(1.7976931348623157e308, 0.0, -1.7976931348623157e308, 0.0)
@example(5e-324, 1.5e-310, -5e-324, -1.5e-310)
@example(math.inf, 1.0, math.inf, 1.0)
@example(math.inf, math.nan, 0.0, 0.0)
def test_dist_is_hypot_of_the_differences_bit_for_bit(px, py, qx, qy):
    # the buffer sweep measures pairs with math.dist, the factor view too,
    # and site_distance with math.hypot: all three must give the same bits
    got, want = math.dist((px, py), (qx, qy)), math.hypot(px - qx, py - qy)
    assert (math.isnan(got) and math.isnan(want)) or (
        struct.pack("<d", got) == struct.pack("<d", want))


@given(coincident_cases())
def test_coincident_sites_raise_like_scan(case):
    dataset, radius = case
    raised = 0
    for center in dataset.site_ids():
        got = outcome(buffer_neighbors, dataset, center, radius)
        assert dataset._prepared["grid"][1] is not None  # always a table: no query scans
        assert got == outcome(scan_buffer, dataset, center, radius)
        assert error_text(buffer_neighbors, dataset, center, radius) == error_text(
            scan_buffer, dataset, center, radius
        )
        raised += got == ("raised", DegenerateDistanceError)
    assert raised >= 2  # both sites of a shared spot, at least


def test_radius_sweep_keeps_one_grid():
    dataset = grid_point_dataset(5, 5, [0.0] * 25)
    for radius in (0.5, 1.0, 1.5, 2.0, 1.0, 3.0):
        for center in dataset.site_ids():
            assert buffer_neighbors(dataset, center, radius) == scan_buffer(
                dataset, center, radius
            )
        grids = [key for key in dataset._prepared if "grid" in repr(key)]
        assert grids == ["grid"]


def test_buffer_table_is_built_once_per_radius():
    # nan and radii below 0 share the table of 0; a new radius replaces the
    # last one, so returning to radius 1 builds it again
    dataset = grid_point_dataset(4, 4, [0.0] * 16)
    with mock.patch.object(
        neighborhood, "_buffer_table", wraps=neighborhood._buffer_table
    ) as build:
        for radius in (1.0, 1.0, 2.0, 2.0, 1.0, -1.0, math.nan, 0.0):
            for center in dataset.site_ids():
                assert buffer_neighbors(dataset, center, radius) == scan_buffer(
                    dataset, center, radius
                )
    assert [call.args[1] for call in build.call_args_list] == [1.0, 2.0, 1.0, 0.0]


@given(duplicate_id_cases())
def test_duplicate_ids_match_scan(case):
    dataset, radius = case
    for center in set(dataset.site_ids()):
        got = outcome(buffer_neighbors, dataset, center, radius)
        assert dataset._prepared["grid"][1] is not None  # always a table: no query scans
        assert got == outcome(scan_buffer, dataset, center, radius)
        assert error_text(buffer_neighbors, dataset, center, radius) == error_text(
            scan_buffer, dataset, center, radius
        )


def _flat(sid):
    """A polygon with no centroid: its ring is collinear."""
    return PolygonSite(id=sid, exterior=((0.0, 5.0), (1.0, 5.0), (2.0, 5.0)))


@pytest.mark.parametrize("sites", [
    (unit_square("a"), _flat("f"), unit_square("b", ox=1.0), unit_square("c", ox=3.0)),
    (unit_square("a"), unit_square("b", ox=1.0), _flat("a"), unit_square("c", ox=3.0)),
    (_flat("a"), unit_square("a"), unit_square("b", ox=1.0)),
    (_flat("f"),),
    (PointSite("p", 1.0, 1.0),),
], ids=["flat-unique-id", "flat-duplicate-id", "flat-first-of-its-id", "one-flat", "one-point"])
def test_sites_without_a_location_and_single_sites_match_scan(sites):
    # every radius queries one dataset, so the slot also serves radii in turn
    dataset = SpatialDataset(sites=sites)
    for radius in (0.0, -1.0, math.nan, math.inf, 5e-324, 1e-300, 1.5, 3.0, 1e308, math.nan):
        for center in dict.fromkeys(dataset.site_ids()):
            assert outcome(buffer_neighbors, dataset, center, radius) == outcome(
                scan_buffer, dataset, center, radius
            )
            assert error_text(buffer_neighbors, dataset, center, radius) == error_text(
                scan_buffer, dataset, center, radius
            )


def test_unindexable_points_locate_each_site_once_and_never_measure_a_query():
    # a nan point and cells of 1e-300 leave the grid out: every site shares
    # one cell, the table is still built once per radius, and a center that
    # coincides with no other site answers from its row
    sites = list(grid_point_dataset(5, 5, [0.0] * 25).sites)
    sites[7] = replace(sites[7], x=math.nan)
    dataset = SpatialDataset(sites=tuple(sites), attribute_names=("v",))
    with mock.patch.object(
        neighborhood, "site_location", wraps=neighborhood.site_location
    ) as located, mock.patch.object(
        neighborhood, "site_distance", wraps=neighborhood.site_distance
    ) as measured:
        for radius in (1e-300, 1e-300, math.nan, math.nan):
            for center in dataset.site_ids():
                assert buffer_neighbors(dataset, center, radius) == set()
        assert located.call_count == 25  # once per site, for the 1e-300 and the nan table
        assert measured.call_count == 0
    assert buffer_neighbors(dataset, sites[0].id, 1.5) == scan_buffer(dataset, sites[0].id, 1.5)


def test_duplicate_id_centers_on_its_first_site():
    # "d" names two sites far apart: as a center and as a neighbor it is the
    # first one
    dataset = SpatialDataset(sites=(
        PointSite(id="d", x=0.0, y=0.0),
        PointSite(id="a", x=1.0, y=0.0),
        PointSite(id="b", x=10.0, y=0.0),
        PointSite(id="d", x=11.0, y=0.0),
    ))
    assert buffer_neighbors(dataset, "d", 1.5) == {"a"}
    assert buffer_neighbors(dataset, "a", 1.5) == {"d"}
    assert buffer_neighbors(dataset, "b", 1.5) == set()


@given(multigraphs())
def test_graph_sets_and_connection_counts_match_scan(dataset):
    ids = dataset.site_ids()
    for center in ids:
        assert graph_neighbors(dataset, center) == scan_graph(dataset, center)
        for other in ids:
            assert direct_connection_count(dataset, center, other) == (
                scan_connection_count(dataset, center, other)
            )


@given(multigraphs(), st.one_of(st.none(), st.floats(0, 12)))
def test_min_cost_matches_scan(dataset, limit):
    ids = dataset.site_ids()
    for a in ids:
        for b in ids:
            assert min_cost(dataset, a, b) == scan_min_cost(dataset, a, b)
            assert min_cost(dataset, a, b, limit) == scan_min_cost(dataset, a, b, limit)
            cost = scan_min_cost(dataset, a, b)
            if cost is not None:
                # a path whose cost is exactly the limit is usable; one ulp less is not
                assert min_cost(dataset, a, b, cost) == cost
                assert min_cost(dataset, a, b, math.nextafter(cost, -math.inf)) is None


@given(multigraphs(), st.floats(max_value=-5e-324))
def test_min_cost_under_a_negative_limit_and_to_itself(dataset, limit):
    # a negative limit rules out even the empty path; without a limit every
    # site reaches itself at cost 0, whether or not an edge touches it
    ids = dataset.site_ids()
    for a in ids:
        assert min_cost(dataset, a, a) == scan_min_cost(dataset, a, a) == 0.0
        for b in ids:
            assert min_cost(dataset, a, b, limit) is None
            assert scan_min_cost(dataset, a, b, limit) is None


def test_min_cost_to_itself_without_edges():
    dataset = SpatialDataset(sites=(PointSite(id=1, x=0.0, y=0.0), PointSite(id=2, x=1.0, y=0.0)))
    assert min_cost(dataset, 1, 1) == 0.0
    assert min_cost(dataset, 1, 1, 1.0) == 0.0
    assert min_cost(dataset, 1, 2) is None


@st.composite
def cost_column_cases(draw):
    """A multigraph with a second component beside it, and a cost search on it.

    The island is two sites joined only to each other; one more site is on
    no edge.  Returns (dataset, source, targets, limit): the source is any
    site, and the targets are distinct ids among the sites, the multigraph's
    dangling endpoint, an id on nothing and maybe the source itself.  The
    limit is None, below every edge cost (negative when some cost is 0) or
    a finite float.
    """
    base = draw(multigraphs())
    n = len(base.sites)  # ids 0..n-1 are sites; n may dangle
    extra = tuple(
        PointSite(id=sid, x=20.0 + k, y=20.0, attributes={"v": float(k)})
        for k, sid in enumerate((n + 1, n + 2, n + 3))
    )
    island = tuple(
        Edge(n + 1, n + 2, 1.0, cost)
        for cost in draw(st.lists(st.floats(0, 10), min_size=1, max_size=2))
    )
    dataset = SpatialDataset(
        sites=base.sites + extra, edges=base.edges + island, attribute_names=("v",)
    )
    ids = dataset.site_ids()
    source = draw(st.sampled_from(ids))
    others = [sid for sid in (*ids, n, "off") if sid != source]
    targets = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    if draw(st.booleans()):
        targets.insert(draw(st.integers(0, len(targets))), source)
    lowest = min(edge.cost for edge in dataset.edges)
    limit = draw(st.one_of(
        st.none(), st.just(math.nextafter(lowest, -math.inf)), st.floats(0, 12),
    ))
    return dataset, source, targets, limit


@given(cost_column_cases())
def test_cost_column_matches_scan_per_target(case):
    dataset, source, targets, limit = case
    table = neighborhood._prepared(dataset, "edges", neighborhood._edge_table)
    column = neighborhood._costs_from(table, source, targets, limit)
    assert column == [scan_cost(dataset, source, t, limit) for t in targets]
    for target, cost in zip(targets, column):
        if target in dataset:
            assert cost == scan_min_cost(dataset, source, target, limit)


def test_cost_column_cases_cover_each_corner():
    # the cases of cost_column_cases the property must meet, each by construction
    a, b, c, d, lone = (PointSite(id=k, x=float(k), y=0.0) for k in range(5))
    dataset = SpatialDataset(
        sites=(a, b, c, d, lone),
        edges=(Edge(0, 1, 1.0, 2.0), Edge(1, 9, 1.0, 1.0), Edge(2, 3, 1.0, 0.5)),
    )
    table = neighborhood._edge_table(dataset)
    column = neighborhood._costs_from
    # two components, a dangling endpoint (9), an id on nothing (4) and the source
    assert column(table, 0, [3, 9, 1, 0, 4, "off"], None) == [None, 3.0, 2.0, 0.0, None, None]
    assert column(table, 0, [9, 1, 0], 2.5) == [None, 2.0, 0.0]
    assert column(table, 0, [1, 0], math.nextafter(0.5, 0.0)) == [None, 0.0]
    assert column(table, 0, [1, 0], -1.0) == [None, None]
    # a source on no edge reaches only itself
    assert column(table, 4, [0, 4, "off"], None) == [None, 0.0, None]
    assert column(table, 4, [4], -1.0) == [None]


def _bfs_partition(dataset):
    """Components of the edge graph less self-loops, by breadth-first search over ids."""
    near = {}
    for edge in dataset.edges:
        if edge.source != edge.target:
            near.setdefault(edge.source, set()).add(edge.target)
            near.setdefault(edge.target, set()).add(edge.source)
    parts, seen = set(), set()
    for start in near:
        if start in seen:
            continue
        part, queue = {start}, [start]
        for node in queue:
            for nbr in near[node] - part:
                part.add(nbr)
                queue.append(nbr)
        seen |= part
        parts.add(frozenset(part))
    return parts


@given(st.one_of(multigraphs(), mixed_id_multigraphs(), cost_column_cases().map(lambda c: c[0])))
def test_component_labels_match_a_bfs_partition(dataset):
    _, number, _, component = neighborhood._edge_table(dataset)
    classes = {}
    for sid, node in number.items():
        classes.setdefault(component[node], set()).add(sid)
    assert {frozenset(ids) for ids in classes.values()} == _bfs_partition(dataset)
    # each label is the first node of its class
    assert all(label == min(number[sid] for sid in ids) for label, ids in classes.items())


def _path_dataset(*edges):
    ids = list(dict.fromkeys(sid for edge in edges for sid in edge[:2]))
    return SpatialDataset(
        sites=tuple(PointSite(id=sid, x=float(i), y=0.0) for i, sid in enumerate(ids)),
        edges=tuple(Edge(u, v, 1.0, cost) for u, v, cost in edges),
    )


def test_min_cost_first_reached_over_the_limit_then_within_it():
    # A reaches B directly at 5, past the limit, before it reaches B over C at 2
    dataset = _path_dataset(("A", "B", 5.0), ("A", "C", 1.0), ("C", "B", 1.0))
    assert min_cost(dataset, "A", "B", 3.0) == 2.0
    assert min_cost(dataset, "A", "B", 1.5) is None
    assert min_cost(dataset, "A", "B") == 2.0


def test_min_cost_along_a_zero_cost_chain_under_a_zero_limit():
    dataset = _path_dataset(("A", "B", 0.0), ("B", "C", 0.0), ("C", "D", 0.0), ("D", "E", 1.0))
    assert min_cost(dataset, "A", "D", 0.0) == 0.0
    assert min_cost(dataset, "A", "E", 0.0) is None
    assert min_cost(dataset, "A", "E") == 1.0


def test_min_cost_at_a_limit_equal_to_the_path_sum():
    dataset = _path_dataset(("A", "B", 0.5), ("B", "C", 0.25), ("A", "C", 2.0))
    assert min_cost(dataset, "A", "C", 0.75) == 0.75
    assert min_cost(dataset, "A", "C", math.nextafter(0.75, 0.0)) is None


def _factor_costs(dataset, center, neighbors, limit):
    params = WeightParams(radius=3.0, cost_limit=limit)
    found = collect_factors(dataset, center, neighbors, params)
    assert found == scan_collect_factors(dataset, center, neighbors, params)
    return {f.neighbor: f.min_cost for f in found}


def test_min_cost_through_a_target_improved_twice_before_it_is_popped():
    # T is pushed at 9, 6 and 3 before it settles at 3, and D lies beyond T
    # only.  E is pushed at 12 and improved to 8 over F only after the stale
    # entry for T at 6 is popped, so a search that counted that pop as a
    # settled target would stop with E still at 12.
    dataset = _path_dataset(
        ("A", "T", 9.0), ("A", "B", 1.0), ("B", "T", 5.0), ("A", "C", 2.0),
        ("C", "T", 1.0), ("T", "D", 1.0), ("A", "E", 12.0), ("A", "F", 7.0), ("F", "E", 1.0),
    )
    for limit in (None, 4.0, 20.0):
        assert min_cost(dataset, "A", "T", limit) == scan_min_cost(dataset, "A", "T", limit) == 3.0
        assert min_cost(dataset, "A", "D", limit) == scan_min_cost(dataset, "A", "D", limit) == 4.0
    assert _factor_costs(dataset, "A", ["T", "D", "E"], None) == {"T": 3.0, "D": 4.0, "E": 8.0}
    assert _factor_costs(dataset, "A", ["T", "E"], 20.0) == {"T": 3.0, "E": 8.0}
    assert _factor_costs(dataset, "A", ["T", "E"], 7.5) == {"T": 3.0, "E": None}


def test_min_cost_when_an_infinite_edge_is_beaten_by_a_finite_path():
    # B is first reached over the infinite edge; its stale entry ties D's cost
    dataset = _path_dataset(
        ("A", "B", math.inf), ("A", "C", 1.0), ("C", "B", 1.0), ("B", "D", math.inf)
    )
    assert min_cost(dataset, "A", "B") == scan_min_cost(dataset, "A", "B") == 2.0
    assert min_cost(dataset, "A", "B", 2.0) == 2.0
    assert min_cost(dataset, "A", "D") == scan_min_cost(dataset, "A", "D") == math.inf
    assert min_cost(dataset, "A", "D", 1e308) is None
    assert _factor_costs(dataset, "A", ["B", "D"], None) == {"B": 2.0, "D": math.inf}
    assert _factor_costs(dataset, "A", ["B", "D"], 3.0) == {"B": 2.0, "D": None}


def test_cost_search_settles_nothing_outside_the_center_component():
    # c's buffer holds x1, at the head of the chain c-x1-x2-x3-x4, and n,
    # on the separate component n-m.  The search from c stops once x1 has
    # settled instead of flooding the chain for n, and the search from n
    # finds nothing to look for.  The edge c-x1 comes last, so labels read
    # before it is in would leave x1 out of c's component.
    dataset = SpatialDataset(
        sites=tuple(
            PointSite(sid, x, y)
            for sid, x, y in (
                ("c", 0.0, 0.0), ("x1", 1.0, 0.0), ("n", 0.0, 1.0), ("m", 0.0, 9.0),
                ("x2", 5.0, 0.0), ("x3", 9.0, 0.0), ("x4", 13.0, 0.0),
            )
        ),
        edges=tuple(
            Edge(u, v, 1.0, 1.0)
            for u, v in (("n", "m"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("c", "x1"))
        ),
    )
    params = WeightParams(radius=1.2)
    popped = []

    def spy(frontier):
        entry = heapq.heappop(frontier)
        popped.append(list(dataset._prepared["edges"][1][1])[entry[1]])  # node -> id
        return entry

    with mock.patch.object(neighborhood, "heappop", spy):
        got = collect_factors(dataset, "c", buffer_neighbors(dataset, "c", 1.2), params)
        assert [(f.neighbor, f.min_cost) for f in got] == [("n", None), ("x1", 1.0)]
        assert popped == ["c", "x1"]
        popped.clear()
        got = collect_factors(dataset, "n", buffer_neighbors(dataset, "n", 1.2), params)
        assert [(f.neighbor, f.min_cost) for f in got] == [("c", None)]
        assert popped == []
    assert min_cost(dataset, "n", "x4") is None
    assert min_cost(dataset, "c", "x4") == scan_min_cost(dataset, "c", "x4") == 4.0


def test_connection_counts_are_symmetric_and_count_a_self_loop_once_per_edge():
    dataset = _path_dataset(
        (1, 1, 1.0), (1, 1, 2.0), (1, "1", 1.0), ("1", 1, 3.0), ("a", 1, 1.0)
    )
    assert direct_connection_count(dataset, 1, 1) == 2
    assert direct_connection_count(dataset, "1", "1") == 0
    assert direct_connection_count(dataset, 1, "1") == direct_connection_count(dataset, "1", 1) == 2
    assert direct_connection_count(dataset, "a", 1) == direct_connection_count(dataset, 1, "a") == 1
    assert direct_connection_count(dataset, "a", "1") == 0


def test_counts_costs_and_graph_neighbors_come_from_one_pass_over_the_edges():
    dataset = _path_dataset(("A", "B", 2.0), ("A", "B", 1.0), ("B", "C", 1.0), ("C", "C", 1.0))
    passes = []

    class Edges(tuple):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    object.__setattr__(dataset, "edges", Edges(dataset.edges))
    assert graph_neighbors(dataset, "B") == {"A", "C"}
    assert graph_neighbors(dataset, "C") == {"B"}
    assert direct_connection_count(dataset, "A", "B") == 2
    assert direct_connection_count(dataset, "C", "C") == 1
    assert min_cost(dataset, "A", "C") == 2.0
    factors = collect_factors(dataset, "B", {"A", "C"}, WeightParams(radius=3.0))
    assert [(f.neighbor, f.connection_count, f.min_cost) for f in factors] == [
        ("A", 2, 1.0), ("C", 1, 1.0)
    ]
    assert len(passes) == 1


@given(mixed_id_multigraphs())
def test_connection_counts_on_mixed_ids_match_scan(dataset):
    ids = dataset.site_ids()
    for a in ids:
        for b in ids:
            count = direct_connection_count(dataset, a, b)
            assert count == direct_connection_count(dataset, b, a)
            assert count == scan_connection_count(dataset, a, b)


@given(
    multigraphs(),
    st.one_of(st.none(), st.floats(0.5, 12)),
    st.data(),
)
def test_collect_factors_matches_scan(dataset, limit, data):
    params = WeightParams(radius=3.0, cost_limit=limit)
    ids = dataset.site_ids()
    for center in ids:
        # the center itself is not a discovered neighbor, but callers may pass it
        neighbors = data.draw(st.sets(st.sampled_from(ids)))
        assert outcome(collect_factors, dataset, center, neighbors, params) == outcome(
            scan_collect_factors, dataset, center, neighbors, params
        )


class _Backwards(str):
    """A str id whose text, as str() gives it, sorts apart from its value."""

    def __str__(self):
        return self[::-1]


@given(st.one_of(
    st.lists(st.text()),
    st.lists(st.integers()),
    st.lists(st.one_of(st.text(), st.integers())),
    st.lists(st.one_of(st.booleans(), st.integers())),
    st.lists(st.one_of(st.text(), st.text().map(_Backwards))),
))
@example([])
@example([True, 0, 1, False])
@example(["ab", _Backwards("ba"), "b"])
@example(["b", 2, "a", 1])
def test_key_sorted_is_site_id_key_order(ids):
    with mock.patch.object(dataset_module, "site_id_key", wraps=site_id_key) as key:
        got = dataset_module._key_sorted(ids)
    want = sorted(ids, key=site_id_key)
    assert [(type(i), i) for i in got] == [(type(i), i) for i in want]
    plain = set(map(type, ids)) in ({str}, {int})  # exactly str, or exactly int
    assert key.call_count == (0 if plain else len(ids))


@given(mixed_id_multigraphs(), st.one_of(st.none(), st.floats(0.5, 12)), st.data())
def test_mixed_ids_come_back_in_key_order(dataset, limit, data):
    params = WeightParams(radius=3.0, cost_limit=limit)
    ids = dataset.site_ids()
    for center in ids:
        for regime, scanned in (("buffer", scan_buffer(dataset, center, 3.0)),
                                ("graph", scan_graph(dataset, center))):
            found = detect._neighbors(dataset, center, regime, params)
            assert dataset_module._key_sorted(found) == sorted(scanned, key=site_id_key)
        neighbors = data.draw(st.sets(st.sampled_from(ids))) - {center}
        got = collect_factors(dataset, center, neighbors, params)
        assert [f.neighbor for f in got] == sorted(neighbors, key=site_id_key)
        assert got == scan_collect_factors(dataset, center, neighbors, params)


@given(
    multigraphs(),
    st.sets(st.one_of(st.integers(), text_ids), min_size=1, max_size=3),
    st.data(),
)
def test_unknown_neighbor_id_raises_site_lookup_error(dataset, strangers, data):
    unknown = {sid for sid in strangers if sid not in dataset}
    assume(unknown)
    ids = dataset.site_ids()
    center = data.draw(st.sampled_from(ids))
    # the center is left out: as its own neighbor it would raise
    # DegenerateDistanceError, which the scan may meet before an unknown id
    neighbors = (data.draw(st.sets(st.sampled_from(ids))) - {center}) | unknown
    params = WeightParams(radius=3.0)
    expected = ("raised", SiteLookupError)
    assert outcome(scan_collect_factors, dataset, center, neighbors, params) == expected
    assert outcome(collect_factors, dataset, center, neighbors, params) == expected
    assert outcome(collect_factors, dataset, center, {"nope"}, params) == expected


@given(factor_datasets(), st.one_of(st.none(), st.floats(0.5, 12)), st.data())
def test_collect_factors_columns_match_the_per_neighbor_loop(dataset, limit, data):
    # the center may be among its neighbors, and copies and flat polygons
    # may be too: the error, its message and the neighbor it names must match
    params = WeightParams(radius=3.0, cost_limit=limit)
    ids = sorted(set(dataset.site_ids()), key=site_id_key)
    for center in ids:
        neighbors = data.draw(st.sets(st.sampled_from(ids)))
        assert detail(collect_factors, dataset, center, neighbors, params) == detail(
            loop_collect_factors, dataset, center, neighbors, params
        )


def test_collect_factors_raises_at_the_first_bad_neighbor_in_key_order():
    # whatever its fault: a flat polygon, a copy of the center, the center
    # itself or an id that names no site (z); a center with no location
    # raises only once a neighbor is looked up, as the scan does
    flat = PolygonSite(id="b", exterior=((5.0, 0.0), (6.0, 0.0), (7.0, 0.0)))
    squares = [unit_square(sid, ox=ox) for sid, ox in (("a", 2.0), ("c", 0.0), ("d", 4.0))]
    dataset = SpatialDataset(sites=(*squares, flat, unit_square("e", ox=0.0)))
    params = WeightParams()
    for center, neighbors, error, message in (
        ("c", {"a", "b", "e"}, GeometryError, "polygon 'b': degenerate ring"),
        ("c", {"a", "d", "e"}, DegenerateDistanceError, "sites 'c' and 'e' coincide"),
        ("c", {"e", "b"}, GeometryError, "polygon 'b'"),
        ("c", {"b", "z"}, GeometryError, "polygon 'b'"),
        ("c", {"d", "z"}, SiteLookupError, "unknown site id 'z'"),
        ("c", {"c", "z"}, DegenerateDistanceError, "sites 'c' and 'c' coincide"),
        ("b", {"z"}, SiteLookupError, "unknown site id 'z'"),
        ("b", {"d", "z"}, GeometryError, "polygon 'b'"),
    ):
        with pytest.raises(error, match=message):
            collect_factors(dataset, center, neighbors, params)
        expected = detail(scan_collect_factors, dataset, center, neighbors, params)
        assert detail(collect_factors, dataset, center, neighbors, params) == expected
        assert detail(loop_collect_factors, dataset, center, neighbors, params) == expected
    assert collect_factors(dataset, "c", {"a", "d"}, params) == loop_collect_factors(
        dataset, "c", {"a", "d"}, params
    )


def test_collect_factors_keeps_the_nan_distances_of_non_finite_points():
    # validation rejects such sites; the center at x = inf is nan away from
    # p and inf away from q, and the polygon without a centroid still raises
    flat = PolygonSite(id="flat", exterior=((0.0, 5.0), (1.0, 5.0), (2.0, 5.0)))
    dataset = SpatialDataset(sites=(
        PointSite("c", math.inf, 0.0), PointSite("p", math.inf, 1.0), PointSite("q", 0.0, 0.0), flat,
    ))
    params = WeightParams()
    got = collect_factors(dataset, "c", {"p", "q"}, params)
    assert [f.neighbor for f in got] == ["p", "q"]
    assert math.isnan(got[0].distance) and got[1].distance == math.inf
    assert detail(collect_factors, dataset, "c", {"p", "q"}, params) == detail(
        loop_collect_factors, dataset, "c", {"p", "q"}, params
    )
    with pytest.raises(GeometryError, match="polygon 'flat'"):
        collect_factors(dataset, "c", {"p", "q", "flat"}, params)


@given(tilings(), st.floats(0.5, 2.5))
def test_polygon_buffer_sets_match_scan(case, reach):
    dataset, _, _ = case
    (x0, _), (x1, _) = dataset.sites[0].exterior[:2]
    radius = reach * abs(x1 - x0)  # in widths of one jittered cell
    for center in dataset.site_ids():
        assert buffer_neighbors(dataset, center, radius) == scan_buffer(dataset, center, radius)


@given(tilings())
def test_rook_adjacency_matches_scan_on_jittered_tilings(case):
    dataset, cols, rows = case
    for i in range(cols):
        for j in range(rows):
            center = f"{i}-{j}"
            found = polygon_adjacent_neighbors(dataset, center)
            assert found == scan_polygon(dataset, center)
            # shared edges only: diagonal cells touch at a corner and do not count
            assert found == {
                f"{a}-{b}"
                for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if 0 <= a < cols and 0 <= b < rows
            }


@given(tilings(), st.data())
def test_rook_adjacency_with_repeated_ids_matches_scan_and_is_symmetric(case, data):
    # fewer labels than cells: some ids name several cells, and each names its
    # first one, as center and as neighbor alike
    dataset, _, _ = case
    n = len(dataset.sites)
    assume(n > 1)
    labels = data.draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    dataset = SpatialDataset(sites=tuple(
        replace(site, id=label) for site, label in zip(dataset.sites, labels)
    ))
    rook = {center: polygon_adjacent_neighbors(dataset, center) for center in dataset.site_ids()}
    for center, found in rook.items():
        assert found == scan_polygon(dataset, center)
        assert all(center in rook[neighbor] for neighbor in found)


@given(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    st.floats(1e-3, 1e3),
    st.one_of(st.sampled_from([1e-10, 5e-10, 9e-10, 2e-9]), st.floats(-3e-9, 3e-9)),
    st.floats(-1.0, 1.0),
)
def test_rook_adjacency_matches_scan_across_tiny_gaps(origin, side, gap, slide):
    # a gap below BOUNDARY_TOLERANCE still counts as a shared boundary, though
    # the unpadded bounding boxes are disjoint
    ox, oy = origin

    def square(sid, x, y):
        return PolygonSite(
            id=sid, exterior=((x, y), (x + side, y), (x + side, y + side), (x, y + side))
        )

    dataset = SpatialDataset(
        sites=(square("a", ox, oy), square("b", ox + side + gap, oy + slide * side))
    )
    for center in ("a", "b"):
        assert polygon_adjacent_neighbors(dataset, center) == scan_polygon(dataset, center)


def _assert_rook_matches_scan(dataset):
    for center in dataset.site_ids():
        assert polygon_adjacent_neighbors(dataset, center) == scan_polygon(dataset, center)


@given(kernel_cases())
def test_shared_boundary_matches_the_reference_overlap_length(case):
    a, b = case
    expected = reference_share_boundary(a, b)
    assert polygons_share_boundary(a, b) == expected
    # with finite vertices the rook build measures only segments whose padded
    # boxes meet, on the candidates that share a grid cell
    dataset = SpatialDataset(sites=(a, b))
    if all(math.isfinite(v) for site in (a, b) for point in site.exterior for v in point):
        boxes, segments, candidates = neighborhood._box_grid(dataset)
        assert all(map(math.isfinite, boxes[0] + boxes[1]))
        for px, py, qx, qy, *_, x0, y0, x1, y1 in segments[0] + segments[1]:
            assert x0 < min(px, qx) and y0 < min(py, qy)
            assert max(px, qx) < x1 and max(py, qy) < y1
        assert all(i in c for i, c in enumerate(candidates))
        if expected:
            assert 1 in candidates[0] and 0 in candidates[1]
    assert polygon_adjacent_neighbors(dataset, "a") == ({"b"} if expected else set())


def test_unindexable_dataset_builds_each_polygons_segment_records_once():
    # a nan vertex leaves the grid out: every polygon is a candidate of every
    # other, but each polygon's records are still built once
    sites = list(grid_polygons(5).sites)
    sites[7] = replace(sites[7], exterior=((math.nan, 2.0), *sites[7].exterior[1:]))
    dataset = SpatialDataset(sites=tuple(sites), attribute_names=("v",))
    with mock.patch.object(
        neighborhood, "_segment_records", wraps=neighborhood._segment_records
    ) as spy:
        polygon_adjacent_neighbors(dataset, "0-0")
    assert spy.call_count == 25
    assert all(call.args[1] is None for call in spy.call_args_list)
    _assert_rook_matches_scan(dataset)


def test_finite_dataset_the_grid_cannot_index_builds_padded_records_once():
    # the box areas overflow, so the grid leaves these squares in one cell,
    # and their vertices are finite, so the records keep their padded boxes
    dataset = huge_squares_dataset(1e154)
    with mock.patch.object(
        neighborhood, "_segment_records", wraps=neighborhood._segment_records
    ) as spy:
        polygon_adjacent_neighbors(dataset, "p0")
    assert spy.call_count == 3
    assert all(math.isfinite(call.args[1]) for call in spy.call_args_list)
    _assert_rook_matches_scan(dataset)


class _CountedRecords(list):
    """Candidate records that count the loops over them."""

    loops = 0

    def __iter__(self):
        self.loops += 1
        return super().__iter__()


@pytest.mark.parametrize("length, measured", [
    (0.0, False), (BOUNDARY_TOLERANCE / 2, False),
    (math.nextafter(BOUNDARY_TOLERANCE, 0.0), False), (BOUNDARY_TOLERANCE, False),
    (math.nextafter(BOUNDARY_TOLERANCE, 1.0), True), (math.nan, True),
])
def test_center_segments_no_longer_than_the_tolerance_are_never_measured(length, measured):
    # a segment of exactly the tolerance could never overlap by more, so a
    # skip on < would not change a result: only the loops show it
    center = PolygonSite(id="c", exterior=((0.0, 0.0), (length, 0.0)))
    records = neighborhood._segment_records(center, None)
    assert all(r[4] == length for r in records) or math.isnan(length)
    candidates = _CountedRecords(neighborhood._segment_records(unit_square("s", ox=5.0), None))
    assert not neighborhood._segments_share_boundary(records, candidates)
    assert candidates.loops == (len(records) if measured else 0)


@given(
    st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
    st.floats(0.01, 100),
    st.tuples(st.floats(0.1, 0.4), st.floats(0.1, 0.4), st.floats(0.1, 0.4)),
    st.integers(0, 3),
    st.booleans(),
)
def test_rook_adjacency_matches_scan_for_a_polygon_in_a_hole(
    origin, scale, hole, turn, reverse
):
    # the island's exterior is the frame's hole ring, started at another
    # vertex and possibly wound the other way; a box left of the frame
    # shares its right side with the frame's left side
    ox, oy = origin
    hx, hy, side = hole

    def at(x, y):
        return ox + x * scale, oy + y * scale

    frame = (at(0, 0), at(1, 0), at(1, 1), at(0, 1))
    ring = (at(hx, hy), at(hx + side, hy), at(hx + side, hy + side), at(hx, hy + side))
    island = ring[turn:] + ring[:turn]
    if reverse:
        island = island[::-1]
    dataset = SpatialDataset(sites=(
        PolygonSite(id="frame", exterior=frame, holes=(ring,)),
        PolygonSite(id="island", exterior=island),
        PolygonSite(id="left", exterior=(at(-1, 0), at(0, 0), at(0, 1), at(-1, 1))),
    ))
    _assert_rook_matches_scan(dataset)
    assert polygon_adjacent_neighbors(dataset, "island") == {"frame"}
    assert polygon_adjacent_neighbors(dataset, "frame") == {"island", "left"}


@given(
    st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
    st.floats(0.01, 100),
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.05, 0.95), min_size=0, max_size=4, unique=True),
)
def test_rook_adjacency_matches_scan_at_t_junctions(origin, scale, top_cuts, bottom_cuts):
    # one strip of boxes above y = 0 and one below, cut at different x: each
    # box side on y = 0 is shared with every box across whose x range overlaps
    ox, oy = origin

    def strip(name, cuts, y0, y1):
        xs = [0.0, *sorted(cuts), 1.0]
        return [
            (f"{name}{k}", (a, b), PolygonSite(
                id=f"{name}{k}",
                exterior=((ox + a * scale, oy + y0 * scale), (ox + b * scale, oy + y0 * scale),
                          (ox + b * scale, oy + y1 * scale), (ox + a * scale, oy + y1 * scale)),
            ))
            for k, (a, b) in enumerate(zip(xs, xs[1:]))
        ]

    top, bottom = strip("t", top_cuts, 0.0, 1.0), strip("b", bottom_cuts, -1.0, 0.0)
    dataset = SpatialDataset(sites=tuple(site for _, _, site in top + bottom))
    _assert_rook_matches_scan(dataset)
    for tid, (ta, tb), _ in top:
        found = polygon_adjacent_neighbors(dataset, tid)
        for bid, (ba, bb), _ in bottom:
            if (min(tb, bb) - max(ta, ba)) * scale > 1e-6:
                assert bid in found


@given(
    tilings(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.integers(0, 24),
    st.integers(0, 3),
    st.integers(0, 1),
)
def test_rook_adjacency_matches_scan_with_a_non_finite_vertex(case, bad, which, vertex, axis):
    # no box grid is built: every polygon is scanned against every other
    dataset, _, _ = case
    sites = list(dataset.sites)
    k = which % len(sites)
    ring = [list(point) for point in sites[k].exterior]
    ring[vertex][axis] = bad
    sites[k] = PolygonSite(
        id=sites[k].id, exterior=tuple(map(tuple, ring)), attributes=sites[k].attributes
    )
    _assert_rook_matches_scan(SpatialDataset(sites=tuple(sites), attribute_names=("v",)))


@given(
    tilings(),
    st.integers(0, 24),
    st.integers(0, 3),
    st.sampled_from(NEAR_TOLERANCE),
    st.floats(0, 2 * math.pi),
)
def test_rook_adjacency_matches_scan_with_a_near_duplicate_vertex(case, which, vertex, gap, angle):
    # the copy makes a segment about as long as the tolerance; at half of it
    # or less every shared side still overlaps, and no corner starts to
    dataset, cols, rows = case
    sites = list(dataset.sites)
    k = which % len(sites)
    ring = list(sites[k].exterior)
    x, y = ring[vertex]
    ring.insert(vertex + 1, (x + gap * math.cos(angle), y + gap * math.sin(angle)))
    sites[k] = replace(sites[k], exterior=tuple(ring))
    dataset = SpatialDataset(sites=tuple(sites), attribute_names=("v",))
    _assert_rook_matches_scan(dataset)
    if gap <= BOUNDARY_TOLERANCE / 2:
        for i in range(cols):
            for j in range(rows):
                assert polygon_adjacent_neighbors(dataset, f"{i}-{j}") == {
                    f"{a}-{b}"
                    for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                    if 0 <= a < cols and 0 <= b < rows
                }


def _detect_with_scans(*args, **kwargs):
    # results may hold nan, which never compares equal: callers compare reprs,
    # which round-trip every float exactly
    with mock.patch.multiple(
        detect,
        buffer_neighbors=scan_buffer,
        graph_neighbors=scan_graph,
        polygon_adjacent_neighbors=scan_polygon,
    ):
        return outcome(detect_outliers, *args, **kwargs)


@given(
    multigraphs(max_sites=10, dangling=False),
    st.sampled_from(["buffer", "graph", "combined"]),
    st.sampled_from(["classical", "weighted"]),
    st.sampled_from([1.0, 1.5, 2.5, 4.0]),
    st.one_of(st.none(), st.floats(0.5, 8)),
)
def test_point_z_values_match_scan(dataset, regime, mode, radius, limit):
    params = WeightParams(
        alpha=0.5, beta=0.25, delta=0.25, radius=radius, cost_limit=limit, theta=1.5
    )
    got = outcome(detect_outliers, dataset, "v", params, mode=mode, regime=regime)
    assert repr(got) == repr(_detect_with_scans(dataset, "v", params, mode=mode, regime=regime))


@given(tilings(), st.sampled_from(["classical", "weighted"]))
def test_polygon_z_values_match_scan(case, mode):
    dataset, _, _ = case
    params = WeightParams(gamma=0.5, theta=1.5)
    got = outcome(detect_outliers, dataset, "v", params, mode=mode, regime="polygon")
    assert repr(got) == repr(_detect_with_scans(dataset, "v", params, mode=mode, regime="polygon"))


def test_dataset_is_freed_by_reference_counting():
    points = grid_point_dataset(4, 4, [float(k * k % 11) for k in range(16)])
    polygons = SpatialDataset(
        sites=tuple(
            PolygonSite(
                id=f"{i}-{j}",
                exterior=((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)),
                attributes={"v": float((i * 7 + j * 3) % 5)},
            )
            for i in range(3)
            for j in range(3)
        ),
        attribute_names=("v",),
    )
    params = WeightParams(alpha=0.5, beta=0.25, delta=0.25, radius=1.5, cost_limit=3.0)
    gc.disable()
    try:
        for regime in ("buffer", "graph", "combined"):
            detect_outliers(points, "v", params, regime=regime)
        for regime in ("buffer", "polygon"):
            detect_outliers(polygons, "v", params, regime=regime)
        refs = [weakref.ref(points), weakref.ref(polygons)]
        del points, polygons
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# ------------------------------------------------ the weighted column pass
#
# Weighted detection, neighborhood_weights and the CLI weights command weigh
# each center in one column pass that measures only the factors its regime
# reads.  The oracles below never call that pass or the public weightings:
# discovery by the scans above, factors by scan_collect_factors, the blend by
# the reference of test_weights.py, and polygon weights written out.


def _ref_shares(values):
    total = _ref_total(values)
    return None if total is None else [v / total for v in values]


def _ref_polygon_weights(center, neighbors, gamma):
    """gamma inverse-centroid-distance shares plus (1 - gamma) area shares."""
    terms = [
        (gamma, _ref_shares([1.0 / site_distance(center, nb) for nb in neighbors])),
        (1.0 - gamma, _ref_shares([polygon_area(nb) for nb in neighbors])),
    ]
    lifted_gamma, lifted_area = _ref_lifted(terms)
    d_shares, a_shares = (shares or [0.0] * len(neighbors) for _, shares in terms)
    pairs = [
        (nb.id, lifted_gamma * ds + lifted_area * sa)
        for nb, ds, sa in zip(neighbors, d_shares, a_shares)
    ]
    return _ref_normalized(center.id, pairs)


# buffer and graph weightings are the combined blend at a simplex corner
_CORNER = {"buffer": (1.0, 0.0, 0.0), "graph": (0.0, 1.0, 0.0)}


def _ref_neighborhood_weights(dataset, center, params, regime):
    """(center, entries) of a center from the oracles; raises as they do."""
    if regime == "graph":
        found = scan_graph(dataset, center)
    elif regime == "polygon":
        found = scan_polygon(dataset, center)
    else:
        found = scan_buffer(dataset, center, params.radius)
    if not found:
        raise NoNeighborsError(f"site {center!r} has no {regime} neighbors")
    if regime == "polygon":
        neighbors = [dataset.site(n) for n in sorted(found, key=site_id_key)]
        return _ref_polygon_weights(dataset.site(center), neighbors, params.gamma)
    factors = scan_collect_factors(dataset, center, found, params)
    if regime in _CORNER:
        alpha, beta, delta = _CORNER[regime]
        params = WeightParams(alpha=alpha, beta=beta, delta=delta)
    return _ref_combined_weights(factors, params)


def _ref_expectations(dataset, params, regime):
    """Each scored center's expected value as hex, or the first error raised."""
    values = dataset.values("v")
    out = {}
    try:
        for center in sorted(set(dataset.site_ids()), key=site_id_key):
            try:
                _, entries = _ref_neighborhood_weights(dataset, center, params, regime)
            except NoNeighborsError:
                continue
            neighbor_values = [values[n] for n, _ in entries]
            if neighbor_values.count(neighbor_values[0]) == len(neighbor_values):
                out[center] = (neighbor_values[0] + 0.0).hex()
            else:
                out[center] = math.fsum(
                    [w * v for (_, w), v in zip(entries, neighbor_values)]).hex()
    except SpatialOutlierError as exc:
        return "raised", type(exc), str(exc)
    return "ok", out


def _detect_expectations(dataset, params, regime):
    """detect_outliers' expected values as hex, seen where it hands them to
    difference_scores, so a later standardization error hides nothing."""
    seen = []
    difference_scores = detect.difference_scores

    def spy(actuals, expecteds):
        seen.append({sid: e.hex() for sid, e in expecteds.items()})
        return difference_scores(actuals, expecteds)

    with mock.patch.object(detect, "difference_scores", spy):
        try:
            detect_outliers(dataset, "v", params, mode="weighted", regime=regime)
        except SpatialOutlierError as exc:
            if not seen:
                return "raised", type(exc), str(exc)
    return "ok", seen[0] if seen else {}


def _entries_bits(fn, *args):
    try:
        got = fn(*args)
    except SpatialOutlierError as exc:
        return "raised", type(exc), str(exc)
    center, entries = got if isinstance(got, tuple) else (got.center, got.entries)
    return "ok", center, [(n, w.hex()) for n, w in entries]


_TINY_COEFFS = st.sampled_from([
    (5e-324, 0.0, 1.0), (0.0, 5e-324, 1.0), (1.0, 0.0, 5e-324), (1e-310, 1.0, 0.0),
])


@given(
    # plain datasets mostly score; factor_datasets adds coincident copies,
    # polygons without a centroid and mixed ids, which mostly raise
    st.one_of(
        multigraphs(max_sites=10), mixed_id_multigraphs(), tilings().map(lambda case: case[0]),
        factor_datasets(),
    ),
    st.one_of(_SIMPLEX_CORNERS, _coeffs(), _TINY_COEFFS),
    st.sampled_from([1.5, 2.5, 4.0, 40.0]),
    st.one_of(st.none(), st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.5, 12)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
    st.data(),
)
def test_column_pass_matches_the_oracles_bit_for_bit(
    dataset, coeffs, radius, limit, gamma, data
):
    alpha, beta, delta = coeffs
    try:
        params = WeightParams(alpha=alpha, beta=beta, delta=delta, gamma=gamma,
                              radius=radius, cost_limit=limit)
    except ValueError:
        assume(False)  # rounding pushed the simplex sum out of tolerance
    kinds = ["polygon", "buffer"] if dataset.kind == "polygon" else ["buffer", "graph", "combined"]
    regime = data.draw(st.sampled_from(kinds))
    assert _detect_expectations(dataset, params, regime) == _ref_expectations(
        dataset, params, regime)
    for center in sorted(set(dataset.site_ids()), key=site_id_key):
        assert _entries_bits(neighborhood_weights, dataset, center, params, regime) == (
            _entries_bits(_ref_neighborhood_weights, dataset, center, params, regime))


def _error(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except SpatialOutlierError as exc:
        return type(exc), str(exc)
    return None


def test_column_pass_raises_the_oracles_errors():
    a, b = PointSite("a", 0.0, 0.0, {"v": 1.0}), PointSite("b", 1.0, 0.0, {"v": 2.0})
    cases = [
        # coincident sites, found by buffer discovery
        (SpatialDataset(sites=(a, b, PointSite("c", 0.0, 0.0, {"v": 3.0}))),
         WeightParams(radius=2.0), "buffer", DegenerateDistanceError),
        # no usable factor: the only coefficient is on costs, and nothing is reachable
        (SpatialDataset(sites=(a, b)), WeightParams(alpha=0.0, delta=1.0, radius=2.0),
         "combined", DegenerateFactorsError),
        # a graph neighbor that is not a site
        (SpatialDataset(sites=(a, b), edges=(Edge("a", "b", 1.0, 1.0), Edge("a", "z", 1.0, 1.0))),
         WeightParams(), "graph", SiteLookupError),
    ]
    for dataset, params, regime, error in cases:
        expected = _error(_ref_neighborhood_weights, dataset, "a", params, regime)
        assert expected[0] is error
        assert _error(neighborhood_weights, dataset, "a", params, regime) == expected
        assert _error(detect_outliers, dataset, "v", params, regime=regime) == expected
        assert _detect_expectations(dataset, params, regime) == _ref_expectations(
            dataset, params, regime)


def test_each_prepared_structure_is_built_once_per_dataset():
    dataset = network_dataset()
    params = WeightParams(alpha=0.5, beta=0.25, delta=0.25, radius=2.0, cost_limit=4.0)
    names = ("_locations", "_edge_table")
    with contextlib.ExitStack() as stack:
        builds = [
            stack.enter_context(mock.patch.object(
                neighborhood, name, wraps=getattr(neighborhood, name)))
            for name in names
        ]
        result = detect_outliers(dataset, "v", params, mode="weighted", regime="combined")
        assert len(result.scores) > 1
        assert [spy.call_count for spy in builds] == [1, 1]
        detect_outliers(dataset, "v", params, mode="weighted", regime="combined")
        assert [spy.call_count for spy in builds] == [1, 1]
    # the buffer table for the last radius is the third and last structure
    assert sorted(dataset._prepared) == ["edges", "grid", "locations"]


# a combined blend at delta 0 gives cost no weight, so it searches no cost
@pytest.mark.parametrize("regime, delta, searches", [
    ("buffer", 0.25, 0), ("graph", 0.25, 0), ("combined", 0.25, 1), ("combined", 0.0, 0),
], ids=["buffer-0", "graph-0", "combined-1", "combined-delta-0-0"])
def test_only_combined_runs_the_cost_search(network, regime, delta, searches):
    params = WeightParams(alpha=0.75 - delta, beta=0.25, delta=delta, radius=2.0,
                          cost_limit=4.0)
    assert network.edges
    with mock.patch.object(
        neighborhood, "_costs_from", wraps=neighborhood._costs_from
    ) as costs_from:
        result = detect_outliers(network, "v", params, mode="weighted", regime=regime)
        assert result.scores
        assert costs_from.call_count == searches * len(result.scores)
        costs_from.reset_mock()
        center = result.scores[0].site
        neighborhood_weights(network, center, params, regime)
        assert costs_from.call_count == searches
        costs_from.reset_mock()
        collect_factors(network, center, graph_neighbors(network, center), params)
        assert costs_from.call_count == 1
