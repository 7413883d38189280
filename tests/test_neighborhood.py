import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spatial_outliers import (
    Edge,
    NeighborFactors,
    PointSite,
    PolygonSite,
    SiteLookupError,
    SpatialDataset,
    WeightParams,
    buffer_neighbors,
    collect_factors,
    combined_weights,
    detect_outliers,
    direct_connection_count,
    graph_neighbors,
    min_cost,
    neighborhood_weights,
    polygon_adjacent_neighbors,
)
from spatial_outliers.fixtures import NETWORK_RADIUS, NETWORK_SITES

from conftest import grid_polygons, huge_squares_dataset, unit_square


class TestBufferNeighbors:
    def test_network_buffer_of_a(self, network):
        # oracle: recompute every distance straight from the raw table
        inside = {
            sid
            for sid, x, y, _ in NETWORK_SITES
            if sid != "A" and math.hypot(x, y) <= NETWORK_RADIUS
        }
        assert inside == {"B", "K", "J", "H"}
        assert buffer_neighbors(network, "A", NETWORK_RADIUS) == {"B", "K", "J", "H"}

    def test_tiny_radius_empty(self, network):
        assert buffer_neighbors(network, "A", 0.5) == set()

    def test_huge_radius_everything(self, network):
        everyone = set(network.site_ids()) - {"A"}
        assert buffer_neighbors(network, "A", 1000.0) == everyone

    def test_unknown_center(self, network):
        with pytest.raises(SiteLookupError):
            buffer_neighbors(network, "nope", 1.0)

    @given(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
            min_size=2, max_size=12, unique=True,
        ),
        st.floats(0.5, 30.0),
        st.floats(0.5, 30.0),
    )
    def test_monotone_in_radius(self, coords, r1, r2):
        sites = tuple(
            PointSite(id=i, x=float(x), y=float(y)) for i, (x, y) in enumerate(coords)
        )
        ds = SpatialDataset(sites=sites)
        small, large = sorted((r1, r2))
        assert buffer_neighbors(ds, 0, small) <= buffer_neighbors(ds, 0, large)


class TestGraphNeighbors:
    def test_network_graph_of_a(self, network):
        assert graph_neighbors(network, "A") == {"B", "D", "E"}

    def test_isolated_site(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
        )
        assert graph_neighbors(ds, "A") == set()

    def test_complete_triangle(self):
        ds = SpatialDataset(
            sites=tuple(PointSite(id=s, x=i, y=0) for i, s in enumerate("ABC")),
            edges=(Edge("A", "B", 1, 1), Edge("B", "C", 1, 1), Edge("C", "A", 1, 1)),
        )
        for center, rest in (("A", {"B", "C"}), ("B", {"A", "C"}), ("C", {"A", "B"})):
            assert graph_neighbors(ds, center) == rest

    def test_symmetry(self, network):
        ids = network.site_ids()
        for a in ids:
            for b in graph_neighbors(network, a):
                assert a in graph_neighbors(network, b)


def _exact_shared_boundary(p1, p2):
    """Adjacency oracle in exact rational arithmetic (integer grids only)."""

    def segments(poly):
        for ring in (poly.exterior, *poly.holes):
            n = len(ring)
            for i in range(n):
                a, b = ring[i], ring[(i + 1) % n]
                yield (
                    (Fraction(a[0]), Fraction(a[1])),
                    (Fraction(b[0]), Fraction(b[1])),
                )

    def overlap(a1, a2, b1, b2):
        ux, uy = a2[0] - a1[0], a2[1] - a1[1]
        cross1 = (b1[0] - a1[0]) * uy - (b1[1] - a1[1]) * ux
        cross2 = (b2[0] - a1[0]) * uy - (b2[1] - a1[1]) * ux
        if cross1 != 0 or cross2 != 0:
            return False
        den = ux * ux + uy * uy
        t1 = ((b1[0] - a1[0]) * ux + (b1[1] - a1[1]) * uy) / den
        t2 = ((b2[0] - a1[0]) * ux + (b2[1] - a1[1]) * uy) / den
        lo, hi = min(t1, t2), max(t1, t2)
        return min(hi, 1) > max(lo, 0)

    return any(
        overlap(a1, a2, b1, b2)
        for a1, a2 in segments(p1)
        for b1, b2 in segments(p2)
    )


class TestPolygonAdjacency:
    def test_shared_edge(self):
        ds = SpatialDataset(sites=(unit_square("L"), unit_square("R", ox=1.0)))
        assert polygon_adjacent_neighbors(ds, "L") == {"R"}
        assert polygon_adjacent_neighbors(ds, "R") == {"L"}

    def test_corner_contact_is_not_adjacency(self):
        ds = SpatialDataset(
            sites=(unit_square("L"), unit_square("R", ox=1.0, oy=1.0))
        )
        assert polygon_adjacent_neighbors(ds, "L") == set()

    def test_grid_center_has_four_neighbors(self):
        grid = grid_polygons(3)
        # oracle: exact-arithmetic shared-segment check over all 9 cells
        center = grid.site("1-1")
        expected = {
            other.id
            for other in grid.sites
            if other.id != "1-1" and _exact_shared_boundary(center, other)
        }
        assert expected == {"0-1", "2-1", "1-0", "1-2"}
        assert polygon_adjacent_neighbors(grid, "1-1") == expected

    def test_grid_oracle_agreement_everywhere(self):
        grid = grid_polygons(3)
        for site in grid.sites:
            oracle = {
                other.id
                for other in grid.sites
                if other.id != site.id and _exact_shared_boundary(site, other)
            }
            assert polygon_adjacent_neighbors(grid, site.id) == oracle

    @pytest.mark.parametrize("side", [1e154, 1e120])
    def test_squares_too_large_for_box_areas(self, side):
        # at 1e154 the box areas sum past the float range: every pair is scanned
        ds = huge_squares_dataset(side)
        assert [polygon_adjacent_neighbors(ds, c) for c in ("p0", "p1", "p2")] == [
            {"p1"}, {"p0", "p2"}, {"p1"}
        ]

    def test_polygon_without_vertices_has_no_neighbors(self):
        # validation rejects it; the API still scores the rest and skips it
        empty = PolygonSite(id="e", exterior=(), attributes={"v": 5.0})
        ds = SpatialDataset(sites=(*grid_polygons(3).sites, empty))
        assert polygon_adjacent_neighbors(ds, "e") == set()
        assert all("e" not in polygon_adjacent_neighbors(ds, sid) for sid in ds.site_ids())
        assert detect_outliers(ds, "v", WeightParams()).skipped == ("e",)

    def test_partial_edge_overlap_counts(self):
        # R only covers half of L's right edge but they share a line
        small = unit_square("R", ox=1.0, oy=0.5)
        ds = SpatialDataset(sites=(unit_square("L"), small))
        assert polygon_adjacent_neighbors(ds, "L") == {"R"}


class TestDirectConnectionCount:
    def test_parallel_edges(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 1.0), Edge("A", "B", 1.0, 1.0)),
        )
        assert direct_connection_count(ds, "A", "B") == 2
        assert direct_connection_count(ds, "B", "A") == 2

    def test_network_counts(self, network):
        assert direct_connection_count(network, "A", "B") == 1
        assert direct_connection_count(network, "A", "C") == 0

    def test_unknown_id(self, network):
        with pytest.raises(SiteLookupError):
            direct_connection_count(network, "A", "nope")


def _graph_dataset(n, edge_rows):
    sites = tuple(PointSite(id=i, x=float(i), y=float(i * i % 7)) for i in range(n))
    edges = tuple(Edge(u, v, 1.0, float(c)) for u, v, c in edge_rows)
    return SpatialDataset(sites=sites, edges=edges)


def brute_force_min_cost(n, edge_rows, a, b, limit=None):
    """Exhaustive simple-path enumeration; the library must match this."""
    adjacency = defaultdict(list)
    for u, v, c in edge_rows:
        adjacency[u].append((v, c))
        adjacency[v].append((u, c))
    best = None

    def walk(node, seen, acc):
        nonlocal best
        if node == b:
            if best is None or acc < best:
                best = acc
            return
        for nxt, cost in adjacency[node]:
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + cost)

    walk(a, {a}, 0)
    if best is None or (limit is not None and best > limit):
        return None
    return best


class TestMinCost:
    def test_indirect_beats_direct(self):
        rows = [("A", "B", 5), ("A", "C", 1), ("C", "B", 1)]
        ds = SpatialDataset(
            sites=tuple(PointSite(id=s, x=i, y=0) for i, s in enumerate("ABC")),
            edges=tuple(Edge(u, v, 1.0, float(c)) for u, v, c in rows),
        )
        assert brute_force_min_cost(3, rows, "A", "B") == 2
        assert min_cost(ds, "A", "B") == 2.0

    def test_single_edge(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 3.0),),
        )
        assert min_cost(ds, "A", "B") == 3.0

    def test_disconnected_is_unreachable(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
        )
        assert min_cost(ds, "A", "B") is None

    def test_limit_exceeded_is_unreachable(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 7.0),),
        )
        assert min_cost(ds, "A", "B", cost_limit=5.0) is None
        assert min_cost(ds, "A", "B", cost_limit=7.0) == 7.0

    def test_parallel_edges_take_cheapest(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 9.0), Edge("A", "B", 1.0, 2.0)),
        )
        assert min_cost(ds, "A", "B") == 2.0

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randint(2, 8)
            m = rng.randint(0, 12)
            rows = [
                (rng.randrange(n), rng.randrange(n), rng.randint(0, 10))
                for _ in range(m)
            ]
            rows = [(u, v, c) for u, v, c in rows if u != v]
            ds = _graph_dataset(n, rows)
            limit = rng.choice([None, float(rng.randint(0, 15))])
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            expected = brute_force_min_cost(n, rows, a, b, limit)
            got = min_cost(ds, a, b, cost_limit=limit)
            assert got == expected, (rows, a, b, limit)

    def test_symmetric(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 7)
            rows = [
                (rng.randrange(n), rng.randrange(n), rng.randint(0, 9))
                for _ in range(rng.randint(0, 10))
            ]
            rows = [(u, v, c) for u, v, c in rows if u != v]
            ds = _graph_dataset(n, rows)
            assert min_cost(ds, 0, n - 1) == min_cost(ds, n - 1, 0)


def test_each_cost_column_comes_from_its_own_search():
    # float sums depend on the direction they run: a reused reverse search
    # would hand one end of the path the other end's cost
    ds = SpatialDataset(
        sites=tuple(PointSite(id=s, x=float(i), y=0.0) for i, s in enumerate("abcd")),
        edges=(Edge("a", "b", 1.0, 0.1), Edge("b", "c", 1.0, 0.2), Edge("c", "d", 1.0, 0.3)),
    )
    assert min_cost(ds, "a", "d") == 0.6000000000000001
    assert min_cost(ds, "d", "a") == 0.6
    params = WeightParams(alpha=0.0, delta=1.0, radius=10.0)

    def expected(center, costs):
        steps = {n: abs(ord(n) - ord(center)) for n in costs}
        factors = [NeighborFactors(center, n, float(steps[n]), int(steps[n] == 1), c)
                   for n, c in sorted(costs.items())]
        return combined_weights(factors, params).entries

    own = {"a": {"b": 0.1, "c": 0.30000000000000004, "d": 0.6000000000000001},
           "d": {"a": 0.6, "b": 0.5, "c": 0.3}}
    swapped = {"a": {**own["a"], "d": 0.6}, "d": {**own["d"], "a": 0.6000000000000001}}
    for center in "ad":
        got = neighborhood_weights(ds, center, params, "combined").entries
        assert got == expected(center, own[center])
        assert got != expected(center, swapped[center])


class TestCollectFactors:
    def test_network_center_a(self, network):
        params = WeightParams(radius=NETWORK_RADIUS)
        factors = collect_factors(network, "A", {"B", "K", "J", "H"}, params)
        by_id = {f.neighbor: f for f in factors}
        assert [f.neighbor for f in factors] == sorted(by_id)  # deterministic order
        assert by_id["B"].connection_count == 1
        for sid in ("K", "J", "H"):
            assert by_id[sid].connection_count == 0
        # distances must match the raw coordinate table
        for sid, x, y, _ in NETWORK_SITES:
            if sid in by_id:
                assert by_id[sid].distance == pytest.approx(math.hypot(x, y))

    def test_empty_neighbor_set(self, network):
        assert collect_factors(network, "A", set(), WeightParams()) == []

    def test_single_neighbor_with_edge_cost(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 4.5),),
        )
        (factor,) = collect_factors(ds, "A", {"B"}, WeightParams())
        assert factor.min_cost == 4.5
        assert factor.connection_count == 1

    def test_cost_limit_marks_unreachable(self):
        ds = SpatialDataset(
            sites=(PointSite(id="A", x=0, y=0), PointSite(id="B", x=1, y=0)),
            edges=(Edge("A", "B", 1.0, 9.0),),
        )
        (factor,) = collect_factors(ds, "A", {"B"}, WeightParams(cost_limit=5.0))
        assert factor.min_cost is None

    def test_unknown_neighbor(self, network):
        with pytest.raises(SiteLookupError):
            collect_factors(network, "A", {"nope"}, WeightParams())
