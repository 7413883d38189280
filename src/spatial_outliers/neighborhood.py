"""Neighbor discovery and per-pair spatial factors.

Three regimes define who neighbors whom: a distance buffer around each site,
direct graph connections, and shared polygon boundaries.  For each
center/neighbor pair the module also measures the three weighting factors:
separation distance, number of parallel direct connections, and cheapest
traversal cost (None when unreachable or over the cost limit).

Every lookup goes through a prepared index kept on the dataset.  Each of its
structures is built the first time a regime needs it: a buffer table of each
site id's neighbor row for the last buffer radius, the rank of every site id
in sort order, the location of every site id, an edge table from one pass
over the edges (count rows per endpoint, counts[a][b] == counts[b][a], which
also give graph neighbors, and the cheapest-edge adjacency over nodes in
first-seen order with a component label per node), and polygon rook
adjacency.  The buffer table comes from one sweep over a uniform grid of
site locations that measures each nearby pair once and appends it to the
rows of both sites; a buffer query is then a lookup of the center's row.
Rook adjacency is found through a grid over padded polygon bounding boxes,
and the segment-overlap test runs only on segment pairs whose padded boxes
meet.  The exact membership tests run on the candidates the index yields.

Factors are collected per center in column passes over the neighbor ids,
sorted once; the cost search looks only for neighbors in the center's own
component of the edge graph, so an unreachable one never floods it.

Polygon centroids and areas come from the geometry record that the dataset
module remembers on each PolygonSite, so validation, buffer tables,
distances and polygon weights compute each one once.  Index structures and
that record are pure functions of immutable data: threads racing to fill
one store equal values.
"""

import math
import sys
from collections.abc import Iterable
from heapq import heappop, heappush
from itertools import repeat
from typing import NamedTuple

from .dataset import (
    PolygonSite,
    SiteId,
    SpatialDataset,
    WeightParams,
    site_distance,
    site_id_key,
    site_location,
)
from .errors import GeometryError, SiteLookupError

# minimum shared-boundary length for polygon adjacency
BOUNDARY_TOLERANCE = 1e-9

# Buffer grid cells are this much wider than the radius, so that rounding in
# x / cell never puts two sites within the radius two cells apart, provided
# every |coordinate| / cell stays below _MAX_CELL_INDEX; otherwise every site
# is a candidate.
_CELL_PAD = 1.0 + 2.0 ** -20
_MAX_CELL_INDEX = 2.0 ** 31

# Polygon bounding boxes are padded far past BOUNDARY_TOLERANCE, plus a share
# of the largest coordinate that dwarfs the rounding in _overlap_length, so
# polygons whose padded boxes are disjoint never share a boundary.
_BOX_PAD = 1e3 * BOUNDARY_TOLERANCE
_BOX_PAD_RELATIVE = 1e-9


class NeighborFactors(NamedTuple):
    """Measured factors for one center/neighbor pair.

    min_cost is None when no path exists within the cost limit.
    """

    center: SiteId
    neighbor: SiteId
    distance: float
    connection_count: int
    min_cost: float | None


def _prepared(dataset: SpatialDataset, key, build, *args):
    """Structure ``key`` of the dataset's prepared index, built on first use.

    Structures hold sites and ids but never the dataset itself, so a dataset
    is still freed by reference counting.  Each is a pure function of the
    dataset, so threads racing to build one store equal values.
    """
    cache = dataset._prepared
    if key not in cache:
        cache[key] = build(dataset, *args)
    return cache[key]


def _buffer_table(dataset: SpatialDataset, radius: float, cell: float):
    """Buffer neighbors of every site id, or None to scan every site per query.

    Returns (rows, coincident): rows[id] lists the ids within radius of the
    first site with that id, the one dataset.site gives, and coincident maps
    an id to the first site in dataset order, under another id, at that
    exact spot.  One sweep over each grid cell and its four forward cells
    measures every candidate pair once: hypot(xa - xb, ya - yb) is bit for
    bit the distance site_distance gives in either order.  None covers
    non-finite locations, cells too small for the coordinates, and polygons
    without a centroid.
    """
    sites = dataset.sites
    rows: dict[SiteId, list[SiteId]] = {}
    # entries are lists, not tuples: CPython keeps freed small tuples for
    # reuse by tuples of the same size, so a tuple per site would go on
    # holding its memory once the table is built
    grid: dict[tuple[int, int], list] = {}
    try:
        for i, site in enumerate(sites):
            x, y = site_location(site)
            gx, gy = x / cell, y / cell
            if not (abs(gx) < _MAX_CELL_INDEX and abs(gy) < _MAX_CELL_INDEX):
                return None
            row = []
            if site.id not in rows:  # the first site with the id
                rows[site.id] = row
            grid.setdefault((math.floor(gx), math.floor(gy)), []).append([i, site.id, x, y, row])
    except GeometryError:
        return None
    first: dict[int, int] = {}  # position -> position of its first coincident site
    for (gx, gy), members in grid.items():
        ahead = [
            grid.get(key, ())
            for key in ((gx, gy + 1), (gx + 1, gy - 1), (gx + 1, gy), (gx + 1, gy + 1))
        ]
        for k, (i, a, ax, ay, row_a) in enumerate(members):
            for candidates in (members[k + 1:], *ahead):
                for j, b, bx, by, row_b in candidates:
                    d = math.hypot(ax - bx, ay - by)
                    if d <= radius and a != b:
                        row_a.append(b)
                        row_b.append(a)
                        if d == 0.0:  # same cell, swept in dataset order: first stays
                            first.setdefault(i, j)
                            first.setdefault(j, i)
    coincident = {
        sites[i].id: sites[j] for i, j in first.items() if dataset.site(sites[i].id) is sites[i]
    }
    return rows, coincident


def _radius_table(dataset: SpatialDataset, radius: float, cell: float):
    """The buffer table for radius, kept in one slot that a new radius replaces."""
    slot = dataset._prepared.get("grid")
    if slot is None or slot[0] != radius:
        slot = (radius, _buffer_table(dataset, radius, cell))
        dataset._prepared["grid"] = slot
    return slot[1]


def buffer_neighbors(
    dataset: SpatialDataset, center: SiteId, radius: float
) -> set[SiteId]:
    """All other sites within `radius` of the center, edges ignored."""
    center_site = dataset.site(center)
    cell = radius * _CELL_PAD
    table = None
    # tiny, non-finite and non-positive radii get no table (and no cache entry)
    if sys.float_info.min <= radius and math.isfinite(cell):
        table = _radius_table(dataset, radius, cell)
    if table is None:
        return {
            site.id
            for site in dataset.sites
            if site.id != center and site_distance(center_site, site) <= radius
        }
    rows, coincident = table
    if center in coincident:  # raises the error site_distance gives for the pair
        site_distance(center_site, coincident[center])
    return set(rows[center])


def graph_neighbors(dataset: SpatialDataset, center: SiteId) -> set[SiteId]:
    """All sites sharing at least one edge with the center (undirected)."""
    dataset.site(center)
    row = _prepared(dataset, "edges", _edge_table)[0].get(center, ())
    return set(row) - {center}


def _ring_segments(polygon: PolygonSite):
    for ring in (polygon.exterior, *polygon.holes):
        n = len(ring)
        for i in range(n):
            yield ring[i], ring[(i + 1) % n]


def _overlap_length(p1, p2, q1, q2) -> float:
    """Length of the collinear overlap of two segments, else 0."""
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


def polygons_share_boundary(a: PolygonSite, b: PolygonSite) -> bool:
    """True when the two boundaries overlap along a positive length.

    Touching at isolated points (a shared corner) does not qualify.
    """
    for p1, p2 in _ring_segments(a):
        for q1, q2 in _ring_segments(b):
            if _overlap_length(p1, p2, q1, q2) > BOUNDARY_TOLERANCE:
                return True
    return False


def _cells(box, cell: float):
    x0, y0, x1, y1 = box
    return [
        (ix, iy)
        for ix in range(math.floor(x0 / cell), math.floor(x1 / cell) + 1)
        for iy in range(math.floor(y0 / cell), math.floor(y1 / cell) + 1)
    ]


def _box_grid(dataset: SpatialDataset):
    """Padded polygon and segment boxes on a grid, or None to scan every polygon.

    Returns (cell, boxes, segments, grid): boxes[i] and segments[i] belong
    to dataset.sites[i], each segment as (p, q, x0, y0, x1, y1) with its
    padded box, each polygon box spans its segment boxes (None without
    vertices), and grid maps a cell to the positions whose boxes cover it.
    The cell side is at least the mean box extent and the root of the mean
    box area, which bounds the cells all boxes cover to a small multiple of
    the polygon count.  None covers non-finite vertices and boxes too large
    for their areas to be summed.
    """
    values = [
        v
        for site in dataset.sites
        for ring in (site.exterior, *site.holes)
        for point in ring
        for v in point
    ]
    if not all(map(math.isfinite, values)):
        return None
    scale = max(map(abs, values), default=0.0)
    pad = _BOX_PAD + _BOX_PAD_RELATIVE * scale
    segments = [
        [
            (p, q, min(p[0], q[0]) - pad, min(p[1], q[1]) - pad,
             max(p[0], q[0]) + pad, max(p[1], q[1]) + pad)
            for p, q in _ring_segments(site)
        ]
        for site in dataset.sites
    ]
    boxes = [
        (min(s[2] for s in segs), min(s[3] for s in segs),
         max(s[4] for s in segs), max(s[5] for s in segs)) if segs else None
        for segs in segments
    ]
    present = [box for box in boxes if box is not None]
    if not present:
        return None
    try:
        extent = math.fsum(max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in present)
        area = math.fsum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in present)
    except OverflowError:  # box areas that sum past the float range
        return None
    cell = max(extent / len(present), math.sqrt(area / len(present)))
    if not math.isfinite((scale + pad) / cell):
        return None
    grid: dict[tuple[int, int], list[int]] = {}
    for i, box in enumerate(boxes):
        if box is not None:
            for key in _cells(box, cell):
                grid.setdefault(key, []).append(i)
    return cell, boxes, segments, grid


def _segments_share_boundary(center_segments, candidate_segments) -> bool:
    """polygons_share_boundary on segment lists, skipping pairs whose boxes miss."""
    for p1, p2, ax0, ay0, ax1, ay1 in center_segments:
        for q1, q2, bx0, by0, bx1, by1 in candidate_segments:
            if (
                bx0 <= ax1 and ax0 <= bx1 and by0 <= ay1 and ay0 <= by1
                and _overlap_length(p1, p2, q1, q2) > BOUNDARY_TOLERANCE
            ):
                return True
    return False


def _rook(dataset: SpatialDataset) -> dict[SiteId, frozenset[SiteId]]:
    """Polygons sharing a boundary line with each polygon.

    The predicate runs as (center, candidate) on box candidates only, and
    _overlap_length only on segment pairs whose padded boxes meet.  Two
    segments that overlap along more than BOUNDARY_TOLERANCE have points
    within that tolerance of each other, so their padded boxes, like the
    padded boxes of their polygons, always meet.
    """
    sites = dataset.sites
    rook: dict[SiteId, frozenset[SiteId]] = {}
    prepared = _box_grid(dataset)
    if prepared is None:
        for center in dataset.site_ids():
            center_site = dataset.site(center)
            rook[center] = frozenset(
                site.id
                for site in sites
                if site.id != center and polygons_share_boundary(center_site, site)
            )
        return rook
    cell, boxes, segments, grid = prepared
    for i, center_site in enumerate(sites):
        center = center_site.id
        if center in rook:  # dataset.site(center) is the first site with the id
            continue
        box = boxes[i]
        if box is None:
            rook[center] = frozenset()
            continue
        x0, y0, x1, y1 = box
        found = set()
        for j in {j for key in _cells(box, cell) for j in grid.get(key, ())}:
            bx0, by0, bx1, by1 = boxes[j]
            if (
                bx0 <= x1 and x0 <= bx1 and by0 <= y1 and y0 <= by1
                and sites[j].id != center
                and _segments_share_boundary(segments[i], segments[j])
            ):
                found.add(sites[j].id)
        rook[center] = frozenset(found)
    return rook


def polygon_adjacent_neighbors(dataset: SpatialDataset, center: SiteId) -> set[SiteId]:
    """All polygons sharing a boundary line with the center polygon."""
    dataset.site(center)
    return set(_prepared(dataset, "rook", _rook)[center])


def _id_rank(dataset: SpatialDataset) -> dict[SiteId, int]:
    """Position of each site id in site_id_key order.

    site_id_key gives distinct str and int ids distinct keys, so sorting ids
    by rank gives exactly the site_id_key order.
    """
    ordered = sorted(dataset.site_ids(), key=site_id_key)
    return {sid: i for i, sid in enumerate(ordered)}


def _sorted_ids(dataset: SpatialDataset, ids) -> list[SiteId]:
    """Site ids in site_id_key order; raises SiteLookupError on a non-site."""
    rank = _prepared(dataset, "rank", _id_rank)
    try:
        return sorted(ids, key=rank.__getitem__)
    except KeyError as exc:
        raise SiteLookupError(f"unknown site id {exc.args[0]!r}") from None


def _edge_table(dataset: SpatialDataset):
    """Connection counts, cheapest costs and components from one pass over the edges.

    Returns (counts, number, adjacency, component): counts[a][b] ==
    counts[b][a] counts the edges joining a and b, a self-loop once per edge;
    number maps each endpoint of an edge that is not a self-loop, named site
    or not, to a node in first-seen order; adjacency[node] lists (node, cost
    of the cheapest parallel edge); and component[node] is a disjoint-set
    root, shared by exactly the nodes a path joins.
    """
    counts: dict[SiteId, dict[SiteId, int]] = {}
    cheapest: dict[SiteId, dict[SiteId, float]] = {}
    for a, b, _, cost in dataset.edges:
        row = counts.setdefault(a, {})
        row[b] = row.get(b, 0) + 1
        if a != b:
            row = counts.setdefault(b, {})
            row[a] = row.get(a, 0) + 1
            row = cheapest.setdefault(a, {})
            if b not in row or cost < row[b]:
                row[b] = cheapest.setdefault(b, {})[a] = cost
    number = {sid: node for node, sid in enumerate(cheapest)}
    adjacency = [[(number[b], cost) for b, cost in row.items()] for row in cheapest.values()]
    parent = list(range(len(adjacency)))

    def root(node: int) -> int:
        while parent[node] != node:
            parent[node] = node = parent[parent[node]]
        return node

    for a, row in enumerate(adjacency):
        for b, _ in row:
            parent[root(a)] = root(b)
    return counts, number, adjacency, [root(node) for node in range(len(parent))]


def direct_connection_count(dataset: SpatialDataset, a: SiteId, b: SiteId) -> int:
    """Number of parallel edges joining a and b, either orientation."""
    dataset.site(a)
    dataset.site(b)
    return _prepared(dataset, "edges", _edge_table)[0].get(a, {}).get(b, 0)


def _costs_from(
    dataset: SpatialDataset, source: SiteId, targets, cost_limit: float | None
) -> dict[SiteId, float]:
    """Cheapest traversal cost from source to each target within the limit.

    Dijkstra over the edge table's cheapest-edge adjacency, which looks
    only for the targets in the source's component, never pushes a sum past
    cost_limit, skips a popped entry above its node's best known cost as
    stale, and stops when no such target is left unsettled or the frontier
    is empty; either way every target reached has settled.  Edge costs are
    non-negative, so every settled cost is final and equals the cost an
    unbounded search would give; ties between equal costs pop in node order,
    which changes no settled cost.  Only targets are returned, by their ids.
    """
    _, number, adjacency, component = _prepared(dataset, "edges", _edge_table)
    if cost_limit is not None and 0.0 > cost_limit:
        return {}
    if source not in number:  # on no edge: only the source is in reach
        return {source: 0.0} if source in targets else {}
    limit = math.inf if cost_limit is None else cost_limit
    start, label = number[source], component[number[source]]
    wanted = {number[t]: t for t in targets if t in number and component[number[t]] == label}
    remaining = len(wanted)
    dist = {start: 0.0}
    known = dist.get
    frontier = [(0.0, start)]
    while frontier and remaining:
        d, node = heappop(frontier)
        if d > dist[node]:
            continue
        if node in wanted:
            remaining -= 1
        for nbr, cost in adjacency[node]:
            nd = d + cost
            if nd > limit:
                continue
            best = known(nbr)
            if best is None or nd < best:
                dist[nbr] = nd
                heappush(frontier, (nd, nbr))
    return {sid: dist[node] for node, sid in wanted.items() if node in dist}


def min_cost(
    dataset: SpatialDataset,
    a: SiteId,
    b: SiteId,
    cost_limit: float | None = None,
) -> float | None:
    """Cheapest total edge cost between a and b.

    Returns None when no path exists or the cheapest one exceeds the limit.
    """
    dataset.site(a)
    dataset.site(b)
    return _costs_from(dataset, a, (b,), cost_limit).get(b)


def _locations(dataset: SpatialDataset) -> dict[SiteId, tuple[float, float]]:
    """The location of each site id's first site, if it has one."""
    out = {}
    for sid, site in dataset._index.items():
        try:
            out[sid] = site_location(site)
        except GeometryError:
            pass
    return out


def collect_factors(
    dataset: SpatialDataset,
    center: SiteId,
    neighbors: Iterable[SiteId],
    params: WeightParams,
) -> list[NeighborFactors]:
    """Assemble distance, connection count, and min cost per neighbor.

    neighbors may be any iterable of distinct site ids.  Output is ordered
    by neighbor id so downstream weighting and reporting are deterministic.
    Each factor is one column pass over that order.
    """
    center_site = dataset.site(center)
    ordered = _sorted_ids(dataset, neighbors)  # also checks every id
    if not ordered:  # nothing to measure: not even the center's location
        return []
    here = site_location(center_site)
    locations = _prepared(dataset, "locations", _locations)
    # site_distance's hypot(cx - x, cy - y) in bits; no location reads as the center's
    distances = list(map(math.dist, repeat(here), map(locations.get, ordered, repeat(here))))
    if not all(map((0.0).__lt__, distances)):  # 0.0 or nan: raise where site_distance does
        for neighbor in ordered:
            site_distance(center_site, dataset._index[neighbor])
    costs = _costs_from(dataset, center, ordered, params.cost_limit)
    counts = _prepared(dataset, "edges", _edge_table)[0].get(center, {})
    # tuple.__new__ is what NeighborFactors._make calls, without a frame per record
    return list(map(tuple.__new__, repeat(NeighborFactors), zip(
        repeat(center), ordered, distances, map(counts.get, ordered, repeat(0)),
        map(costs.get, ordered),
    )))
