"""Neighbor discovery and per-pair spatial factors.

Three regimes define who neighbors whom: a distance buffer around each site,
direct graph connections, and shared polygon boundaries.  For each
center/neighbor pair the module also measures the three weighting factors:
separation distance, number of parallel direct connections, and cheapest
traversal cost (None when unreachable or over the cost limit).

Every lookup goes through a prepared index kept on the dataset.  Each of its
structures is built the first time a regime needs it: a buffer table of each
site id's neighbor row for the last buffer radius, the location of every
site id, an edge table from one pass over the edges (count rows per
endpoint, counts[a][b] == counts[b][a], which also give graph neighbors,
and the cheapest-edge adjacency over nodes in first-seen order with a
component label per node), and polygon rook adjacency, each over the one
site per id, its first, that the dataset's id index holds.  The buffer table
comes from one sweep over a uniform grid of the prepared locations (one cell
where the grid cannot index them) that measures each nearby pair once; a
query reads the center's row, and walks the sites only for a suspect: an id
on another id's spot, or any id if one has no location.
Rook adjacency reads one table of segment records (endpoints, length, unit
direction, padded box) in one loop over the candidates of each polygon, and
one overlap kernel measures only segment pairs whose boxes meet.  A grid over
padded polygon boxes yields the candidates; where it cannot index a dataset,
every polygon falls in its one cell, and only a non-finite vertex leaves the
boxes unpadded and unbounded.

A factor view, bound once to the index, measures each factor in one column
pass over the neighbor ids, sorted once in key order, so a caller measures
only the factors it reads; the first id in that order naming no site raises
through SpatialDataset.site.  The cost search returns its column in target
order and looks only in the center's component, so an unreachable one never
floods it.

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
    _key_sorted,
    polygon_area,
    site_distance,
    site_location,
)
from .errors import GeometryError

# minimum shared-boundary length for polygon adjacency
BOUNDARY_TOLERANCE = 1e-9

# Buffer grid cells are this much wider than the radius, so that rounding in
# x / cell never puts two sites within the radius two cells apart while every
# |coordinate| / cell stays below _MAX_CELL_INDEX; else all share one cell.
_CELL_PAD = 1.0 + 2.0 ** -20
_MAX_CELL_INDEX = 2.0 ** 31

# Polygon bounding boxes are padded far past BOUNDARY_TOLERANCE, plus a share
# of the largest coordinate that dwarfs the rounding in the overlap kernel, so
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


def _prepared(dataset: SpatialDataset, key, build):
    """Structure ``key`` of the dataset's prepared index, built on first use.

    Structures hold sites and ids but never the dataset itself, so a dataset
    is still freed by reference counting.  Each is a pure function of the
    dataset, so threads racing to build one store equal values.
    """
    cache = dataset._prepared
    if key not in cache:
        cache[key] = build(dataset)
    return cache[key]


def _locations(dataset: SpatialDataset) -> dict[SiteId, tuple[float, float]]:
    """The location of each site id's first site, if it has one."""
    out = {}
    for sid, site in dataset._index.items():
        try:
            out[sid] = site_location(site)
        except GeometryError:
            pass
    return out


def _buffer_table(dataset: SpatialDataset, radius: float):
    """(rows, suspects): buffer neighbors of every site id, and the ids to check.

    rows[id] lists the ids within radius (>= 0) of the site the id names,
    located by the prepared locations; suspects holds each id on the spot
    of another, or every id if one has no location.  Each grid cell pools
    its members and then its four forward cells' members, and each member
    measures the pool past itself, so each candidate pair is measured once.
    math.dist of two locations is site_distance's hypot of their
    differences, bit for bit.
    Where the grid cannot index the sites (a radius not a positive normal
    float, a non-finite location, cells too small) they share one cell: even
    one query then costs O(n²), not a scan's O(n), but callers query every center.
    """
    rows: dict[SiteId, list[SiteId]] = {sid: [] for sid in dataset._index}
    # entries are lists, not tuples: CPython keeps freed small tuples for
    # reuse by tuples of the same size, so a tuple per site would go on
    # holding its memory once the table is built
    locations = _prepared(dataset, "locations", _locations)
    located = [[sid, loc, rows[sid]] for sid, loc in locations.items()]
    cell = radius * _CELL_PAD if sys.float_info.min <= radius else math.nan
    grid: dict[tuple[int, int], list] = {}
    for entry in located:
        x, y = entry[1]
        gx, gy = x / cell, y / cell
        if not (abs(gx) < _MAX_CELL_INDEX and abs(gy) < _MAX_CELL_INDEX):
            grid = {(0, 0): located}
            break
        grid.setdefault((math.floor(gx), math.floor(gy)), []).append(entry)
    suspects = set(rows) if len(located) < len(rows) else set()
    for (gx, gy), members in grid.items():
        pool = members.copy()
        for key in ((gx, gy + 1), (gx + 1, gy - 1), (gx + 1, gy), (gx + 1, gy + 1)):
            pool += grid.get(key, ())
        for k, (a, pa, row_a) in enumerate(members, 1):
            for b, pb, row_b in pool[k:]:
                d = math.dist(pa, pb)
                if d <= radius and a != b:
                    row_a.append(b)
                    row_b.append(a)
                    if d == 0.0:
                        suspects.update((a, b))
    return rows, suspects


def _radius_table(dataset: SpatialDataset, radius: float):
    """The buffer table for radius, kept in one slot that a new radius replaces."""
    radius = max(0.0, radius)  # nan and radii below 0 find only distance-0 pairs, as 0 does
    slot = dataset._prepared.get("grid")
    if slot is None or slot[0] != radius:
        slot = dataset._prepared["grid"] = (radius, _buffer_table(dataset, radius))
    return slot[1]


def buffer_neighbors(
    dataset: SpatialDataset, center: SiteId, radius: float
) -> set[SiteId]:
    """All other sites within `radius` of the center, edges ignored."""
    center_site = dataset.site(center)
    rows, suspects = _radius_table(dataset, radius)
    if center in suspects:  # raises where a scan of the sites would
        for site in dataset._index.values():
            if site.id != center:
                site_distance(center_site, site)
    return set(rows[center])


def graph_neighbors(dataset: SpatialDataset, center: SiteId) -> set[SiteId]:
    """All sites sharing at least one edge with the center (undirected)."""
    dataset.site(center)
    row = _prepared(dataset, "edges", _edge_table)[0].get(center, ())
    return set(row) - {center}


def _segment_records(polygon: PolygonSite, pad: float | None) -> list[tuple]:
    """(px, py, qx, qy, length, ux, uy, x0, y0, x1, y1) per ring segment, in ring order.

    length is hypot of the vector (qx - px, qy - py), (ux, uy) that vector
    over length (left as it is when length <= BOUNDARY_TOLERANCE), and the
    box is the segment's, padded by pad, or unbounded when pad is None.
    """
    records = []
    for ring in (polygon.exterior, *polygon.holes):
        for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
            ux, uy = qx - px, qy - py
            length = math.hypot(ux, uy)
            if not length <= BOUNDARY_TOLERANCE:  # a nan length too: the kernel measures it
                ux, uy = ux / length, uy / length
            if pad is None:
                records.append((px, py, qx, qy, length, ux, uy, -math.inf, -math.inf,
                                math.inf, math.inf))
            else:  # each conditional is min or max of two, at under half the cost
                records.append((px, py, qx, qy, length, ux, uy,
                                (qx if qx < px else px) - pad, (qy if qy < py else py) - pad,
                                (qx if qx > px else px) + pad, (qy if qy > py else py) + pad))
    return records


def _segments_share_boundary(center_records, candidate_records) -> bool:
    """True when a center and a candidate segment whose boxes meet overlap.

    The candidate's ends must lie within BOUNDARY_TOLERANCE of the center
    segment's line, and their projections on it, clipped to [0, length],
    must span more than that.  Each conditional picks what min or max of
    the same two values would, nan included.
    """
    tol = BOUNDARY_TOLERANCE
    for px, py, _, _, length, ux, uy, ax0, ay0, ax1, ay1 in center_records:
        if length <= tol:
            continue
        for b in candidate_records:
            if b[7] <= ax1 and ax0 <= b[9] and b[8] <= ay1 and ay0 <= b[10]:
                dqx, dqy, drx, dry = b[0] - px, b[1] - py, b[2] - px, b[3] - py
                if abs(dqx * uy - dqy * ux) > tol or abs(drx * uy - dry * ux) > tol:
                    continue
                t1 = dqx * ux + dqy * uy
                t2 = drx * ux + dry * uy
                hi = t2 if t2 > t1 else t1  # max(t1, t2)
                lo = t2 if t2 < t1 else t1  # min(t1, t2)
                if (hi if hi < length else length) - (lo if lo > 0.0 else 0.0) > tol:
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
    """Segment records, polygon boxes and box candidates of every polygon.

    Returns (boxes, segments, candidates) by position among the sites the
    ids name, in first-seen order: segments are each polygon's
    _segment_records, built once, the polygon box spans its segment boxes
    (None without vertices), and candidates holds the positions whose boxes
    share a grid cell with its box.  The cell side is at least the mean box
    extent and the root of the mean box area, which bounds the cells all
    boxes cover to a small multiple of the polygon count.  Records are padded
    when every vertex is finite and unbounded otherwise.  When the grid
    cannot index the dataset (a non-finite vertex, box areas that sum past
    the float range, or cells too small for the coordinates), every polygon
    with vertices falls in one cell, so each is a candidate of every other.
    """
    sites = dataset._index.values()
    values = [v for site in sites for ring in (site.exterior, *site.holes)
              for point in ring for v in point]
    pad = None
    if all(map(math.isfinite, values)):
        scale = max(map(abs, values), default=0.0)
        pad = _BOX_PAD + _BOX_PAD_RELATIVE * scale
    segments = [_segment_records(site, pad) for site in sites]
    boxes = [  # columns 7 to 10 of the records are the segment boxes
        (min(c[7]), min(c[8]), max(c[9]), max(c[10])) if c else None
        for c in (tuple(zip(*records)) for records in segments)
    ]
    present = [box for box in boxes if box is not None]
    try:
        extent = math.fsum(max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in present)
        area = math.fsum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in present)
        cell = max(extent / len(present), math.sqrt(area / len(present)))
    except (OverflowError, ZeroDivisionError):  # areas summing past the float range; no box
        cell = math.nan
    indexed = pad is not None and math.isfinite((scale + pad) / cell)
    cells = [() if box is None else _cells(box, cell) if indexed else [(0, 0)] for box in boxes]
    grid: dict[tuple[int, int], list[int]] = {}
    for i, keys in enumerate(cells):
        for key in keys:
            grid.setdefault(key, []).append(i)
    # a box in one cell shares that cell's list, as every box does in the one cell
    return boxes, segments, [grid[keys[0]] if len(keys) == 1 else
                             {j for key in keys for j in grid[key]} for keys in cells]


def _rook(dataset: SpatialDataset) -> dict[SiteId, frozenset[SiteId]]:
    """Polygons sharing a boundary line with each polygon.

    The kernel runs as (center, candidate) on the candidates _box_grid gives
    whose boxes meet the center's, and measures only segment pairs whose
    boxes meet.  Two segments that overlap along more than
    BOUNDARY_TOLERANCE have points within that tolerance of each other, so
    their padded boxes, like the padded boxes of their polygons, always meet.
    """
    ids = list(dataset._index)
    boxes, segments, candidates = _box_grid(dataset)
    rook: dict[SiteId, frozenset[SiteId]] = {}
    for i, center in enumerate(ids):
        box = boxes[i]
        if box is None:
            rook[center] = frozenset()
            continue
        x0, y0, x1, y1 = box
        found = set()
        for j in candidates[i]:
            bx0, by0, bx1, by1 = boxes[j]
            if (
                bx0 <= x1 and x0 <= bx1 and by0 <= y1 and y0 <= by1
                and j != i
                and _segments_share_boundary(segments[i], segments[j])
            ):
                found.add(ids[j])
        rook[center] = frozenset(found)
    return rook


def polygon_adjacent_neighbors(dataset: SpatialDataset, center: SiteId) -> set[SiteId]:
    """All polygons sharing a boundary line with the center polygon."""
    dataset.site(center)
    return set(_prepared(dataset, "rook", _rook)[center])


def _edge_table(dataset: SpatialDataset):
    """Connection counts, cheapest costs and components from one pass over the edges.

    Returns (counts, number, adjacency, component): counts[a][b] ==
    counts[b][a] counts the edges joining a and b, a self-loop once per edge;
    number maps each endpoint of an edge that is not a self-loop, named site
    or not, to a node in first-seen order; adjacency[node] lists (node, cost
    of the cheapest parallel edge); and component[node] is the first node of
    the nodes a path joins it to, labelled by one stack traversal.
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
    component = [-1] * len(adjacency)
    for first in range(len(adjacency)):
        stack = [first]
        while stack:
            node = stack.pop()
            if component[node] < 0:
                component[node] = first
                stack += [nbr for nbr, _ in adjacency[node] if component[nbr] < 0]
    return counts, number, adjacency, component


def direct_connection_count(dataset: SpatialDataset, a: SiteId, b: SiteId) -> int:
    """Number of parallel edges joining a and b, either orientation."""
    dataset.site(a)
    dataset.site(b)
    return _prepared(dataset, "edges", _edge_table)[0].get(a, {}).get(b, 0)


def _costs_from(table, source: SiteId, targets, cost_limit: float | None) -> list:
    """Cheapest traversal cost from source to each target, in target order:
    None for one unreachable or over cost_limit.  table is _edge_table's.

    Dijkstra over the cheapest-edge adjacency looks only for the targets in
    the source's component, never pushes a sum past cost_limit, skips a
    popped entry above its node's best cost as stale, and stops once no such
    target is unsettled or the frontier is empty.  Costs are non-negative, so
    each settled cost is final and equals an unbounded search's; ties pop in
    node order, which changes no settled cost.
    """
    _, number, adjacency, component = table
    if cost_limit is not None and 0.0 > cost_limit:
        return [None] * len(targets)
    start = number.get(source)
    if start is None:  # on no edge: only the source is in reach
        return [0.0 if t == source else None for t in targets]
    limit = math.inf if cost_limit is None else cost_limit
    label = component[start]
    nodes = list(map(number.get, targets))
    wanted = {node for node in nodes if node is not None and component[node] == label}
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
    return list(map(known, nodes))  # dist holds no None key


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
    return _costs_from(_prepared(dataset, "edges", _edge_table), a, (b,), cost_limit)[0]


def _factor_view(dataset: SpatialDataset, cost_limit: float | None, regime: str):
    """columns(center, ids) -> (ordered, distances, second, costs), bound once to
    the prepared locations and, for graph and combined, edge table.

    ordered is ids in site_id_key order; each factor is one pass over it.
    The first id in that order that names no site, has no location or sits
    on the center raises, through SpatialDataset.site or site_distance.
    second is connection counts for graph and combined, polygon_area per
    neighbor for polygon (raising where it does), else None; combined alone
    measures costs (one search), else None.
    """
    locate = _prepared(dataset, "locations", _locations).get
    table = _prepared(dataset, "edges", _edge_table) if regime in ("graph", "combined") else None

    def columns(center: SiteId, ids):
        ordered = _key_sorted(ids)
        here = locate(center) or (math.nan, math.nan)  # none: every distance is nan
        # site_distance's hypot(cx - x, cy - y) in bits; an id with no location,
        # a site or not, reads as the center's spot
        distances = list(map(math.dist, repeat(here), map(locate, ordered, repeat(here))))
        if not all(map((0.0).__lt__, distances)):  # 0.0 or nan
            for neighbor in ordered:
                site_distance(dataset.site(center), dataset.site(neighbor))
        if regime == "polygon":
            return ordered, distances, [polygon_area(dataset._index[n]) for n in ordered], None
        if table is None:
            return ordered, distances, None, None
        counts = list(map(table[0].get(center, {}).get, ordered, repeat(0)))
        costs = _costs_from(table, center, ordered, cost_limit) if regime == "combined" else None
        return ordered, distances, counts, costs

    return columns


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
    dataset.site(center)
    ids = list(neighbors)
    if not ids:  # nothing to measure: not even the center's location
        return []
    columns = _factor_view(dataset, params.cost_limit, "combined")(center, ids)
    # tuple.__new__ is what NeighborFactors._make calls, without a frame per record
    return list(map(tuple.__new__, repeat(NeighborFactors), zip(repeat(center), *columns)))
