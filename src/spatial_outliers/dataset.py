"""Core domain types, planar geometry primitives, and dataset validation.

A dataset is a homogeneous collection of point or polygon sites, an optional
edge list (points only), and a declared set of numeric attributes.  All types
are immutable after construction; invariant violations are reported as data
by :func:`validate_dataset`, not raised during construction.

Each polygon's geometry is one record, built on first use in one pass over
each ring and remembered on the polygon: its ring areas, then its area and
centroid or the reason it has none.  One rule, _zero_area, decides when a
ring (or the exterior net of its holes) has no area; the polygon loader,
validation and the geometry functions all read the record and that rule.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DegenerateDistanceError, GeometryError, SiteLookupError

SiteId = str | int

# rings with |shoelace area| below this are treated as degenerate
MIN_RING_AREA = 1e-12


def site_id_key(site_id: SiteId):
    """Deterministic sort key over possibly mixed int/str ids."""
    if isinstance(site_id, int):
        return (0, site_id, "")
    return (1, 0, str(site_id))


def _normalize_ring(vertices) -> tuple[tuple[float, float], ...]:
    """Coerce to float pairs and drop an explicit closing vertex."""
    ring = tuple([(float(x), float(y)) for x, y in vertices])
    if len(ring) > 1 and ring[0] == ring[-1]:
        ring = ring[:-1]
    return ring


@dataclass(frozen=True)
class PointSite:
    """A located observation: planar coordinates plus numeric attributes."""

    id: SiteId
    x: float
    y: float
    attributes: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PolygonSite:
    """A polygonal zone: exterior ring, optional holes, numeric attributes.

    Rings are stored implicitly closed (no repeated first vertex); closed
    input rings are normalized on construction.
    """

    id: SiteId
    exterior: tuple[tuple[float, float], ...]
    holes: tuple[tuple[tuple[float, float], ...], ...] = ()
    attributes: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "exterior", _normalize_ring(self.exterior))
        object.__setattr__(
            self, "holes", tuple(_normalize_ring(r) for r in self.holes)
        )


class Edge(NamedTuple):
    """One direct connection between two sites.

    Edges are undirected for every traversal in this library; repeated
    records between the same pair are distinct parallel connections.
    """

    source: SiteId
    target: SiteId
    length: float
    cost: float


Site = PointSite | PolygonSite


@dataclass(frozen=True)
class SpatialDataset:
    """Immutable site collection with optional edges and declared attributes.

    ``attribute_names`` defaults to the first site's attribute keys.  The
    dataset kind ("point" or "polygon") follows the first site.
    """

    sites: tuple[Site, ...]
    edges: tuple[Edge, ...] = ()
    attribute_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.attribute_names is None:
            names = tuple(self.sites[0].attributes) if self.sites else ()
            object.__setattr__(self, "attribute_names", names)
        else:
            object.__setattr__(self, "attribute_names", tuple(self.attribute_names))
        index = {}
        for site in self.sites:
            index.setdefault(site.id, site)
        object.__setattr__(self, "_index", index)
        # lookup structures the neighborhood module builds on first use
        object.__setattr__(self, "_prepared", {})

    @property
    def kind(self) -> str:
        if self.sites and isinstance(self.sites[0], PolygonSite):
            return "polygon"
        return "point"

    def site(self, site_id: SiteId) -> Site:
        try:
            return self._index[site_id]
        except KeyError:
            raise SiteLookupError(f"unknown site id {site_id!r}") from None

    def __contains__(self, site_id: SiteId) -> bool:
        return site_id in self._index

    def site_ids(self) -> tuple[SiteId, ...]:
        return tuple(site.id for site in self.sites)

    def values(self, attribute: str) -> dict[SiteId, float]:
        """Attribute value per site id; raises on missing values."""
        out = {}
        for site in self.sites:
            try:
                out[site.id] = float(site.attributes[attribute])
            except KeyError:
                raise SiteLookupError(
                    f"site {site.id!r} has no attribute {attribute!r}"
                ) from None
        return out


@dataclass(frozen=True)
class WeightParams:
    """Coefficients and limits steering neighborhood weighting.

    alpha, beta, delta blend the distance, connection-count, and traversal
    cost shares and must sum to 1.  gamma mixes distance against area for
    polygon weighting.  radius bounds the distance buffer, cost_limit caps
    usable traversal cost (None = unbounded), theta is the |z| flag
    threshold (2 for a 95% confidence level).
    """

    alpha: float = 1.0
    beta: float = 0.0
    delta: float = 0.0
    gamma: float = 0.5
    radius: float | None = None
    cost_limit: float | None = None
    theta: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if abs(self.alpha + self.beta + self.delta - 1.0) > 1e-9:
            raise ValueError(
                "alpha + beta + delta must equal 1, got "
                f"{self.alpha + self.beta + self.delta}"
            )
        if self.radius is not None and not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.cost_limit is not None and not self.cost_limit > 0:
            raise ValueError(f"cost_limit must be positive, got {self.cost_limit}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")


def _zero_area(area: float) -> bool:
    """The ring rule: an area below MIN_RING_AREA counts as none.

    It applies to each ring and to the exterior net of its holes.  A nan
    area, from a non-finite vertex, is not below it.
    """
    return area < MIN_RING_AREA


def _ring_sums(ring) -> tuple[float, float, float]:
    """Twice an implicitly closed ring's signed area, a2, and its centroid sums.

    The ring's centroid is its first vertex plus each sum over 3 * a2.  Sums
    run over offsets from the first vertex, so their rounding scales with
    the ring's extent, not with its distance from the origin.
    """
    ox, oy = ring[0]
    a2 = cx = cy = 0.0
    for (x1, y1), (x2, y2) in zip(ring, (*ring[1:], ring[0])):
        x1, y1, x2, y2 = x1 - ox, y1 - oy, x2 - ox, y2 - oy
        det = x1 * y2 - x2 * y1
        a2 += det
        cx += (x1 + x2) * det
        cy += (y1 + y2) * det
    return a2, cx, cy


def _geometry(polygon: PolygonSite):
    """The polygon's geometry record: (ring areas, area, centroid, reason).

    Ring areas are |shoelace area| of the exterior, then of each hole (0.0
    below 3 vertices).  reason is None, or says why the polygon has no area
    or centroid: the first ring with under 3 vertices or zero area, holes
    that leave none, or a non-finite vertex or overflow.  The record lives
    in the instance dict, outside the dataclass fields, so equality, hashing
    and repr do not see it; fields are frozen, so it never goes stale, and
    threads racing to fill it store equal records.
    """
    record = polygon.__dict__.get("_geometry")
    if record is not None:
        return record
    ring_areas = []
    reason = centroid = None
    area = num_x = num_y = 0.0
    rings = (polygon.exterior, *polygon.holes)
    for i, ring in enumerate(rings):
        if len(ring) < 3:
            ring_areas.append(0.0)
            reason = reason or "ring needs at least 3 distinct vertices"
            continue
        a2, sx, sy = _ring_sums(ring)
        ring_area = abs(0.5 * a2)
        ring_areas.append(ring_area)
        if _zero_area(ring_area):
            reason = reason or "degenerate ring (zero area)"
        elif reason is None:
            ox, oy = ring[0]
            x, y = ox + sx / (3.0 * a2), oy + sy / (3.0 * a2)
            if i == 0:
                area, num_x, num_y = ring_area, x * ring_area, y * ring_area
            else:  # holes take their area and moment away
                area -= ring_area
                num_x -= x * ring_area
                num_y -= y * ring_area
    # a net area of -inf is a hole past the float range, not a zero area
    if reason is None and math.isfinite(area) and _zero_area(area):
        reason = "holes consume the exterior"
    if reason is None:
        centroid = (num_x / area, num_y / area)
        if not all(map(math.isfinite, (area, *centroid))):
            finite = all(math.isfinite(v) for ring in rings for point in ring for v in point)
            reason = "area or centroid overflows the float range" if finite else "non-finite vertex"
    record = polygon.__dict__["_geometry"] = (tuple(ring_areas), area, centroid, reason)
    return record


def polygon_area(polygon: PolygonSite) -> float:
    """Planar area of the exterior ring minus any hole areas."""
    _, area, _, reason = _geometry(polygon)
    if reason is not None:
        raise GeometryError(f"polygon {polygon.id!r}: {reason}")
    return area


def polygon_centroid(polygon: PolygonSite) -> tuple[float, float]:
    """Area-weighted centroid with holes subtracted.

    The arithmetic mean of the vertices is deliberately not used: it drifts
    toward densely sampled stretches of the boundary.
    """
    _, _, centroid, reason = _geometry(polygon)
    if reason is not None:
        raise GeometryError(f"polygon {polygon.id!r}: {reason}")
    return centroid


def site_location(site: Site) -> tuple[float, float]:
    """Representative planar location: the point itself, or the centroid."""
    if isinstance(site, PolygonSite):
        return polygon_centroid(site)
    return site.x, site.y


def site_distance(a: Site, b: Site) -> float:
    """Euclidean distance between site locations; never zero."""
    ax, ay = site_location(a)
    bx, by = site_location(b)
    d = math.hypot(ax - bx, ay - by)
    if d == 0.0:
        raise DegenerateDistanceError(
            f"sites {a.id!r} and {b.id!r} coincide; inverse distance undefined"
        )
    return d


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Strict interior crossing; shared endpoints and touches do not count."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0)


def _ring_self_intersects(ring) -> bool:
    n = len(ring)
    segments = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent through closure
            if _segments_cross(*segments[i], *segments[j]):
                return True
    return False


def _ring_problems(polygon: PolygonSite) -> list[str]:
    """The first problem of each ring, in ring order."""
    problems = []
    rings = (polygon.exterior, *polygon.holes)
    for i, (ring, area) in enumerate(zip(rings, _geometry(polygon)[0])):
        label = f"hole {i - 1}" if i else "exterior"
        if len(ring) < 3:
            problem = f"{label} ring has fewer than 3 distinct vertices"
        elif any(not (math.isfinite(x) and math.isfinite(y)) for x, y in ring):
            problem = f"{label} ring has non-finite vertex"
        elif _zero_area(area):
            problem = f"degenerate {label} ring (zero area)"
        elif _ring_self_intersects(ring):
            problem = f"self-intersecting {label} ring"
        else:
            continue
        problems.append(f"site {polygon.id!r}: {problem}")
    return problems


def validate_dataset(dataset: SpatialDataset) -> list[str]:
    """Collect every invariant violation; an empty list means valid.

    A clean report guarantees the preconditions of every downstream
    operation: no dangling or degenerate edges, no coincident locations,
    complete attribute coverage, well-formed rings.
    """
    violations = []
    sites = dataset.sites
    inf = math.inf  # -inf < v < inf is math.isfinite(v) without a call

    if len(set(map(type, sites))) > 1:
        violations.append("dataset mixes point and polygon sites")

    if len(dataset._index) != len(sites):
        seen: set[SiteId] = set()
        for site in sites:
            if site.id in seen:
                violations.append(f"duplicate site id {site.id!r}")
            seen.add(site.id)

    locations: list[tuple[SiteId, tuple[float, float]]] = []
    for site in sites:
        if isinstance(site, PolygonSite):
            ring_problems = _ring_problems(site)
            violations += ring_problems
            if not ring_problems:
                try:
                    locations.append((site.id, polygon_centroid(site)))
                except GeometryError as exc:
                    violations.append(f"site {site.id!r}: {exc}")
        elif -inf < site.x < inf and -inf < site.y < inf:
            locations.append((site.id, (site.x, site.y)))
        else:
            violations.append(f"site {site.id!r}: non-finite coordinates")

    if len({loc for _, loc in locations}) < len(locations):
        positions: dict[tuple[float, float], list[int]] = {}
        for i, (_, loc) in enumerate(locations):
            positions.setdefault(loc, []).append(i)
        what = "coincident centroids" if dataset.kind == "polygon" else "coincident sites"
        for i, (id_i, loc_i) in enumerate(locations):
            for j in positions[loc_i]:
                if j > i:
                    violations.append(f"sites {id_i!r} and {locations[j][0]!r}: {what} at {loc_i}")

    names = dataset.attribute_names
    for site in sites:
        attributes = site.attributes
        for name in names:
            value = attributes.get(name)
            if value is None:
                violations.append(f"site {site.id!r}: missing attribute {name!r}")
            elif not -inf < value < inf:
                violations.append(f"site {site.id!r}: non-finite attribute {name!r}")

    if dataset.edges and dataset.kind == "polygon":
        violations.append("edges are only valid for point datasets")
    index = dataset._index
    for i, (source, target, length, cost) in enumerate(dataset.edges):
        if (source in index and target in index and source != target
                and 0.0 < length < inf and 0.0 <= cost < inf):
            continue
        ref = f"edge {i} ({source!r}->{target!r})"
        for endpoint in (source, target):
            if endpoint not in index:
                violations.append(f"{ref}: dangling endpoint {endpoint!r}")
        if source == target:
            violations.append(f"{ref}: self-loop")
        if not 0.0 < length < inf:
            violations.append(f"{ref}: length must be positive and finite, got {length}")
        if not 0.0 <= cost < inf:
            violations.append(f"{ref}: cost must be non-negative and finite, got {cost}")

    return violations
