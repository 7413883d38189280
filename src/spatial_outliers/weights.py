"""Weight-of-effect vectors over a site's neighbors.

Every operation returns a normalized weighting: weights are positive, sum to
one, and fall as influence falls (longer distance, fewer connections, higher
traversal cost, smaller area).  Neighbors whose every usable factor is zero
are dropped from the result.
"""

import math
from dataclasses import dataclass

from .dataset import PolygonSite, SiteId, WeightParams, polygon_area, site_distance
from .errors import DegenerateFactorsError, NoNeighborsError
from .neighborhood import NeighborFactors


@dataclass(frozen=True)
class WeightedNeighborhood:
    """Ordered (neighbor, weight) pairs for one center site."""

    center: SiteId
    entries: tuple[tuple[SiteId, float], ...]

    def as_dict(self) -> dict[SiteId, float]:
        return dict(self.entries)


def _normalized(center: SiteId, pairs: list[tuple[SiteId, float]]) -> WeightedNeighborhood:
    """Drop zero-weight neighbors and rescale the rest to sum to one."""
    total = math.fsum([w for _, w in pairs])
    if total <= 0.0:
        raise DegenerateFactorsError(
            f"no usable weighting factor for neighborhood of {center!r}"
        )
    return WeightedNeighborhood(
        center=center,
        entries=tuple([(nid, w / total) for nid, w in pairs if w > 0.0]),
    )


def _distance_shares(factors: list[NeighborFactors]) -> list[float]:
    inverses = [1.0 / f.distance for f in factors]
    total = math.fsum(inverses)
    return [q / total for q in inverses]


def _connection_shares(factors: list[NeighborFactors]) -> list[float] | None:
    counts = [f.connection_count for f in factors]
    total = sum(counts)
    if total == 0:
        return None
    return [r / total for r in counts]


def _cost_shares(factors: list[NeighborFactors]) -> list[float] | None:
    """Inverse-cost shares; unreachable neighbors get zero.

    A zero-cost path is the limit of overwhelming ease: zero-cost neighbors
    split the whole share and everyone else gets none.  A cost whose inverse
    is 0 (an infinite path sum) gives no share either; when no neighbor has
    a usable cost the factor is degenerate, as when nothing is reachable.
    """
    costs = [f.min_cost for f in factors]
    reachable = [c for c in costs if c is not None]
    zeros = reachable.count(0.0)
    if zeros:
        share = 1.0 / zeros
        return [share if c == 0.0 else 0.0 for c in costs]
    total = math.fsum([1.0 / c for c in reachable])
    if total == 0.0:  # nothing reachable, or only at infinite cost
        return None
    return [(1.0 / c) / total if c is not None else 0.0 for c in costs]


def distance_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Inverse-distance weighting: the nearest neighbor matters most."""
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    shares = _distance_shares(factors)
    return _normalized(
        factors[0].center, [(f.neighbor, s) for f, s in zip(factors, shares)]
    )


def connection_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Weights proportional to the number of direct connections."""
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    shares = _connection_shares(factors)
    if shares is None:
        raise DegenerateFactorsError(
            f"no direct connections in neighborhood of {factors[0].center!r}"
        )
    return _normalized(
        factors[0].center, [(f.neighbor, s) for f, s in zip(factors, shares)]
    )


def combined_weights(
    factors: list[NeighborFactors], params: WeightParams
) -> WeightedNeighborhood:
    """Blend distance, connection, and cost shares with alpha, beta, delta.

    A factor that is degenerate across the whole neighborhood (no
    connections anywhere, nothing reachable at a finite cost) contributes
    nothing and the remaining blend is rescaled, preserving the ratios of
    the live terms.
    At the simplex corners this reduces exactly to the single-factor
    weightings.
    """
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    n = len(factors)
    d_shares = _distance_shares(factors)
    r_shares = _connection_shares(factors) or [0.0] * n
    c_shares = _cost_shares(factors) or [0.0] * n
    alpha, beta, delta = params.alpha, params.beta, params.delta
    pairs = [
        (f.neighbor, alpha * ds + beta * rs + delta * cs)
        for f, ds, rs, cs in zip(factors, d_shares, r_shares, c_shares)
    ]
    return _normalized(factors[0].center, pairs)


def polygon_weights(
    center: PolygonSite, neighbors: list[PolygonSite], gamma: float = 0.5
) -> WeightedNeighborhood:
    """Mix inverse centroid distance with area for polygon neighbors.

    gamma=1 is pure inverse distance; gamma=0 weights by area alone
    (bigger zones press harder on their neighbors).
    """
    if not neighbors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    inverses = [1.0 / site_distance(center, nb) for nb in neighbors]
    inv_total = math.fsum(inverses)
    areas = [polygon_area(nb) for nb in neighbors]
    area_total = math.fsum(areas)
    pairs = []
    for nb, inv, area in zip(neighbors, inverses, areas):
        share = gamma * (inv / inv_total) + (1.0 - gamma) * (area / area_total)
        pairs.append((nb.id, share))
    return _normalized(center.id, pairs)
