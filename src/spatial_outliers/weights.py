"""Weight-of-effect vectors over a site's neighbors.

Every weighting is one blend: each factor becomes shares of its neighborhood
total, and a neighbor's weight is the coefficient-weighted sum of its shares,
rescaled to sum to one.  Weights are positive and fall as influence falls
(longer distance, fewer connections, higher traversal cost, smaller area).
One rule decides degeneracy: a factor whose exact total overflows or is not
in (0, inf) gives no shares and the rest of the blend is rescaled; with
nothing usable left, DegenerateFactorsError is raised.  Neighbors whose
weight is zero are dropped from the result.
Factor weightings transpose their records into columns once; the blend
makes one pass per usable term, starting from the first.
"""

import math
from collections.abc import Sequence
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


def _shares(values: Sequence[float]) -> list[float] | None:
    """Each value over the exact sum of all; None when math.fsum overflows
    or the sum is not in (0, inf)."""
    try:
        total = math.fsum(values)
    except OverflowError:
        return None
    if not 0.0 < total < math.inf:
        return None
    return [v / total for v in values]


def _blend(
    center: SiteId,
    neighbor_ids: Sequence[SiteId],
    terms: list[tuple[float, list[float] | None]],
) -> WeightedNeighborhood:
    """Sum coef * share per neighbor over the (coef, shares) terms, normalized.

    Products are added in term order from the first term with shares; shares
    of None add nothing, and zero weights drop.  Starting from 0.0 instead
    changes only the sign of a zero weight, which drops and which fsum ignores.
    """
    weights = None
    for coef, shares in terms:
        if shares is not None:
            weights = [coef * s for s in shares] if weights is None else [
                w + coef * s for w, s in zip(weights, shares)
            ]
    total = 0.0 if weights is None else math.fsum(weights)
    if not total > 0.0:
        raise DegenerateFactorsError(
            f"no usable weighting factor for neighborhood of {center!r}"
        )
    return WeightedNeighborhood(
        center=center,
        entries=tuple([(nid, w / total) for nid, w in zip(neighbor_ids, weights) if w > 0.0]),
    )


def _columns(factors: list[NeighborFactors]):
    """(center, ids, distances, counts, costs) of a non-empty factor list."""
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    centers, ids, distances, counts, costs = zip(*factors)
    return centers[0], ids, distances, counts, costs


def _cost_shares(costs: Sequence[float | None]) -> list[float] | None:
    """Inverse-cost shares; unreachable neighbors get zero.

    A zero-cost path is the limit of overwhelming ease: zero-cost neighbors
    split the whole share and everyone else gets none.
    """
    if 0.0 in costs:
        return _shares([1.0 if c == 0.0 else 0.0 for c in costs])
    return _shares([0.0 if c is None else 1.0 / c for c in costs])


def distance_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Inverse-distance weighting: the nearest neighbor matters most."""
    center, ids, distances, _, _ = _columns(factors)
    return _blend(center, ids, [(1.0, _shares([1.0 / d for d in distances]))])


def connection_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Weights proportional to the number of direct connections."""
    center, ids, _, counts, _ = _columns(factors)
    return _blend(center, ids, [(1.0, _shares(counts))])


def combined_weights(
    factors: list[NeighborFactors], params: WeightParams
) -> WeightedNeighborhood:
    """Blend distance, connection, and cost shares with alpha, beta, delta.

    A factor that is degenerate across the whole neighborhood (no
    connections anywhere, nothing reachable at a finite cost) contributes
    nothing and the remaining blend is rescaled.  At the simplex corners
    this reduces exactly to the single-factor weightings.
    """
    center, ids, distances, counts, costs = _columns(factors)
    return _blend(center, ids, [
        (params.alpha, _shares([1.0 / d for d in distances])),
        (params.beta, _shares(counts)),
        (params.delta, _cost_shares(costs)),
    ])


def polygon_weights(
    center: PolygonSite, neighbors: list[PolygonSite], gamma: float = 0.5
) -> WeightedNeighborhood:
    """Mix inverse centroid distance with area for polygon neighbors.

    gamma=1 is pure inverse distance; gamma=0 weights by area alone
    (bigger zones press harder on their neighbors); like WeightParams, a
    gamma outside [0, 1] raises ValueError.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not neighbors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    return _blend(center.id, [nb.id for nb in neighbors], [
        (gamma, _shares([1.0 / site_distance(center, nb) for nb in neighbors])),
        (1.0 - gamma, _shares([polygon_area(nb) for nb in neighbors])),
    ])
