"""Weight-of-effect vectors over a site's neighbors.

Every weighting is one blend: each factor becomes shares of its neighborhood
total, and a neighbor's weight is the coefficient-weighted sum of its shares,
rescaled to sum to one.  Weights are positive and fall as influence falls
(longer distance, fewer connections, higher traversal cost, smaller area).
One rule decides degeneracy: a factor whose exact total overflows or is not
in (0, inf) gives no shares and the rest of the blend is rescaled; with
nothing usable left, DegenerateFactorsError is raised.  Usable coefficients
below 0.5 are lifted by one exact power of two, so a tiny one cannot
underflow every product of its factor to zero.  Zero weights drop.  One weigher,
bound once per dataset, weighs each center from the factors its regime reads.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .dataset import PolygonSite, SiteId, WeightParams, polygon_area, site_distance
from .errors import DegenerateFactorsError, NoNeighborsError
from .neighborhood import NeighborFactors, _factor_view


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


def _weigh(
    center: SiteId,
    neighbor_ids: Sequence[SiteId],
    terms: list[tuple[float, list[float] | None]],
) -> tuple[Sequence[SiteId], list[float]]:
    """(ids, weights): coef * share summed per neighbor over the (coef, shares) terms, normalized.

    Terms whose shares are None add nothing.  When the largest coefficient
    of the usable terms is below 0.5, the blend is made again from the
    usable terms alone, each coefficient scaled by the one exact power of
    two that lifts that largest into [0.5, 1): a blend whose products are all normal floats keeps its
    weights bit for bit, and a tiny usable coefficient no longer underflows
    every product to zero.  Products are added in term order from the first
    usable term, and zero weights drop.  Starting from 0.0 instead changes
    only the sign of a zero weight, which drops and which fsum ignores.
    """
    weights = None
    top = 0.0
    for coef, shares in terms:
        if shares is not None:
            top = coef if coef > top else top
            weights = [coef * s for s in shares] if weights is None else [
                w + coef * s for w, s in zip(weights, shares)
            ]
    if 0.0 < top < 0.5:
        lift = -math.frexp(top)[1]
        usable = [(math.ldexp(c, lift), s) for c, s in terms if s is not None]
        return _weigh(center, neighbor_ids, usable)
    total = 0.0 if weights is None else math.fsum(weights)
    if not total > 0.0:
        raise DegenerateFactorsError(
            f"no usable weighting factor for neighborhood of {center!r}"
        )
    if not 0.0 < min(weights):  # no weight is nan here, or fsum would be nan
        neighbor_ids, weights = zip(*[(n, w) for n, w in zip(neighbor_ids, weights) if w > 0.0])
    return neighbor_ids, [w / total for w in weights]


def _blend(center: SiteId, neighbor_ids: Sequence[SiteId], terms) -> WeightedNeighborhood:
    """_weigh's result as a WeightedNeighborhood."""
    ids, weights = _weigh(center, neighbor_ids, terms)
    return WeightedNeighborhood(center=center, entries=tuple(zip(ids, weights)))


def _cost_shares(costs: Sequence[float | None]) -> list[float] | None:
    """Inverse-cost shares; unreachable neighbors get zero.

    A zero-cost path is the limit of overwhelming ease: zero-cost neighbors
    split the whole share and everyone else gets none.
    """
    if 0.0 in costs:
        return _shares([1.0 if c == 0.0 else 0.0 for c in costs])
    return _shares([0.0 if c is None else 1.0 / c for c in costs])


def _terms(regime: str, params: WeightParams, distances, column=None, costs=None) -> list:
    """The (coef, shares) terms of a regime: buffer reads distances, graph counts (column),
    polygon distances and areas (column), combined all three factors (costs None: no cost)."""
    if regime == "graph":
        return [(1.0, _shares(column))]
    inverse = _shares([1.0 / d for d in distances])
    if regime == "buffer":
        return [(1.0, inverse)]
    if regime == "polygon":
        return [(params.gamma, inverse), (1.0 - params.gamma, _shares(column))]
    return [
        (params.alpha, inverse),
        (params.beta, _shares(column)),
        (params.delta, None if costs is None else _cost_shares(costs)),
    ]


def _weigher(dataset, params: WeightParams, regime: str):
    """weigh(center, found) -> (ids, weights) under a checked regime: the one weighted
    path, a column pass per center over a factor view giving the columns _terms reads."""
    # at delta 0 a cost term adds 0.0 or nothing: combined reads graph's columns, no costs
    view = "graph" if regime == "combined" and params.delta == 0 else regime
    columns = _factor_view(dataset, params.cost_limit, view)

    def weigh(center: SiteId, found):
        if not found:
            raise NoNeighborsError(f"site {center!r} has no {regime} neighbors")
        ids, distances, column, costs = columns(center, found)
        return _weigh(center, ids, _terms(regime, params, distances, column, costs))

    return weigh


def _factor_weights(factors: list[NeighborFactors], regime: str, params=None):
    """A point regime's weighting of a non-empty factor list."""
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    centers, ids, distances, counts, costs = zip(*factors)
    return _blend(centers[0], ids, _terms(regime, params, distances, counts, costs))


def distance_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Inverse-distance weighting: the nearest neighbor matters most."""
    return _factor_weights(factors, "buffer")


def connection_weights(factors: list[NeighborFactors]) -> WeightedNeighborhood:
    """Weights proportional to the number of direct connections."""
    return _factor_weights(factors, "graph")


def combined_weights(
    factors: list[NeighborFactors], params: WeightParams
) -> WeightedNeighborhood:
    """Blend distance, connection, and cost shares with alpha, beta, delta.

    A factor that is degenerate across the whole neighborhood (no
    connections anywhere, nothing reachable at a finite cost) contributes
    nothing and the remaining blend is rescaled.  At the simplex corners
    this reduces exactly to the single-factor weightings.
    """
    return _factor_weights(factors, "combined", params)


def polygon_weights(
    center: PolygonSite, neighbors: list[PolygonSite], gamma: float = 0.5
) -> WeightedNeighborhood:
    """Mix inverse centroid distance with area for polygon neighbors.

    gamma=1 is pure inverse distance; gamma=0 weights by area alone
    (bigger zones press harder on their neighbors); WeightParams raises
    ValueError on a gamma outside [0, 1].
    """
    params = WeightParams(gamma=gamma)
    if not neighbors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    distances = [site_distance(center, nb) for nb in neighbors]
    terms = _terms("polygon", params, distances, [polygon_area(nb) for nb in neighbors])
    return _blend(center.id, [nb.id for nb in neighbors], terms)
