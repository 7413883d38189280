import json

import pytest
from hypothesis import settings

from spatial_outliers import (
    Edge,
    NoNeighborsError,
    PolygonSite,
    PointSite,
    SpatialDataset,
    WeightedNeighborhood,
)
from spatial_outliers import weights as W
from spatial_outliers.fixtures import (
    network_dataset,
    survey_dataset,
    village_dataset,
)

# heavier property runs, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000, deadline=None)


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number (RFC 8259)")


def strict_json(text):
    """Parse a JSON report; a NaN, Infinity or -Infinity token raises."""
    return json.loads(text, parse_constant=_reject_constant)


def weigh_factors(rows, regime, params=None):
    """A hand-built factor list weighed as the weigher weighs one center's columns.

    rows are NeighborFactors, or (center, neighbor, distance, area, None)
    tuples under "polygon"; they are split into columns for W._terms and
    blended by W._weigh.  An empty list names no center and raises.
    """
    if not rows:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    centers, ids, distances, column, costs = zip(*rows)
    ids, weights = W._weigh(centers[0], ids, W._terms(regime, params, distances, column, costs))
    return WeightedNeighborhood(center=centers[0], entries=tuple(zip(ids, weights)))


@pytest.fixture(scope="session")
def network():
    return network_dataset()


@pytest.fixture(scope="session")
def village():
    return village_dataset()


@pytest.fixture(scope="session")
def survey():
    return survey_dataset()


def unit_square(site_id, ox=0.0, oy=0.0, size=1.0, attributes=None):
    return PolygonSite(
        id=site_id,
        exterior=(
            (ox, oy),
            (ox + size, oy),
            (ox + size, oy + size),
            (ox, oy + size),
        ),
        attributes=attributes or {},
    )


def grid_polygons(n=3, attribute="v"):
    """n x n unit squares; cell (i, j) has id 'i-j'."""
    sites = []
    for i in range(n):
        for j in range(n):
            sites.append(
                unit_square(f"{i}-{j}", ox=float(i), oy=float(j),
                            attributes={attribute: float(10 + 3 * i + j)})
            )
    return SpatialDataset(sites=tuple(sites), attribute_names=(attribute,))


def huge_squares_dataset(side):
    """Three abutting squares of this side in a row, ids p0-p2, values 0, 1, 4.

    At side 1e154 the squares' box areas sum past the largest float, and
    from about 1e103 up each centroid's sums overflow.
    """
    sites = tuple(
        PolygonSite(
            id=f"p{i}",
            exterior=((i * side, 0.0), ((i + 1) * side, 0.0),
                      ((i + 1) * side, side), (i * side, side)),
            attributes={"v": float(i * i)},
        )
        for i in range(3)
    )
    return SpatialDataset(sites=sites, attribute_names=("v",))


def grid_point_dataset(width, height, values, attribute="v"):
    """Lattice of points one unit apart, edges between orthogonal neighbors.

    Within every site's neighborhood the distance (1), connection count (1)
    and traversal cost (1) are identical, so any weighting is uniform; a
    buffer radius of 1.2 keeps diagonals out.
    """
    sites = []
    edges = []
    for i in range(width):
        for j in range(height):
            sites.append(
                PointSite(
                    id=f"{i},{j}",
                    x=float(i),
                    y=float(j),
                    attributes={attribute: float(values[i * height + j])},
                )
            )
            if i + 1 < width:
                edges.append(Edge(f"{i},{j}", f"{i + 1},{j}", 1.0, 1.0))
            if j + 1 < height:
                edges.append(Edge(f"{i},{j}", f"{i},{j + 1}", 1.0, 1.0))
    return SpatialDataset(
        sites=tuple(sites), edges=tuple(edges), attribute_names=(attribute,)
    )


def overflowing_costs_dataset():
    """Four sites whose only paths run through a far hub at cost 1e308 an edge.

    Every path between A, C and D takes two edges, so its cost sum overflows
    to inf; B is beyond any small buffer radius.
    """
    sites = tuple(
        PointSite(id=sid, x=x, y=y, attributes={"v": v})
        for sid, x, y, v in (("A", 0.0, 0.0, 1.0), ("C", 1.0, 0.0, 2.0),
                             ("B", 100.0, 0.0, 3.0), ("D", 0.0, 1.0, 5.0))
    )
    edges = tuple(Edge(u, "B", 1.0, 1e308) for u in ("A", "C", "D"))
    return SpatialDataset(sites=sites, edges=edges, attribute_names=("v",))


def _points(rows, edges=()):
    """A point dataset of (id, x, y, v) rows with attribute "v"."""
    sites = tuple(PointSite(id=sid, x=x, y=y, attributes={"v": v}) for sid, x, y, v in rows)
    return SpatialDataset(sites=sites, edges=tuple(edges), attribute_names=("v",))


def far_apart_dataset():
    """Two sites 2e308 apart: their distance is inf, so its inverse is 0."""
    return _points((("A", -1e308, 0.0, 1.0), ("B", 1e308, 0.0, 2.0)))


def tiny_offsets_dataset(*offsets):
    """A center C with one neighbor per offset on the x axis and one at (0, 1).

    Offsets of 1e-308 give inverse distances whose sum overflows, and an
    offset of 5e-324 an inverse distance that is itself inf.
    """
    rows = [("C", 0.0, 0.0, 1.0), ("F", 0.0, 1.0, 4.0)]
    rows += [(f"N{k}", x, 0.0, 2.0 + k) for k, x in enumerate(offsets)]
    return _points(rows)


def tiny_costs_dataset(*costs):
    """Four sites on a unit square with edges from A to B and C at these costs.

    Two costs of 1e-308 give inverse costs whose sum overflows, and a cost
    of 1e-310 an inverse cost that is itself inf.
    """
    rows = (("A", 0.0, 0.0, 1.0), ("B", 1.0, 0.0, 2.0),
            ("C", 0.0, 1.0, 5.0), ("D", 1.0, 1.0, 3.0))
    return _points(rows, [Edge("A", b, 1.0, c) for b, c in zip("BC", costs)])


# the five inputs whose factor sums leave the float range, as
# (dataset, regime, radius); each is valid, and each usable weighting is finite
EXTREME_FACTOR_CASES = {
    "inverse-distances-all-zero": (far_apart_dataset, "buffer", "inf"),
    "inverse-distance-sum-overflows": (lambda: tiny_offsets_dataset(-1e-308, 1e-308), "buffer", "2"),
    "inverse-distance-overflows": (lambda: tiny_offsets_dataset(5e-324), "buffer", "2"),
    "inverse-cost-sum-overflows": (lambda: tiny_costs_dataset(1e-308, 1e-308), "combined", "2"),
    "inverse-cost-overflows": (lambda: tiny_costs_dataset(1e-310), "combined", "2"),
}


def row_dataset(*values):
    """Sites s0, s1, ... one apart on the x axis, with these values of "v"."""
    return _points([(f"s{i}", float(i), 0.0, v) for i, v in enumerate(values)])


# valid point datasets whose differences under the buffer regime at radius 1
# leave the float range; unchecked, standardization ended as noted
OVERFLOWING_DIFFERENCE_CASES = {
    # s3 differs by -inf: mu -inf and z nan, in a report that exits 0
    "infinite-difference": (1e308, 1e308, 1e308, -1e308),
    # s2 differs by -inf and s3 by inf: "-inf + inf in fsum"
    "infinite-differences-of-both-signs": (1e308, 1e308, -1e308, 1e308),
    # inf beside finite differences whose sum overflows: OverflowError
    "finite-part-of-sum-overflows": (1e308, -1e308, -1e308, 1e308),
    # finite differences (1.7e308, -1.35e308, 1.5e308, ...) past fsum's range
    "finite-differences-sum-overflows": (1.7e308, 0.0, 1e308, -1e308, -1e308),
    # finite differences and mean, but s1 - mu is 2.1e308: sigma inf, z nan
    "deviation-overflows": (1e308, 1.7e308, -1e308, -1.7e308),
}


def overflowing_improvements_dataset():
    """Two far-apart copies of a center valued 1e-152 with neighbors 24.4 at
    distance 1 and -24.4 at distance 3.  At radius 3.5 each center's
    classical squared error is 1e-304 and its weighted one 148.84, so each
    improvement is -1.49e308 and their sum overflows; every squared error
    and the sums of them are finite."""
    cluster = (("a", 0.0, 1e-152), ("b", 1.0, 24.4), ("c", -3.0, -24.4))
    return _points([
        (f"{sid}{k}", x + 1000.0 * k, 0.0, v) for k in range(2) for sid, x, v in cluster
    ])


# valid point datasets whose differences standardize under the buffer regime
# but whose squared differences leave the float range, as (dataset, radius);
# unchecked, compare_models raised OverflowError
OVERFLOWING_SQUARE_CASES = {
    # the difference 1.1e200 at site a squares past the largest float
    "squared-difference-overflows": (
        lambda: _points((("a", 0.0, 0.0, 1e200), ("b", 1.0, 0.0, -1e200),
                         ("c", 0.0, 1.0, 3e199), ("d", 1.0, 1.0, -2e199),
                         ("e", 0.5, 0.5, 5e199))),
        "2",
    ),
    # each difference squares to 1.44e308, and the two squares sum past it
    "squared-differences-sum-overflows": (lambda: row_dataset(6e153, -6e153), "1"),
}
