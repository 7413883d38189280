import math

import pytest
from hypothesis import assume, example, given, strategies as st

from spatial_outliers import (
    DegenerateFactorsError,
    GeometryError,
    NeighborFactors,
    NoNeighborsError,
    PolygonSite,
    SpatialOutlierError,
    WeightParams,
    combined_weights,
    connection_weights,
    distance_weights,
    polygon_weights,
)
from spatial_outliers import weights as W
from spatial_outliers.dataset import polygon_area, site_distance
from spatial_outliers.fixtures import VILLAGE_RADIUS

from conftest import unit_square


def make_factors(specs):
    """specs: list of (neighbor, distance, count, cost-or-None)."""
    return [
        NeighborFactors(
            center="c", neighbor=nid, distance=d, connection_count=r, min_cost=cost
        )
        for nid, d, r, cost in specs
    ]


def assert_normalized(weighting):
    total = math.fsum(w for _, w in weighting.entries)
    assert total == pytest.approx(1.0, abs=1e-9)
    for _, w in weighting.entries:
        assert 0.0 < w <= 1.0


class TestDistanceWeights:
    def test_equal_distances_split_evenly(self):
        w = distance_weights(make_factors([("B", 2.0, 0, None), ("C", 2.0, 0, None)]))
        assert w.as_dict() == pytest.approx({"B": 0.5, "C": 0.5})

    def test_inverse_distance_shares(self):
        # oracle: (1/1)/(1/1 + 1/4) = 0.8 and (1/4)/(1.25) = 0.2
        w = distance_weights(make_factors([("B", 1.0, 0, None), ("C", 4.0, 0, None)]))
        assert w.as_dict() == pytest.approx({"B": 0.8, "C": 0.2})

    def test_single_neighbor_gets_everything(self):
        w = distance_weights(make_factors([("B", 17.3, 0, None)]))
        assert w.as_dict() == {"B": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(NoNeighborsError):
            distance_weights([])

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20),
        st.floats(0.01, 50.0),
    )
    def test_scale_invariant(self, distances, scale):
        base = distance_weights(
            make_factors([(i, d, 0, None) for i, d in enumerate(distances)])
        )
        scaled = distance_weights(
            make_factors([(i, d * scale, 0, None) for i, d in enumerate(distances)])
        )
        for (_, w1), (_, w2) in zip(base.entries, scaled.entries):
            assert w2 == pytest.approx(w1, rel=1e-9)

    # A weight is 1/d through two correctly rounded divisions (the share,
    # then the normalization), each off by at most half an ulp, a relative
    # 2**-53.  So a closer neighbor is never lighter, and it is strictly
    # heavier once its inverse distance exceeds the other's by a factor of
    # 1 + 2**-50, past the 1 + 2**-51 that those four half-ulps can close.
    # Closer alone cannot promise heavier: 100.0 and 99.99999999999999 get
    # the same weight.
    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=20, unique=True))
    @example([4.0, 47.0, 72.0, 73.0, 100.0, 99.99999999999999])
    def test_closer_means_heavier(self, distances):
        w = distance_weights(
            make_factors([(i, d, 0, None) for i, d in enumerate(distances)])
        ).as_dict()
        for i, near in enumerate(distances):
            for j, far in enumerate(distances):
                if near < far:
                    assert w[i] >= w[j]
                    if 1.0 / near > 1.0 / far * (1.0 + 2.0 ** -50):
                        assert w[i] > w[j]


class TestConnectionWeights:
    def test_counts_to_shares(self):
        # oracle: 2/4, 1/4, 1/4
        w = connection_weights(
            make_factors([("B", 1, 2, None), ("C", 1, 1, None), ("D", 1, 1, None)])
        )
        assert w.as_dict() == pytest.approx({"B": 0.5, "C": 0.25, "D": 0.25})

    def test_uniform_counts(self):
        w = connection_weights(
            make_factors([(n, 1, 3, None) for n in ("B", "C", "D")])
        )
        assert w.as_dict() == pytest.approx({n: 1 / 3 for n in ("B", "C", "D")})

    def test_zero_count_neighbor_dropped(self):
        w = connection_weights(make_factors([("B", 1, 1, None), ("C", 1, 0, None)]))
        assert w.as_dict() == {"B": 1.0}

    def test_all_zero_counts_rejected(self):
        with pytest.raises(DegenerateFactorsError):
            connection_weights(make_factors([("B", 1, 0, None), ("C", 1, 0, None)]))

    def test_empty_rejected(self):
        with pytest.raises(NoNeighborsError):
            connection_weights([])


FACTOR_LISTS = st.lists(
    st.tuples(
        st.floats(0.01, 100.0),                      # distance
        st.integers(0, 5),                           # connection count
        st.one_of(st.none(), st.floats(0.01, 100.0)),  # min cost
    ),
    min_size=1,
    max_size=20,
)


def _coeffs():
    return st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda ab: (ab[0], (1 - ab[0]) * ab[1], (1 - ab[0]) * (1 - ab[1]))
    )


class TestCombinedWeights:
    def test_distance_corner_matches_distance_weights(self):
        factors = make_factors([("B", 1.0, 2, 3.0), ("C", 4.0, 1, 1.0)])
        corner = combined_weights(factors, WeightParams(alpha=1, beta=0, delta=0))
        pure = distance_weights(factors)
        for (n1, w1), (n2, w2) in zip(corner.entries, pure.entries):
            assert n1 == n2
            assert abs(w1 - w2) < 1e-12

    def test_connection_corner_matches_connection_weights(self):
        factors = make_factors([("B", 1.0, 2, 3.0), ("C", 4.0, 1, 1.0), ("D", 2.0, 1, None)])
        corner = combined_weights(factors, WeightParams(alpha=0, beta=1, delta=0))
        pure = connection_weights(factors)
        for (n1, w1), (n2, w2) in zip(corner.entries, pure.entries):
            assert n1 == n2
            assert abs(w1 - w2) < 1e-12

    def test_identical_factors_give_uniform(self):
        factors = make_factors([(n, 2.0, 1, 5.0) for n in ("B", "C", "D")])
        params = WeightParams(alpha=1 / 3, beta=1 / 3, delta=1 / 3)
        w = combined_weights(factors, params)
        assert w.as_dict() == pytest.approx({n: 1 / 3 for n in ("B", "C", "D")})

    def test_unreachable_neighbor_loses_cost_share_only(self):
        # B and C tie on distance and connections; B is cheap to reach and C
        # unreachable, so only the cost term separates them
        factors = make_factors([("B", 1.0, 1, 2.0), ("C", 1.0, 1, None)])
        params = WeightParams(alpha=0.4, beta=0.3, delta=0.3)
        w = combined_weights(factors, params).as_dict()
        assert_normalized(combined_weights(factors, params))
        assert w["B"] == pytest.approx((0.2 + 0.15 + 0.3) / 1.0)
        assert w["C"] == pytest.approx(0.2 + 0.15)

    def test_zero_cost_neighbor_takes_whole_cost_share(self):
        factors = make_factors([("B", 1.0, 1, 0.0), ("C", 1.0, 1, 5.0)])
        params = WeightParams(alpha=0.0, beta=0.0, delta=1.0)
        w = combined_weights(factors, params).as_dict()
        assert w == {"B": 1.0}

    def test_zero_cost_ties_split_evenly(self):
        factors = make_factors([("B", 1.0, 0, 0.0), ("C", 1.0, 0, 0.0), ("D", 1.0, 0, 3.0)])
        params = WeightParams(alpha=0.0, beta=0.0, delta=1.0)
        w = combined_weights(factors, params).as_dict()
        assert w == pytest.approx({"B": 0.5, "C": 0.5})

    def test_everything_degenerate_rejected(self):
        factors = make_factors([("B", 1.0, 0, None), ("C", 2.0, 0, None)])
        with pytest.raises(DegenerateFactorsError):
            combined_weights(factors, WeightParams(alpha=0, beta=0.5, delta=0.5))

    def test_infinite_cost_counts_as_unreachable(self):
        # 1/inf is 0: such a neighbor gets no cost share, and when every
        # neighbor costs inf the cost factor is degenerate
        params = WeightParams(alpha=0.4, beta=0.3, delta=0.3)
        for costs in ((2.0, math.inf), (math.inf, math.inf)):
            unreachable = tuple(None if c == math.inf else c for c in costs)
            got = combined_weights(
                make_factors([("B", 1.0, 1, costs[0]), ("C", 2.0, 0, costs[1])]), params
            )
            assert got == combined_weights(
                make_factors([("B", 1.0, 1, unreachable[0]), ("C", 2.0, 0, unreachable[1])]),
                params,
            )

    def test_missing_factor_renormalizes(self):
        # no edges at all: the beta and delta shares vanish and the blend
        # rescales to pure distance
        factors = make_factors([("B", 1.0, 0, None), ("C", 4.0, 0, None)])
        params = WeightParams(alpha=0.5, beta=0.25, delta=0.25)
        w = combined_weights(factors, params).as_dict()
        assert w == pytest.approx({"B": 0.8, "C": 0.2})

    @given(FACTOR_LISTS, _coeffs())
    # the only usable coefficient is so small that each product with a share
    # of 0.5 underflows to 0
    @example([(1.0, 0, None), (1.0, 0, None)], (5e-324, 0.0, 1.0))
    def test_normalized_over_random_factors(self, rows, coeffs):
        alpha, beta, delta = coeffs
        factors = make_factors(
            [(i, d, r, c) for i, (d, r, c) in enumerate(rows)]
        )
        try:
            params = WeightParams(alpha=alpha, beta=beta, delta=delta)
        except ValueError:
            return  # rounding pushed the simplex sum out of tolerance
        try:
            w = combined_weights(factors, params)
        except DegenerateFactorsError:
            # only legitimate when no term has any usable factor
            assert alpha == 0.0
            return
        assert_normalized(w)

    def test_continuous_in_coefficients(self):
        factors = make_factors(
            [("B", 1.0, 2, 3.0), ("C", 4.0, 1, None), ("D", 2.5, 0, 0.5)]
        )

        def weights_at(t):
            # path across the simplex from distance-only to an even blend
            alpha = 1.0 - (2.0 * t / 3.0)
            params = WeightParams(alpha=alpha, beta=t / 3.0, delta=t / 3.0)
            return combined_weights(factors, params).as_dict()

        step = 1e-8
        for t in (0.0, 0.25, 0.5, 0.75, 1.0 - step):
            before, after = weights_at(t), weights_at(t + step)
            for key in before:
                assert abs(after[key] - before[key]) < 1e-6

    @given(FACTOR_LISTS, st.randoms(use_true_random=False))
    def test_order_independent(self, rows, rng):
        factors = make_factors([(i, d, r, c) for i, (d, r, c) in enumerate(rows)])
        params = WeightParams(alpha=0.5, beta=0.3, delta=0.2)
        try:
            base = combined_weights(factors, params).as_dict()
        except DegenerateFactorsError:
            return
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert combined_weights(shuffled, params).as_dict() == pytest.approx(base)


# Reference: the weighting as written before it was reduced to fewer passes,
# with one explicit degeneracy rule: a factor whose exact sum overflows or is
# not in (0, inf) gives no shares.  combined_weights must give the same
# entries, bit for bit, or raise the same error on every factor list.


def _ref_total(values):
    """math.fsum of the values, or None when it overflows or is not in (0, inf)."""
    try:
        total = math.fsum(values)
    except OverflowError:
        return None
    return total if 0.0 < total < math.inf else None


def _ref_normalized(center, pairs):
    total = math.fsum(w for _, w in pairs)
    if not total > 0.0:
        raise DegenerateFactorsError(
            f"no usable weighting factor for neighborhood of {center!r}"
        )
    return center, tuple((nid, w / total) for nid, w in pairs if w > 0.0)


def _ref_distance_shares(factors):
    inverses = [1.0 / f.distance for f in factors]
    total = _ref_total(inverses)
    if total is None:
        return None
    return [q / total for q in inverses]


def _ref_connection_shares(factors):
    total = sum(f.connection_count for f in factors)
    if total == 0:
        return None
    return [f.connection_count / total for f in factors]


def _ref_cost_shares(factors):
    reachable = [f.min_cost for f in factors if f.min_cost is not None]
    zeros = sum(1 for c in reachable if c == 0.0)
    if zeros:
        return [(1.0 / zeros) if f.min_cost == 0.0 else 0.0 for f in factors]
    total = _ref_total([1.0 / c for c in reachable])
    if total is None:
        return None
    return [
        (1.0 / f.min_cost) / total if f.min_cost is not None else 0.0
        for f in factors
    ]


def _ref_lifted(terms):
    """Each term's coefficient, the usable ones (shares not None) doubled until
    the largest of them is at least 0.5; doubling a float below 0.5 is exact."""
    coefs = [coef for coef, _ in terms]
    usable = [k for k, (_, shares) in enumerate(terms) if shares is not None]
    while 0.0 < max([coefs[k] for k in usable], default=0.0) < 0.5:
        for k in usable:
            coefs[k] *= 2.0
    return coefs


def _ref_combined_weights(factors, params):
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    n = len(factors)
    terms = [
        (params.alpha, _ref_distance_shares(factors)),
        (params.beta, _ref_connection_shares(factors)),
        (params.delta, _ref_cost_shares(factors)),
    ]
    alpha, beta, delta = _ref_lifted(terms)
    d_shares, r_shares, c_shares = (shares or [0.0] * n for _, shares in terms)
    pairs = []
    for f, ds, rs, cs in zip(factors, d_shares, r_shares, c_shares):
        pairs.append((f.neighbor, alpha * ds + beta * rs + delta * cs))
    return _ref_normalized(factors[0].center, pairs)


def _bits(fn, *args):
    """The result with every weight as its exact hex form, or the error raised."""
    try:
        center, entries = fn(*args)
    except (SpatialOutlierError, ArithmeticError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", center, [(nid, w.hex()) for nid, w in entries])


def _weigh(factors, params):
    got = combined_weights(factors, params)
    return got.center, got.entries


_SIMPLEX_CORNERS = st.sampled_from([
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
])


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.floats(1e-3, 1e3),
                st.sampled_from([0.0, 5e-324, 1e-308, 1e300, math.inf]),
            ),
            st.integers(0, 3),
            st.one_of(
                st.none(),
                st.just(0.0),
                st.floats(0.0, 1e6),
                st.sampled_from([5e-324, 1e-310, 1e-308, 1e-300, 1e300]),
                st.just(math.inf),
            ),
        ),
        max_size=12,
    ),
    st.one_of(_SIMPLEX_CORNERS, _coeffs()),
)
# three shares whose plain sum is 1 + 2**-52 and whose exact sum rounds to 1
@example([(1.0, 0, None), (2.0, 1, 3.0), (3.0, 2, math.inf)], (1.0, 0.0, 0.0))
@example([(1.0, 0, 0.0), (2.0, 1, 0.0), (3.0, 2, math.inf)], (0.2, 0.3, 0.5))
# an inverse distance that overflows to inf; two inverse costs whose sum
# overflows; every distance infinite, so every inverse is 0
@example([(5e-324, 1, 2.0), (1.0, 0, 3.0)], (0.5, 0.25, 0.25))
@example([(1.0, 1, 1e-308), (2.0, 0, 1e-308)], (0.5, 0.25, 0.25))
@example([(math.inf, 1, 2.0), (math.inf, 0, None)], (0.5, 0.25, 0.25))
# only the distance factor is usable, and its coefficient makes every product
# zero or subnormal
@example([(1.0, 0, None), (1.0, 0, None)], (5e-324, 0.0, 1.0))
@example([(1.0, 0, None), (3.0, 0, None)], (1e-310, 0.0, 1.0))
def test_combined_weights_match_reference_bit_for_bit(rows, coeffs):
    alpha, beta, delta = coeffs
    try:
        params = WeightParams(alpha=alpha, beta=beta, delta=delta)
    except ValueError:
        assume(False)  # rounding pushed the simplex sum out of tolerance
    factors = make_factors([(i, d, r, c) for i, (d, r, c) in enumerate(rows)])
    assert _bits(_weigh, factors, params) == _bits(_ref_combined_weights, factors, params)


# distances and costs over the whole positive float range: subnormals whose
# inverse is inf, pairs whose inverses sum past the largest float, and inf
WIDE = st.one_of(
    st.floats(5e-324, 1e308),
    st.sampled_from([5e-324, 1e-310, 1e-308, 1e308, math.inf]),
)


def _zeros_blend(center, neighbor_ids, terms):
    """The blend written out from a list of zeros, as (center, entries)."""
    weights = [0.0] * len(neighbor_ids)
    for coef, (_, shares) in zip(_ref_lifted(terms), terms):
        if shares is not None:
            weights = [w + coef * s for w, s in zip(weights, shares)]
    return _ref_normalized(center, list(zip(neighbor_ids, weights)))


def _record_weighting(kind, factors, params):
    """Each factor weighting read record by record, blended from zeros."""
    if not factors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    if kind != "connection":
        distance = W._shares([1.0 / f.distance for f in factors])
    if kind != "distance":
        connection = W._shares([f.connection_count for f in factors])
    if kind == "distance":
        terms = [(1.0, distance)]
    elif kind == "connection":
        terms = [(1.0, connection)]
    else:
        terms = [
            (params.alpha, distance),
            (params.beta, connection),
            (params.delta, W._cost_shares([f.min_cost for f in factors])),
        ]
    return _zeros_blend(factors[0].center, [f.neighbor for f in factors], terms)


def _weighting(kind, factors, params):
    weigh = {
        "distance": distance_weights,
        "connection": connection_weights,
        "combined": lambda fs: combined_weights(fs, params),
    }[kind]
    got = weigh(factors)
    return got.center, got.entries


@given(
    st.lists(
        st.tuples(
            st.one_of(WIDE, st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.nan])),
            st.integers(-1, 3),
            st.one_of(st.none(), WIDE, st.sampled_from([0.0, -0.0, -1.0, math.nan])),
        ),
        max_size=8,
    ),
    st.one_of(_SIMPLEX_CORNERS, _coeffs()),
    st.sampled_from(["distance", "connection", "combined"]),
)
@example([(1.0, 0, None), (math.inf, 1, None)], (0.5, 0.5, 0.0), "combined")
@example([(math.inf, 0, 0.0), (math.inf, 0, 0.0)], (1.0, 0.0, 0.0), "combined")
def test_factor_weightings_match_the_blend_from_zeros_bit_for_bit(rows, coeffs, kind):
    alpha, beta, delta = coeffs
    try:
        params = WeightParams(alpha=alpha, beta=beta, delta=delta)
    except ValueError:
        assume(False)  # rounding pushed the simplex sum out of tolerance
    factors = make_factors([(i, d, r, c) for i, (d, r, c) in enumerate(rows)])
    assert _bits(_weighting, kind, factors, params) == _bits(
        _record_weighting, kind, factors, params
    )


def _polygon_from_zeros(center, neighbors, gamma):
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not neighbors:
        raise NoNeighborsError("cannot weight an empty neighborhood")
    return _zeros_blend(center.id, [nb.id for nb in neighbors], [
        (gamma, W._shares([1.0 / site_distance(center, nb) for nb in neighbors])),
        (1.0 - gamma, W._shares([polygon_area(nb) for nb in neighbors])),
    ])


def _polygon_weighting(center, neighbors, gamma):
    got = polygon_weights(center, neighbors, gamma=gamma)
    return got.center, got.entries


# squares from 1e-6 to 1e160 on a side anywhere in the float range: their
# areas overflow to inf past about 1e154, and centroids 2e308 apart are inf
# apart; a side of at least 2**-20 of the offset keeps the corners distinct
SQUARES = st.tuples(
    st.one_of(st.floats(-1e308, 1e308), st.sampled_from([-1e308, 0.0, 1e308])),
    st.floats(1e-6, 1e160),
)


def _square(sid, ox, side):
    return unit_square(sid, ox=ox, size=max(side, abs(ox) * 2.0 ** -20))


# gamma outside [0, 1] raises the ValueError WeightParams gives; -0.0 passes,
# and with a distance share of 0.0 (a neighbor inf away) makes the first
# product -0.0
@given(
    st.lists(SQUARES, max_size=6),
    SQUARES,
    st.one_of(st.sampled_from([0.0, 1.0, -0.0, -0.5, 1.5]), st.floats(-2.0, 3.0)),
)
@example([(1e308, 1.0), (1.0, 1.0)], (-1e308, 1.0), -0.5)
def test_polygon_weights_match_the_blend_from_zeros_bit_for_bit(squares, center, gamma):
    neighbors = [_square(f"n{i}", ox, side) for i, (ox, side) in enumerate(squares)]
    assert _bits(_polygon_weighting, _square("c", *center), neighbors, gamma) == _bits(
        _polygon_from_zeros, _square("c", *center), neighbors, gamma
    )


def assert_usable(weighting):
    """Non-empty, finite, positive weights whose exact sum is 1."""
    weights = [w for _, w in weighting.entries]
    assert weights and all(0.0 < w < math.inf for w in weights)
    assert abs(math.fsum(weights) - 1.0) <= 1e-12


@given(
    st.lists(
        st.tuples(WIDE, st.integers(0, 3), st.one_of(st.none(), st.just(0.0), WIDE)),
        min_size=1,
        max_size=8,
    ),
    st.one_of(_SIMPLEX_CORNERS, _coeffs()),
)
@example([(1e-308, 0, 1.0), (1e-308, 0, 1.0)], (1.0, 0.0, 0.0))
@example([(5e-324, 1, 1e-310), (1.0, 0, 2.0)], (1.0, 0.0, 0.0))
@example([(math.inf, 0, None), (math.inf, 0, None)], (1.0, 0.0, 0.0))
@example([(1.0, 1, 1e-308), (2.0, 1, 1e-308)], (0.0, 0.0, 1.0))
def test_factor_weightings_across_the_float_range(rows, coeffs):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta)
    factors = make_factors([(i, d, r, c) for i, (d, r, c) in enumerate(rows)])
    for weigh in (distance_weights, connection_weights,
                  lambda fs: combined_weights(fs, params)):
        try:
            weighting = weigh(factors)
        except SpatialOutlierError:
            continue
        assert_usable(weighting)


@given(st.lists(SQUARES, min_size=1, max_size=6), SQUARES, st.floats(0.0, 1.0))
@example([(1e308, 1.0)], (-1e308, 1.0), 0.5)
@example([(0.0, 1e160), (5.0, 1.0)], (-5.0, 1.0), 0.5)
def test_polygon_weights_across_the_float_range(squares, center, gamma):
    neighbors = [_square(f"n{i}", ox, side) for i, (ox, side) in enumerate(squares)]
    try:
        weighting = polygon_weights(_square("c", *center), neighbors, gamma=gamma)
    except SpatialOutlierError:
        return
    assert_usable(weighting)


class TestPolygonWeights:
    def test_equal_area_equal_distance(self):
        center = unit_square("c")
        lhs = unit_square("L", ox=-3.0)
        rhs = unit_square("R", ox=3.0)
        w = polygon_weights(center, [lhs, rhs], gamma=0.5)
        assert w.as_dict() == pytest.approx({"L": 0.5, "R": 0.5})

    def test_gamma_one_is_pure_distance(self):
        center = unit_square("c")
        near = unit_square("N", ox=2.0)
        far = unit_square("F", ox=8.0)
        w = polygon_weights(center, [near, far], gamma=1.0).as_dict()
        # centroids are 2 and 8 away: shares 0.8 / 0.2
        assert w == pytest.approx({"N": 0.8, "F": 0.2})

    def test_gamma_zero_is_pure_area(self):
        center = unit_square("c")
        big = PolygonSite(
            id="P", exterior=((3.0, -1.0), (5.0, -1.0), (5.0, 1.0), (3.0, 1.0))
        )  # area 4, centroid (4, 0)
        small = unit_square("Q", ox=-4.5, oy=-0.5)  # area 1, centroid (-4, 0)
        w = polygon_weights(center, [big, small], gamma=0.0).as_dict()
        assert w == pytest.approx({"P": 0.8, "Q": 0.2})

    def test_bigger_area_heavier_at_gamma_zero(self):
        center = unit_square("c")
        sizes = [1.0, 2.0, 3.0]
        neighbors = [
            PolygonSite(
                id=f"n{i}",
                exterior=(
                    (10.0 * (i + 1), 0.0),
                    (10.0 * (i + 1) + s, 0.0),
                    (10.0 * (i + 1) + s, s),
                    (10.0 * (i + 1), s),
                ),
            )
            for i, s in enumerate(sizes)
        ]
        w = polygon_weights(center, neighbors, gamma=0.0).as_dict()
        assert w["n0"] < w["n1"] < w["n2"]

    def test_coincident_centroids_rejected(self):
        with pytest.raises(GeometryError):
            polygon_weights(unit_square("c"), [unit_square("n")], gamma=0.5)

    def test_empty_rejected(self):
        with pytest.raises(NoNeighborsError):
            polygon_weights(unit_square("c"), [], gamma=0.5)

    @pytest.mark.parametrize("gamma", [-0.5, -5e-324, 1.0000000000000002, 1.5, math.nan])
    def test_gamma_outside_the_unit_interval_rejected(self, gamma):
        # at -0.5 the near neighbor's blended weight is negative and dropped
        # after the total is taken, which left ('b', 1.1867) alone
        center = unit_square("c")
        neighbors = [unit_square("a", ox=2.0), unit_square("b", ox=-5.0, size=3.0)]
        with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\], got"):
            polygon_weights(center, neighbors, gamma=gamma)

    @given(st.floats(0.0, 1.0))
    def test_normalized_for_any_gamma(self, gamma):
        center = unit_square("c")
        neighbors = [
            unit_square("a", ox=2.0),
            unit_square("b", ox=-3.0, size=2.0),
            unit_square("d", oy=4.0, size=0.5),
        ]
        assert_normalized(polygon_weights(center, neighbors, gamma=gamma))


class TestVillageWeights:
    def test_nearest_gets_41_percent_farthest_5(self, village):
        from spatial_outliers import collect_factors, buffer_neighbors

        params = WeightParams(radius=VILLAGE_RADIUS)
        neighbors = buffer_neighbors(village, "27", VILLAGE_RADIUS)
        factors = collect_factors(village, "27", neighbors, params)
        w = distance_weights(factors).as_dict()
        assert max(w.values()) == pytest.approx(0.41, abs=1e-9)
        assert min(w.values()) == pytest.approx(0.05, abs=1e-9)
        assert w["29"] == pytest.approx(0.41, abs=1e-9)
        assert w["42"] == pytest.approx(0.05, abs=1e-9)
