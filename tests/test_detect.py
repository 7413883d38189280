import math
import os
import random
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from spatial_outliers import (
    DegenerateDistributionError,
    DegenerateFactorsError,
    DetectionResult,
    Edge,
    NoNeighborsError,
    PointSite,
    SiteLookupError,
    SiteScore,
    SpatialDataset,
    SpatialOutlierError,
    UnknownAttributeError,
    WeightedNeighborhood,
    WeightParams,
    compare_models,
    detect_outliers,
    difference_scores,
    expected_classical,
    expected_weighted,
    neighborhood_weights,
    significance_scores,
    validate_dataset,
)
import spatial_outliers
from spatial_outliers import detect
from spatial_outliers.detect import MODES
from spatial_outliers.fixtures import (
    VILLAGE_ATTRIBUTE,
    VILLAGE_RADIUS,
)

from conftest import (
    EXTREME_FACTOR_CASES,
    OVERFLOWING_DIFFERENCE_CASES,
    OVERFLOWING_SQUARE_CASES,
    grid_point_dataset,
    grid_polygons,
    huge_squares_dataset,
    overflowing_costs_dataset,
    overflowing_improvements_dataset,
    row_dataset,
    unit_square,
)


class TestExpectedClassical:
    def test_plain_mean(self):
        assert expected_classical([10.0, 20.0, 30.0]) == pytest.approx(20.0, abs=1e-12)

    def test_single_value(self):
        assert expected_classical([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(NoNeighborsError):
            expected_classical([])

    def test_village_neighbor_mean_is_45(self, village):
        values = [s.attributes[VILLAGE_ATTRIBUTE] for s in village.sites if s.id != "27"]
        assert expected_classical(values) == pytest.approx(45.0, abs=1e-9)

    @given(
        st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308])),
                 min_size=1, max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_any_neighbor_order_gives_the_same_bits(self, values, rng):
        # detection reads classical neighbor values in set order
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert _result(expected_classical, values) == _result(expected_classical, shuffled)


def _result(fn, *args):
    """repr of fn's result, which round-trips every float, or the error raised."""
    try:
        return repr(fn(*args))
    except (SpatialOutlierError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def uniform_weights(values):
    share = 1.0 / len(values)
    return WeightedNeighborhood(
        center="c", entries=tuple((f"n{i}", share) for i in range(len(values)))
    )


class TestExpectedWeighted:
    def test_uniform_weights_equal_classical_bitwise(self):
        values = [10.0, 20.0, 30.0]
        w = uniform_weights(values)
        lookup = {f"n{i}": v for i, v in enumerate(values)}
        assert expected_weighted(w, lookup) == expected_classical(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_uniform_equality_is_exact_for_any_values(self, values):
        w = uniform_weights(values)
        lookup = {f"n{i}": v for i, v in enumerate(values)}
        assert expected_weighted(w, lookup) == expected_classical(values)

    def test_single_neighbor_passes_value_through(self):
        w = WeightedNeighborhood(center="c", entries=(("n", 1.0),))
        assert expected_weighted(w, {"n": 13.25}) == 13.25

    def test_village_weighted_expectation_is_28(self, village):
        from spatial_outliers import buffer_neighbors, collect_factors, distance_weights

        params = WeightParams(radius=VILLAGE_RADIUS)
        neighbors = buffer_neighbors(village, "27", VILLAGE_RADIUS)
        w = distance_weights(collect_factors(village, "27", neighbors, params))
        values = village.values(VILLAGE_ATTRIBUTE)
        assert expected_weighted(w, values) == pytest.approx(28.0, abs=1e-9)

    def test_missing_value_rejected(self):
        w = WeightedNeighborhood(center="c", entries=(("n", 1.0),))
        with pytest.raises(SiteLookupError):
            expected_weighted(w, {"other": 1.0})

    def test_empty_rejected(self):
        with pytest.raises(NoNeighborsError):
            expected_weighted(WeightedNeighborhood(center="c", entries=()), {})

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=15),
        st.lists(st.floats(0.01, 1.0), min_size=15, max_size=15),
    )
    def test_stays_inside_neighbor_value_hull(self, values, raw_weights):
        raw = raw_weights[: len(values)]
        total = math.fsum(raw)
        w = WeightedNeighborhood(
            center="c",
            entries=tuple((f"n{i}", r / total) for i, r in enumerate(raw)),
        )
        lookup = {f"n{i}": v for i, v in enumerate(values)}
        got = expected_weighted(w, lookup)
        slack = 1e-9 * max(1.0, max(abs(v) for v in values))
        assert min(values) - slack <= got <= max(values) + slack


class TestDifferenceScores:
    def test_actual_minus_expected(self):
        assert difference_scores({"x": 26.0}, {"x": 28.0}) == {"x": -2.0}
        assert difference_scores({"x": 26.0}, {"x": 45.0}) == {"x": -19.0}

    def test_zero_when_equal(self):
        assert difference_scores({"x": 5.0}, {"x": 5.0}) == {"x": 0.0}

    def test_key_mismatch_rejected(self):
        with pytest.raises(SiteLookupError):
            difference_scores({"x": 1.0}, {"y": 1.0})


def _balanced_diffs(targets, n_pads=17):
    """Diffs whose population mean is 0 and std exactly 1.

    Targets appear with both signs; symmetric pads absorb the leftover
    variance, so every target's z equals the target itself.
    """
    diffs = {}
    for i, t in enumerate(targets):
        diffs[f"t{i}+"] = t
        diffs[f"t{i}-"] = -t
    n = 2 * len(targets) + 2 * n_pads
    sq = math.fsum(2.0 * t * t for t in targets)
    pad = math.sqrt((n - sq) / (2.0 * n_pads))
    for j in range(n_pads):
        diffs[f"p{j}+"] = pad
        diffs[f"p{j}-"] = -pad
    return diffs


class TestSignificanceScores:
    def test_hand_computed_example(self):
        # mean 0; sigma = sqrt((0+0+4+4)/4) = sqrt(2); z = diff / sqrt(2)
        diffs = {"a": 0.0, "b": 0.0, "c": 2.0, "d": -2.0}
        sig = significance_scores(diffs, theta=1.3)
        assert sig.mu == pytest.approx(0.0)
        assert sig.sigma == pytest.approx(math.sqrt(2.0))
        assert sig.z["c"] == pytest.approx(math.sqrt(2.0))
        assert sig.z["d"] == pytest.approx(-math.sqrt(2.0))
        assert sig.outliers == {"c", "d"}

    def test_threshold_two_flags_reference_scores(self):
        diffs = _balanced_diffs([2.74, 1.87, 2.02])
        sig = significance_scores(diffs, theta=2.0)
        assert sig.z["t0+"] == pytest.approx(2.74, abs=1e-9)
        assert sig.z["t1+"] == pytest.approx(1.87, abs=1e-9)
        assert sig.z["t2+"] == pytest.approx(2.02, abs=1e-9)
        assert "t0+" in sig.outliers and "t0-" in sig.outliers
        assert "t2+" in sig.outliers
        assert "t1+" not in sig.outliers
        assert not any(s.startswith("p") for s in sig.outliers)

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            significance_scores({"a": 1.0, "b": 1.0}, theta=2.0)

    @pytest.mark.parametrize("value, n", [(0.1, 3), (4.3e-98, 11), (99.7, 13)])
    def test_equal_differences_rejected_despite_rounding(self, value, n):
        # fsum(d) / n misses the value by an ulp, so sigma is tiny, not zero
        with pytest.raises(DegenerateDistributionError):
            significance_scores({i: value for i in range(n)}, theta=2.0)

    def test_spread_below_rounding_bound_rejected(self):
        # sigma = 5e-9 is under 2**30 ulps of 1.0 (about 2.4e-7)
        with pytest.raises(DegenerateDistributionError, match="2\\*\\*30 ulps"):
            significance_scores({0: 1.0, 1: 1.0 + 1e-8}, theta=2.0)

    def test_spread_above_rounding_bound_scored(self):
        # sigma = 5e-7 is over 2**30 ulps of 1.0, so both sites get |z| = 1
        sig = significance_scores({0: 1.0, 1: 1.0 + 1e-6}, theta=2.0)
        assert sig.z[0] == pytest.approx(-1.0, abs=1e-6)
        assert sig.z[1] == pytest.approx(1.0, abs=1e-6)

    def test_sigma_squares_are_rounded_once(self):
        # one scaled deviation here is -0x1.f886b43533eeap-2; its square x * x
        # is ...846p-3, correctly rounded, where a C library's pow may give ...847p-3
        diffs = {i: float.fromhex(h) for i, h in enumerate([
            "0x1.1dd56c524efd8p-3", "-0x1.dbb06a55f1412p-1", "0x1.68592e13ae054p-2",
            "-0x1.996d7ef3bac28p-2", "0x1.21882b922c4c6p-1", "0x1.a888abe3a3186p-1",
        ])}
        sig = significance_scores(diffs, theta=2.0)
        assert sig.sigma.hex() == "0x1.307aed8fc93b3p-1"

    def test_empty_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            significance_scores({}, theta=2.0)

    @pytest.mark.parametrize("diffs", [
        {"a": math.inf, "b": 0.0},  # a difference
        {"a": -math.inf, "b": 1.0, "c": math.inf},  # -inf + inf
        {"a": 1.7e308, "b": 1.7e308},  # the sum
        {"a": 1.7e308, "b": -1.35e308, "c": 1.5e308, "d": -1e308},  # fsum's partials
        {"a": -7e307, "b": 1.7e308, "c": -1e308, "d": -7e307},  # b - mu
    ])
    def test_differences_outside_the_float_range_rejected(self, diffs):
        with pytest.raises(DegenerateDistributionError, match="outside the float range"):
            significance_scores(diffs, theta=2.0)

    @given(
        st.dictionaries(
            st.integers(0, 50),
            st.floats(-100, 100),
            min_size=2,
            max_size=30,
        )
    )
    def test_z_population_is_standardized(self, diffs):
        try:
            sig = significance_scores(diffs, theta=2.0)
        except DegenerateDistributionError:
            return
        zs = list(sig.z.values())
        n = len(zs)
        assert math.fsum(zs) / n == pytest.approx(0.0, abs=1e-9)
        spread = math.sqrt(math.fsum(z * z for z in zs) / n)
        assert spread == pytest.approx(1.0, abs=1e-9)

    @given(
        st.dictionaries(st.integers(0, 30), st.floats(-50, 50), min_size=2, max_size=20),
        st.floats(-1000, 1000),
    )
    def test_constant_shift_leaves_z_unchanged(self, diffs, shift):
        try:
            base = significance_scores(diffs, theta=2.0)
        except DegenerateDistributionError:
            return
        # a spread far below the shift magnitude hits float cancellation,
        # which is not what this invariant is about
        assume(base.sigma > 1e-3)
        shifted = significance_scores(
            {k: v + shift for k, v in diffs.items()}, theta=2.0
        )
        for key in diffs:
            assert shifted.z[key] == pytest.approx(base.z[key], abs=1e-6)


class TestDetectOutliers:
    def test_village_pipeline_expectations(self, village):
        params = WeightParams(radius=VILLAGE_RADIUS)
        weighted = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                                   mode="weighted", regime="buffer")
        classical = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                                    mode="classical", regime="buffer")
        w27 = weighted.score_for("27")
        c27 = classical.score_for("27")
        assert w27.actual == 26.0
        assert w27.expected == pytest.approx(28.0, abs=1e-9)
        assert w27.diff == pytest.approx(-2.0, abs=1e-9)
        assert c27.expected == pytest.approx(45.0, abs=1e-9)
        assert c27.diff == pytest.approx(-19.0, abs=1e-9)

    def test_unknown_attribute_rejected(self, village):
        with pytest.raises(UnknownAttributeError):
            detect_outliers(village, "nope", WeightParams(radius=5.0))

    def test_unknown_mode_rejected(self, village):
        with pytest.raises(ValueError, match="mode must be one of"):
            detect_outliers(village, VILLAGE_ATTRIBUTE, WeightParams(radius=5.0), mode="bogus")

    def test_score_for_an_unknown_site(self, village):
        result = detect_outliers(village, VILLAGE_ATTRIBUTE, WeightParams(radius=5.0))
        with pytest.raises(SiteLookupError, match="no score for site 'nope'"):
            result.score_for("nope")

    def test_isolated_sites_are_skipped(self):
        sites = (
            PointSite(id="a", x=0.0, y=0.0, attributes={"v": 1.0}),
            PointSite(id="b", x=1.0, y=0.0, attributes={"v": 2.0}),
            PointSite(id="c", x=0.5, y=0.5, attributes={"v": 4.0}),
            PointSite(id="far", x=100.0, y=100.0, attributes={"v": 3.0}),
        )
        ds = SpatialDataset(sites=sites)
        result = detect_outliers(ds, "v", WeightParams(radius=2.0), regime="buffer")
        assert result.skipped == ("far",)
        assert {s.site for s in result.scores} == {"a", "b", "c"}

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0), (0.5, 0.25, 0.25)])
    def test_overflowing_path_costs_weigh_as_unreachable(self, coeffs):
        # every path sum is inf: the cost factor drops out, exactly as when a
        # cost limit leaves nothing reachable
        ds = overflowing_costs_dataset()
        alpha, beta, delta = coeffs
        params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=2.0)
        result = detect_outliers(ds, "v", params, regime="combined")
        assert result.skipped == ("B",)
        limited = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=2.0, cost_limit=1.0)
        assert result == detect_outliers(ds, "v", limited, regime="combined")

    @pytest.mark.parametrize("case", sorted(EXTREME_FACTOR_CASES))
    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0), (0.5, 0.25, 0.25)])
    def test_factor_sums_out_of_range_follow_the_one_rule(self, case, coeffs):
        # a factor whose sum overflows or is not in (0, inf) drops out: the
        # buffer regime has nothing left, the combined regime keeps distance
        build, regime, radius = EXTREME_FACTOR_CASES[case]
        ds = build()
        assert validate_dataset(ds) == []
        alpha, beta, delta = coeffs
        params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=float(radius))
        if regime == "buffer":
            with pytest.raises(DegenerateFactorsError, match="no usable weighting factor"):
                detect_outliers(ds, "v", params, regime=regime)
            return
        result = detect_outliers(ds, "v", params, regime=regime)
        assert len(result.scores) == len(ds.sites)
        assert all(math.isfinite(s.expected) and math.isfinite(s.z) for s in result.scores)
        for sid in ds.site_ids():
            weights = [w for _, w in neighborhood_weights(ds, sid, params, regime).entries]
            assert weights and all(0.0 < w < math.inf for w in weights)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_DIFFERENCE_CASES))
    def test_differences_outside_the_float_range_rejected(self, case):
        ds = row_dataset(*OVERFLOWING_DIFFERENCE_CASES[case])
        assert validate_dataset(ds) == []
        with pytest.raises(DegenerateDistributionError, match="outside the float range"):
            detect_outliers(ds, "v", WeightParams(radius=1.0), regime="buffer")

    def test_everything_skipped_gives_empty_result(self):
        sites = (
            PointSite(id="a", x=0.0, y=0.0, attributes={"v": 1.0}),
            PointSite(id="b", x=50.0, y=0.0, attributes={"v": 2.0}),
        )
        ds = SpatialDataset(sites=sites)
        result = detect_outliers(ds, "v", WeightParams(radius=1.0), regime="buffer")
        assert result.scores == ()
        assert set(result.skipped) == {"a", "b"}
        assert math.isnan(result.mu) and math.isnan(result.sigma)

    def test_zero_spread_rejected(self):
        sites = (
            PointSite(id="a", x=0.0, y=0.0, attributes={"v": 5.0}),
            PointSite(id="b", x=1.0, y=0.0, attributes={"v": 5.0}),
        )
        ds = SpatialDataset(sites=sites)
        with pytest.raises(DegenerateDistributionError):
            detect_outliers(ds, "v", WeightParams(radius=2.0), regime="buffer")

    @given(
        st.floats(-1e6, 1e6),
        st.sampled_from(["buffer", "graph", "combined", "polygon"]),
        st.sampled_from(["classical", "weighted"]),
    )
    def test_constant_attribute_rejected(self, value, regime, mode):
        # rounded weight products can miss a constant by an ulp; such noise
        # must never be standardized into z-scores
        if regime == "polygon":
            ds = SpatialDataset(
                sites=tuple(
                    unit_square(f"{i}-{j}", ox=i, oy=j, attributes={"v": value})
                    for i in range(4)
                    for j in range(4)
                )
            )
        else:
            ds = grid_point_dataset(4, 4, [value] * 16)
        params = WeightParams(alpha=0.5, beta=0.25, delta=0.25, radius=1.5)
        with pytest.raises(DegenerateDistributionError, match="no spread beyond rounding"):
            detect_outliers(ds, "v", params, mode=mode, regime=regime)

    @pytest.mark.parametrize("side", [1e154, 1e120])
    def test_classical_polygons_too_large_for_floats(self, side):
        # unvalidated: classical polygon detection needs rook sets and values only
        result = detect_outliers(huge_squares_dataset(side), "v", WeightParams(),
                                 mode="classical", regime="polygon")
        # values 0, 1, 4 over rook sets {p1}, {p0, p2}, {p1}
        assert {s.site: s.expected for s in result.scores} == {"p0": 1.0, "p1": 2.0, "p2": 1.0}

    def test_polygon_regime_requires_polygons(self, village):
        with pytest.raises(ValueError):
            detect_outliers(village, VILLAGE_ATTRIBUTE, WeightParams(radius=5.0),
                            regime="polygon")

    @pytest.mark.parametrize("regime", ["bogus", "polygon"])
    def test_neighborhood_weights_checks_its_regime(self, network, regime):
        params = WeightParams(radius=2.0, alpha=0.5, beta=0.5)
        with pytest.raises(ValueError) as detected:
            detect_outliers(network, "v", params, regime=regime)
        with pytest.raises(ValueError, match=re.escape(str(detected.value))):
            neighborhood_weights(network, "A", params, regime)

    def test_buffer_regime_requires_radius(self, village):
        with pytest.raises(ValueError):
            detect_outliers(village, VILLAGE_ATTRIBUTE, WeightParams(), regime="buffer")

    def test_uniform_factors_match_classical_exactly(self):
        rng = random.Random(5)
        values = [round(rng.uniform(0.0, 100.0), 3) for _ in range(12)]
        ds = grid_point_dataset(4, 3, values)
        params = WeightParams(alpha=1 / 3, beta=1 / 3, delta=1 / 3, radius=1.2)
        for regime in ("buffer", "graph", "combined"):
            weighted = detect_outliers(ds, "v", params, mode="weighted", regime=regime)
            classical = detect_outliers(ds, "v", params, mode="classical", regime=regime)
            assert weighted.outlier_ids() == classical.outlier_ids()
            for ws, cs in zip(weighted.scores, classical.scores):
                assert ws.z == pytest.approx(cs.z, abs=1e-12)

    def test_flags_invariant_under_affine_attribute_transform(self):
        rng = random.Random(11)
        values = [rng.uniform(0.0, 50.0) for _ in range(9)]
        ds = grid_point_dataset(3, 3, values)
        params = WeightParams(radius=1.2)
        base = detect_outliers(ds, "v", params, regime="buffer")
        transformed = grid_point_dataset(3, 3, [3.0 * v + 40.0 for v in values])
        moved = detect_outliers(transformed, "v", params, regime="buffer")
        assert moved.outlier_ids() == base.outlier_ids()
        for m, b in zip(moved.scores, base.scores):
            assert m.z == pytest.approx(b.z, abs=1e-9)

    def test_default_regime_for_points_without_edges_is_buffer(self):
        sites = (
            PointSite(id="a", x=0.0, y=0.0, attributes={"v": 1.0}),
            PointSite(id="b", x=1.0, y=0.0, attributes={"v": 2.0}),
            PointSite(id="c", x=2.0, y=0.0, attributes={"v": 9.0}),
        )
        ds = SpatialDataset(sites=sites)
        result = detect_outliers(ds, "v", WeightParams(radius=5.0))
        assert len(result.scores) == 3

    def test_default_regime_for_polygons_is_polygon(self):
        grid = grid_polygons(3)
        assert detect_outliers(grid, "v", WeightParams()) == detect_outliers(
            grid, "v", WeightParams(), regime="polygon")


def _oracle_pipeline(rows, edge_rows, radius, coeffs, theta, mode):
    """Straight-line recomputation of the whole pipeline.

    Independent of the library: buffer sets from a hand distance matrix,
    traversal costs via Floyd-Warshall, weights written out term by term.
    """
    alpha, beta, delta = coeffs
    ids = [r[0] for r in rows]
    pos = {r[0]: (r[1], r[2]) for r in rows}
    val = {r[0]: r[3] for r in rows}

    def dist(a, b):
        return math.hypot(pos[a][0] - pos[b][0], pos[a][1] - pos[b][1])

    big = float("inf")
    cost = {a: {b: (0.0 if a == b else big) for b in ids} for a in ids}
    count = {a: {b: 0 for b in ids} for a in ids}
    for u, v, c in edge_rows:
        count[u][v] += 1
        count[v][u] += 1
        cost[u][v] = min(cost[u][v], c)
        cost[v][u] = min(cost[v][u], c)
    for k in ids:
        for i in ids:
            for j in ids:
                if cost[i][k] + cost[k][j] < cost[i][j]:
                    cost[i][j] = cost[i][k] + cost[k][j]

    diffs, expected, skipped = {}, {}, []
    for center in ids:
        nbrs = sorted(
            (o for o in ids if o != center and dist(center, o) <= radius)
        )
        if not nbrs:
            skipped.append(center)
            continue
        if mode == "classical":
            e = sum(val[o] for o in nbrs) / len(nbrs)
        else:
            inv_d = [1.0 / dist(center, o) for o in nbrs]
            sum_inv_d = sum(inv_d)
            counts = [count[center][o] for o in nbrs]
            sum_counts = sum(counts)
            inv_c = [
                1.0 / cost[center][o] if cost[center][o] < big else 0.0
                for o in nbrs
            ]
            sum_inv_c = sum(inv_c)
            raw = []
            for qd, r, qc in zip(inv_d, counts, inv_c):
                w = alpha * qd / sum_inv_d
                if sum_counts > 0:
                    w += beta * r / sum_counts
                if sum_inv_c > 0:
                    w += delta * qc / sum_inv_c
                raw.append(w)
            total = sum(raw)
            e = sum(w / total * val[o] for w, o in zip(raw, nbrs))
        expected[center] = e
        diffs[center] = val[center] - e

    mu = sum(diffs.values()) / len(diffs)
    sigma = math.sqrt(sum((d - mu) ** 2 for d in diffs.values()) / len(diffs))
    z = {sid: (d - mu) / sigma for sid, d in diffs.items()}
    flagged = {sid for sid, value in z.items() if abs(value) > theta}
    return z, flagged, skipped


@given(
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e300, -1e300])),
             min_size=12, max_size=12),
    st.sampled_from(["buffer", "graph"]),
    st.randoms(use_true_random=False),
)
def test_classical_detection_is_the_same_in_any_neighbor_order(values, regime, rng):
    dataset = grid_point_dataset(3, 4, values)
    params = WeightParams(radius=1.5, theta=1.0)
    expected = _result(detect_outliers, dataset, "v", params, "classical", regime)

    def shuffled(discover):
        def found(*args):
            out = list(discover(*args))
            rng.shuffle(out)
            return out
        return found

    with mock.patch.multiple(
        detect,
        buffer_neighbors=shuffled(detect.buffer_neighbors),
        graph_neighbors=shuffled(detect.graph_neighbors),
    ):
        assert _result(detect_outliers, dataset, "v", params, "classical", regime) == expected


def test_unknown_graph_neighbor_raises_in_both_modes():
    # validation rejects an edge to a missing site; detection on such a
    # dataset names the id through SpatialDataset.site
    dataset = SpatialDataset(
        sites=(PointSite("a", 0.0, 0.0, {"v": 1.0}), PointSite("b", 1.0, 0.0, {"v": 2.0})),
        edges=(Edge("a", "b", 1.0, 1.0), Edge("a", "ghost", 1.0, 1.0)),
    )
    params = WeightParams(beta=1.0, alpha=0.0)
    for mode in MODES:
        with pytest.raises(SiteLookupError, match="unknown site id 'ghost'"):
            detect_outliers(dataset, "v", params, mode=mode, regime="graph")


# two sites joined to each other and to the dangling endpoints x and y; each
# call prints the message of the error it raises
_UNKNOWN_IDS_SCRIPT = """
from spatial_outliers import (
    Edge, PointSite, SpatialDataset, SpatialOutlierError, WeightParams,
    collect_factors, detect_outliers, neighborhood_weights,
)
dataset = SpatialDataset(
    sites=(PointSite("a", 0.0, 0.0, {"v": 1.0}), PointSite("b", 1.0, 0.0, {"v": 2.0})),
    edges=tuple(Edge(s, t, 1.0, 1.0) for s, t in
                (("a", "b"), ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))),
)
params = WeightParams(alpha=0.0, beta=1.0)
for call in (
    lambda: collect_factors(dataset, "a", {"x", "y"}, params),
    lambda: neighborhood_weights(dataset, "a", params, "graph"),
    lambda: detect_outliers(dataset, "v", params, mode="weighted", regime="graph"),
    lambda: detect_outliers(dataset, "v", params, mode="classical", regime="graph"),
):
    try:
        call()
    except SpatialOutlierError as exc:
        print(exc)
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_unknown_neighbors_are_named_in_key_order_under_any_hash_seed(seed):
    package_root = os.path.dirname(os.path.dirname(spatial_outliers.__file__))
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )}
    run = subprocess.run([sys.executable, "-c", _UNKNOWN_IDS_SCRIPT],
                         capture_output=True, encoding="utf-8", env=env, check=True)
    assert run.stdout.splitlines() == ["unknown site id 'x'"] * 4


class TestOracleEquivalence:
    def test_detect_matches_straight_line_arithmetic_on_small_datasets(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 6)
            coords = rng.sample([(i, j) for i in range(5) for j in range(5)], n)
            rows = [
                (f"s{k}", float(x), float(y), round(rng.uniform(0, 100), 3))
                for k, (x, y) in enumerate(coords)
            ]
            edge_rows = []
            for _ in range(rng.randint(0, 6)):
                u, v = rng.sample(range(n), 2)
                edge_rows.append(
                    (f"s{u}", f"s{v}", round(rng.uniform(0.1, 10.0), 3))
                )
            a = rng.random()
            b = rng.uniform(0.0, 1.0 - a)
            coeffs = (a, b, 1.0 - a - b)
            radius = rng.uniform(2.0, 6.0)
            mode = rng.choice(("classical", "weighted"))

            sites = tuple(
                PointSite(id=r[0], x=r[1], y=r[2], attributes={"v": r[3]})
                for r in rows
            )
            edges = tuple(Edge(u, v, 1.0, c) for u, v, c in edge_rows)
            ds = SpatialDataset(sites=sites, edges=edges)
            params = WeightParams(
                alpha=coeffs[0], beta=coeffs[1], delta=coeffs[2],
                radius=radius, theta=2.0,
            )
            try:
                result = detect_outliers(ds, "v", params, mode=mode,
                                         regime="combined")
            except DegenerateDistributionError:
                continue  # all-isolated or zero-spread draw; nothing to compare
            if not result.scores:
                continue
            z, flagged, skipped = _oracle_pipeline(
                rows, edge_rows, radius, coeffs, 2.0, mode
            )
            assert result.skipped == tuple(skipped)
            assert result.outlier_ids() == flagged
            for score in result.scores:
                assert score.z == pytest.approx(z[score.site], abs=1e-12)
            checked += 1
        assert checked >= 25  # the sampler must exercise real comparisons


def _synthetic_result(diffs, attribute="v"):
    scores = tuple(
        SiteScore(site=s, actual=0.0, expected=-d, diff=d, z=0.0, is_outlier=False)
        for s, d in sorted(diffs.items())
    )
    return DetectionResult(
        attribute=attribute, scores=scores, mu=0.0, sigma=1.0, theta=2.0
    )


class TestCompareModels:
    def test_reference_error_pair(self):
        classical = _synthetic_result({"x": 0.19})
        weighted = _synthetic_result({"x": 0.02})
        report = compare_models(classical, weighted)
        (row,) = report.per_site
        # oracle: 0.19^2 - 0.02^2 and its share of 0.19^2
        assert row.sq_error_delta == pytest.approx(0.19**2 - 0.02**2, abs=1e-12)
        assert row.sq_error_delta == pytest.approx(0.0357, abs=1e-4)
        assert row.improvement_pct == pytest.approx(
            (0.19**2 - 0.02**2) / 0.19**2 * 100.0, abs=1e-9
        )
        assert row.improvement_pct == pytest.approx(98.89, abs=0.01)

    def test_equal_errors_mean_no_improvement(self):
        report = compare_models(
            _synthetic_result({"x": 0.5}), _synthetic_result({"x": -0.5})
        )
        (row,) = report.per_site
        assert row.sq_error_delta == 0.0
        assert row.improvement_pct == 0.0

    def test_perfect_weighted_prediction(self):
        report = compare_models(
            _synthetic_result({"x": 0.1}), _synthetic_result({"x": 0.0})
        )
        (row,) = report.per_site
        assert row.improvement_pct == pytest.approx(100.0)

    def test_classical_perfect_weighted_not(self):
        report = compare_models(
            _synthetic_result({"x": 0.0}), _synthetic_result({"x": 0.3})
        )
        (row,) = report.per_site
        assert row.improvement_pct is None
        assert report.mean_improvement_pct is None

    def test_both_perfect(self):
        report = compare_models(
            _synthetic_result({"x": 0.0}), _synthetic_result({"x": 0.0})
        )
        assert report.per_site[0].improvement_pct == 0.0

    def test_site_mismatch_rejected(self):
        with pytest.raises(SiteLookupError):
            compare_models(
                _synthetic_result({"x": 1.0}), _synthetic_result({"y": 1.0})
            )

    def test_attribute_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_models(
                _synthetic_result({"x": 1.0}, attribute="a"),
                _synthetic_result({"x": 1.0}, attribute="b"),
            )

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_SQUARE_CASES))
    def test_squared_errors_outside_the_float_range_rejected(self, case):
        build, radius = OVERFLOWING_SQUARE_CASES[case]
        ds = build()
        assert validate_dataset(ds) == []
        params = WeightParams(radius=float(radius))
        classical, weighted = (
            detect_outliers(ds, "v", params, mode=mode, regime="buffer") for mode in MODES
        )
        with pytest.raises(DegenerateDistributionError, match=re.escape(
            "squared errors outside the float range: "
            "a squared difference or their sum overflows"
        )):
            compare_models(classical, weighted)

    def test_improvements_summing_past_the_float_range_rejected(self):
        ds = overflowing_improvements_dataset()
        assert validate_dataset(ds) == []
        params = WeightParams(radius=3.5)
        classical, weighted = (
            detect_outliers(ds, "v", params, mode=mode, regime="buffer") for mode in MODES
        )
        with pytest.raises(DegenerateDistributionError, match=re.escape(
            "improvement percentages outside the float range: their sum overflows"
        )):
            compare_models(classical, weighted)
        # one such improvement alone is a finite mean
        report = compare_models(_synthetic_result({"a": 1e-152}), _synthetic_result({"a": -12.2}))
        assert report.mean_improvement_pct == (1e-152 ** 2 - 12.2 ** 2) / 1e-152 ** 2 * 100.0

    @pytest.mark.parametrize("infinite", ["a", "b", "c"])
    def test_improvements_summing_past_the_float_range_beside_minus_inf_rejected(
        self, infinite
    ):
        # fsum alone raises or returns -inf by where the -inf improvement sits
        classical = _synthetic_result({s: 1e-160 if s == infinite else 1e-152 for s in "abc"})
        weighted = _synthetic_result({s: 1.0 if s == infinite else -12.2 for s in "abc"})
        with pytest.raises(DegenerateDistributionError, match="improvement percentages"):
            compare_models(classical, weighted)

    def test_aggregates(self):
        classical = _synthetic_result({"x": 2.0, "y": 1.0})
        weighted = _synthetic_result({"x": 1.0, "y": 1.0})
        report = compare_models(classical, weighted)
        # per-site improvements: 75% and 0%; overall MSE drop: (5-2)/5
        assert report.mean_improvement_pct == pytest.approx(37.5)
        assert report.mean_sq_error_reduction_pct == pytest.approx(60.0)
