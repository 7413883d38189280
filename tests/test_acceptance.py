"""Acceptance suite: one check per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time

import pytest

from spatial_outliers import (
    DegenerateFactorsError,
    DetectionResult,
    Edge,
    NeighborFactors,
    PointSite,
    PolygonSite,
    SiteScore,
    SpatialDataset,
    WeightParams,
    buffer_neighbors,
    compare_models,
    detect_outliers,
    graph_neighbors,
    min_cost,
    neighborhood_weights,
    polygon_adjacent_neighbors,
    polygon_area,
    polygon_centroid,
)
from spatial_outliers.fixtures import (
    NETWORK_RADIUS,
    SURVEY_ATTRIBUTE,
    SURVEY_RADIUS,
    VILLAGE_ATTRIBUTE,
    VILLAGE_RADIUS,
    network_dataset,
    survey_dataset,
    village_dataset,
)

from conftest import grid_point_dataset, grid_polygons, unit_square, weigh_factors
from test_neighborhood import brute_force_min_cost
from test_weights import weigh_polygons

# reference z table the survey fixture is built to reproduce: (site, weighted z, classical z)
SURVEY_Z_TABLE = (
    ("216", -2.74, -2.61),
    ("17", -2.70, -2.59),
    ("238", -2.46, -2.51),
    ("26", -2.29, -2.25),
    ("317", -2.28, -2.10),
    ("29", -1.87, -2.32),
    ("28", -1.76, -2.44),
    ("511", 2.02, 1.88),
    ("302", 2.04, 1.68),
    ("239", 2.12, 1.96),
    ("30", 2.57, 2.52),
)
WEIGHTED_OUTLIERS = {"17", "216", "238", "26", "317", "511", "302", "239", "30"}
CLASSICAL_OUTLIERS = {"17", "216", "238", "26", "317", "28", "29", "30"}


def _check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _synthetic(diff):
    return DetectionResult(
        attribute="err",
        scores=(SiteScore("x", 0.0, -diff, diff, 0.0, False),),
        mu=0.0,
        sigma=1.0,
        theta=2.0,
    )


def test_criterion_1_comparison_arithmetic():
    report = compare_models(_synthetic(0.19), _synthetic(0.02))
    (row,) = report.per_site
    ok_delta = abs(row.sq_error_delta - 0.0357) <= 1e-4
    ok_pct = row.improvement_pct is not None and abs(row.improvement_pct - 98.89) <= 0.01
    _check(
        1,
        "comparison arithmetic on error pair (0.19, 0.02)",
        ok_delta and ok_pct,
        f"delta={row.sq_error_delta:.6f} improvement={row.improvement_pct:.4f}%",
    )


def test_criterion_2_survey_regression():
    survey = survey_dataset()
    params = WeightParams(radius=SURVEY_RADIUS, theta=2.0)
    weighted = detect_outliers(survey, SURVEY_ATTRIBUTE, params,
                               mode="weighted", regime="buffer")
    classical = detect_outliers(survey, SURVEY_ATTRIBUTE, params,
                                mode="classical", regime="buffer")
    ok_sets = (
        weighted.outlier_ids() == WEIGHTED_OUTLIERS
        and classical.outlier_ids() == CLASSICAL_OUTLIERS
    )
    worst = 0.0
    for sid, z_w, z_c in SURVEY_Z_TABLE:
        worst = max(worst, abs(weighted.score_for(sid).z - z_w))
        worst = max(worst, abs(classical.score_for(sid).z - z_c))
    _check(
        2,
        "survey fixture reproduces the reference z table and outlier sets",
        ok_sets and worst <= 0.01,
        f"max |z error|={worst:.5f}",
    )


def test_criterion_3_village_reconstruction():
    village = village_dataset()
    params = WeightParams(radius=VILLAGE_RADIUS, theta=2.0)
    classical = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                                mode="classical", regime="buffer")
    weighted = detect_outliers(village, VILLAGE_ATTRIBUTE, params,
                               mode="weighted", regime="buffer")
    c27, w27 = classical.score_for("27"), weighted.score_for("27")
    report = compare_models(classical, weighted)
    row27 = next(r for r in report.per_site if r.site == "27")
    ok = (
        abs(c27.expected - 45.0) <= 0.5
        and abs(w27.expected - 28.0) <= 0.5
        and abs(abs(c27.diff) - 19.0) <= 0.5
        and abs(abs(w27.diff) - 2.0) <= 0.5
        and row27.improvement_pct is not None
        and abs(row27.improvement_pct - 98.89) <= 0.01
    )
    _check(
        3,
        "village fixture: expectations 45 vs 28, |diff| 19 vs 2, improvement 98.89%",
        ok,
        f"classical={c27.expected:.3f} weighted={w27.expected:.3f} "
        f"improvement={row27.improvement_pct:.4f}%",
    )


def test_criterion_4_network_neighbor_semantics():
    network = network_dataset()
    buffered = buffer_neighbors(network, "A", NETWORK_RADIUS)
    connected = graph_neighbors(network, "A")
    _check(
        4,
        "network fixture neighbor sets (buffer vs graph around A)",
        buffered == {"B", "K", "J", "H"} and connected == {"B", "D", "E"},
        f"buffer={sorted(buffered)} graph={sorted(connected)}",
    )


def test_criterion_5_weight_normalization_suite():
    rng = random.Random(1234)
    start = time.perf_counter()
    lists_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 20)
        factors = [
            NeighborFactors(
                center="c",
                neighbor=i,
                distance=rng.uniform(1e-6, 100.0),
                connection_count=rng.randint(0, 5),
                min_cost=None if rng.random() < 0.2 else rng.uniform(1e-6, 100.0),
            )
            for i in range(n)
        ]
        a = rng.random()
        b = rng.uniform(0.0, 1.0 - a)
        params = WeightParams(alpha=a, beta=b, delta=1.0 - a - b)

        candidates = [weigh_factors(factors, "buffer")]
        if sum(f.connection_count for f in factors) > 0:
            candidates.append(weigh_factors(factors, "graph"))
        try:
            candidates.append(weigh_factors(factors, "combined", params))
        except DegenerateFactorsError:
            assert params.alpha == 0.0
        for weighting in candidates:
            total = math.fsum(w for _, w in weighting.entries)
            assert abs(total - 1.0) <= 1e-9, f"sum {total}"
            assert all(0.0 < w <= 1.0 for _, w in weighting.entries)

        corner_d = weigh_factors(factors, "combined", WeightParams(alpha=1, beta=0, delta=0))
        pure_d = weigh_factors(factors, "buffer")
        for (n1, w1), (n2, w2) in zip(corner_d.entries, pure_d.entries):
            assert n1 == n2 and abs(w1 - w2) <= 1e-12
        if sum(f.connection_count for f in factors) > 0:
            corner_r = weigh_factors(factors, "combined", WeightParams(alpha=0, beta=1, delta=0))
            pure_r = weigh_factors(factors, "graph")
            for (n1, w1), (n2, w2) in zip(corner_r.entries, pure_r.entries):
                assert n1 == n2 and abs(w1 - w2) <= 1e-12
        lists_checked += 1
    elapsed = time.perf_counter() - start
    _check(
        5,
        "weight normalization and simplex-corner reductions over random factors",
        lists_checked == 1000 and elapsed < 5.0,
        f"{lists_checked} lists in {elapsed:.2f}s",
    )


def test_criterion_6_uniform_weight_equivalence():
    rng = random.Random(99)
    start = time.perf_counter()
    datasets = 0
    worst = 0.0
    for _ in range(100):
        width, height = rng.randint(2, 5), rng.randint(2, 5)
        values = [rng.uniform(0.0, 100.0) for _ in range(width * height)]
        ds = grid_point_dataset(width, height, values)
        a = rng.random()
        b = rng.uniform(0.0, 1.0 - a)
        params = WeightParams(alpha=a, beta=b, delta=1.0 - a - b, radius=1.2)
        regime = rng.choice(("buffer", "graph", "combined"))
        weighted = detect_outliers(ds, "v", params, mode="weighted", regime=regime)
        classical = detect_outliers(ds, "v", params, mode="classical", regime=regime)
        assert weighted.outlier_ids() == classical.outlier_ids()
        for ws, cs in zip(weighted.scores, classical.scores):
            worst = max(worst, abs(ws.z - cs.z))
            assert abs(ws.z - cs.z) <= 1e-12
        datasets += 1
    elapsed = time.perf_counter() - start
    _check(
        6,
        "identical factors make weighted mode match classical mode",
        datasets == 100 and elapsed < 10.0,
        f"{datasets} datasets, max |z gap|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_7_shortest_path_oracle():
    rng = random.Random(2024)
    start = time.perf_counter()
    graphs = unreachable_seen = limited_seen = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        rows = [
            (rng.randrange(n), rng.randrange(n), rng.randint(0, 10))
            for _ in range(rng.randint(0, 12))
        ]
        rows = [(u, v, c) for u, v, c in rows if u != v]
        sites = tuple(
            PointSite(id=i, x=float(i), y=float(i * i % 11)) for i in range(n)
        )
        ds = SpatialDataset(
            sites=sites,
            edges=tuple(Edge(u, v, 1.0, float(c)) for u, v, c in rows),
        )
        limit = rng.choice([None, float(rng.randint(0, 12))])
        a, b = rng.sample(range(n), 2)
        expected = brute_force_min_cost(n, rows, a, b, limit)
        got = min_cost(ds, a, b, cost_limit=limit)
        assert got == expected, (rows, a, b, limit, got, expected)
        if expected is None:
            if limit is not None and brute_force_min_cost(n, rows, a, b) is not None:
                limited_seen += 1
            else:
                unreachable_seen += 1
        graphs += 1
    elapsed = time.perf_counter() - start
    _check(
        7,
        "cheapest-path search matches exhaustive simple-path enumeration",
        graphs == 500 and unreachable_seen > 0 and limited_seen > 0 and elapsed < 10.0,
        f"{graphs} graphs ({unreachable_seen} unreachable, "
        f"{limited_seen} over-limit) in {elapsed:.2f}s",
    )


def test_criterion_8_zscore_invariants():
    rng = random.Random(7)
    worst_mu = worst_sigma = worst_z_gap = 0.0
    for _ in range(30):
        n = rng.randint(6, 25)
        coords = rng.sample([(i, j) for i in range(12) for j in range(12)], n)
        values = [rng.uniform(0.0, 100.0) for _ in range(n)]
        sites = tuple(
            PointSite(id=k, x=float(x), y=float(y), attributes={"v": values[k]})
            for k, (x, y) in enumerate(coords)
        )
        ds = SpatialDataset(sites=sites)
        params = WeightParams(radius=20.0, theta=2.0)
        base = detect_outliers(ds, "v", params, regime="buffer")
        zs = [s.z for s in base.scores]
        mu_z = math.fsum(zs) / len(zs)
        sigma_z = math.sqrt(math.fsum(z * z for z in zs) / len(zs) - mu_z**2)
        worst_mu = max(worst_mu, abs(mu_z))
        worst_sigma = max(worst_sigma, abs(sigma_z - 1.0))
        assert abs(mu_z) <= 1e-9
        assert abs(sigma_z - 1.0) <= 1e-9

        a, b = rng.uniform(0.1, 5.0), rng.uniform(-100.0, 100.0)
        moved_sites = tuple(
            PointSite(id=s.id, x=s.x, y=s.y,
                      attributes={"v": a * s.attributes["v"] + b})
            for s in sites
        )
        moved = detect_outliers(SpatialDataset(sites=moved_sites), "v",
                                params, regime="buffer")
        assert moved.outlier_ids() == base.outlier_ids()
        for ms, bs in zip(moved.scores, base.scores):
            worst_z_gap = max(worst_z_gap, abs(ms.z - bs.z))
            assert abs(ms.z - bs.z) <= 1e-9
    _check(
        8,
        "z scores standardize exactly and survive affine attribute transforms",
        True,
        f"max |mean z|={worst_mu:.1e}, max |std z - 1|={worst_sigma:.1e}, "
        f"max affine |z gap|={worst_z_gap:.1e}",
    )


def test_criterion_9_polygon_suite():
    grid = grid_polygons(3)
    adjacency_ok = polygon_adjacent_neighbors(grid, "1-1") == {
        "0-1", "2-1", "1-0", "1-2"
    }
    corner_ok = polygon_adjacent_neighbors(grid, "0-0") == {"0-1", "1-0"}

    square = unit_square("s")
    triangle = PolygonSite(id="t", exterior=((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
    geometry_ok = (
        abs(polygon_area(square) - 1.0) <= 1e-12
        and abs(polygon_area(triangle) - 2.0) <= 1e-12
        and polygon_centroid(square) == pytest.approx((0.5, 0.5), abs=1e-12)
        and polygon_centroid(triangle) == pytest.approx((2 / 3, 2 / 3), abs=1e-12)
    )

    center = unit_square("c")
    near = unit_square("N", ox=2.0)
    far = unit_square("F", ox=8.0)
    gamma_one = weigh_polygons(center, [near, far], 1.0).as_dict()
    pure_distance = neighborhood_weights(
        SpatialDataset(sites=(center, near, far)), "c", WeightParams(radius=10.0), "buffer"
    ).as_dict()
    gamma_one_ok = all(
        abs(gamma_one[k] - pure_distance[k]) <= 1e-12 for k in ("N", "F")
    )
    big = PolygonSite(id="P", exterior=((3.0, -1.0), (5.0, -1.0), (5.0, 1.0), (3.0, 1.0)))
    small = unit_square("Q", ox=-4.5, oy=-0.5)
    gamma_zero = weigh_polygons(center, [big, small], 0.0).as_dict()
    gamma_zero_ok = (
        abs(gamma_zero["P"] - 0.8) <= 1e-12 and abs(gamma_zero["Q"] - 0.2) <= 1e-12
    )

    _check(
        9,
        "polygon adjacency, analytic area/centroid, and gamma reductions",
        adjacency_ok and corner_ok and geometry_ok and gamma_one_ok and gamma_zero_ok,
    )
