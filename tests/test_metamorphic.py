"""Metamorphic tests: relations that hold exactly from end to end.

Row order is no input.  Shuffling the sites and the edges of a dataset must
give equal detections in both modes under every regime the dataset allows,
equal model comparisons and equal weighted neighborhoods for every center,
or the same error, type and text.

The attribute's scale is no input either.  Scaling every attribute value by
2**k, while every value stays a normal float, scales actual, expected, diff,
mu and sigma by exactly 2**k and the squared errors of a comparison by 4**k;
z, the flags, the skipped sites and the percentages stay as they were, and
an error keeps its type and text.  A rule that is not homogeneous in the
attribute, such as a spread threshold in absolute units, breaks it.

Geometry's scale is no input for point datasets.  Scaling x, y, edge
lengths, edge costs, the radius and the cost limit by 2**k, while every one
of them stays a normal float, scales each distance and cost by exactly 2**k,
so every share, weight, detection, comparison and error is bit-identical.  A
tolerance in absolute units, such as a slack added to the buffer radius,
breaks it.  Polygons stay out: their ring and boundary tolerances are
absolute.

Ids that keep their key order are no input.  Shifting every int id by one
c >= 0 and giving every str id one prefix relabels every result, row and
error, and changes nothing else.  It changes the hash order of the ids, so
it sees a sum over neighbors in set order that is not exact.

Every float is compared by its repr, which round-trips it, nan included.
"""

import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spatial_outliers import (
    ComparisonReport,
    DetectionResult,
    Edge,
    PointSite,
    SpatialDataset,
    SpatialOutlierError,
    WeightParams,
    compare_models,
    detect_outliers,
    neighborhood_weights,
    polygon_area,
)
from spatial_outliers.dataset import _key_sorted
from spatial_outliers.detect import MODES
from spatial_outliers.fileio import _score_rows
from spatial_outliers.fixtures import (
    NETWORK_ATTRIBUTE,
    NETWORK_RADIUS,
    SURVEY_ATTRIBUTE,
    SURVEY_RADIUS,
    VILLAGE_ATTRIBUTE,
    VILLAGE_RADIUS,
    network_dataset,
    survey_dataset,
    village_dataset,
)

from test_index import mixed_id_multigraphs, multigraphs, tilings

POINT_REGIMES = ("buffer", "graph", "combined")
POLYGON_REGIMES = ("polygon", "buffer")

# each blend weighs traversal cost, so the cheapest parallel edge counts
coefficients = st.sampled_from([(0.5, 0.25, 0.25), (0.0, 0.0, 1.0), (0.2, 0.5, 0.3)])


def _attempt(fn, *args):
    try:
        return "ok", fn(*args)
    except SpatialOutlierError as exc:
        return "raised", type(exc), str(exc)


def _runs(dataset, attribute, params):
    """repr of _outcomes."""
    return repr(_outcomes(dataset, attribute, params))


def _outcomes(dataset, attribute, params):
    """Every detection, comparison and weighted neighborhood, or the error
    each raises, centers in key order."""
    regimes = POLYGON_REGIMES if dataset.kind == "polygon" else POINT_REGIMES
    runs = []
    for regime in regimes:
        found = [_attempt(detect_outliers, dataset, attribute, params, mode, regime)
                 for mode in MODES]
        runs += found
        if all(outcome[0] == "ok" for outcome in found):
            runs.append(_attempt(compare_models, *(outcome[1] for outcome in found)))
        for center in _key_sorted(dataset.site_ids()):
            runs.append(_attempt(neighborhood_weights, dataset, center, params, regime))
    return runs


def _assert_row_order_is_no_input(dataset, attribute, params, rng):
    # a drawn shuffle, and the reversal, which swaps every two parallel edges
    orders = (
        (rng.sample(dataset.sites, len(dataset.sites)), rng.sample(dataset.edges, len(dataset.edges))),
        (dataset.sites[::-1], dataset.edges[::-1]),
    )
    want = _runs(dataset, attribute, params)
    for sites, edges in orders:
        shuffled = SpatialDataset(sites=sites, edges=edges, attribute_names=dataset.attribute_names)
        assert _runs(shuffled, attribute, params) == want


# center 0 weighs neighbors 1 and 2 by cost, and 0-1 has two parallel edges
_PARALLEL = SpatialDataset(
    sites=tuple(PointSite(k, x, y, {"v": v}) for k, x, y, v in
                ((0, 0.0, 0.0, 1.0), (1, 1.0, 0.0, 2.0), (2, 0.0, 1.0, 4.0))),
    edges=(Edge(0, 1, 1.0, 1.0), Edge(0, 1, 1.0, 5.0), Edge(0, 2, 1.0, 2.0)),
)


@given(
    multigraphs(dangling=False),
    coefficients,
    st.sampled_from([1.5, 3.0]),
    st.one_of(st.none(), st.floats(0.5, 12)),
    st.randoms(use_true_random=False),
)
@example(_PARALLEL, (0.0, 0.0, 1.0), 1.5, None, random.Random(0))
def test_point_row_order_is_no_input(dataset, coeffs, radius, limit, rng):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius,
                          cost_limit=limit, theta=1.0)
    _assert_row_order_is_no_input(dataset, "v", params, rng)


@given(tilings(), st.sampled_from([1.2, 2.5]), st.floats(0, 1), st.randoms(use_true_random=False))
def test_polygon_row_order_is_no_input(case, reach, gamma, rng):
    dataset, _, _ = case
    radius = reach * polygon_area(dataset.sites[0]) ** 0.5
    params = WeightParams(gamma=gamma, radius=radius, theta=1.0)
    _assert_row_order_is_no_input(dataset, "v", params, rng)


@pytest.mark.parametrize("build, attribute, radius", [
    (network_dataset, NETWORK_ATTRIBUTE, NETWORK_RADIUS),
    (village_dataset, VILLAGE_ATTRIBUTE, VILLAGE_RADIUS),
    (survey_dataset, SURVEY_ATTRIBUTE, SURVEY_RADIUS),
], ids=["network", "village", "survey"])
@settings(max_examples=5)
@given(coefficients, st.randoms(use_true_random=False))
def test_fixture_row_order_is_no_input(build, attribute, radius, coeffs, rng):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius, cost_limit=4.0)
    _assert_row_order_is_no_input(build(), attribute, params, rng)


# every float that scales with the attribute stays within 2**±400: its square,
# its products with weights and its differences from its kind are then normal
# floats too, so scaling by a power of two is exact at every step
_MARGIN = 400


def _scaled(dataset, k):
    """The dataset with every attribute value times 2**k."""
    sites = tuple(
        replace(site, attributes={name: math.ldexp(v, k) for name, v in site.attributes.items()})
        for site in dataset.sites
    )
    return SpatialDataset(sites=sites, edges=dataset.edges,
                          attribute_names=dataset.attribute_names)


def _detections(dataset, attribute, params):
    """Each (regime, mode) the dataset allows, with its detection or error."""
    regimes = POLYGON_REGIMES if dataset.kind == "polygon" else POINT_REGIMES
    return {(regime, mode): _attempt(detect_outliers, dataset, attribute, params, mode, regime)
            for regime in regimes for mode in MODES}


def _scaling(result):
    """A detection's floats that scale with the attribute: mu, sigma and each
    score's actual, expected and diff."""
    return [result.mu, result.sigma, *(x for score in result.scores for x in score[1:4])]


def _fixed(result):
    return repr((result.attribute, result.theta, result.skipped,
                 [(score.site, score.z, score.is_outlier) for score in result.scores]))


def _comparisons(found, regimes):
    """The model comparison of each regime whose two detections are scores."""
    return {regime: _attempt(compare_models, found[regime, "classical"][1],
                             found[regime, "weighted"][1])
            for regime in regimes
            if found[regime, "classical"][0] == found[regime, "weighted"][0] == "ok"}


def _times(values, k):
    return [repr(math.ldexp(v, k)) for v in values]


def _assert_attribute_scale_is_no_input(dataset, attribute, params, data):
    found = _detections(dataset, attribute, params)
    scaling = [*dataset.values(attribute).values()]
    for outcome in found.values():
        scaling += _scaling(outcome[1]) if outcome[0] == "ok" else []
    exponents = [math.frexp(x)[1] for x in scaling if x and math.isfinite(x)]
    low, high = min(exponents, default=0), max(exponents, default=0)
    assume(-_MARGIN <= low and high <= _MARGIN)
    k = data.draw(st.integers(-_MARGIN - low, _MARGIN - high), label="k")

    scaled = _detections(_scaled(dataset, k), attribute, params)
    for key, outcome in found.items():
        if outcome[0] == "raised":
            assert scaled[key] == outcome
            continue
        assert scaled[key][0] == "ok", (key, scaled[key])
        assert _times(_scaling(scaled[key][1]), 0) == _times(_scaling(outcome[1]), k)
        assert _fixed(scaled[key][1]) == _fixed(outcome[1])

    regimes = {regime for regime, _ in found}
    scaled_comparisons = _comparisons(scaled, regimes)
    for regime, outcome in _comparisons(found, regimes).items():
        if outcome[0] == "raised":
            assert scaled_comparisons[regime] == outcome
            continue
        report, got = outcome[1], scaled_comparisons[regime][1]
        assert repr((got.attribute, got.mean_improvement_pct, got.mean_sq_error_reduction_pct)) \
            == repr((report.attribute, report.mean_improvement_pct,
                     report.mean_sq_error_reduction_pct))
        for want, row in zip(report.per_site, got.per_site, strict=True):
            assert row.site == want.site
            assert _times(row[1:4], 0) == _times(want[1:4], k)
            assert _times(row[4:7], 0) == _times(want[4:7], 2 * k)
            assert repr(row.improvement_pct) == repr(want.improvement_pct)


@given(
    multigraphs(dangling=False),
    coefficients,
    st.sampled_from([1.5, 3.0]),
    st.one_of(st.none(), st.floats(0.5, 12)),
    st.data(),
)
def test_point_attribute_scale_is_no_input(dataset, coeffs, radius, limit, data):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius,
                          cost_limit=limit, theta=1.0)
    _assert_attribute_scale_is_no_input(dataset, "v", params, data)


@given(tilings(), st.sampled_from([1.2, 2.5]), st.floats(0, 1), st.data())
def test_polygon_attribute_scale_is_no_input(case, reach, gamma, data):
    dataset, _, _ = case
    radius = reach * polygon_area(dataset.sites[0]) ** 0.5
    params = WeightParams(gamma=gamma, radius=radius, theta=1.0)
    _assert_attribute_scale_is_no_input(dataset, "v", params, data)


@pytest.mark.parametrize("build, attribute, radius", [
    (network_dataset, NETWORK_ATTRIBUTE, NETWORK_RADIUS),
    (village_dataset, VILLAGE_ATTRIBUTE, VILLAGE_RADIUS),
    (survey_dataset, SURVEY_ATTRIBUTE, SURVEY_RADIUS),
], ids=["network", "village", "survey"])
@settings(max_examples=10)
@given(coefficients, st.data())
def test_fixture_attribute_scale_is_no_input(build, attribute, radius, coeffs, data):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius, cost_limit=4.0)
    _assert_attribute_scale_is_no_input(build(), attribute, params, data)



FIXTURES = pytest.mark.parametrize("build, attribute, radius", [
    (network_dataset, NETWORK_ATTRIBUTE, NETWORK_RADIUS),
    (village_dataset, VILLAGE_ATTRIBUTE, VILLAGE_RADIUS),
    (survey_dataset, SURVEY_ATTRIBUTE, SURVEY_RADIUS),
], ids=["network", "village", "survey"])


def _geometry_scaled(dataset, params, k):
    """The point dataset and params with every coordinate, edge length,
    edge cost, radius and cost limit times 2**k."""
    sites = tuple(replace(site, x=math.ldexp(site.x, k), y=math.ldexp(site.y, k))
                  for site in dataset.sites)
    edges = tuple(edge._replace(length=math.ldexp(edge.length, k), cost=math.ldexp(edge.cost, k))
                  for edge in dataset.edges)
    limit = None if params.cost_limit is None else math.ldexp(params.cost_limit, k)
    return (SpatialDataset(sites=sites, edges=edges, attribute_names=dataset.attribute_names),
            replace(params, radius=math.ldexp(params.radius, k), cost_limit=limit))


def _assert_geometry_scale_is_no_input(dataset, attribute, params, data):
    geometry = [params.radius, params.cost_limit or 0.0]
    geometry += [v for site in dataset.sites for v in (site.x, site.y)]
    geometry += [v for edge in dataset.edges for v in (edge.length, edge.cost)]
    # within 2**±400, inverses, sums along paths and sums of shares stay
    # normal floats too, so scaling by a power of two is exact at every step
    exponents = [math.frexp(x)[1] for x in geometry if x and math.isfinite(x)]
    low, high = min(exponents), max(exponents)
    assume(-_MARGIN <= low and high <= _MARGIN)
    k = data.draw(st.integers(-_MARGIN - low, _MARGIN - high), label="k")
    scaled, scaled_params = _geometry_scaled(dataset, params, k)
    assert _runs(scaled, attribute, scaled_params) == _runs(dataset, attribute, params)


@given(
    st.one_of(multigraphs(dangling=False), mixed_id_multigraphs()),
    coefficients,
    st.sampled_from([1.5, 3.0]),
    st.one_of(st.none(), st.floats(0.5, 12)),
    st.data(),
)
def test_point_geometry_scale_is_no_input(dataset, coeffs, radius, limit, data):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius,
                          cost_limit=limit, theta=1.0)
    _assert_geometry_scale_is_no_input(dataset, "v", params, data)


@FIXTURES
@settings(max_examples=10)
@given(coefficients, st.data())
def test_fixture_geometry_scale_is_no_input(build, attribute, radius, coeffs, data):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius, cost_limit=4.0)
    _assert_geometry_scale_is_no_input(build(), attribute, params, data)


# an int repr that is a whole token, not part of a float, name or power, or a str repr
_ID_TOKEN = re.compile(r"'[^']*'|(?<![\w.*])-?\d+(?![\w.*])")


def _relabeled_outcome(outcome, new, tokens):
    """The outcome a run on relabeled ids should give, from the original's:
    each id in a result mapped by new, each id named in an error by tokens
    (repr to repr)."""
    if outcome[0] == "raised":
        _, kind, text = outcome
        return "raised", kind, _ID_TOKEN.sub(lambda m: tokens.get(m[0], m[0]), text)
    result = outcome[1]
    if isinstance(result, DetectionResult):
        return "ok", replace(result, scores=tuple(s._replace(site=new(s.site)) for s in result.scores),
                             skipped=tuple(map(new, result.skipped)))
    if isinstance(result, ComparisonReport):
        return "ok", replace(result, per_site=tuple(r._replace(site=new(r.site))
                                                    for r in result.per_site))
    return "ok", replace(result, center=new(result.center),
                         entries=tuple((new(n), w) for n, w in result.entries))


def _assert_ordered_relabeling_is_no_input(dataset, attribute, params, shift, prefix):
    def new(sid):
        return sid + shift if isinstance(sid, int) else prefix + sid

    sites = tuple(replace(site, id=new(site.id)) for site in dataset.sites)
    edges = tuple(edge._replace(source=new(edge.source), target=new(edge.target))
                  for edge in dataset.edges)
    relabeled = SpatialDataset(sites=sites, edges=edges, attribute_names=dataset.attribute_names)
    assert _key_sorted(relabeled.site_ids()) == list(map(new, _key_sorted(dataset.site_ids())))
    tokens = {repr(sid): repr(new(sid)) for sid in dataset.site_ids()}
    want = _outcomes(dataset, attribute, params)
    got = _outcomes(relabeled, attribute, params)
    assert repr(got) == repr([_relabeled_outcome(outcome, new, tokens) for outcome in want])
    for before, after in zip(want, got):
        if after[0] == "ok" and isinstance(after[1], DetectionResult):
            # report rows, ordered by z and then by id
            assert [row.site for row in _score_rows(after[1])] == \
                [new(row.site) for row in _score_rows(before[1])]


shifts = st.one_of(st.integers(0, 64), st.integers(0, 2 ** 70))
# no comma, quote or line break, which a CSV or an error text would quote or escape
prefixes = st.text(alphabet="aZ0 _-éÿ中\U0001f600", min_size=1, max_size=3)


@given(
    st.one_of(multigraphs(dangling=False), mixed_id_multigraphs()),
    coefficients,
    st.sampled_from([1.5, 3.0]),
    st.one_of(st.none(), st.floats(0.5, 12)),
    shifts,
    prefixes,
)
# every neighbor of center 0 is over the cost limit: the error names center 0
@example(_PARALLEL, (0.0, 0.0, 1.0), 1.5, 0.5, 7, "z")
def test_point_ordered_relabeling_is_no_input(dataset, coeffs, radius, limit, shift, prefix):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius,
                          cost_limit=limit, theta=1.0)
    _assert_ordered_relabeling_is_no_input(dataset, "v", params, shift, prefix)


@given(tilings(), st.sampled_from([1.2, 2.5]), st.floats(0, 1), prefixes)
def test_polygon_ordered_relabeling_is_no_input(case, reach, gamma, prefix):
    dataset, _, _ = case
    radius = reach * polygon_area(dataset.sites[0]) ** 0.5
    params = WeightParams(gamma=gamma, radius=radius, theta=1.0)
    _assert_ordered_relabeling_is_no_input(dataset, "v", params, 0, prefix)


@FIXTURES
@settings(max_examples=5)
@given(coefficients, prefixes)
def test_fixture_ordered_relabeling_is_no_input(build, attribute, radius, coeffs, prefix):
    alpha, beta, delta = coeffs
    params = WeightParams(alpha=alpha, beta=beta, delta=delta, radius=radius, cost_limit=4.0)
    _assert_ordered_relabeling_is_no_input(build(), attribute, params, 0, prefix)
