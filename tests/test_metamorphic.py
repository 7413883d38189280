"""Metamorphic tests: relations that hold exactly from end to end.

Row order is no input.  Shuffling the sites and the edges of a dataset must
give equal detections in both modes under every regime the dataset allows,
equal model comparisons and equal weighted neighborhoods for every center,
or the same error, type and text.  Every float is compared by its repr,
which round-trips it, nan included.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from spatial_outliers import (
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

from test_index import multigraphs, tilings

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
    """repr of every detection, comparison and weighted neighborhood, or of
    the error each raises, centers in key order."""
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
    return repr(runs)


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
