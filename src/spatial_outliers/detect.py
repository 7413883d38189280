"""Expectation models, standardized difference scoring, and model comparison.

A site is flagged when its attribute value differs from its neighborhood
expectation by more than theta population standard deviations.  Both modes
take one weighted expectation: classical at uniform weights (the plain
neighbor mean), weighted at the weights of each center's column pass.
``compare_models`` quantifies how much that shrinks the squared difference error.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .dataset import SiteId, SpatialDataset, WeightParams, _key_sorted
from .errors import (
    DegenerateDistributionError,
    NoNeighborsError,
    SiteLookupError,
    UnknownAttributeError,
)
from .neighborhood import buffer_neighbors, graph_neighbors, polygon_adjacent_neighbors
from .weights import WeightedNeighborhood, _weigher

REGIMES = ("buffer", "graph", "polygon", "combined")
MODES = ("classical", "weighted")

# Rounding mu shifts every z by up to ulp(max|d|) / (2 sigma), so a spread of
# at most this many ulps of the largest |difference| is degenerate: above it,
# rounding moves no z by more than 2**-31.
SPREAD_ULPS = 2.0 ** 30


class SiteScore(NamedTuple):
    site: SiteId
    actual: float
    expected: float
    diff: float
    z: float
    is_outlier: bool


@dataclass(frozen=True)
class DetectionResult:
    """Per-site scores plus the population statistics behind the z values.

    Sites with empty neighborhoods are listed in ``skipped`` and excluded
    from mu and sigma.  mu/sigma are NaN when nothing could be scored.
    """

    attribute: str
    scores: tuple[SiteScore, ...]
    mu: float
    sigma: float
    theta: float
    skipped: tuple[SiteId, ...] = ()

    def outlier_ids(self) -> set[SiteId]:
        return {s.site for s in self.scores if s.is_outlier}

    def score_for(self, site_id: SiteId) -> SiteScore:
        for score in self.scores:
            if score.site == site_id:
                return score
        raise SiteLookupError(f"no score for site {site_id!r}")


@dataclass(frozen=True)
class Significance:
    """z per site with the population mean/std of the differences."""

    mu: float
    sigma: float
    z: dict[SiteId, float]
    outliers: frozenset[SiteId]


class SiteComparison(NamedTuple):
    site: SiteId
    actual: float
    expected_classical: float
    expected_weighted: float
    sq_error_classical: float
    sq_error_weighted: float
    sq_error_delta: float
    improvement_pct: float | None


@dataclass(frozen=True)
class ComparisonReport:
    """Per-site squared-error deltas between classical and weighted runs."""

    attribute: str
    per_site: tuple[SiteComparison, ...]
    mean_improvement_pct: float | None
    mean_sq_error_reduction_pct: float | None


def _expectation(weights: Iterable[float], neighbor_values: list[float]) -> float:
    """The exact sum of weight * value; an empty neighborhood raises.

    Weights sum to one, so equal neighbor values give exactly that value;
    rounded products can miss it by an ulp, which would turn a constant
    attribute into z-scores of rounding noise.
    """
    if not neighbor_values:
        raise NoNeighborsError("expectation over an empty neighborhood")
    first = neighbor_values[0]
    if neighbor_values.count(first) == len(neighbor_values):
        return first + 0.0  # -0.0 becomes 0.0, as in math.fsum
    return math.fsum(map(mul, weights, neighbor_values))


def expected_classical(neighbor_values: list[float]) -> float:
    """Plain neighbor mean: _expectation at the uniform weight 1/n, repeated, not listed."""
    n = len(neighbor_values)
    return _expectation(repeat(1.0 / n) if n else (), neighbor_values)


def expected_weighted(
    weights: WeightedNeighborhood, values: dict[SiteId, float]
) -> float:
    """Weight-of-effect average of the neighbor values."""
    try:
        neighbor_values = [values[neighbor] for neighbor, _ in weights.entries]
    except KeyError as exc:
        raise SiteLookupError(f"no value for weighted neighbor {exc.args[0]!r}") from None
    return _expectation([w for _, w in weights.entries], neighbor_values)


def difference_scores(
    actuals: dict[SiteId, float], expecteds: dict[SiteId, float]
) -> dict[SiteId, float]:
    """Per-site difference: actual minus expected."""
    if set(actuals) != set(expecteds):
        raise SiteLookupError("actual and expected cover different sites")
    return {sid: actuals[sid] - expecteds[sid] for sid in actuals}


def significance_scores(diffs: dict[SiteId, float], theta: float) -> Significance:
    """Standardize the differences and flag |z| > theta.

    sigma is the population (divide-by-N) standard deviation; z keeps its
    sign even though the flag test is two-sided.  A difference, sum or
    deviation from mu outside the float range raises, as weights._shares
    drops such a factor sum; so does a spread at or below
    SPREAD_ULPS * ulp(max|d|), which is rounding noise.
    """
    if not diffs:
        raise DegenerateDistributionError("no differences to standardize")
    ordered = _key_sorted(diffs)
    n = len(ordered)
    try:
        mu = math.fsum(diffs[sid] for sid in ordered) / n
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        mu = math.inf
    largest = max(abs(diffs[sid]) for sid in ordered)
    # squares are taken in units of a power of two near max|d|: exact, and
    # tiny differences no longer underflow; d * d is rounded once, as d ** 2,
    # the C library's pow, may not be
    _, exp = math.frexp(largest)
    scaled = [math.ldexp(diffs[sid] - mu, -exp) for sid in ordered]
    sigma = math.ldexp(math.sqrt(math.fsum(d * d for d in scaled) / n), exp)
    if not sigma < math.inf:  # inf or nan: a difference, sum or deviation overflowed
        raise DegenerateDistributionError(
            "differences outside the float range: "
            "a difference, their sum or a deviation from their mean overflows")
    if sigma <= SPREAD_ULPS * math.ulp(largest):
        raise DegenerateDistributionError(
            "differences have no spread beyond rounding: "
            "sigma at or below 2**30 ulps of max|d|"
        )
    z = {sid: (diffs[sid] - mu) / sigma for sid in ordered}
    return Significance(
        mu=mu,
        sigma=sigma,
        z=z,
        outliers=frozenset(sid for sid in ordered if abs(z[sid]) > theta),
    )


def default_regime(dataset: SpatialDataset) -> str:
    if dataset.kind == "polygon":
        return "polygon"
    return "combined" if dataset.edges else "buffer"


def _neighbors(dataset, center, regime, params) -> set[SiteId]:
    """The center's neighbors under the regime, in no particular order."""
    if regime == "graph":
        return graph_neighbors(dataset, center)
    if regime == "polygon":
        return polygon_adjacent_neighbors(dataset, center)
    if params.radius is None:
        raise ValueError(f"regime {regime!r} requires a buffer radius")
    return buffer_neighbors(dataset, center, params.radius)


def neighborhood_weights(
    dataset: SpatialDataset,
    center: SiteId,
    params: WeightParams,
    regime: str,
) -> WeightedNeighborhood:
    """The library's one weighting call: one site's weighted neighborhood.

    buffer weights by inverse distance, graph by connection count, combined
    blends distance, connections, and traversal cost over the buffer
    membership, polygon mixes centroid distance with area, in the column
    pass (and with the weights) that weighted detection makes.
    """
    regime = _check_regime(dataset, regime)
    found = _neighbors(dataset, center, regime, params)
    ids, weights = _weigher(dataset, params, regime)(center, found)
    return WeightedNeighborhood(center=center, entries=tuple(zip(ids, weights)))


def _check_regime(dataset: SpatialDataset, regime: str | None) -> str:
    """The regime, or the dataset's default when None, if the dataset allows it."""
    regime = regime or default_regime(dataset)
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    if regime == "polygon" and dataset.kind != "polygon":
        raise ValueError("polygon regime requires a polygon dataset")
    if regime in ("graph", "combined") and dataset.kind == "polygon":
        raise ValueError(f"{regime} regime requires a point dataset")
    return regime


def detect_outliers(
    dataset: SpatialDataset,
    attribute: str,
    params: WeightParams,
    mode: str = "weighted",
    regime: str | None = None,
) -> DetectionResult:
    """Run the full scoring pipeline over every site.

    Neighbors are discovered under the regime (defaulting by dataset kind),
    expectations use uniform weights in classical mode or the regime's
    weighting in weighted mode, and the standardized differences are
    flagged against params.theta.  Sites without neighbors are skipped.
    """
    if attribute not in dataset.attribute_names:
        raise UnknownAttributeError(f"attribute {attribute!r} not declared")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    regime = _check_regime(dataset, regime)

    values = dataset.values(attribute)
    order = _key_sorted(dataset.site_ids())
    weigh = _weigher(dataset, params, regime) if mode == "weighted" else None
    expecteds: dict[SiteId, float] = {}
    skipped: list[SiteId] = []
    for center in order:
        found = _neighbors(dataset, center, regime, params)
        if not found:
            skipped.append(center)
            continue
        if mode == "classical":
            try:  # set order: an exact sum of equal-weight products has no order
                neighbor_values = [values[n] for n in found]
            except KeyError:  # a neighbor that is no site: name the first in key order
                for neighbor in _key_sorted(found):
                    dataset.site(neighbor)
            expecteds[center] = expected_classical(neighbor_values)
        else:  # discovered again: bench/test_bench.py pins two discoveries per center
            found = _neighbors(dataset, center, regime, params)
            ids, weights = weigh(center, found)
            # ids passed the factor view, so each is a site id, and every site has a value
            expecteds[center] = _expectation(weights, list(map(values.__getitem__, ids)))

    scores, mu, sigma = (), math.nan, math.nan  # nothing scored: mu and sigma are nan
    if expecteds:
        diffs = difference_scores({sid: values[sid] for sid in expecteds}, expecteds)
        significance = significance_scores(diffs, params.theta)
        mu, sigma = significance.mu, significance.sigma
        # tuple.__new__ is what SiteScore._make calls, without a frame per score
        scores = tuple(map(tuple.__new__, repeat(SiteScore), zip(
            expecteds, map(values.__getitem__, expecteds), expecteds.values(),
            map(diffs.__getitem__, expecteds), map(significance.z.__getitem__, expecteds),
            map(significance.outliers.__contains__, expecteds),
        )))  # expecteds is inserted in key order
    return DetectionResult(attribute=attribute, scores=scores, mu=mu, sigma=sigma,
                           theta=params.theta, skipped=tuple(skipped))


def compare_models(
    classical: DetectionResult, weighted: DetectionResult
) -> ComparisonReport:
    """Squared-error comparison of the two expectation models per site.

    Squared differences, their sum per model or the sum of improvement
    percentages outside the float range raise, as significance_scores does.
    """
    if classical.attribute != weighted.attribute:
        raise ValueError(
            "cannot compare results for different attributes "
            f"({classical.attribute!r} vs {weighted.attribute!r})"
        )
    c_by_site = {s.site: s for s in classical.scores}
    w_by_site = {s.site: s for s in weighted.scores}
    if set(c_by_site) != set(w_by_site):
        raise SiteLookupError("results cover different site sets")

    ordered = _key_sorted(c_by_site)
    # d * d is rounded once, and (2d)(2d) is 4dd; d ** 2 is the C library's pow, which may miss
    squares_c = [c_by_site[sid].diff * c_by_site[sid].diff for sid in ordered]
    squares_w = [w_by_site[sid].diff * w_by_site[sid].diff for sid in ordered]
    try:
        total_c, total_w = math.fsum(squares_c), math.fsum(squares_w)
    except OverflowError:  # finite squares whose sum overflows
        total_c = total_w = math.inf
    if math.inf in (total_c, total_w):  # or a square that overflows
        raise DegenerateDistributionError(
            "squared errors outside the float range: "
            "a squared difference or their sum overflows")
    rows = []
    improvements = []
    for sid, sq_c, sq_w in zip(ordered, squares_c, squares_w):
        delta = sq_c - sq_w
        if sq_c > 0.0:
            pct = delta / sq_c * 100.0
        elif sq_w == 0.0:
            pct = 0.0
        else:
            pct = None  # classical was already perfect; ratio undefined
        if pct is not None:
            improvements.append(pct)
        rows.append(
            SiteComparison(
                site=sid,
                actual=c_by_site[sid].actual,
                expected_classical=c_by_site[sid].expected,
                expected_weighted=w_by_site[sid].expected,
                sq_error_classical=sq_c,
                sq_error_weighted=sq_w,
                sq_error_delta=delta,
                improvement_pct=pct,
            )
        )
    try:  # no pct exceeds 100; -inf sorts first, so fsum raises on any overflow after it
        mean_pct = math.fsum(sorted(improvements)) / len(improvements) if improvements else None
    except OverflowError:
        raise DegenerateDistributionError(
            "improvement percentages outside the float range: their sum overflows") from None

    return ComparisonReport(
        attribute=classical.attribute,
        per_site=tuple(rows),
        mean_improvement_pct=mean_pct,
        mean_sq_error_reduction_pct=(
            (total_c - total_w) / total_c * 100.0 if total_c > 0.0 else None
        ),
    )
