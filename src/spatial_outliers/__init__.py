"""Spatial outlier detection over weighted neighborhoods.

Sites influence their neighbors in proportion to how close, how connected,
and how cheaply reachable they are (or, for polygons, how near and how
large).  Each site's attribute value is compared against the weighted
expectation over its neighborhood, and sites whose standardized difference
exceeds a threshold are flagged as spatial outliers.

Typical use::

    from spatial_outliers import (
        SpatialDataset, WeightParams, detect_outliers, compare_models,
    )

    params = WeightParams(radius=6.0, theta=2.0)
    weighted = detect_outliers(dataset, "illit_f", params, mode="weighted")
    classical = detect_outliers(dataset, "illit_f", params, mode="classical")
    report = compare_models(classical, weighted)
"""

from .dataset import (
    Edge,
    PointSite,
    PolygonSite,
    SiteId,
    SpatialDataset,
    WeightParams,
    polygon_area,
    polygon_centroid,
    site_distance,
    validate_dataset,
)
from .detect import (
    ComparisonReport,
    DetectionResult,
    Significance,
    SiteComparison,
    SiteScore,
    compare_models,
    detect_outliers,
    difference_scores,
    expected_classical,
    expected_weighted,
    neighborhood_weights,
    significance_scores,
)
from .errors import (
    DegenerateDistanceError,
    DegenerateDistributionError,
    DegenerateFactorsError,
    GeometryError,
    NoNeighborsError,
    ParseError,
    SiteLookupError,
    SpatialOutlierError,
    UnknownAttributeError,
)
from .fileio import (
    load_edges,
    load_polygons,
    load_sites,
    render_report,
    write_report,
)
from .neighborhood import (
    NeighborFactors,
    buffer_neighbors,
    collect_factors,
    direct_connection_count,
    graph_neighbors,
    min_cost,
    polygon_adjacent_neighbors,
)
from .weights import WeightedNeighborhood

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DegenerateDistanceError",
    "DegenerateDistributionError",
    "DegenerateFactorsError",
    "DetectionResult",
    "Edge",
    "GeometryError",
    "NeighborFactors",
    "NoNeighborsError",
    "ParseError",
    "PointSite",
    "PolygonSite",
    "Significance",
    "SiteComparison",
    "SiteId",
    "SiteLookupError",
    "SiteScore",
    "SpatialDataset",
    "SpatialOutlierError",
    "UnknownAttributeError",
    "WeightParams",
    "WeightedNeighborhood",
    "buffer_neighbors",
    "collect_factors",
    "compare_models",
    "detect_outliers",
    "difference_scores",
    "direct_connection_count",
    "expected_classical",
    "expected_weighted",
    "graph_neighbors",
    "load_edges",
    "load_polygons",
    "load_sites",
    "min_cost",
    "neighborhood_weights",
    "polygon_adjacent_neighbors",
    "polygon_area",
    "polygon_centroid",
    "render_report",
    "significance_scores",
    "site_distance",
    "validate_dataset",
    "write_report",
]
