"""Exception types raised by the library."""


class SpatialOutlierError(Exception):
    """Base class for all library errors."""


class GeometryError(SpatialOutlierError):
    """Degenerate geometry: zero-area ring, bad ring, coincident centroids."""


class DegenerateDistanceError(GeometryError):
    """Two sites coincide, so an inverse-distance weight is undefined."""


class SiteLookupError(SpatialOutlierError):
    """Unknown site id, missing neighbor value, or mismatched site sets."""


class UnknownAttributeError(SpatialOutlierError):
    """Attribute name not declared by the dataset."""


class NoNeighborsError(SpatialOutlierError):
    """An operation that needs at least one neighbor got none."""


class DegenerateFactorsError(SpatialOutlierError):
    """No usable factor remains to weight a neighborhood."""


class DegenerateDistributionError(SpatialOutlierError):
    """Difference values cannot be standardized or compared.

    Either they have no spread beyond rounding noise (at or below
    detect.SPREAD_ULPS ulps of the largest |difference|), or they fall
    outside the float range: a difference, their sum or a deviation from
    their mean overflows.  Either way z-scores are undefined.  compare_models
    raises it too when a squared difference, the sum of a model's squared
    differences, or the sum of the improvement percentages overflows.
    """


class ParseError(SpatialOutlierError):
    """Malformed input file."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
