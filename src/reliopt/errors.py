"""Exception types shared across the package."""


class ReliOptError(Exception):
    """Base class for every package-specific error."""


class MalformedRowError(ReliOptError):
    """A CSV file is not UTF-8 text, its header repeats a name, or a row has
    the wrong field count or a non-numeric feature cell."""


class MalformedModelError(ReliOptError):
    """A model file is not UTF-8 JSON of the shape ``fit`` writes."""


class UnknownLabelColumnError(ReliOptError):
    """The requested label column does not exist in the file header."""


class InvalidLabelError(ReliOptError):
    """A label cell is missing or holds a value other than 0 or 1."""


class MissingValuesRejectedError(ReliOptError):
    """Missing cells found while the policy forbids imputation."""


class AllMissingColumnError(ReliOptError):
    """A column is entirely missing, so no mean can be computed for it."""


class InvalidDimensionsError(ReliOptError):
    pass


class DimensionMismatchError(ReliOptError):
    pass


class SingleClassDatasetError(ReliOptError):
    """Fitting needs at least one healthy and one bankrupt example."""


class SingularHessianError(ReliOptError):
    """Newton step is unsolvable even with the fallback ridge switched on."""


class NonFiniteIterateError(ReliOptError):
    """A Newton iterate left the representable range."""
