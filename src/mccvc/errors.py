"""Exception types shared across the package."""


class MccvcError(Exception):
    """Base class for all package-specific failures."""


class DataError(MccvcError):
    """Raised for unusable input data (CSV parse failures, bad splits, ...)."""


class SolverError(MccvcError):
    """Raised when a numerical routine cannot produce a usable result."""


class SingularSystemError(SolverError):
    """Normal-equations matrix is singular and no regularization was given."""


class DegenerateWeightsError(SolverError):
    """Every correntropy weight underflowed to zero with no regularization.

    This signals a kernel width far smaller than the current residual scale.
    """

