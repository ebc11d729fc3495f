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
    """Every kernel weight of a step is below the smallest normal float.

    No residual is within reach of the kernel; rescale the targets or widen the grid.
    """

