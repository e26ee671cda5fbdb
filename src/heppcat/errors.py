"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result.

    Raised when a root bracket collapses, a linear system is too
    ill-conditioned to solve, or a solver exceeds its depth budget.
    Maps to CLI exit code 4.
    """


class DegenerateDataError(ValueError):
    """Input data lacks the residual spectrum an operation requires.

    Examples: spectral initialization on noiseless rank-k data, where
    the trailing eigenvalue average is zero and no noise variance
    estimate exists; a fit in which a group's samples lie in the factor
    subspace, so its noise variance reaches 0.  Maps to CLI exit code 2.
    """
