"""Exception types shared across the package."""


class DegenerateDistributionError(ValueError):
    """The correlation is +-1, so R is a point mass and has no density."""


class DegenerateSampleError(ValueError):
    """A sample has zero variance in one coordinate; correlation undefined."""


class InfeasibleLevelError(ValueError):
    """The requested tail level can never be attained by the bound."""
