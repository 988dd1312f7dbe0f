"""Core parameter types: population model and moment-series truncation control."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Bivariate Gaussian population: correlation rho in [-1, 1], sample size n >= 3.

    |rho| = 1 is the degenerate case where the sample correlation equals
    rho almost surely.
    """

    rho: float
    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"n must be an integer, got {self.n!r}")
        if self.n < 3:
            raise ValueError(f"sample size n must be >= 3, got {self.n}")
        if not math.isfinite(self.rho) or not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")

    @property
    def is_degenerate(self) -> bool:
        return abs(self.rho) == 1.0


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the infinite series of the moments E(R^m)
    (the density is a closed form and takes none).

    rel_tol is the relative contribution below which a term stops the
    summation (once the term ratio has dropped below one); max_terms
    caps the number of evaluated terms.
    """

    rel_tol: float = 1e-14
    max_terms: int = 100_000

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


DEFAULT_SERIES_CONFIG = SeriesConfig()
