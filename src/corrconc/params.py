"""The population model: correlation rho and sample size n."""

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
