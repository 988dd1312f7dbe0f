"""The population model, rho and n, and the one rule for numeric arguments."""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass


def _integer(name: str, value) -> int:
    # What operator.index takes (numpy integers too) but a bool; a float is
    # refused, not truncated (seed 1.5 would run as seed 1).
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value) -> float:
    # Any numbers.Real but a bool (numpy scalars too), as a float (+-inf beyond
    # its range), so that a float32 never sets the precision of what follows.
    # float and int come first: the ABC check alone costs ~0.4 us, a quarter of tail_bound.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class ModelParams:
    """Bivariate Gaussian population: correlation rho in [-1, 1], 3 <= n <= sys.float_info.max.

    |rho| = 1 is the degenerate case where the sample correlation equals
    rho almost surely.  rho is stored as a float, n as an int.
    """

    rho: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "rho", _real("rho", self.rho))
        if not 3 <= self.n <= sys.float_info.max:
            raise ValueError(f"sample size n must lie in [3, sys.float_info.max], got {self.n}")
        if not math.isfinite(self.rho) or not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")

    @property
    def is_degenerate(self) -> bool:
        return abs(self.rho) == 1.0
