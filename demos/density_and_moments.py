"""Walk through the exact distribution of the sample correlation R.

Draws n paired Gaussians with population correlation rho and you get a
random R in [-1, 1].  This script evaluates its exact density and its
exact moments, which integrate the density by the trapezoid rule in
Fisher's z = atanh r on two interleaved grids that check each other.
"""

import numpy as np

from corrconc import (
    ModelParams, central_moment, density_at, exact_variance, moment, moment_quadrature,
)

# A small sample from a moderately correlated population.
params = ModelParams(rho=0.56, n=10)

print("Density of R at a few points (rho=0.56, n=10):")
for r in (-0.9, -0.5, 0.0, 0.3, 0.56, 0.8, 0.95):
    print(f"  f({r:+.2f}) = {density_at(params, r):.6f}")

# The density is skewed toward the population value: mass piles up near
# rho and thins out on the opposite side.
grid = np.linspace(-0.999, 0.999, 2001)
values = np.array([density_at(params, float(r)) for r in grid])
mode = grid[values.argmax()]
print(f"\nDensity mode sits near {mode:.3f} (population rho is {params.rho})")

print("\nExact moments on the base grid, with the shifted grid as cross-check:")
print("  m   base grid       shifted grid    nodes")
for m in range(5):
    res = moment(m, params)
    quad = moment_quadrature(m, params)
    print(f"  {m}   {res.value:+.12f} {quad:+.12f}  {res.terms_used}")

# The first moment is biased toward zero: E(R) < rho for rho > 0.
mean = moment(1, params).value
print(f"\nE(R) = {mean:.6f} < rho = {params.rho}: R underestimates rho on average.")

# Central moments integrate (r - rho)^k directly, with no subtraction of
# raw moments.
print(f"E(R - rho)^4 = {central_moment(4, params):.6e}, var(R) = {exact_variance(params):.6f}")

# Degenerate populations short-circuit: R is a point mass at +-1.
degenerate = moment(3, ModelParams(rho=-1.0, n=10))
print(f"Perfectly anticorrelated population: E(R^3) = {degenerate.value} exactly.")
