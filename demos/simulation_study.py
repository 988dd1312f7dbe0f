"""Monte Carlo validation of the closed forms and coverage intervals.

Replicates the simulation experiment: draw ten thousand values of R,
compare their mean and spread with the closed-form approximations, and
count how many land inside each coverage interval.  The engine keys an
independent random stream to every replication, so results depend only
on the seed, never on scheduling; the rho values of one study share
those streams and are drawn once.
"""

import math

from corrconc import (
    ModelParams,
    SimConfig,
    TailBoundKind,
    mean_approx,
    run_experiment,
    var_approx,
    variance_bounds,
)

SEED = 2023
KINDS = (
    TailBoundKind.CONSERVATIVE,
    TailBoundKind.AGGRESSIVE,
    TailBoundKind.MEGA_AGGRESSIVE,
)


def study(rhos, n):
    """One summary per rho, all from one set of draws (common random
    numbers); each equals the summary of a separate run at that rho."""
    cfgs = [SimConfig(params=ModelParams(rho=rho, n=n), reps=10_000, seed=SEED) for rho in rhos]
    return zip(rhos, run_experiment(cfgs))


paper = list(study((0.0, -0.25, 0.56, -0.75, 0.95), n=10))

print("Summary statistics, 10000 replications of R at n=10:")
print("  rho    E(R)    mean_r   sd(R)   sd_r    UB")
for rho, summary in paper:
    params = ModelParams(rho=rho, n=10)
    ub = math.sqrt(variance_bounds(params).upper_conservative)
    print(
        f"  {rho:5.2f}  {mean_approx(params):6.3f}  {summary.mean_r:6.3f}  "
        f"{math.sqrt(var_approx(params)):6.3f}  {summary.sd_r:6.3f}  {ub:6.3f}"
    )

print("\nEmpirical coverage of the nested 95% intervals (n=10):")
print("  rho     loose   middle  tight")
for rho, summary in paper:
    cells = "  ".join(f"{100 * summary.coverage[k]:6.1f}" for k in KINDS)
    print(f"  {rho:5.2f}  {cells}")

print("\nSame experiment at a larger sample size (n=100):")
for rho, summary in study((0.0, 0.56, 0.95), n=100):
    cells = "  ".join(f"{100 * summary.coverage[k]:6.1f}" for k in KINDS)
    print(f"  {rho:5.2f}  {cells}")

print("\nDeterminism: rerunning with the same seed reproduces results exactly.")
a = run_experiment(SimConfig(params=ModelParams(rho=0.56, n=10), reps=2000, seed=SEED))
b = run_experiment(SimConfig(params=ModelParams(rho=0.56, n=10), reps=2000, seed=SEED))
print(f"  identical summaries: {a == b}")
