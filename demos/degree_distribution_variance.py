"""How the truncation-degree distribution controls estimator variance.

A Chebyshev series truncated at a random degree n, with coefficients
re-weighted by 1/(1 - sum_{i<j} q_i), is an unbiased surrogate for the
expanded function.  The price of unbiasedness is variance, and the
variance depends entirely on the degree distribution.  This script
compares the closed-form weighted variance of the optimal distribution
(point mass plus geometric tail) against Poisson and negative-binomial
baselines at equal expected degree, from log's closed-form coefficients
and the package's one variance evaluator, ``log_weighted_variance``.
"""

import math

import numpy as np

from spectral_cheb import (
    Interval,
    compute_coefficients,
    log_weighted_variance,
    negbinomial_distribution,
    optimal_distribution,
    poisson_distribution,
    rho_from_endpoint_singularity,
    sample_degree,
    weighted_coefficients,
)

# Expand log(x) on [0.05, 0.95].  The singularity at zero fixes the
# largest Bernstein ellipse, hence the geometric decay rate of the
# coefficients.

interval = Interval(0.05, 0.95)
rho = rho_from_endpoint_singularity(interval)
series = compute_coefficients(np.log, interval, degree=300)
print(f"log on [{interval.a}, {interval.b}]: coefficient decay rho = {rho:.4f}")
print("|b_j| at j = 0, 5, 20, 50:", [f"{abs(series.coeffs[j]):.3e}" for j in (0, 5, 20, 50)])

# One randomized truncation: draw a degree, re-weight the coefficients.
# Below the distribution's support the weights are exactly 1.

dist = optimal_distribution(rho, 10)
rng = np.random.default_rng(0)
n = sample_degree(dist, rng)
bhat = weighted_coefficients(series, dist, n)
print(f"\nsampled degree n = {n}; re-weighting factors b_hat/b at j = 0..{n}:")
print(np.array2string(bhat / series.coeffs[: n + 1], precision=3))

# The variance comparison at equal mean degree, (pi/2) sum_j b_j^2
# S_{j-1} / (1 - S_{j-1}) over j = 1..300.  log's coefficients are
# b_j = 2 (-1)^(j+1) rho^-j / j in closed form, and the sum runs in log
# space.  Passing rho also decides convergence of the infinite series:
# coefficients falling like rho^-j against a law whose pmf ratio tends to
# c converge iff c rho^2 > 1.  Poisson's ratio tends to 0, so its column
# is inf; the optimal distribution wins by orders of magnitude over
# negative-binomial, and the deterministic baseline would be inf too (it
# never reaches the coefficients above its truncation point).

j = np.arange(1, 301)
log_b = math.log(2.0) - j * math.log(rho) - np.log(j)
print(f"\n{'N':>4} {'optimal':>12} {'poisson':>12} {'negbin(5)':>12}")
for mean_n in (5, 10, 20, 50):
    dists = (optimal_distribution(rho, mean_n), poisson_distribution(mean_n),
             negbinomial_distribution(mean_n, 5))
    row = [math.exp(log_weighted_variance(log_b, dist, rho)) for dist in dists]
    print(f"{mean_n:>4}" + "".join(f" {v:>12.3e}" for v in row))

# The CLI bench tabulates the same closed form for log, sqrt, exp and
# polynomials over the sweep N = 5..100, including values below the
# double range (it prints them from their logs):
#
#   spectral-cheb variance-bench --func log --rho 1.5954 --out bench.csv
