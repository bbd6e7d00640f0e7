"""How the truncation-degree distribution controls estimator variance.

A Chebyshev series truncated at a random degree n, with coefficients
re-weighted by 1/(1 - sum_{i<j} q_i), is an unbiased surrogate for the
expanded function.  The price of unbiasedness is variance, and the
variance depends entirely on the degree distribution.  This script
compares the closed-form weighted variance of the optimal distribution
(point mass plus geometric tail) against Poisson and negative-binomial
baselines at equal expected degree.
"""

import numpy as np

from spectral_cheb import (
    Interval,
    chebyshev_weighted_variance,
    compute_coefficients,
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

# The variance comparison at equal mean degree.  The optimal
# distribution wins by orders of magnitude; the deterministic baseline
# would be infinite (it can never reach the coefficients above its
# truncation point).

print(f"\n{'N':>4} {'optimal':>12} {'poisson':>12} {'negbin(5)':>12}")
for mean_n in (5, 10, 20, 50):
    v_opt = chebyshev_weighted_variance(series, optimal_distribution(rho, mean_n), 400)
    v_pois = chebyshev_weighted_variance(series, poisson_distribution(mean_n), 400)
    v_neg = chebyshev_weighted_variance(series, negbinomial_distribution(mean_n, 5), 400)
    print(f"{mean_n:>4} {v_opt:>12.3e} {v_pois:>12.3e} {v_neg:>12.3e}")

# The full sweep (including the regime where doubles cannot even
# represent the values) is what the CLI bench computes, in double
# precision but summed in log space.  It also decides convergence
# analytically: Poisson's survival falls faster than any geometric while
# these coefficients fall like rho^-j, so that series diverges.  The
# Poisson column above is a partial sum over the coefficients above the
# quadrature floor; the bench prints inf for every log Poisson row:
#
#   spectral-cheb variance-bench --func log --rho 1.5954 --out bench.csv
