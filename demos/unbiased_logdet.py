"""Unbiased log-determinant estimation from matrix-vector products alone.

Hutchinson probing turns tr f(A) into quadratic forms; the Chebyshev
recurrence evaluates a degree-n form with ceil(n/2) matvecs per probe;
randomizing the truncation degree removes the bias of a fixed-degree
expansion.  The
estimate touches A only through matvecs, so it scales to matrices far
beyond what an exact factorization could handle.
"""

import numpy as np

from spectral_cheb import (
    Interval,
    MatrixOracle,
    ProbePlan,
    compute_coefficients,
    estimate_spectral_sum_fixed,
    estimate_spectral_sum_unbiased,
    exact_spectral_sum,
    optimal_distribution,
    rho_from_endpoint_singularity,
    sample_spectral_sums,
)
from spectral_cheb.probes import certified_ends

rng = np.random.default_rng(42)
dim = 80
eigvals = rng.uniform(0.4, 3.0, size=dim)
basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
matrix = (basis * eigvals) @ basis.T
truth = exact_spectral_sum(matrix, np.log)
print(f"dense reference: log det A = {truth:.6f}")

# Bound the spectrum above by the infinity norm, a certified end, and
# below by a fixed 0.35 under the smallest eigenvalue (0.4 or more by
# construction); expand log on that interval.

oracle = MatrixOracle.from_matrix(matrix)
interval = Interval(0.35, certified_ends(matrix)[1])
series = compute_coefficients(np.log, interval, degree=300)
rho = rho_from_endpoint_singularity(interval)
print(f"spectrum bounded to [{interval.a:.3f}, {interval.b:.3f}], rho = {rho:.3f}")

# A fixed-degree estimate is biased: the truncated series is simply not
# the function.  The randomized-degree estimate is unbiased at the same
# expected cost.

plan = ProbePlan(master_seed=7, M=64)
fixed = estimate_spectral_sum_fixed(oracle, series, 10, plan)
print(f"\nfixed degree 10, M=64:      {fixed:.6f}  (error {fixed - truth:+.2e})")

dist = optimal_distribution(rho, 10)
unbiased = estimate_spectral_sum_unbiased(oracle, series, dist, ProbePlan(7, 64))
print(f"randomized degree, M=64:    {unbiased:.6f}  (error {unbiased - truth:+.2e})")

# Averaging independent single-probe draws shows the unbiasedness: the
# sample mean walks into the truth at the 1/sqrt(samples) rate.

for num in (100, 1000, 10000):
    draws = sample_spectral_sums(oracle, series, dist, master_seed=11,
                                 num_samples=num, M=1)
    se = draws.std() / np.sqrt(num)
    print(f"mean of {num:>6} draws: {draws.mean():.6f} +- {se:.4f}  (truth {truth:.6f})")
