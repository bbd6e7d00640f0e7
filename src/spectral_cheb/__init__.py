"""Unbiased randomized-Chebyshev estimation of spectral sums.

The pieces, bottom to top: scalar Chebyshev machinery (`chebyshev`),
truncation-degree distributions with the variance-optimal closed form
(`degree_dist`), Hutchinson-style probing, trace estimators and the
expansion builder (`probes`), stochastic gradients of tr f(A(theta))
(`grad_est`), projected SGD/SVRG built on them (`optimize`), dense
reference oracles (`reference`), and the matrix-completion / GP-learning
drivers (`tasks`).  `spectral-cheb` on the command line exposes the
variance bench, one-shot estimation, and the two training tasks.
"""

from .chebyshev import (
    AnalyticitySpec,
    ChebSeries,
    Interval,
    compute_coefficients,
    estimate_rho,
    rho_from_endpoint_singularity,
    series_from_polynomial,
    truncation_error_bound,
)
from .degree_dist import (
    DegreeDistribution,
    DistributionKind,
    deterministic_distribution,
    log_weighted_variance,
    make_degree_distribution,
    negbinomial_distribution,
    optimal_distribution,
    poisson_distribution,
    sample_degree,
    weighted_coefficients,
)
from .exceptions import (
    ConvergenceError,
    DegenerateDistributionError,
    DomainEvalError,
    EstimationError,
    NumericError,
    ParameterError,
    ParseError,
    SpectralChebError,
)
from .grad_est import (
    LowRankPSD,
    ParamMatrixOracle,
    grad_estimate_generic,
    grad_estimate_lowrank,
    sample_spectral_grads,
)
from .optimize import (
    IterationRecord,
    Objective,
    SGDConfig,
    SpectralModel,
    SVRGConfig,
    box_projection,
    sgd_run,
    svrg_run,
    write_trajectory_csv,
)
from .probes import (
    Expansion,
    MatrixOracle,
    MatvecCounter,
    ProbePlan,
    estimate_spectral_sum_fixed,
    estimate_spectral_sum_unbiased,
    expansion_for,
    load_matrix,
    power_method_bound,
    probe_rng,
    rademacher_probe,
    sample_spectral_sums,
)
from .reference import exact_spectral_grad_lowrank, exact_spectral_sum
from .tasks import (
    CompletionProblem,
    CompletionResult,
    GPProblem,
    GPResult,
    RatingSet,
    completion_objective,
    completion_rmse,
    completion_train,
    gp_negloglik,
    gp_train,
    load_gp_data,
    ratings_from_files,
    synthetic_completion_data,
    synthetic_gp_data,
)

__version__ = "0.1.0"
