"""Gaussian-process hyperparameter learning with stochastic log-det gradients.

The negative log marginal likelihood splits into a quadratic data term,
handled exactly by conjugate gradients, and half a log-determinant whose
gradient tr(A^{-1} dA/dtheta_i) is estimated unbiasedly.  SGD runs in
log-parameter space so the noise, scale and lengthscale stay positive.
"""

import numpy as np

from spectral_cheb import (
    GPProblem,
    SGDConfig,
    gp_negloglik,
    gp_train,
    synthetic_gp_data,
)

theta_true = np.array([0.3, 1.2, 0.8])  # noise, signal scale, lengthscale
x, y = synthetic_gp_data(d=150, theta=theta_true, seed=3)
print(f"{y.size} observations drawn at theta = {theta_true}")

# Start misparameterized and learn.

theta_init = theta_true * np.array([1.8, 0.6, 1.6])
gp = GPProblem(x, y, theta_init)
print(f"NLL at the generating hyperparameters: {gp_negloglik(gp, theta_true):8.3f}")
print(f"NLL at the initial guess:              {gp_negloglik(gp):8.3f}")

# Estimation mode evaluates the same quantity without a factorization:
# a CG solve plus one draw of the randomized log-det estimator.

estimates = [gp_negloglik(gp, mode="estimate", seed=s, m_probes=4) for s in range(200)]
print(f"estimation mode, mean of 200 draws:    {np.mean(estimates):8.3f} "
      f"+- {np.std(estimates) / np.sqrt(200):.3f}")

cfg = SGDConfig(T=300, M=16, N=15, master_seed=12, step_rule="exp_decay",
                step0=5e-4, decay=0.99, log_objective=False)
result = gp_train(gp, cfg)

# Training factors the kernel only at checkpoints: the start, the iterate
# after every tenth step, and the end.

checkpoints = list(zip(result.nll_iters, result.nll_curve))
print(f"\nexact NLL at {len(checkpoints)} checkpoints of {cfg.T} steps, a few shown:")
print("  " + " -> ".join(f"[{k}] {nll:.2f}" for k, nll in checkpoints[::10] + checkpoints[-1:]))
print(f"learned hyperparameters: {np.round(result.theta, 3)} (generating {theta_true})")
