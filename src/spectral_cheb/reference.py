"""Dense eigendecomposition oracles.

Everything here is eigendecomposition-based and shares no code with the
recurrence-driven estimators.  The tests check the estimators against
it, and `tasks` uses it for the exact completion objective and the SVRG
anchor gradient.  Dimensions are capped at desk scale.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import ParameterError

__all__ = ["exact_spectral_sum", "exact_spectral_grad_lowrank"]

_MAX_DIM = 512


def check_dense_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] > _MAX_DIM:
        raise ParameterError(f"oracle dimension capped at {_MAX_DIM}, got {matrix.shape[0]}")
    if not np.allclose(matrix, matrix.T, atol=1e-12 * max(1.0, float(np.abs(matrix).max()))):
        raise ParameterError("matrix is not symmetric")
    return matrix


def exact_spectral_sum(matrix: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """tr f(A) = sum_i f(lambda_i) by dense eigendecomposition."""
    matrix = check_dense_symmetric(matrix)
    eigvals = np.linalg.eigvalsh(matrix)
    values = f(eigvals)
    if not np.all(np.isfinite(values)):
        raise ParameterError("f is not finite on the spectrum")
    return float(np.sum(values))


def exact_spectral_grad_lowrank(
    theta: np.ndarray, epsilon: float, fprime: Callable
) -> np.ndarray:
    """Gradient of tr f(theta theta^T + eps I) w.r.t. the factor: 2 f'(A) theta."""
    theta = np.asarray(theta, dtype=float)
    a_mat = theta @ theta.T + epsilon * np.eye(theta.shape[0])
    w, v = np.linalg.eigh(a_mat)
    return 2.0 * ((v * fprime(w)) @ (v.T @ theta))
