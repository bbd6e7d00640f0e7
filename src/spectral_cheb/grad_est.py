"""Unbiased stochastic gradients of spectral sums.

Two paths compute the gradient of v^T p_hat_n(A(theta)) v: a generic
coupled recursion driving one derivative sequence per parameter
coordinate, and an amortized form for A = theta theta^T + eps I that
assembles the full d x r gradient from first/second-kind vector
sequences without touching a d x d matrix.  Both share the drawn degree
and the probe set across every coordinate, which is what the variance
reduction downstream relies on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import ChebSeries, Interval
from .degree_dist import DegreeDistribution, sample_degree, weighted_coefficients
from .exceptions import NumericError, ParameterError
from .probes import MatvecCounter, ProbePlan, _map_probe_chunks, _probe_columns, degree_rng

__all__ = [
    "ParamMatrixOracle",
    "LowRankPSD",
    "GradSample",
    "sum_prime_weights",
    "grad_estimate_generic",
    "grad_estimate_lowrank",
    "sample_spectral_grads",
    "validate_param_oracle",
]


@dataclass
class ParamMatrixOracle:
    """Parametric symmetric operator A(theta) with per-coordinate
    derivative matvecs.

    ``apply(theta, x)`` and ``apply_partial(i, theta, x)`` must accept a
    (d,) vector or (d, m) block.  ``eig_interval`` has to hold on a
    neighborhood of the feasible parameters, not just at ``theta``.
    """

    dim: int
    param_dim: int
    theta: np.ndarray
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    apply_partial: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    eig_interval: Interval
    counter: MatvecCounter | None = None

    def _count(self, x):
        if self.counter is not None:
            self.counter.count += 1 if x.ndim == 1 else x.shape[1]

    def mv(self, x: np.ndarray) -> np.ndarray:
        self._count(x)
        return self.apply(self.theta, x)

    def mv_partial(self, i: int, x: np.ndarray) -> np.ndarray:
        self._count(x)
        return self.apply_partial(i, self.theta, x)

    def at(self, theta: np.ndarray) -> "ParamMatrixOracle":
        return dataclasses.replace(self, theta=np.asarray(theta, dtype=float))


@dataclass
class LowRankPSD:
    """A = theta theta^T + epsilon I for a d x r factor."""

    theta: np.ndarray
    epsilon: float
    eig_interval: Interval
    counter: MatvecCounter | None = None

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 2:
            raise ParameterError(f"factor must be d x r, got shape {theta.shape}")
        if not self.epsilon > 0:
            raise ParameterError(f"diagonal shift must be positive, got {self.epsilon}")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def rank(self) -> int:
        return self.theta.shape[1]

    def mv(self, x: np.ndarray) -> np.ndarray:
        if self.counter is not None:
            self.counter.count += 1 if x.ndim == 1 else x.shape[1]
        return self.theta @ (self.theta.T @ x) + self.epsilon * x

    def dense(self) -> np.ndarray:
        return self.theta @ self.theta.T + self.epsilon * np.eye(self.dim)

    def at(self, theta: np.ndarray) -> "LowRankPSD":
        return dataclasses.replace(self, theta=np.asarray(theta, dtype=float))


@dataclass
class GradSample:
    """One stochastic gradient draw: the value (shaped like theta), the
    probe plan it consumed, and the degree it drew."""

    value: np.ndarray
    plan: ProbePlan
    degree: int


def sum_prime_weights(count: int) -> np.ndarray:
    """The halved-first-term convention (2 - 1_{i=0}) as explicit weights
    [1, 2, 2, ...]; the single shared source of this constant."""
    w = np.full(count, 2.0)
    if count:
        w[0] = 1.0
    return w


def _shifted(oracle, x):
    iv = oracle.eig_interval
    return (2.0 * oracle.mv(x) - (iv.b + iv.a) * x) / iv.width


def _check_finite(arr: np.ndarray, what: str, probe_start: int, degree: int):
    if not np.all(np.isfinite(arr)):
        raise NumericError(
            f"non-finite {what} in probe block starting at {probe_start}, degree {degree}"
        )


def _generic_block(pm: ParamMatrixOracle, bhat: np.ndarray, n: int,
                   probes: np.ndarray, probe_start: int) -> np.ndarray:
    """Per-probe coordinate sums sum_j bhat_j v^T dw_j/dtheta_i for n >= 1.

    Returns an (m, param_dim) array.  The derivative recursion is
    dw_{j+1} = (4/(b-a)) dA w_j + 2 shifted(A) dw_j - dw_{j-1} with
    dw_1 = (2/(b-a)) dA v, dw_0 = 0, so a degree-0 truncation has no
    parameter signal and callers return zeros without probing.
    """
    iv = pm.eig_interval
    m = probes.shape[1]
    acc = np.zeros((m, pm.param_dim))
    w_prev, w_cur = probes, _shifted(pm, probes)  # w_0, w_1
    dw_prev = [np.zeros_like(probes) for _ in range(pm.param_dim)]
    dw_cur = [(2.0 / iv.width) * pm.mv_partial(i, probes) for i in range(pm.param_dim)]
    for i in range(pm.param_dim):
        acc[:, i] += bhat[1] * np.einsum("dk,dk->k", probes, dw_cur[i])
    for j in range(2, n + 1):
        # dw_j needs w_{j-1}, which is w_cur at this point
        for i in range(pm.param_dim):
            dw_next = (
                (4.0 / iv.width) * pm.mv_partial(i, w_cur)
                + 2.0 * _shifted(pm, dw_cur[i])
                - dw_prev[i]
            )
            acc[:, i] += bhat[j] * np.einsum("dk,dk->k", probes, dw_next)
            dw_prev[i], dw_cur[i] = dw_cur[i], dw_next
        if j < n:
            w_prev, w_cur = w_cur, 2.0 * _shifted(pm, w_cur) - w_prev
    _check_finite(acc, "gradient contribution", probe_start, n)
    return acc


def grad_estimate_generic(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
    degree: int | None = None,
) -> GradSample:
    """Unbiased estimate of the gradient of tr f(A(theta)).

    Every coordinate shares the single drawn degree and the same probe
    set; ``degree`` overrides the draw for callers sharing randomness
    across evaluations.  A degree-0 draw returns exact zeros without
    building probes or touching the oracle.
    """
    if series.interval != pm.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    n = sample_degree(dist, degree_rng(plan.master_seed, 0)) if degree is None else degree
    plan.degree_sample = n
    if n == 0:
        return GradSample(value=np.zeros(pm.param_dim), plan=plan, degree=0)
    bhat = weighted_coefficients(series, dist, n).bhat
    per_probe = np.concatenate(_map_probe_chunks(
        plan, pm.dim, lambda probes, start: _generic_block(pm, bhat, n, probes, start)
    ))
    return GradSample(value=per_probe.mean(axis=0), plan=plan, degree=n)


def _lowrank_block(lr: LowRankPSD, bhat: np.ndarray, n: int,
                   probes: np.ndarray, probe_start: int) -> np.ndarray:
    """Amortized gradient contribution of a probe block for n >= 1,
    already summed over the block's columns; returns a (d, r) array.

    Uses w_j = T_j(shifted A) v and y_j = U_j(shifted A) v via
    y_{j+1} = 2 w_{j+1} + y_{j-1}, then
    grad = (4/(b-a)) sum_i' w_i (sum_{j>=i} bhat_{j+1} y_{j-i})^T theta,
    where the inner chain factor 2/(b-a) comes from differentiating the
    interval-mapped operator and the remaining 2 from symmetrizing the
    rank-one partials.
    """
    w_seq = [probes]  # w_0 .. w_{n-1}
    if n >= 2:
        w_seq.append(_shifted(lr, probes))
        for _ in range(2, n):
            w_seq.append(2.0 * _shifted(lr, w_seq[-1]) - w_seq[-2])
    y_seq = [probes]
    if n >= 2:
        y_seq.append(2.0 * w_seq[1])
        for j in range(2, n):
            y_seq.append(2.0 * w_seq[j] + y_seq[j - 2])
    y_stack = np.stack(y_seq, axis=0)  # (n, d, m)
    weights = sum_prime_weights(n)
    grad = np.zeros_like(lr.theta)
    for i in range(n):
        coeffs = bhat[i + 1 : n + 1]
        s_i = np.tensordot(coeffs, y_stack[: n - i], axes=(0, 0))  # (d, m)
        grad += weights[i] * (w_seq[i] @ (s_i.T @ lr.theta))
    grad *= 4.0 / lr.eig_interval.width
    _check_finite(grad, "amortized gradient", probe_start, n)
    return grad


def grad_estimate_lowrank(
    lr: LowRankPSD,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
    degree: int | None = None,
) -> GradSample:
    """Amortized gradient of tr f(theta theta^T + eps I) w.r.t. the
    factor; algebraically identical to the generic path on the flattened
    parameterization but costs O(M (n^2 d + n d r)) with no d x d work.
    Chunk sums are added in chunk order whatever the thread count; a
    degree-0 draw returns exact zeros without building probes."""
    if series.interval != lr.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    n = sample_degree(dist, degree_rng(plan.master_seed, 0)) if degree is None else degree
    plan.degree_sample = n
    total = np.zeros_like(lr.theta)
    if n == 0:
        return GradSample(value=total, plan=plan, degree=0)
    bhat = weighted_coefficients(series, dist, n).bhat
    for part in _map_probe_chunks(
        plan, lr.dim, lambda probes, start: _lowrank_block(lr, bhat, n, probes, start)
    ):
        total += part
    return GradSample(value=total / plan.M, plan=plan, degree=n)


def sample_spectral_grads(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
    M: int = 1,
) -> np.ndarray:
    """Independent gradient draws, grouped by degree and blocked over
    probes; row t reproduces grad_estimate_generic at evaluation index t."""
    if series.interval != pm.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    degrees = np.array(
        [sample_degree(dist, degree_rng(master_seed, t)) for t in range(num_samples)]
    )
    out = np.empty((num_samples, pm.param_dim))
    block_samples = max(1, 256 // M)
    for n in np.unique(degrees):
        idx = np.nonzero(degrees == n)[0]
        if n == 0:
            out[idx] = 0.0
            continue
        bhat = weighted_coefficients(series, dist, int(n)).bhat
        for start in range(0, idx.size, block_samples):
            chunk = idx[start : start + block_samples]
            probes = np.hstack(
                [_probe_columns(pm.dim, master_seed, int(t), 0, M) for t in chunk]
            )
            sums = _generic_block(pm, bhat, int(n), probes, 0)
            out[chunk] = sums.reshape(chunk.size, M, pm.param_dim).mean(axis=1)
    return out


def sample_lowrank_grads(
    lr: LowRankPSD,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
) -> np.ndarray:
    """Independent single-probe amortized gradient draws, shape
    (num_samples, d, r); row t reproduces grad_estimate_lowrank at
    evaluation index t with M = 1."""
    if series.interval != lr.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    degrees = np.array(
        [sample_degree(dist, degree_rng(master_seed, t)) for t in range(num_samples)]
    )
    out = np.empty((num_samples, lr.dim, lr.rank))
    for n in np.unique(degrees):
        n = int(n)
        idx = np.nonzero(degrees == n)[0]
        if n == 0:
            out[idx] = 0.0
            continue
        bhat = weighted_coefficients(series, dist, n).bhat
        for start in range(0, idx.size, 256):
            chunk = idx[start : start + 256]
            probes = np.hstack(
                [_probe_columns(lr.dim, master_seed, int(t), 0, 1) for t in chunk]
            )
            w_seq = [probes]
            if n >= 2:
                w_seq.append(_shifted(lr, probes))
                for _ in range(2, n):
                    w_seq.append(2.0 * _shifted(lr, w_seq[-1]) - w_seq[-2])
            y_seq = [probes]
            if n >= 2:
                y_seq.append(2.0 * w_seq[1])
                for j in range(2, n):
                    y_seq.append(2.0 * w_seq[j] + y_seq[j - 2])
            y_stack = np.stack(y_seq, axis=0)
            weights = sum_prime_weights(n)
            grads = np.zeros((chunk.size, lr.dim, lr.rank))
            for i in range(n):
                s_i = np.tensordot(bhat[i + 1 : n + 1], y_stack[: n - i], axes=(0, 0))
                grads += weights[i] * np.einsum("dk,kr->kdr", w_seq[i], s_i.T @ lr.theta)
            grads *= 4.0 / lr.eig_interval.width
            out[chunk] = grads
    return out


def validate_param_oracle(pm: ParamMatrixOracle, rng: np.random.Generator,
                          h: float = 1e-6, tol: float = 1e-4) -> None:
    """Check apply_partial against finite differences of apply on random
    probes, and symmetry of each partial."""
    v = rng.standard_normal(pm.dim)
    u = rng.standard_normal(pm.dim)
    scale = max(1.0, float(np.linalg.norm(pm.mv(v))))
    for i in range(pm.param_dim):
        theta_plus = pm.theta.copy()
        theta_plus_flat = theta_plus.reshape(-1)
        theta_plus_flat[i] += h
        fd = (pm.apply(theta_plus, v) - pm.apply(pm.theta, v)) / h
        direct = pm.mv_partial(i, v)
        if np.max(np.abs(fd - direct)) > tol * scale:
            raise ParameterError(f"partial {i} disagrees with finite differences")
        if abs(u @ pm.mv_partial(i, v) - v @ pm.mv_partial(i, u)) > 1e-8 * scale:
            raise ParameterError(f"partial {i} is not symmetric")
