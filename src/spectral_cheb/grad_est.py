"""Unbiased stochastic gradients of spectral sums.

One reverse-mode kernel differentiates v^T p_hat_n(B) v, B the
interval-mapped operator, through the three-term recurrence.  Its
forward pass stores the first-kind vectors w_i = T_i(B) v for i < n; its
backward Clenshaw pass forms s_i = sum_k bhat_{i+1+k} U_k(B) v from
s_i = bhat_{i+1} v + 2 B s_{i+1} - s_{i+2}, starting at s_{n-1} =
bhat_n v.  Every recurrence step is the oracle's ``step(w, w_prev,
scale)`` = scale * B w - w_prev: ``LowRankPSD`` folds the map into two
scalars, c1 theta (theta^T x) + c2 x, and the generic
``ParamMatrixOracle`` maps each matvec's result in place.  The gradient
is (2/(b-a)) sum_i' w_i^T dA s_i, and each oracle contracts it in one
place: the generic ``ParamMatrixOracle`` applies each coordinate's
partial to a block of stacked s_i and dots it column-wise with the w_i;
``LowRankPSD`` (A = theta theta^T + eps I) folds the symmetric rank-one
partials into 2 sum_i' w_i (s_i^T theta) without touching a d x d
matrix.  Every coordinate shares the drawn degree and the probe set,
which is what the variance reduction downstream relies on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import ChebSeries, Interval
from .degree_dist import DegreeDistribution, sample_degree, weighted_coefficients
from .exceptions import NumericError, ParameterError
from .probes import (
    MatvecCounter,
    ProbePlan,
    _map_probe_chunks,
    _mapped_step,
    _probe_columns,
    degree_rng,
)

__all__ = [
    "ParamMatrixOracle",
    "LowRankPSD",
    "GradSample",
    "sum_prime_weights",
    "grad_estimate_generic",
    "grad_estimate_lowrank",
    "sample_spectral_grads",
    "sample_lowrank_grads",
    "validate_param_oracle",
]

# s_i vectors per contraction: the backward pass never holds more than
# this many next to the stored forward sequence
_DEGREE_BLOCK = 32


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

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, scale: float) -> np.ndarray:
        """scale * B w - w_prev (no subtraction when ``w_prev`` is None) in
        a fresh array, mapping the result of one ``mv``."""
        return _mapped_step(self.mv(w), w, w_prev, scale, self.eig_interval)

    def at(self, theta: np.ndarray) -> "ParamMatrixOracle":
        return dataclasses.replace(self, theta=np.asarray(theta, dtype=float))

    def contract(self, w: np.ndarray, s: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column sum_b weights_b w_b^T (dA/dtheta_i) s_b for (d, blk, m)
        blocks w and s, shape (m, param_dim): one partial matvec per
        coordinate on the stacked s."""
        d, blk, m = s.shape
        flat = s.reshape(d, blk * m)
        out = np.empty((m, self.param_dim))
        for i in range(self.param_dim):
            ds = self.mv_partial(i, flat).reshape(d, blk, m)
            out[:, i] = weights @ np.einsum("dbk,dbk->bk", w, ds)
        return out


@dataclass
class LowRankPSD:
    """A = theta theta^T + epsilon I for a d x r factor.

    ``step`` folds the interval map into two scalars, so a recurrence
    step costs the two thin products of ``mv`` and no extra pass for the
    shift."""

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

    def _count(self, x):
        if self.counter is not None:
            self.counter.count += 1 if x.ndim == 1 else x.shape[1]

    def mv(self, x: np.ndarray) -> np.ndarray:
        self._count(x)
        return self.theta @ (self.theta.T @ x) + self.epsilon * x

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, scale: float) -> np.ndarray:
        """scale * B w - w_prev (no subtraction when ``w_prev`` is None) in
        a fresh array, as c1 theta (theta^T w) + c2 w - w_prev."""
        self._count(w)
        iv = self.eig_interval
        inner = self.theta.T @ w
        inner *= 2.0 * scale / iv.width
        y = self.theta @ inner
        y += np.multiply(w, scale * (2.0 * self.epsilon - (iv.b + iv.a)) / iv.width)
        if w_prev is not None:
            y -= w_prev
        return y

    def dense(self) -> np.ndarray:
        return self.theta @ self.theta.T + self.epsilon * np.eye(self.dim)

    def at(self, theta: np.ndarray) -> "LowRankPSD":
        return dataclasses.replace(self, theta=np.asarray(theta, dtype=float))

    def contract(self, w: np.ndarray, s: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column 2 sum_b weights_b w_b (s_b^T theta) for (d, blk, m)
        blocks w and s, shape (m, d, r).  Each partial of theta theta^T
        contributes (w s^T + s w^T) theta; over a whole backward pass
        sum_i' w_i s_i^T is symmetric, so the two halves are equal."""
        d, blk, m = s.shape
        s_theta = (self.theta.T @ s.reshape(d, blk * m)).reshape(-1, blk, m)
        s_theta *= (2.0 * weights)[:, None]
        # contiguous per-column operands: each column's product is the
        # same BLAS call however many columns the block holds
        return np.matmul(np.ascontiguousarray(w.transpose(2, 0, 1)),
                         np.ascontiguousarray(s_theta.transpose(2, 1, 0)))


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


def _adjoint_block(op, bhat: np.ndarray, n: int, probes: np.ndarray,
                   probe_start: int) -> np.ndarray:
    """Gradient of v^T p_hat_n(B) v for each column v of a (d, m) probe
    block, n >= 1: one row per column, shaped by the oracle's ``contract``.

    2(n - 1) matvecs of A per column, whatever the oracle.  The forward
    sequence w_0..w_{n-1} is stored; the s_i are contracted against it in
    blocks of ``_DEGREE_BLOCK`` as the backward pass produces them.
    """
    d, m = probes.shape
    w = np.empty((d, n, m))
    w[:, 0] = probes
    if n >= 2:
        w[:, 1] = op.step(probes, None, 1.0)
    for i in range(2, n):
        w[:, i] = op.step(w[:, i - 1], w[:, i - 2], 2.0)
    weights = sum_prime_weights(n) * (2.0 / op.eig_interval.width)
    acc = 0.0
    s_next, s_after = None, None  # s_{i+1}, s_{i+2}
    for top in range(n, 0, -_DEGREE_BLOCK):
        low = max(0, top - _DEGREE_BLOCK)
        s = np.empty((d, top - low, m))
        for i in range(top - 1, low - 1, -1):
            s_cur = bhat[i + 1] * probes
            if i < n - 1:
                s_cur += op.step(s_next, s_after, 2.0)
            s[:, i - low] = s_cur
            s_next, s_after = s_cur, s_next
        acc = acc + op.contract(w[:, low:top], s, weights[low:top])
    _check_finite(acc, "gradient contribution", probe_start, n)
    return acc


def _check_finite(arr: np.ndarray, what: str, probe_start: int, degree: int):
    if not np.all(np.isfinite(arr)):
        raise NumericError(
            f"non-finite {what} in probe block starting at {probe_start}, degree {degree}"
        )


def _grad_estimate(op, series, dist, plan, degree, zero) -> GradSample:
    if series.interval != op.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    n = sample_degree(dist, degree_rng(plan.master_seed, 0)) if degree is None else degree
    plan.degree_sample = n
    if n == 0:
        return GradSample(value=zero, plan=plan, degree=0)
    bhat = weighted_coefficients(series, dist, n).bhat
    per_probe = np.concatenate(_map_probe_chunks(
        plan, op.dim, lambda probes, start: _adjoint_block(op, bhat, n, probes, start)
    ))
    return GradSample(value=per_probe.mean(axis=0), plan=plan, degree=n)


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
    across evaluations.  Costs 2(n - 1) matvecs of A and n partial
    matvecs per coordinate for each probe.  A degree-0 draw returns exact
    zeros without building probes or touching the oracle.
    """
    return _grad_estimate(pm, series, dist, plan, degree, np.zeros(pm.param_dim))


def grad_estimate_lowrank(
    lr: LowRankPSD,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
    degree: int | None = None,
) -> GradSample:
    """Amortized gradient of tr f(theta theta^T + eps I) w.r.t. the
    factor; algebraically identical to the generic path on the flattened
    parameterization but costs O(M n d r) with no d x d work.  Per-probe
    values are averaged in probe order whatever the thread count; a
    degree-0 draw returns exact zeros without building probes."""
    return _grad_estimate(lr, series, dist, plan, degree, np.zeros_like(lr.theta))


def _sample_grads(op, series, dist, master_seed, num_samples, M, shape) -> np.ndarray:
    """Rows of independent draws, grouped by degree and blocked over
    probes; row t reproduces the single estimate at evaluation index t,
    bit for bit when its block holds that sample alone."""
    if series.interval != op.eig_interval:
        raise ParameterError("series interval does not match the oracle's")
    degrees = np.array(
        [sample_degree(dist, degree_rng(master_seed, t)) for t in range(num_samples)]
    )
    out = np.empty((num_samples,) + shape)
    block_samples = max(1, 256 // M)
    for n in np.unique(degrees):
        n = int(n)
        idx = np.nonzero(degrees == n)[0]
        if n == 0:
            out[idx] = 0.0
            continue
        bhat = weighted_coefficients(series, dist, n).bhat
        for start in range(0, idx.size, block_samples):
            chunk = idx[start : start + block_samples]
            probes = np.hstack(
                [_probe_columns(op.dim, master_seed, int(t), 0, M) for t in chunk]
            )
            per_probe = _adjoint_block(op, bhat, n, probes, 0)
            out[chunk] = per_probe.reshape((chunk.size, M) + shape).mean(axis=1)
    return out


def sample_spectral_grads(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
    M: int = 1,
) -> np.ndarray:
    """Independent gradient draws, shape (num_samples, param_dim); row t
    reproduces grad_estimate_generic at evaluation index t."""
    return _sample_grads(pm, series, dist, master_seed, num_samples, M, (pm.param_dim,))


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
    return _sample_grads(lr, series, dist, master_seed, num_samples, 1, lr.theta.shape)


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
