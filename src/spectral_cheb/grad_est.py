"""Unbiased stochastic gradients of spectral sums.

One reverse-mode kernel differentiates v^T p_hat_n(B) v, B the
interval-mapped operator, through the three-term recurrence.  Its
forward pass stores the first-kind vectors w_i = T_i(B) v for i < n; its
backward Clenshaw pass forms s_i = sum_k bhat_{i+1+k} U_k(B) v from
s_i = bhat_{i+1} v + 2 B s_{i+1} - s_{i+2}, starting at s_{n-1} =
bhat_n v.  Every recurrence step is the oracle's ``step(w, w_prev,
scale, iv)`` = scale * B w - w_prev, iv the interval of the series being
differentiated: the expansion owns the interval and no oracle stores
one.  ``LowRankPSD`` folds the map into two scalars, c1 theta (theta^T x)
+ c2 x, and the generic ``ParamMatrixOracle`` maps each matvec's result
in place.  The gradient
is (2/(b-a)) sum_i' w_i^T dA s_i, and each oracle contracts it in one
place: the generic ``ParamMatrixOracle`` applies each coordinate's
partial to a block of stacked s_i and dots it column-wise with the w_i;
``LowRankPSD`` (A = theta theta^T + eps I) folds the symmetric rank-one
partials into 2 sum_i' w_i (s_i^T theta) without touching a d x d
matrix.  Every coordinate shares the plan's degree and probe set, which
is what the variance reduction downstream relies on; the estimators run
the kernel through the drivers in ``probes`` and return the gradient
array, the drawn degree staying on the plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chebyshev import ChebSeries, Interval
from .degree_dist import DegreeDistribution
from .exceptions import ParameterError
from .probes import MatvecCounter, ProbePlan, _count, _evaluate, _evaluate_batch, _mapped_step

__all__ = [
    "ParamMatrixOracle",
    "LowRankPSD",
    "sum_prime_weights",
    "grad_estimate_generic",
    "grad_estimate_lowrank",
    "sample_spectral_grads",
    "sample_lowrank_grads",
]

# s_i vectors per contraction: the backward pass never holds more than
# this many next to the stored forward sequence
_DEGREE_BLOCK = 32


@dataclass
class ParamMatrixOracle:
    """Parametric symmetric operator A(theta) with per-coordinate
    derivative matvecs.

    ``apply(theta, x)`` and ``apply_partial(i, theta, x)`` must accept a
    (d,) vector or (d, m) block.  The interval of the series it is
    stepped on has to hold on a neighborhood of the iterates between
    interval refreshes, not just at ``theta``.
    """

    dim: int
    param_dim: int
    theta: np.ndarray
    apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    apply_partial: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    counter: MatvecCounter | None = None

    def mv(self, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.apply(self.theta, x)

    def mv_partial(self, i: int, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.apply_partial(i, self.theta, x)

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, scale: float,
             iv: Interval) -> np.ndarray:
        """scale * B w - w_prev (no subtraction when ``w_prev`` is None) in
        a fresh array, mapping the result of one ``mv`` onto iv."""
        return _mapped_step(self.mv(w), w, w_prev, scale, iv)

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

    def mv(self, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.theta @ (self.theta.T @ x) + self.epsilon * x

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, scale: float,
             iv: Interval) -> np.ndarray:
        """scale * B w - w_prev (no subtraction when ``w_prev`` is None) in
        a fresh array, as c1 theta (theta^T w) + c2 w - w_prev on iv."""
        _count(self.counter, w)
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


def sum_prime_weights(count: int) -> np.ndarray:
    """The halved-first-term convention (2 - 1_{i=0}) as explicit weights
    [1, 2, 2, ...]; the single shared source of this constant."""
    w = np.full(count, 2.0)
    if count:
        w[0] = 1.0
    return w


def _adjoint_block(op, iv: Interval, bhat: np.ndarray, n: int,
                   probes: np.ndarray) -> np.ndarray:
    """Gradient of v^T p_hat_n(B) v for each column v of a (d, m) probe
    block, n >= 1, B mapped onto iv: one row per column, shaped by the
    oracle's ``contract``.

    2(n - 1) matvecs of A per column, whatever the oracle.  The forward
    sequence w_0..w_{n-1} is stored; the s_i are contracted against it in
    blocks of ``_DEGREE_BLOCK`` as the backward pass produces them.
    """
    d, m = probes.shape
    w = np.empty((d, n, m))
    w[:, 0] = probes
    if n >= 2:
        w[:, 1] = op.step(probes, None, 1.0, iv)
    for i in range(2, n):
        w[:, i] = op.step(w[:, i - 1], w[:, i - 2], 2.0, iv)
    weights = sum_prime_weights(n) * (2.0 / iv.width)
    acc = 0.0
    s_next, s_after = None, None  # s_{i+1}, s_{i+2}
    for top in range(n, 0, -_DEGREE_BLOCK):
        low = max(0, top - _DEGREE_BLOCK)
        s = np.empty((d, top - low, m))
        for i in range(top - 1, low - 1, -1):
            s_cur = bhat[i + 1] * probes
            if i < n - 1:
                s_cur += op.step(s_next, s_after, 2.0, iv)
            s[:, i - low] = s_cur
            s_next, s_after = s_cur, s_next
        acc = acc + op.contract(w[:, low:top], s, weights[low:top])
    return acc


def grad_estimate_generic(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
) -> np.ndarray:
    """Unbiased estimate of the gradient of tr f(A(theta)), shaped like
    theta.

    Every coordinate shares the plan's degree (drawn from ``dist`` unless
    the plan already holds one) and its probe set.  Costs 2(n - 1)
    matvecs of A and n partial matvecs per coordinate for each probe.  A
    degree-0 draw returns exact zeros without building probes or touching
    the oracle.
    """
    return _evaluate(_adjoint_block, pm, series, plan, dist, zero=np.zeros(pm.param_dim))


def grad_estimate_lowrank(
    lr: LowRankPSD,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
) -> np.ndarray:
    """Amortized gradient of tr f(theta theta^T + eps I) w.r.t. the
    factor; algebraically identical to the generic path on the flattened
    parameterization but costs O(M n d r) with no d x d work.  Per-probe
    values are averaged in probe order whatever the thread count; a
    degree-0 draw returns exact zeros without building probes."""
    return _evaluate(_adjoint_block, lr, series, plan, dist, zero=np.zeros_like(lr.theta))


def sample_spectral_grads(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
    M: int = 1,
) -> np.ndarray:
    """Independent gradient draws, shape (num_samples, param_dim); row t
    reproduces grad_estimate_generic at evaluation index t, grouped by
    degree in blocks of about 256 probe columns."""
    return _evaluate_batch(_adjoint_block, 256, pm, series, dist, master_seed, num_samples, M,
                           zero=np.zeros(pm.param_dim))


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
    return _evaluate_batch(_adjoint_block, 256, lr, series, dist, master_seed, num_samples, 1,
                           zero=np.zeros_like(lr.theta))
