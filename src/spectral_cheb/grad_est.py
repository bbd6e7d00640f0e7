"""Unbiased stochastic gradients of spectral sums.

One reverse-mode kernel differentiates v^T p_hat_n(B) v, B the
interval-mapped operator, through the computation the value path
already does: Chebyshev moment doubling, which reads every moment of
degree <= n off w_j = T_j(B) v for j <= J = ceil(n/2).  Its forward pass
stores w_0..w_J; its backward pass forms the adjoints a_j of the w_j
from a_j = g_j + 2 B a_{j+1} - a_{j+2}, g_j the direct terms the doubled
moments put on w_j, starting at a_J = g_J.  Every recurrence step is the
oracle's three-term ``step(w, w_prev, iv)`` = 2B w - w_prev, iv the
interval of the series being differentiated: the expansion owns the
interval and no oracle stores one; the forward pass halves its first
step, 2B v, to w_1.  A step may write its result into w_prev, so both
passes hand over only a vector already copied into the stored sequence
or the adjoint block, and the probe block read-only.  ``LowRankPSD``
folds the map into two scalars, c1 theta (theta^T x) + c2 x, and the
generic ``ParamMatrixOracle`` maps each matvec's result in place.  The
gradient is (2/(b-a)) sum_{j<J}' a_{j+1}^T dA w_j: 2J - 1 matvecs of A per probe
(none at n = 1) and J partial matvecs per coordinate.  Each oracle
contracts it in one place: the generic ``ParamMatrixOracle`` applies
each coordinate's symmetric partial to a block of stacked a_{j+1} and
dots it column-wise with the w_j; ``LowRankPSD`` (A = theta theta^T +
eps I) folds the rank-one partials into sum_j' (w_j (a_{j+1}^T theta) +
a_{j+1} (w_j^T theta)), both halves of the symmetric part, without
touching a d x d matrix.  Every coordinate shares the plan's degree and
probe set, which is what the variance reduction downstream relies on;
the estimators run the kernel through the drivers in ``probes`` and
return the gradient array, the drawn degree staying on the plan.  Asked
for it, the same pass also returns each probe's value v^T p_hat_n(B) v,
one contraction per block of the direct terms the backward pass builds:
the unbiased value the optimizers log, for no matvec beyond the step to
w_1 at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .chebyshev import ChebSeries, Interval
from .degree_dist import DegreeDistribution
from .exceptions import ParameterError
from .probes import MatvecCounter, ProbePlan, _count, _evaluate, _evaluate_batch, _mapped_step

__all__ = [
    "ParamMatrixOracle",
    "LowRankPSD",
    "grad_estimate_generic",
    "grad_estimate_lowrank",
    "sample_spectral_grads",
]

# adjoints a_j per contraction: the backward pass never holds more than
# this many next to the stored forward sequence w_0..w_J
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

    @property
    def grad_shape(self) -> tuple[int, ...]:
        return (self.param_dim,)

    def mv(self, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.apply(self.theta, x)

    def mv_partial(self, i: int, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.apply_partial(i, self.theta, x)

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, iv: Interval) -> np.ndarray:
        """2B w - w_prev (2B w when ``w_prev`` is None) in a fresh array,
        mapping the result of one ``mv`` onto iv."""
        return _mapped_step(self.mv(w), w, w_prev, iv)

    def contract(self, w: np.ndarray, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column sum_b weights_b w_b^T (dA/dtheta_i) a_b for (m, blk, d)
        blocks w and a, shape (m, param_dim): one partial matvec per
        coordinate on the stacked adjoints a.  Each partial is symmetric,
        so the one product covers both halves of the symmetric part of
        sum_b a_b w_b^T."""
        m, blk, d = a.shape
        flat = a.reshape(m * blk, d).T
        out = np.empty((m, self.param_dim))
        for i in range(self.param_dim):
            da = self.mv_partial(i, flat).T.reshape(m, blk, d)
            out[:, i] = np.einsum("kbd,kbd->kb", w, da) @ weights
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
        if not 0 < self.epsilon < np.inf:
            raise ParameterError(f"epsilon must be positive and finite, got {self.epsilon}")
        object.__setattr__(self, "theta", theta)

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @property
    def grad_shape(self) -> tuple[int, ...]:
        return self.theta.shape

    def mv(self, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.theta @ (self.theta.T @ x) + self.epsilon * x

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, iv: Interval) -> np.ndarray:
        """2B w - w_prev (2B w when ``w_prev`` is None) in a fresh array:
        4/(b-a) theta (theta^T w) + 2(2 eps - (b+a))/(b-a) w - w_prev."""
        _count(self.counter, w)
        inner = self.theta.T @ w
        inner *= 4.0 / iv.width
        y = self.theta @ inner
        y += np.multiply(w, 2.0 * (2.0 * self.epsilon - (iv.b + iv.a)) / iv.width)
        if w_prev is not None:
            y -= w_prev
        return y

    def contract(self, w: np.ndarray, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column sum_b weights_b (w_b (a_b^T theta) + a_b (w_b^T theta))
        for (m, blk, d) blocks w and a, shape (m, d, r).  Each partial of
        theta theta^T contributes (w a^T + a w^T) theta; sum_b a_b w_b^T
        is not symmetric, so both halves are formed."""
        scale = weights[:, None]
        w_theta = np.matmul(w, self.theta)
        w_theta *= scale
        a_theta = np.matmul(a, self.theta)
        a_theta *= scale
        out = np.matmul(w.transpose(0, 2, 1), a_theta)
        out += np.matmul(a.transpose(0, 2, 1), w_theta)
        return out


def _sum_prime_weights(count: int) -> np.ndarray:
    """The halved-first-term convention (2 - 1_{i=0}) as explicit weights
    [1, 2, 2, ...]; the single shared source of this constant."""
    w = np.full(count, 2.0)
    if count:
        w[0] = 1.0
    return w


def _adjoint_block(op, iv: Interval, bhat: np.ndarray, n: int,
                   probes: np.ndarray, value: bool = False):
    """Gradient of v^T p_hat_n(B) v for each column v of a (d, m) probe
    block, n >= 1, B mapped onto iv: one row per column, shaped by the
    oracle's ``contract``; with ``value``, the pair (rows, per-column
    values v^T p_hat_n(B) v).

    The reverse-mode derivative of the moment-doubled value of
    ``probes._bilinear_block``, const + (c_1 - sum_{odd k>=3} c_k) v^T w_1
    + sum_{j>=1} (2 c_{2j} w_j^T w_j + 2 c_{2j+1} w_{j+1}^T w_j) in
    w_j = T_j(B) v, c = bhat, const = (c_0 - sum_{j>=1} c_{2j}) v^T v.
    With J = ceil(n/2), the forward pass stores w_0..w_J (w_0 alone at
    n = 1 without ``value``, as the gradient needs no w_1); the backward
    pass forms the adjoints a_j = g_j + 2 B a_{j+1} - a_{j+2} from j = J
    down to 1, g_j the direct terms 4 c_{2j} w_j + 2 c_{2j+1} w_{j+1} +
    2 c_{2j-1} w_{j-1}, with (c_1 - sum_{odd k>=3} c_k) in place of 2 c_1
    at j = 1.  Each block of ``_DEGREE_BLOCK`` adjoints starts from its
    direct terms, built with one array operation per neighbour, and is
    contracted as soon as the pass completes it: the gradient is
    (2/(b-a)) sum_{j<J}' a_{j+1}^T dA w_j.  The value is const +
    (1/2)(c_1 - sum_{odd k>=3} c_k) v^T w_1 + (1/2) sum_j w_j^T g_j, one
    contraction per block of direct terms.

    2J - 1 matvecs of A per column (0 at n = 1, 1 with ``value``) and J
    partial matvecs per coordinate, whatever the oracle.
    """
    d, m = probes.shape
    half = (n + 1) // 2
    stored = half + 1 if n >= 2 or value else 1
    c = np.zeros(2 * half + 2)
    c[: n + 1] = bhat[: n + 1]
    # direct-term weights of w_{j-1}, w_j and w_{j+1} in g_j, j = 1..J
    lower = 2.0 * c[1 : 2 * half : 2, None]
    lower[0] = c[1] - c[3::2].sum()
    centre = 4.0 * c[2 : 2 * half + 1 : 2, None]
    upper = 2.0 * c[3 : 2 * half + 2 : 2, None]
    # probe-major storage: w[:, j] holds T_j(B) v for every probe as an
    # (m, d) row block, zero past the last one formed (the direct terms
    # weigh those slots by zero); each step reads the contiguous (d, m)
    # results of the two steps before it and hands over the older one,
    # already copied into w (the probe block read-only, never written)
    w = np.empty((m, half + 2, d))
    w[:, stored:] = 0.0
    w[:, 0] = probes.T
    prev, cur = None, probes.view()
    cur.flags.writeable = False
    for j in range(1, stored):
        prev, cur = cur, op.step(cur, prev, iv)
        if j == 1:
            cur *= 0.5  # w_1 = B v, half the first step 2B v
        w[:, j] = cur.T
    if value:
        values = (c[0] - c[2::2].sum()) * np.einsum("dk,dk->k", probes, probes)
        values += 0.5 * lower[0, 0] * np.einsum("kd,kd->k", w[:, 0], w[:, 1])
    weights = _sum_prime_weights(half) * (2.0 / iv.width)
    acc = 0.0
    a_next, a_after = None, None  # a_{j+1}, a_{j+2}
    for top in range(half, 0, -_DEGREE_BLOCK):
        low = max(1, top - _DEGREE_BLOCK + 1)
        # the direct terms g_j, j = low..top, overwritten by a_j below
        a = w[:, low - 1 : top] * lower[low - 1 : top]
        a += w[:, low : top + 1] * centre[low - 1 : top]
        a += w[:, low + 1 : top + 2] * upper[low - 1 : top]
        if value:
            values += 0.5 * np.einsum("kjd,kjd->k", w[:, low : top + 1], a)
        for j in range(top, low - 1, -1):
            if a_next is None:
                a_j = a[:, j - low].T.copy()
            else:
                # a_{j+2} is handed over: its block row already holds it
                a_j = op.step(a_next, a_after, iv)
                a_j += a[:, j - low].T
                a[:, j - low] = a_j.T
            a_next, a_after = a_j, a_next
        acc = acc + op.contract(w[:, low - 1 : top], a, weights[low - 1 : top])
    return (acc, values) if value else acc


def _estimate(op, series: ChebSeries, dist: DegreeDistribution, plan: ProbePlan,
              value: bool = False):
    """The gradient estimate on ``plan``, or with ``value`` the pair
    (gradient, unbiased estimate of tr f(A)) from the same pass, the
    gradient the same bits.  A degree-0 draw builds no probes: the
    gradient is exact zeros and the value b_0 d, as v^T v = d for every
    Rademacher probe."""
    zero = np.zeros(op.grad_shape)
    if not value:
        return _evaluate(_adjoint_block, op, series, dist, plan, zero)
    return _evaluate(partial(_adjoint_block, value=True), op, series, dist, plan,
                     (zero, series.coeffs[0] * op.dim))


def grad_estimate_generic(
    pm: ParamMatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    plan: ProbePlan,
) -> np.ndarray:
    """Unbiased estimate of the gradient of tr f(A(theta)), shaped like
    theta.

    Every coordinate shares the plan's degree (drawn from ``dist`` unless
    the plan already holds one) and its probe set.  Costs 2 ceil(n/2) - 1
    matvecs of A (none at n = 1) and ceil(n/2) partial matvecs per
    coordinate for each probe.  A degree-0 draw returns exact zeros
    without building probes or touching the oracle.
    """
    return _estimate(pm, series, dist, plan)


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
    return _estimate(lr, series, dist, plan)


def sample_spectral_grads(
    op: ParamMatrixOracle | LowRankPSD,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
    M: int = 1,
) -> np.ndarray:
    """Independent gradient draws from either oracle, shape
    (num_samples, *op.grad_shape); row t reproduces grad_estimate_generic
    or grad_estimate_lowrank at evaluation index t, grouped by degree in
    blocks of about 256 probe columns."""
    return _evaluate_batch(_adjoint_block, 256, op, series, dist, master_seed, num_samples, M,
                           np.zeros(op.grad_shape))
