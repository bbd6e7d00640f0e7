"""Unbiased stochastic gradients of spectral sums.

One reverse-mode kernel differentiates v^T p_hat_n(B) v, B the
interval-mapped operator, through the computation the value path
already does: Chebyshev moment doubling, which reads every moment of
degree <= n off w_j = T_j(B) v for j <= J = ceil(n/2).  Its forward pass
stores w_0..w_J; its backward pass forms the adjoints a_j of the w_j
from a_j = g_j + 2 B a_{j+1} - a_{j+2}, g_j the direct terms the doubled
moments put on w_j, starting at a_J = g_J.  Every recurrence step is the
oracle's three-term ``step(w, w_prev, iv, out)`` = 2B w - w_prev, iv
the interval of the series being differentiated: the expansion owns the
interval and no oracle stores one; the forward pass halves its first
step, 2B v, to w_1.  Both passes keep degree-major blocks, one
contiguous (m, d) slot of probe rows per degree, and every step writes
into ``out``: a forward step straight into its slot, a backward step
into one scratch slot that is then added to the adjoint's slot in its
block.  ``LowRankPSD`` (A = theta theta^T + eps I) steps with one
product by its folded d x d matrix 2B where one step on the block's
m columns repays the fold's build, m (2r - d) > d r, and elsewhere with
its two thin products, the map folded into two scalars, so a folded
step copies and allocates nothing; the generic ``ParamMatrixOracle``
copies each matvec's fresh result into ``out`` and maps it there.  The
gradient is (2/(b-a)) sum_{j<J}' a_{j+1}^T dA w_j: 2J - 1 matvecs of A per probe
(none at n = 1) and J partial matvecs per coordinate.  Each oracle
contracts it in one place: the generic ``ParamMatrixOracle`` applies
each coordinate's symmetric partial to a block of stacked a_{j+1} and
dots it column-wise with the w_j; ``LowRankPSD`` folds the rank-one
partials into sum_j' (w_j (a_{j+1}^T theta) + a_{j+1} (w_j^T theta)),
both halves of the symmetric part, one probe at a time on the probe's
rows as the slots hold them.  Every coordinate shares the plan's degree and
probe set, which is what the variance reduction downstream relies on;
the estimators run the kernel through the drivers in ``probes`` and
return the gradient array, the drawn degree staying on the plan.  Asked
for it, the same pass also returns each probe's value v^T p_hat_n(B) v,
one contraction per block of the direct terms the backward pass builds:
the unbiased value the optimizers log, for no matvec beyond the step to
w_1 at n = 1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
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

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, iv: Interval,
             out: np.ndarray | None = None) -> np.ndarray:
        """2B w - w_prev (2B w when ``w_prev`` is None), mapping the result
        of one ``mv`` onto iv, into ``out`` when given and otherwise into
        that result; ``w`` and ``w_prev`` are never written."""
        return _mapped_step(self.mv(w), w, w_prev, iv, out)

    def contract(self, w: np.ndarray, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column sum_b weights_b w_b^T (dA/dtheta_i) a_b for (blk, m, d)
        blocks w and a, slot b holding the m probes' rows, shape
        (m, param_dim): one partial matvec per coordinate on the stacked
        adjoints a.  Each partial is symmetric, so the one product covers
        both halves of the symmetric part of sum_b a_b w_b^T."""
        blk, m, d = a.shape
        flat = a.reshape(blk * m, d).T
        out = np.empty((m, self.param_dim))
        for i in range(self.param_dim):
            da = self.mv_partial(i, flat).T.reshape(blk, m, d)
            out[:, i] = np.einsum("bkd,bkd->kb", w, da) @ weights
        return out


@dataclass
class LowRankPSD:
    """A = theta theta^T + epsilon I for a d x r factor.

    A step on m columns multiplies by the folded
    2B = (4 theta theta^T + 2(2 eps - (b+a)) I)/(b-a) where m (2r - d) > d r:
    there the one step's d^2 m multiply-adds, against the thin products'
    2 d r m, save more than the d^2 r of building the fold, so it never
    costs more multiply-adds than the thin path, however few steps use it,
    and holds less than twice theta's memory.  It is built once per
    interval (under a lock, as probe chunks step from several threads) and
    kept until a step asks for another; a folded step is one product and
    one subtraction.  Elsewhere, and always for d >= 2r, a step keeps the two
    thin products of ``mv`` with the map folded into two scalars, the
    path that stays O(dr) in memory.  The choice reads theta's shape and
    the block's column count alone, so every step of a block takes the
    same path."""

    theta: np.ndarray
    epsilon: float
    counter: MatvecCounter | None = None
    _fold: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _fold_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

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

    def _folded(self, iv: Interval, columns: int) -> np.ndarray | None:
        """2B on iv when one step on ``columns`` columns saves the d^2 r
        multiply-adds of building it, m (2r - d) > d r; None otherwise."""
        d, r = self.theta.shape
        if columns * (2 * r - d) <= d * r:
            return None
        fold = self._fold  # replaced whole, so a step reads a finished fold
        if fold is not None and fold[0] is iv:
            return fold[1]
        with self._fold_lock:
            if self._fold is None or self._fold[0] != iv:
                folded = self.theta @ self.theta.T
                folded *= 4.0
                folded[np.diag_indices(d)] += 2.0 * (2.0 * self.epsilon - (iv.b + iv.a))
                folded /= iv.width
                self._fold = (iv, folded)
            return self._fold[1]

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, iv: Interval,
             out: np.ndarray | None = None) -> np.ndarray:
        """2B w - w_prev (2B w when ``w_prev`` is None), into ``out`` when
        given and otherwise into a fresh array; ``w`` and ``w_prev`` are
        never written.  One product with the fold, or elsewhere
        4/(b-a) theta (theta^T w) + 2(2 eps - (b+a))/(b-a) w."""
        _count(self.counter, w)
        folded = self._folded(iv, w.size // w.shape[0])
        if folded is not None:
            y = np.matmul(folded, w, out=out)
        else:
            inner = self.theta.T @ w
            inner *= 4.0 / iv.width
            y = np.matmul(self.theta, inner, out=out)
            y += np.multiply(w, 2.0 * (2.0 * self.epsilon - (iv.b + iv.a)) / iv.width)
        if w_prev is not None:
            y -= w_prev
        return y

    def contract(self, w: np.ndarray, a: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Per-column sum_b weights_b (w_b (a_b^T theta) + a_b (w_b^T theta))
        for (blk, m, d) blocks w and a, slot b holding the m probes' rows,
        shape (m, d, r).  Each partial of
        theta theta^T contributes (w a^T + a w^T) theta; sum_b a_b w_b^T
        is not symmetric, so both halves are formed, one probe at a time:
        every product has sizes that do not depend on m, so a probe's row
        keeps its bits in any block width, and takes the probe's rows as
        they lie.  A block one degree wide stacks each probe's w and a
        rows, so one product of inner dimension 2 forms both halves: NumPy
        runs a product of inner dimension 1 without BLAS."""
        scale = weights[:, None]
        w, a = w.transpose(1, 0, 2), a.transpose(1, 0, 2)  # each probe's rows
        if len(weights) == 1:
            stacked = np.concatenate((w, a), axis=1)
            inner = np.matmul(stacked, self.theta)  # w^T theta, then a^T theta
            inner *= scale
            return np.matmul(stacked.transpose(0, 2, 1), np.roll(inner, 1, axis=1))
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
    contracted with its forward slots as soon as the pass completes it:
    the gradient is
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
    # direct-term weights of w_{j-1}, w_j and w_{j+1} in g_j, j = 1..J,
    # one per (m, d) slot
    lower = 2.0 * c[1 : 2 * half : 2, None, None]
    lower[0] = c[1] - c[3::2].sum()
    centre = 4.0 * c[2 : 2 * half + 1 : 2, None, None]
    upper = 2.0 * c[3 : 2 * half + 2 : 2, None, None]
    # degree-major storage: slot w[j] holds T_j(B) v for every probe as one
    # contiguous (m, d) block of probe rows, zero past the last one formed
    # (the direct terms weigh those slots by zero); each step reads the
    # (d, m) views of the two slots before it and writes into the next
    w = np.empty((half + 2, m, d))
    w[stored:] = 0.0
    w[0] = probes.T
    cols = w.transpose(0, 2, 1)
    if stored > 1:
        op.step(cols[0], None, iv, out=cols[1])
        w[1] *= 0.5  # w_1 = B v, half the first step 2B v
    for j in range(2, stored):
        op.step(cols[j - 1], cols[j - 2], iv, out=cols[j])
    if value:
        values = (c[0] - c[2::2].sum()) * np.einsum("dk,dk->k", probes, probes)
        values += 0.5 * lower[0, 0, 0] * np.einsum("kd,kd->k", w[0], w[1])
    weights = _sum_prime_weights(half) * (2.0 / iv.width)
    scratch = np.empty((m, d)).T
    acc = 0.0
    a_next, a_after = None, None  # (d, m) views of a_{j+1}, a_{j+2}
    for top in range(half, 0, -_DEGREE_BLOCK):
        low = max(1, top - _DEGREE_BLOCK + 1)
        # the direct terms g_j, j = low..top, in slot j - low, each turned
        # into a_j in place: the step goes to the scratch slot, then is added
        a = w[low - 1 : top] * lower[low - 1 : top]
        a += w[low : top + 1] * centre[low - 1 : top]
        a += w[low + 1 : top + 2] * upper[low - 1 : top]
        if value:
            values += 0.5 * np.einsum("jkd,jkd->k", w[low : top + 1], a)
        for row in a.transpose(0, 2, 1)[::-1]:
            if a_next is not None:
                op.step(a_next, a_after, iv, out=scratch)
                row += scratch
            a_next, a_after = row, a_next
        acc = acc + op.contract(w[low - 1 : top], a, weights[low - 1 : top])
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
    parameterization but costs O(M n d r): with no d x d work unless a
    block's columns m satisfy m (2r - d) > d r, where one step with the
    folded d x d matrix saves more than its build.  Per-probe
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
