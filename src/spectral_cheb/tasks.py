"""End-to-end drivers: smoothed nuclear-norm matrix completion and
Gaussian-process hyperparameter learning.

Completion minimizes tr((theta theta^T + eps I)^(1/2)) plus a weighted
entrywise data fit of the factor against the observed ratings, with the
factor box-constrained to [0, 5].  GP learning minimizes the negative
log marginal likelihood of a dense RBF kernel; the quadratic data term
is handled by conjugate-gradient solves and the log-determinant gradient
by the unbiased spectral estimator.  Each refresh re-bounds the spectrum
with certified ends: completion's are eps and eps plus the top eigenvalue
of the factor's smaller-side Gram matrix, the GP's half the noise floor
and the kernel's infinity norm.  Both run on NumPy alone: the CG is
written out here, and the exact NLL builds the kernel into the leading
block of the matrix bordered by y and takes one Cholesky factor of that;
GP training takes it only at checkpoints of its trajectory.
The RBF kernel, the one array that forms its exp term, is built in place,
and the dense partials are taken from it.  GP training builds each
iterate's kernel, partials and CG solve once, when it moves to the
iterate, into the previous iterate's buffers.  Both drivers return the
optimizer's iteration records on their result and take no callback; only
completion counts matvecs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .exceptions import ConvergenceError, ParameterError, ParseError
from .grad_est import LowRankPSD, ParamMatrixOracle
from .optimize import (
    REFRESH_EVERY,
    IterationRecord,
    Objective,
    SGDConfig,
    SpectralModel,
    SVRGConfig,
    box_projection,
    sgd_run,
    svrg_run,
)
from .probes import (
    MatrixOracle,
    MatvecCounter,
    ProbePlan,
    certified_ends,
    estimate_spectral_sum_unbiased,
    expansion_for,
)
from .reference import exact_spectral_grad_lowrank, exact_spectral_sum

__all__ = [
    "RatingSet",
    "CompletionProblem",
    "CompletionResult",
    "GPProblem",
    "GPResult",
    "ratings_from_files",
    "load_gp_data",
    "synthetic_completion_data",
    "synthetic_gp_data",
    "completion_objective",
    "completion_rmse",
    "completion_train",
    "gp_negloglik",
    "gp_exact_nll_grad_logspace",
    "gp_train",
]

RATING_BOX = (0.0, 5.0)
CG_RTOL = 1e-8  # relative residual at which the data-term CG stops
NLL_MEAN_DEGREE = 10  # mean truncation degree of gp_negloglik(mode="estimate")
TRAIN_FRAC = 0.9  # share of the triples a seeded split puts in training


# ---------------------------------------------------------------------------
# data handling
# ---------------------------------------------------------------------------


@dataclass
class RatingSet:
    """Observed (user, item, rating) triples with a train/test mask."""

    d_users: int
    d_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    train_mask: np.ndarray

    def __post_init__(self):
        if np.any(self.users < 0) or np.any(self.users >= self.d_users):
            raise ParameterError("user index out of range")
        if np.any(self.items < 0) or np.any(self.items >= self.d_items):
            raise ParameterError("item index out of range")
        for mask in (self.train_mask, ~self.train_mask):
            pairs = set(zip(self.users[mask].tolist(), self.items[mask].tolist()))
            if len(pairs) != int(mask.sum()):
                raise ParameterError("duplicate (user, item) pair within a split")

    @property
    def n_train(self) -> int:
        return int(self.train_mask.sum())

    def split(self, train: bool):
        mask = self.train_mask if train else ~self.train_mask
        return self.users[mask], self.items[mask], self.ratings[mask]


def _split_mask(count: int, seed: int) -> np.ndarray:
    order = np.arange(count)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    # Fisher-Yates, explicit for reproducibility of the split contract
    for i in range(count - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    mask = np.zeros(count, dtype=bool)
    mask[order[: int(math.floor(TRAIN_FRAC * count))]] = True
    return mask


def _parse_triples(path: Path):
    """Triples of a ratings file, in one pass: user::item::rating::timestamp
    lines when the first nonempty line contains '::', else user,item,rating
    rows, whose first nonempty line is skipped as a header when it does not
    parse as a triple."""
    triples, sep = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            header_allowed = sep is None and "::" not in line
            if sep is None:
                sep = "::" if "::" in line else ","
            parts = line.split(sep)
            try:
                triples.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except (IndexError, ValueError) as exc:
                if not header_allowed:
                    raise ParseError(f"{path}:{lineno}: malformed rating line {line!r}") from exc
    if sep is None:
        raise ParseError(f"{path}: empty ratings file")
    if not triples:
        raise ParseError(f"{path}: no rating triples found")
    users, items, ratings = zip(*triples)
    if not np.isfinite(ratings).all():
        raise ParseError(f"{path}: non-finite rating")
    return np.asarray(users), np.asarray(items), np.asarray(ratings, dtype=float)


def ratings_from_files(
    train_path: str | Path,
    test_path: str | Path | None = None,
    seed: int = 0,
) -> RatingSet:
    """Parse ratings files into a RatingSet, each file's format read off
    its first nonempty line (see ``_parse_triples``).

    Ratings are clamped to [0.5, 5]; raw ids are remapped to contiguous
    indices in sorted order, one index space across both files.  With one
    file the train split takes floor(TRAIN_FRAC * count) triples chosen by
    a shuffle seeded with ``seed``; with an explicit test file the mask
    follows the files.
    """
    users, items, ratings = _parse_triples(Path(train_path))
    if test_path is None:
        mask = _split_mask(users.size, seed)
    else:
        u2, i2, r2 = _parse_triples(Path(test_path))
        mask = np.arange(users.size + u2.size) < users.size
        users, items = np.concatenate([users, u2]), np.concatenate([items, i2])
        ratings = np.concatenate([ratings, r2])
    user_ids = np.unique(users)
    item_ids = np.unique(items)
    return RatingSet(
        d_users=user_ids.size,
        d_items=item_ids.size,
        users=np.searchsorted(user_ids, users),
        items=np.searchsorted(item_ids, items),
        ratings=np.clip(ratings, 0.5, 5.0),
        train_mask=mask,
    )


def load_gp_data(path: str | Path):
    """Read regression data: two-column x,y CSV, or a whitespace matrix
    whose last column is y (multi-dimensional inputs)."""
    path = Path(path)
    first = next((line for line in path.read_text().splitlines() if line.strip()), None)
    if first is None:
        raise ParseError(f"{path}: empty regression data file")
    delimiter = "," if "," in first else None
    try:
        data = np.loadtxt(str(path), delimiter=delimiter, ndmin=2)
    except Exception as exc:
        raise ParseError(f"cannot parse regression data {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ParseError(f"{path}: need at least an input column and an output column")
    if not np.isfinite(data).all():
        raise ParseError(f"{path}: non-finite value in the regression data")
    return data[:, :-1], data[:, -1]


def synthetic_completion_data(
    d: int, r: int, rank: int, observed_frac: float, seed: int
) -> RatingSet:
    """Low-rank ground-truth ratings in [0, 5] with a random observation
    mask, packaged like a parsed ratings file."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(8,)))
    left = rng.uniform(0.0, 1.0, size=(d, rank))
    right = rng.uniform(0.0, 1.0, size=(rank, r))
    truth = left @ right
    truth = 0.5 + 4.5 * (truth - truth.min()) / (truth.max() - truth.min())
    all_pairs = np.array([(i, j) for i in range(d) for j in range(r)])
    keep = rng.random(all_pairs.shape[0]) < observed_frac
    pairs = all_pairs[keep]
    ratings = truth[pairs[:, 0], pairs[:, 1]]
    mask = _split_mask(pairs.shape[0], seed)
    return RatingSet(
        d_users=d,
        d_items=r,
        users=pairs[:, 0],
        items=pairs[:, 1],
        ratings=ratings,
        train_mask=mask,
    )


def synthetic_gp_data(d: int, theta: Sequence[float], seed: int):
    """One input column on [0, 4] and outputs drawn from the zero-mean
    Gaussian process with the RBF kernel at ``theta``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    x = np.sort(rng.uniform(0.0, 4.0, size=(d, 1)), axis=0)
    kernel = _rbf_kernel(_sq_dists(x), np.asarray(theta, dtype=float))
    chol = np.linalg.cholesky(kernel)
    y = chol @ rng.standard_normal(d)
    return x, y


# ---------------------------------------------------------------------------
# matrix completion
# ---------------------------------------------------------------------------


@dataclass
class CompletionProblem:
    """Smoothed nuclear-norm completion of a [0, 5]-valued factor.

    The data term indexes the factor entrywise against the observed
    ratings, matching the task's literal formulation at desk scale where
    the factor doubles as the rating matrix.
    """

    theta: np.ndarray
    epsilon: float
    lam: float

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2:
            raise ParameterError("factor must be d x r")
        for name, value in (("epsilon", self.epsilon), ("lambda", self.lam)):
            if not 0 < value < math.inf:
                raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass
class CompletionResult:
    theta_raw: np.ndarray
    theta: np.ndarray  # after rank-truncated SVD
    records: list[IterationRecord]
    test_rmse: float
    initial_test_rmse: float
    matvecs: int
    matvec_log: list[int] = field(default_factory=list)  # counter after each record


def _data_fit(problem: CompletionProblem, ratings: RatingSet, theta: np.ndarray) -> float:
    users, items, vals = ratings.split(train=True)
    resid = theta[users, items] - vals
    return float(problem.lam * np.sum(resid * resid))


def completion_objective(
    problem: CompletionProblem, ratings: RatingSet, theta: np.ndarray | None = None
) -> float:
    """Exact objective: tr((theta theta^T + eps I)^(1/2)) plus the
    weighted data fit over the observed training entries."""
    theta = problem.theta if theta is None else np.asarray(theta, dtype=float)
    if theta.shape != (ratings.d_users, ratings.d_items):
        raise ParameterError(
            f"factor shape {theta.shape} does not match the rating matrix "
            f"({ratings.d_users}, {ratings.d_items})"
        )
    a_dense = theta @ theta.T + problem.epsilon * np.eye(theta.shape[0])
    spectral = exact_spectral_sum(a_dense, np.sqrt)
    return spectral + _data_fit(problem, ratings, theta)


def _completion_exact_grad(problem: CompletionProblem, theta: np.ndarray) -> np.ndarray:
    return exact_spectral_grad_lowrank(theta, problem.epsilon, lambda x: 0.5 / np.sqrt(x))


def _completion_model(
    problem: CompletionProblem,
    dist_kind: str,
    counter: MatvecCounter,
) -> SpectralModel:
    def oracle_at(theta):
        return LowRankPSD(theta, problem.epsilon, counter=counter)

    def refresh(theta, mean_degree):
        # theta theta^T and the smaller-side Gram matrix share their nonzero
        # eigenvalues; eps bounds the spectrum below, exactly when d > r
        gram = theta.T @ theta if theta.shape[0] >= theta.shape[1] else theta @ theta.T
        upper = problem.epsilon + float(np.linalg.eigvalsh(gram)[-1])
        return expansion_for(np.sqrt, problem.epsilon, upper, mean_degree, dist_kind)

    return SpectralModel(oracle_at, refresh)


def completion_train(
    problem: CompletionProblem,
    ratings: RatingSet,
    cfg: SGDConfig | SVRGConfig,
    optimizer: str = "sgd",
    dist_kind: str = "opt",
    svd_rank: int = 10,
) -> CompletionResult:
    """Train the completion factor with SGD or SVRG (``cfg`` its config).

    The spectral gradient uses the amortized low-rank estimator; the data
    term has the analytic gradient 2 lambda (theta_ij - R_ij) on observed
    entries; every step projects back into the rating box.  A rank-
    truncated SVD is applied once after training, before the test RMSE.
    The spectrum is re-bounded every ``optimize.REFRESH_EVERY`` SGD
    iterations, and at every epoch's anchor under SVRG.  ``dist_kind``
    names the degree distribution, such as ``neg(3)``; ``svd_rank`` must
    be at least 1.
    """
    if svd_rank < 1:
        raise ParameterError(f"SVD rank must be >= 1, got {svd_rank}")
    config_type = {"sgd": SGDConfig, "svrg": SVRGConfig}.get(optimizer)
    if config_type is None:
        raise ParameterError(f"unknown optimizer {optimizer!r}")
    if not isinstance(cfg, config_type):
        raise ParameterError(f"optimizer {optimizer!r} takes an {config_type.__name__}, "
                             f"got an {type(cfg).__name__}")
    users, items, vals = ratings.split(train=True)
    counter = MatvecCounter()
    model = _completion_model(problem, dist_kind, counter)

    def g_value(theta):
        return _data_fit(problem, ratings, theta)

    def g_grad(theta):
        grad = np.zeros_like(theta)
        # no pair repeats within a split (RatingSet.__post_init__), so nothing accumulates
        grad[users, items] = 2.0 * problem.lam * (theta[users, items] - vals)
        return grad

    obj = Objective(
        spectral=model,
        g_value=g_value,
        g_grad=g_grad,
        projection=lambda th: box_projection(th, *RATING_BOX),
    )
    records: list[IterationRecord] = []
    matvec_log: list[int] = []

    def sink(rec):
        matvec_log.append(counter.count)
        records.append(rec)

    if optimizer == "sgd":
        trajectory = sgd_run(obj, problem.theta, cfg, callback=sink)
        theta_raw = trajectory[-1]
    else:
        anchors = svrg_run(
            obj,
            problem.theta,
            cfg,
            exact_grad=lambda th: _completion_exact_grad(problem, th),
            callback=sink,
        )
        theta_raw = anchors[-1]
    theta_final = _truncated_svd(theta_raw, svd_rank)
    return CompletionResult(
        theta_raw=theta_raw,
        theta=theta_final,
        records=records,
        test_rmse=completion_rmse(theta_final, ratings, train=False),
        initial_test_rmse=completion_rmse(problem.theta, ratings, train=False),
        matvecs=counter.count,
        matvec_log=matvec_log,
    )


def _truncated_svd(theta: np.ndarray, rank: int) -> np.ndarray:
    u_mat, sigma, vt_mat = np.linalg.svd(theta, full_matrices=False)
    keep = min(rank, sigma.size)
    return (u_mat[:, :keep] * sigma[:keep]) @ vt_mat[:keep]


def completion_rmse(theta: np.ndarray, ratings: RatingSet, train: bool = False) -> float:
    users, items, vals = ratings.split(train=train)
    if users.size == 0:
        return float("nan")
    resid = theta[users, items] - vals
    return float(np.sqrt(np.mean(resid * resid)))


# ---------------------------------------------------------------------------
# Gaussian process learning
# ---------------------------------------------------------------------------


def _sq_dists(x: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    diff *= diff
    return np.sum(diff, axis=-1)


def _rbf_kernel(sq: np.ndarray, theta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """RBF kernel scale^2 exp(-sq / (2 length^2)) + noise^2 I from squared
    distances, formed and scaled in ``out`` when given: the one place the
    exp term is formed."""
    noise, scale, length = theta
    kernel = np.divide(sq, -(2.0 * length**2), out=out)
    np.exp(kernel, out=kernel)
    kernel *= scale**2
    kernel.flat[:: sq.shape[0] + 1] += noise**2
    return kernel


def _rbf_partials(sq: np.ndarray, theta: np.ndarray, kernel: np.ndarray, out=(None, None)):
    """Dense dA/dphi_i for phi = log theta and i = 1, 2, written into the
    two arrays of ``out`` when given; dA/dphi_0 is 2 noise^2 I.  The first,
    2 scale^2 exp(-sq / (2 length^2)), is twice the kernel with 2 scale^2
    on the diagonal: doubling is exact, so it equals the product bit for
    bit wherever scale^2 exp is a normal double.  The second is
    kernel * sq / length^2, where sq's zero diagonal drops the noise term."""
    _, scale, length = theta
    first = np.multiply(kernel, 2.0, out=out[0])
    first.flat[:: sq.shape[0] + 1] = 2.0 * scale**2
    second = np.divide(sq, length**2, out=out[1])
    second *= kernel
    return [first, second]


@dataclass
class GPProblem:
    """Zero-mean GP regression with a dense RBF kernel.

    theta = (noise, signal scale, lengthscale), all positive; the kernel
    is scale^2 exp(-||x_i - x_j||^2 / (2 length^2)) + noise^2 I.  The
    squared distances ``sq_dists`` are computed once, at construction.
    """

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    sq_dists: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.y = np.asarray(self.y, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (3,) or np.any(self.theta <= 0):
            raise ParameterError("hyperparameters must be three positive reals")
        if self.x.shape[0] != self.y.size:
            raise ParameterError("input/output counts differ")
        if self.x.shape[0] > 512:
            raise ParameterError("dense desk scale capped at 512 points")
        self.sq_dists = _sq_dists(self.x)

    @property
    def dim(self) -> int:
        return self.y.size

    def kernel(self, theta=None) -> np.ndarray:
        return _rbf_kernel(self.sq_dists, self.theta if theta is None else np.asarray(theta))


@dataclass
class GPResult:
    """The learned hyperparameters, the optimizer's records, and the exact
    NLL ``nll_curve[k]`` at trajectory iterate ``nll_iters[k]``: iterate 0,
    the post-step iterate of every record whose iteration
    ``optimize.REFRESH_EVERY`` divides, and the last iterate."""

    theta: np.ndarray
    records: list[IterationRecord]
    nll_curve: np.ndarray
    nll_iters: list[int]


def _cg_solve(a_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Conjugate gradients for a_mat x = rhs from x = 0, unpreconditioned,
    stopping once ||r|| < CG_RTOL ||rhs||, within 10 d iterations.  The
    arithmetic is SciPy's ``cg(rtol=CG_RTOL, atol=0)`` step for step, so
    the solutions agree bit for bit."""
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return rhs.copy()
    limit = CG_RTOL * rhs_norm
    x, r, p, rho_prev = np.zeros_like(rhs), rhs.copy(), None, None
    for _ in range(10 * rhs.size):
        if np.linalg.norm(r) < limit:
            return x
        rho = np.dot(r, r)
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = a_mat @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    resid = float(np.linalg.norm(a_mat @ x - rhs))
    raise ConvergenceError(
        f"conjugate gradient stopped after {10 * rhs.size} iterations, residual {resid:.3e}"
    )


def gp_negloglik(
    gp: GPProblem,
    theta: np.ndarray | None = None,
    mode: str = "exact",
    seed: int = 0,
    m_probes: int = 1,
) -> float:
    """Negative log marginal likelihood.

    Exact mode builds the kernel into the leading block of its matrix
    bordered by y and factors that,
    [[A, y], [y^T, 1 + 2 ||y||^2 / theta_1^2]] = L L^T: the first d
    diagonal entries of L give log det A, and its last row, L_A^{-1} y,
    has squared norm y^T A^{-1} y (the corner entry keeps the bordered
    matrix positive definite, as y^T A^{-1} y <= ||y||^2 / theta_1^2).
    Estimation mode solves the data term by conjugate gradients and
    estimates the log-determinant with the unbiased randomized estimator
    at mean degree ``NLL_MEAN_DEGREE``, its interval bounded by 0.999
    theta_1^2 below and the kernel's infinity norm above.
    """
    theta = gp.theta if theta is None else np.asarray(theta, dtype=float)
    d = gp.dim
    const = 0.5 * d * math.log(2.0 * math.pi)
    if mode == "exact":
        bordered = np.empty((d + 1, d + 1))
        _rbf_kernel(gp.sq_dists, theta, bordered[:d, :d])
        bordered[d, :d] = bordered[:d, d] = gp.y
        bordered[d, d] = 1.0 + 2.0 * float(gp.y @ gp.y) / theta[0] ** 2
        try:
            chol = np.linalg.cholesky(bordered)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(
                "kernel is not positive definite; increase the noise term theta_1"
            ) from exc
        data_fit = float(chol[d, :d] @ chol[d, :d])
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol)[:d])))
        return 0.5 * data_fit + 0.5 * logdet + const
    if mode != "estimate":
        raise ParameterError(f"unknown mode {mode!r}")
    a_mat = gp.kernel(theta)
    alpha = _cg_solve(a_mat, gp.y)
    expansion = expansion_for(np.log, 0.999 * theta[0] ** 2, certified_ends(a_mat)[1],
                              NLL_MEAN_DEGREE)
    plan = ProbePlan(seed, m_probes)
    logdet_est = estimate_spectral_sum_unbiased(
        MatrixOracle.from_matrix(a_mat),
        expansion.to_degree(plan.draw_degree(expansion.dist)).series, expansion.dist, plan,
    )
    return 0.5 * float(gp.y @ alpha) + 0.5 * logdet_est + const


def _gp_partials_logspace(gp: GPProblem, theta: np.ndarray):
    """Dense dA/dphi_i for phi = log theta."""
    kernel = _rbf_kernel(gp.sq_dists, theta)
    return [2.0 * theta[0] ** 2 * np.eye(gp.dim), *_rbf_partials(gp.sq_dists, theta, kernel)]


class _GPIterate:
    """The arrays gp_train needs at one log-parameter iterate, all built at
    construction: the kernel, the partials and the CG solution ``alpha``
    of the data term.  The kernel is built in place and both partials are
    taken from it.  Every gradient step reads all of them, and the
    objective log reads ``alpha`` at the iterate the step starts from.

    A ``donor`` (the previous iterate) hands over its kernel and partials,
    which this iterate overwrites in place instead of allocating three
    fresh d x d arrays per step (2 MB each at d = 512, which the allocator
    would otherwise hand back to the system and fault in again).  The
    donor deletes them, so a stale holder of it raises AttributeError
    rather than reading overwritten arrays.
    """

    def __init__(self, gp: GPProblem, phi: np.ndarray, donor: _GPIterate | None = None):
        self.theta = np.exp(phi)
        kernel_out, partials_out = None, (None, None)
        if donor is not None:
            kernel_out, partials_out = donor.kernel, donor.partials
            del donor.kernel, donor.partials
        self.kernel = _rbf_kernel(gp.sq_dists, self.theta, kernel_out)
        self.partials = _rbf_partials(gp.sq_dists, self.theta, self.kernel, partials_out)
        self.alpha = _cg_solve(self.kernel, gp.y)

    def partial_mv(self, i: int, x: np.ndarray) -> np.ndarray:
        """dA/dphi_i x; dA/dphi_0 = 2 noise^2 I is applied as a scaling."""
        if i == 0:
            return 2.0 * self.theta[0] ** 2 * x
        return self.partials[i - 1] @ x


def _gp_model(gp: GPProblem, iterate_at: Callable[[np.ndarray], _GPIterate]) -> SpectralModel:
    def oracle_at(phi):
        iterate = iterate_at(phi)
        return ParamMatrixOracle(
            dim=gp.dim,
            param_dim=3,
            theta=np.asarray(phi, dtype=float),
            apply=lambda _phi, x: iterate.kernel @ x,
            apply_partial=lambda i, _phi, x: iterate.partial_mv(i, x),
        )

    def refresh(phi, mean_degree):
        # the noise floor sigma^2 bounds the spectrum below; half of it keeps
        # a margin for the iterates until the next refresh
        return expansion_for(lambda x: 0.5 * np.log(x), 0.5 * np.exp(phi)[0] ** 2,
                             certified_ends(iterate_at(phi).kernel)[1], mean_degree)

    return SpectralModel(oracle_at, refresh)


def gp_exact_nll_grad_logspace(gp: GPProblem, phi: np.ndarray) -> np.ndarray:
    """Reference gradient of the NLL in log-parameter space."""
    theta = np.exp(phi)
    a_mat = gp.kernel(theta)
    a_inv = np.linalg.inv(a_mat)
    alpha = a_inv @ gp.y
    partials = _gp_partials_logspace(gp, theta)
    return np.array(
        [
            -0.5 * float(alpha @ (p @ alpha)) + 0.5 * float(np.sum(a_inv * p))
            for p in partials
        ]
    )


def gp_train(
    gp: GPProblem,
    cfg: SGDConfig,
    log_halfwidth: float = 3.0,
) -> GPResult:
    """Learn the hyperparameters by projected SGD in log-parameter space.

    The quadratic data-fit gradient comes from one conjugate-gradient
    solve per step; the log-determinant gradient from the unbiased
    estimator.  Positivity comes from the log parameterization; the
    feasible set is a box of half-width ``log_halfwidth`` around the
    starting point, which keeps the spectrum boundable between the interval
    refreshes, every ``optimize.REFRESH_EVERY`` iterations.

    The exact NLL, one O(d^3) Cholesky factor each, is taken after the run
    at checkpoints only (``GPResult.nll_iters``): the start, the iterate
    after each refresh step (iterations 0, 10, 20, ...) and the end, 12
    factors at T = 100 rather than 101.
    """
    current: dict = {"key": None}

    def iterate_at(phi) -> _GPIterate:
        # one iterate shared by the gradient, the objective log, the oracle
        # and the interval refresh; moving on hands the previous arrays over
        phi = np.asarray(phi, dtype=float)
        if current["key"] != phi.tobytes():
            current.update(key=phi.tobytes(),
                           iterate=_GPIterate(gp, phi, current.get("iterate")))
        return current["iterate"]

    model = _gp_model(gp, iterate_at)
    const = 0.5 * gp.dim * math.log(2.0 * math.pi)

    def g_value(phi):
        return 0.5 * float(gp.y @ iterate_at(phi).alpha) + const

    def g_grad(phi):
        iterate = iterate_at(phi)
        alpha = iterate.alpha
        return np.array([-0.5 * float(alpha @ iterate.partial_mv(i, alpha)) for i in range(3)])

    phi0 = np.log(gp.theta)
    lo = phi0 - log_halfwidth
    hi = phi0 + log_halfwidth
    obj = Objective(
        spectral=model,
        g_value=g_value,
        g_grad=g_grad,
        projection=lambda phi: np.clip(phi, lo, hi),
    )
    records: list[IterationRecord] = []
    trajectory = sgd_run(obj, phi0, cfg, callback=records.append)
    current.clear()  # the last iterate's arrays go before the exact curve factors
    nll_iters = sorted({0, *range(1, cfg.T + 1, REFRESH_EVERY), cfg.T})
    nll_curve = np.array([gp_negloglik(gp, np.exp(trajectory[k])) for k in nll_iters])
    return GPResult(theta=np.exp(trajectory[-1]), records=records, nll_curve=nll_curve,
                    nll_iters=nll_iters)
