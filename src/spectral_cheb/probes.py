"""Matrix-side estimation: oracles, Rademacher probing, spectral-sum
estimators, certified spectrum ends, and the expansion builder (interval,
Chebyshev series, degree distribution) that training uses.

The expansion owns the eigenvalue interval [a, b]: no oracle stores one,
and the drivers hand the series' interval to each three-term step
``step(w, w_prev, iv)`` = 2B w - w_prev (2B w when w_prev is None),
B = (2A - (b+a)I)/(b-a); the kernels halve the first step, exactly, to
T_1 = B v.  An oracle built from an explicit dense or
sparse matrix folds the map into a copy 2B of it, cached for the last
interval it was stepped on, so a step is one product and one
subtraction; an oracle known only through its matvec maps each
product's result in place.  ``w_prev`` is handed over: a step may return
its result in w_prev's buffer, and the sparse fold does, negating it and
accumulating 2B w into it with SciPy's CSR kernel, so the value
recurrence rotates two buffers per chunk and calls no BLAS.  A read-only
``w_prev``, such as a plan's probe block, is never written.  A degree-n
estimate costs ceil(n/2) matvecs per probe: with w_j = T_j(B) v, the
moments mu_k = v^T T_k(B) v follow from mu_{2j} = 2 w_j^T w_j - mu_0
and mu_{2j+1} = 2 w_{j+1}^T w_j - mu_1.
Every probe owns an rng stream derived from (master_seed, evaluation
index, probe index), so results do not depend on evaluation order; a
chunk of probes is filled in one pass from the raw words of those
streams, bit for bit the vectors ``rademacher_probe`` draws from them.
A ``ProbePlan`` owns the randomness of its evaluation, and callers read
the drawn degree back from it: the truncation degree, pinned or drawn
once on first use, and the probe block, whose fixed-size chunks of
columns are built once, on first use, kept read-only on the plan and
handed to every estimator that shares the plan, as SVRG's current and
anchor evaluations do.  Every value and gradient estimate runs through
one of two drivers here: ``_evaluate`` (one evaluation on a plan) and
``_evaluate_batch`` (independent evaluations grouped by degree), each
taking a per-block kernel, the bilinear sums below or ``grad_est``'s
adjoint pass.  The probe loop
parallelizes over a plan's chunks, capped by the SPECTRAL_CHEB_THREADS
environment variable, on one thread pool per process and worker count,
with a deterministic ordered reduction; chunks too small for a second
thread to pay off run inline.

The module imports NumPy alone: ``scipy.io`` and ``scipy.sparse`` load
on the first MatrixMarket read, and an input counts as a scipy sparse
matrix only once ``scipy.sparse`` is loaded, since none exists before.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .chebyshev import ChebSeries, Interval, compute_coefficients, rho_from_endpoint_singularity
from .degree_dist import (
    DegreeDistribution,
    make_degree_distribution,
    sample_degree,
    weighted_coefficients,
)
from .exceptions import NumericError, ParameterError, ParseError

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "MatvecCounter",
    "MatrixOracle",
    "ProbePlan",
    "probe_rng",
    "degree_rng",
    "rademacher_probe",
    "estimate_spectral_sum_fixed",
    "estimate_spectral_sum_unbiased",
    "sample_spectral_sums",
    "power_method_bound",
    "certified_ends",
    "Expansion",
    "expansion_for",
    "load_matrix",
]

# expansion_for's margin on the upper end, which bounds one iterate's
# spectrum: it covers the iterates that step on it until the next refresh
HEADROOM = 1.1

_CHUNK = 32  # probes per work unit; fixed so thread count never changes results
# dim * chunk width below which chunks run inline: under ~2^15 entries a
# chunk's NumPy calls are too short to release the GIL for long, and a
# second thread only adds hand-offs (2 vCPUs, estimates at M = 64: blocks
# of d = 16 to 576 ran up to 2.4x slower at 2 threads, sparse d >= 1024
# up to 2x faster)
_MIN_THREADED_ENTRIES = 1 << 15


class MatvecCounter:
    """Shared mutable tally of single matrix-vector products."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def _count(counter: MatvecCounter | None, x: np.ndarray) -> None:
    """Add the columns of ``x`` (one for a vector) to ``counter``, if any."""
    if counter is not None:
        counter.count += 1 if x.ndim == 1 else x.shape[1]


def _mapped_step(y: np.ndarray, w: np.ndarray, w_prev: np.ndarray | None,
                 iv: Interval) -> np.ndarray:
    """2B w - w_prev from y = A w, written into y unless y is not a fresh
    float array; the recurrence step of an operator known only through its
    matvec."""
    if (y.dtype != np.float64 or not y.flags.writeable or np.may_share_memory(y, w)
            or (w_prev is not None and np.may_share_memory(y, w_prev))):
        y = np.array(y, dtype=float)  # never overwrite an operand the caller still holds
    y *= 4.0 / iv.width
    y += np.multiply(w, -2.0 * (iv.b + iv.a) / iv.width)
    if w_prev is not None:
        y -= w_prev
    return y


def _issparse(matrix) -> bool:
    """Whether ``matrix`` is a scipy sparse matrix, without importing
    scipy: one can exist only once ``scipy.sparse`` is loaded."""
    if isinstance(matrix, np.ndarray):
        return False
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def _fold_interval(matrix, iv: Interval):
    """2B = (4A - 2(b+a)I) / (b-a) for an explicit dense or sparse A.

    4A is exact, so each entry is rounded once in the subtraction and once
    in the division; an eigenvalue at either end of the interval maps to
    +-1 with no cancellation error, where T_n amplifies a perturbation n^2
    times."""
    shift = 2.0 * (iv.b + iv.a)
    if _issparse(matrix):
        import scipy.sparse

        eye = scipy.sparse.identity(matrix.shape[0], format="csr")
        return ((4.0 * matrix - shift * eye) / iv.width).tocsr()
    folded = 4.0 * matrix
    folded[np.diag_indices_from(folded)] -= shift
    folded /= iv.width
    return folded


def _csr_accumulate(folded, w: np.ndarray, y: np.ndarray) -> None:
    """y += folded @ w in place for a CSR ``folded`` and a C-contiguous
    float y of w's shape, (d,) or (d, m).

    SciPy's own CSR product zero-fills its result and runs this kernel;
    no public call accumulates into an existing array, and a NumPy CSR
    product would build an nnz x m temporary.  The kernel is private, so
    ``tests/test_probes.py`` pins its accumulate semantics."""
    from scipy.sparse._sparsetools import csr_matvecs

    rows, cols = folded.shape
    x = np.ascontiguousarray(w, dtype=np.float64)
    csr_matvecs(rows, cols, 1 if x.ndim == 1 else x.shape[1],
                folded.indptr, folded.indices, folded.data, x, y)


@dataclass
class MatrixOracle:
    """Symmetric operator exposed through its matvec.

    ``matvec`` must accept a (d,) vector or a (d, m) block and return the
    same shape.  An oracle built by ``from_matrix`` also holds the explicit
    ``matrix``, and its ``step`` multiplies by the folded 2B, built once
    per interval (under a lock, as probe chunks step from several threads)
    and kept until a step asks for another; otherwise ``step`` maps each
    matvec's result.
    """

    dim: int
    matvec: Callable[[np.ndarray], np.ndarray]
    counter: MatvecCounter | None = None
    matrix: np.ndarray | scipy.sparse.spmatrix | None = field(
        default=None, repr=False, compare=False)
    _fold: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _fold_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def _folded(self, iv: Interval):
        with self._fold_lock:
            if self._fold is None or self._fold[0] != iv:
                self._fold = (iv, _fold_interval(self.matrix, iv))
            return self._fold[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        _count(self.counter, x)
        return self.matvec(x)

    def step(self, w: np.ndarray, w_prev: np.ndarray | None, iv: Interval) -> np.ndarray:
        """2B w - w_prev (2B w when ``w_prev`` is None),
        B = (2A - (b+a)I)/(b-a) on iv = [a, b]; one matvec per column.

        ``w_prev`` is handed over: a sparse fold negates a writeable,
        C-contiguous float ``w_prev`` of ``w``'s shape in place,
        accumulates 2B w into it and returns it, so a step allocates
        nothing.  Every other step, and every read-only ``w_prev`` such as
        a plan's probe block, gets a fresh array; ``w`` is never written.
        """
        if self.matrix is None:
            return _mapped_step(self.apply(w), w, w_prev, iv)
        _count(self.counter, w)
        folded = self._folded(iv)
        if (w_prev is not None and _issparse(folded)
                and w_prev.flags.writeable and w_prev.flags.c_contiguous
                and w_prev.dtype == np.float64 and w_prev.shape == w.shape
                and not np.may_share_memory(w_prev, w)):
            np.negative(w_prev, out=w_prev)
            _csr_accumulate(folded, w, w_prev)
            return w_prev
        y = folded @ w
        if w_prev is not None:
            y -= w_prev
        return y

    @classmethod
    def from_matrix(cls, matrix, counter: MatvecCounter | None = None) -> "MatrixOracle":
        """Oracle of an explicit dense array or scipy sparse matrix."""
        if not _issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError(f"expected a square matrix, got {matrix.shape}")
        return cls(dim=matrix.shape[0], matvec=lambda x: matrix @ x,
                   counter=counter, matrix=matrix)


@dataclass
class ProbePlan:
    """Randomness of one estimator evaluation: the master seed, the probe
    count, the truncation degree and the probe block.

    A plan built with a ``degree`` pins it.  Otherwise the first estimate
    run on the plan draws the degree from its distribution on the stream
    ``degree_rng(master_seed, 0)``, and the plan keeps that first-drawn
    degree for every later evaluation on it, as SVRG's anchor evaluation
    reuses its current evaluation's degree.  Probe columns are built on
    first use and kept, read-only, for as long as the plan lives, so every
    evaluation sharing the plan sees the same arrays without rebuilding
    them.
    """

    master_seed: int
    M: int
    degree: int | None = None
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1:
            raise ParameterError(f"need at least one probe, got M = {self.M}")

    def draw_degree(self, dist: DegreeDistribution) -> int:
        """The evaluation's truncation degree: pinned, or drawn from
        ``dist`` on first use and kept."""
        if self.degree is None:
            self.degree = sample_degree(dist, degree_rng(self.master_seed, 0))
        return self.degree

    def probes(self, dim: int, start: int, stop: int) -> np.ndarray:
        """Read-only (dim, stop - start) block of probes start..stop-1."""
        key = (dim, start, stop)
        block = self._blocks.get(key)
        if block is None:
            block = _probe_columns(dim, self.master_seed, 0, start, stop)
            block.flags.writeable = False
            # concurrent chunks use disjoint keys; setdefault keeps one array per key
            block = self._blocks.setdefault(key, block)
        return block


def probe_rng(master_seed: int, k: int, eval_index: int = 0) -> np.random.Generator:
    """Stream of probe k within evaluation ``eval_index``."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(eval_index, 0, k))
    )


def degree_rng(master_seed: int, eval_index: int = 0) -> np.random.Generator:
    """Stream that draws the truncation degree of one evaluation."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(eval_index, 1))
    )


def rademacher_probe(dim: int, seed) -> np.ndarray:
    """Vector of independent +-1 entries; ``seed`` is an int or Generator."""
    if dim < 1:
        raise ParameterError(f"dimension must be >= 1, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.integers(0, 2, size=dim).astype(float) * 2.0 - 1.0


def _probe_columns(dim: int, master_seed: int, eval_index: int,
                   start: int, stop: int) -> np.ndarray:
    """Probes start..stop-1 of evaluation ``eval_index`` as the columns of
    a (dim, stop - start) array; the only place probe streams are drawn.

    Column k equals ``rademacher_probe(dim, probe_rng(master_seed, k,
    eval_index))``: ``Generator.integers(0, 2)`` returns the top bit of
    each 32-bit half of the stream's raw 64-bit words, low half first, so
    ceil(dim/2) words per probe are read and the block converted at once.
    """
    half = (dim + 1) // 2
    words = np.empty((stop - start, half), dtype="<u8")
    for row, k in enumerate(range(start, stop)):
        words[row] = probe_rng(master_seed, k, eval_index).bit_generator.random_raw(half)
    bits = words.view("<u4")[:, :dim] >> 31
    block = np.multiply(bits.T, 2.0, order="C")
    block -= 1.0
    return block


def _thread_count() -> int:
    """SPECTRAL_CHEB_THREADS, an integer >= 1 when set; 1 when unset."""
    raw = os.environ.get("SPECTRAL_CHEB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"SPECTRAL_CHEB_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _bilinear_block(oracle: MatrixOracle, iv: Interval, coeffs: np.ndarray, n: int,
                    probes: np.ndarray) -> np.ndarray:
    """Per-column sums sum_{k <= n} c_k mu_k, mu_k = v^T T_k(B) v, over the
    columns v of a (d, m) probe block, B = (2A - (b+a)I)/(b-a) on
    iv = [a, b]; ceil(n/2) matvecs per column.

    Only w_j = T_j(B) v for j <= ceil(n/2) is formed by the three-term
    recurrence: T_{2j} = 2 T_j^2 - T_0 and T_{2j+1} = 2 T_{j+1} T_j - T_1
    give mu_{2j} = 2 w_j^T w_j - mu_0 and mu_{2j+1} = 2 w_{j+1}^T w_j - mu_1.
    The first step is the three-term step 2B v, halved in place to w_1.
    Each later step hands over w_{j-1}, which no later moment reads, so an
    oracle that writes into it rotates two buffers through the chunk; the
    probe block itself is handed over read-only and never written.
    """
    mu0 = np.einsum("dk,dk->k", probes, probes)
    acc = coeffs[0] * mu0
    if n == 0:
        return acc
    probes = probes.view()
    probes.flags.writeable = False
    w_prev, w = probes, oracle.step(probes, None, iv)
    w *= 0.5
    mu1 = np.einsum("dk,dk->k", probes, w)
    acc = acc + coeffs[1] * mu1
    for k in range(2, n + 1):
        if k % 2:
            w_prev, w = w, oracle.step(w, w_prev, iv)
            acc += coeffs[k] * (2.0 * np.einsum("dk,dk->k", w, w_prev) - mu1)
        else:
            acc += coeffs[k] * (2.0 * np.einsum("dk,dk->k", w, w) - mu0)
    return acc


_POOLS: dict = {}  # (pid, workers) -> ThreadPoolExecutor, made on first use
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads; a forked child builds
    its own instead of using the parent's."""
    key = (os.getpid(), workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = _POOLS[key] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="spectral-cheb"
            )
        return pool


def _map_probe_chunks(plan: ProbePlan, dim: int, block_fn, workers: int) -> list:
    """``block_fn(probes, start)`` on each fixed chunk of the plan's probes,
    results in chunk order, on up to ``workers`` threads; chunk boundaries
    are fixed so the reduction order is independent of the worker count.
    Chunks of fewer than ``_MIN_THREADED_ENTRIES`` entries run inline."""
    starts = range(0, plan.M, _CHUNK)

    def run(start: int):
        return block_fn(plan.probes(dim, start, min(start + _CHUNK, plan.M)), start)

    if workers > 1 and plan.M > _CHUNK and dim * _CHUNK >= _MIN_THREADED_ENTRIES:
        return list(_pool(workers).map(run, starts))
    return [run(s) for s in starts]


def _finite(rows, start: int, n: int):
    """``rows``, a kernel's per-column array or tuple of arrays, once all
    of it is finite."""
    for part in rows if isinstance(rows, tuple) else (rows,):
        if not np.all(np.isfinite(part)):
            raise NumericError(
                f"non-finite estimate in probe block starting at {start}, degree {n}")
    return rows


def _evaluate(kernel, op, series: ChebSeries, plan: ProbePlan,
              dist: DegreeDistribution | None = None, n: int | None = None, zero=None):
    """One evaluation: the mean over the plan's probes of the rows
    ``kernel(op, series.interval, coeffs, n, probes)``, (m,) + shape for a
    (d, m) block, or of each array when the kernel returns a tuple of
    them; the kernels are ``_bilinear_block`` and ``grad_est._adjoint_block``
    (with its values or without), and the series' interval is the only one
    their steps see.

    With ``dist``, n is the plan's degree (drawn from ``dist`` on first
    use) and the coefficients are re-weighted for it; without, the plain
    series is truncated at the given n, leaving the plan's degree alone.
    A degree-0 draw returns ``zero`` when one is given, without building
    probes or touching the oracle; SPECTRAL_CHEB_THREADS is read first,
    so a bad value fails every evaluation alike.
    """
    workers = _thread_count()
    if dist is None:
        if n < 0 or n > series.degree:
            raise ParameterError(f"degree {n} outside stored series degree {series.degree}")
        coeffs = series.coeffs
    else:
        n = plan.draw_degree(dist)
        if n == 0 and zero is not None:
            return zero
        coeffs = weighted_coefficients(series, dist, n)
    rows = _map_probe_chunks(plan, op.dim, lambda probes, start: _finite(
        kernel(op, series.interval, coeffs, n, probes), start, n), workers)
    if isinstance(rows[0], tuple):
        return tuple(np.concatenate(part).mean(axis=0) for part in zip(*rows))
    return np.concatenate(rows).mean(axis=0)


def _evaluate_batch(kernel, block_cols: int, op, series: ChebSeries,
                    dist: DegreeDistribution, master_seed: int, num_samples: int, M: int,
                    zero=None) -> np.ndarray:
    """Independent evaluations t = 0..num_samples-1 on M probes each; row
    t reproduces ``_evaluate`` at evaluation index t, bit for bit when its
    block holds that sample alone.  Samples are grouped by drawn degree
    into blocks of about ``block_cols`` probe columns; ``zero`` is the
    degree-0 rule of ``_evaluate``."""
    degrees = np.array(
        [sample_degree(dist, degree_rng(master_seed, t)) for t in range(num_samples)]
    )
    shape = () if zero is None else zero.shape
    out = np.empty((num_samples,) + shape)
    block_samples = max(1, block_cols // M)
    for n in np.unique(degrees):
        n = int(n)
        idx = np.nonzero(degrees == n)[0]
        if n == 0 and zero is not None:
            out[idx] = zero
            continue
        coeffs = weighted_coefficients(series, dist, n)
        for start in range(0, idx.size, block_samples):
            chunk = idx[start : start + block_samples]
            probes = np.hstack([_probe_columns(op.dim, master_seed, int(t), 0, M) for t in chunk])
            rows = _finite(kernel(op, series.interval, coeffs, n, probes), 0, n)
            out[chunk] = rows.reshape((chunk.size, M) + shape).mean(axis=1)
    return out


def estimate_spectral_sum_fixed(
    A: MatrixOracle, series: ChebSeries, n: int, plan: ProbePlan
) -> float:
    """Fixed-degree estimate (1/M) sum_k v_k^T p_n(A) v_k.

    Biased unless f is a polynomial of degree <= n; the building block of
    the unbiased estimator below.  ``A`` may be any oracle with ``dim``
    and ``step``: a ``MatrixOracle``, ``LowRankPSD`` or
    ``ParamMatrixOracle``; the series' interval must contain its spectrum.
    Leaves the plan's degree alone.
    """
    return float(_evaluate(_bilinear_block, A, series, plan, n=n))


def estimate_spectral_sum_unbiased(
    A: MatrixOracle, series: ChebSeries, dist: DegreeDistribution, plan: ProbePlan
) -> float:
    """Single-sample unbiased estimate of tr f(A).

    Truncates at the plan's degree (drawn from ``dist`` unless the plan
    already holds one), re-weights the coefficients, and averages the
    randomized bilinear forms over the plan's probes.
    """
    return float(_evaluate(_bilinear_block, A, series, plan, dist))


def sample_spectral_sums(
    A: MatrixOracle,
    series: ChebSeries,
    dist: DegreeDistribution,
    master_seed: int,
    num_samples: int,
    M: int = 1,
) -> np.ndarray:
    """Independent unbiased estimates, vectorized for variance studies.

    Sample t reproduces exactly what ``estimate_spectral_sum_unbiased``
    would return for evaluation index t: the same per-sample degree
    stream and per-probe streams, grouped by drawn degree so the
    recurrences run on blocks of about 512 columns.
    """
    return _evaluate_batch(_bilinear_block, 512, A, series, dist, master_seed, num_samples, M)


def power_method_bound(A: MatrixOracle, iters: int, seed: int) -> float:
    """Estimate of the largest eigenvalue: the Rayleigh quotient after
    ``iters`` power iterations times a 1.1 safety factor.  Not a bound:
    the quotient approaches the top eigenvalue from below, and the factor
    only covers a slow start.  No package path calls it; acceptance
    criterion 11 and ``demos/unbiased_logdet.py`` do.  The package takes
    certified ends instead (``certified_ends``)."""
    if iters < 1:
        raise ParameterError(f"need at least one iteration, got {iters}")
    if A.dim < 1:
        raise ParameterError(f"operator dimension must be at least 1, got {A.dim}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    u = rng.standard_normal(A.dim)
    u /= np.linalg.norm(u)
    rayleigh = 0.0
    for _ in range(iters):
        v = A.apply(u)
        rayleigh = float(u @ v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return 0.0
        u = v / norm
    return 1.1 * rayleigh


def certified_ends(matrix) -> tuple[float, float]:
    """Certified spectrum ends of a symmetric dense or CSR matrix from one
    pass of absolute row sums: Gershgorin's lower end
    min_i (a_ii - sum_{j != i} |a_ij|) and the infinity norm max_i sum_j |a_ij|."""
    row_sums = np.asarray(abs(matrix).sum(axis=1)).ravel()
    diag = matrix.diagonal()
    return float(np.min(diag + np.abs(diag) - row_sums)), float(np.max(row_sums))


@dataclass(frozen=True)
class Expansion:
    """What the estimators need of f besides the operator: its Chebyshev
    series on the eigenvalue interval and the truncation-degree
    distribution.  The series' interval is the one declaration of where
    the spectrum lies; every recurrence step is mapped onto it.  ``f``
    maps an array of points to the array of its values there, as
    ``compute_coefficients`` calls it, or is None for a polynomial
    series."""

    f: Callable[[np.ndarray], np.ndarray] | None
    series: ChebSeries
    dist: DegreeDistribution

    @property
    def interval(self) -> Interval:
        return self.series.interval

    def to_degree(self, n: int) -> "Expansion":
        """This expansion with the series reaching degree n, when a draw
        out-runs the stored one: f is expanded afresh, a polynomial
        series is zero-padded."""
        if n <= self.series.degree:
            return self
        if self.f is None:
            padded = np.pad(self.series.coeffs, (0, n - self.series.degree))
            series = ChebSeries(self.interval, padded)
        else:
            series = compute_coefficients(self.f, self.interval, n)
        return Expansion(self.f, series, self.dist)


def expansion_for(f: Callable[[np.ndarray], np.ndarray], lower: float, upper: float,
                  mean_degree: int, kind: str = "opt") -> Expansion:
    """Expansion of f for an operator whose spectrum lies in [lower, upper];
    f maps an array of points to the array of its values, as
    ``compute_coefficients`` calls it.

    The interval is [lower, max(HEADROOM * upper, 2 * lower)].  The series
    reaches the degree past which the optimal distribution's geometric
    tail holds ~1e-13 of the mass, kept within [60, 1000]; ``kind`` names
    the degree distribution, such as neg(3).
    """
    interval = Interval(lower, max(HEADROOM * upper, 2.0 * lower))
    rho = rho_from_endpoint_singularity(interval)
    degree = min(max(mean_degree + 1 + math.ceil(math.log(1e13) / math.log(rho)), 60), 1000)
    return Expansion(
        f,
        compute_coefficients(f, interval, degree),
        make_degree_distribution(kind, mean_degree, rho=rho),
    )


def load_matrix(path: str | Path):
    """Read a symmetric matrix: MatrixMarket coordinate (*.mtx) or dense
    whitespace text.  Returns a dense ndarray or a scipy sparse matrix.
    Both formats pass one check: nonempty, square, finite, and |A - A^T|
    at most 1e-12 max(1, |A|) entrywise."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"matrix file not found: {path}")
    if path.suffix.lower() in (".mtx", ".mm"):
        import scipy.io
        import scipy.sparse

        try:
            matrix = scipy.sparse.csr_matrix(scipy.io.mmread(str(path)))
        except Exception as exc:
            raise ParseError(f"cannot parse MatrixMarket file {path}: {exc}") from exc
        entries = matrix.data
    else:
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                matrix = np.loadtxt(str(path), dtype=float, ndmin=2)
        except Exception as exc:
            raise ParseError(f"cannot parse dense matrix file {path}: {exc}") from exc
        entries = matrix
    if 0 in matrix.shape:
        raise ParseError(f"matrix in {path} is empty")
    if matrix.shape[0] != matrix.shape[1]:
        raise ParseError(f"matrix in {path} is not square: {matrix.shape}")
    if not np.isfinite(entries).all():
        raise ParseError(f"matrix in {path} has a non-finite entry")
    if not abs(matrix - matrix.T).max() <= 1e-12 * max(1.0, float(abs(matrix).max())):
        raise ParseError(f"matrix in {path} is not symmetric")
    return matrix
