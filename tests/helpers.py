"""Shared test utilities: scalar Chebyshev polynomials, the affine map
onto [-1, 1] and Clenshaw series evaluation, explicit-pmf distributions,
a distribution's masses q_0..q_n, compensated running sums S_j, the
forward inverse CDF that sampling is checked against and the CSV dump,
random feasible pmfs, the relaxed variance objective the optimal
distribution minimizes and the finite-horizon KKT solution it is checked
against, dense matrix factories, the quadrature used by Monte-Carlo
variance oracles, the dense check of the second-kind
recurrence behind the amortized gradient, the dense matrix of a
low-rank oracle, the direct three-term
recurrence the doubled Chebyshev moments are checked against, the
full-length adjoint recurrence the gradient kernel is checked against,
the dense cosine-table quadrature sum the FFT coefficients are checked
against, the dense generic spectral gradient, finite-difference checks
of a parametric oracle and of an objective, the matrix-polynomial
perturbation and trace-nuclear checks, the mpmath evaluation of the
weighted-variance closed form that ``variance-bench`` is checked
against, and a recorder of the probe loop's thread pools."""

import math
from typing import IO, Callable

import mpmath as mp
import numpy as np

from spectral_cheb.chebyshev import ChebSeries, Interval, rho_from_endpoint_singularity
from spectral_cheb.degree_dist import (
    DegreeDistribution,
    DistributionKind,
    _kahan_cumsum,
    log_weighted_variance,
)
from spectral_cheb.exceptions import DomainEvalError, EstimationError, ParameterError
from spectral_cheb.grad_est import LowRankPSD, ParamMatrixOracle, _sum_prime_weights
from spectral_cheb.optimize import Objective
from spectral_cheb.reference import check_dense_symmetric


def eval_T(j: int, x):
    """First-kind Chebyshev polynomial T_j(x) by the three-term recurrence.

    Accepts scalars or arrays; x may lie outside [-1, 1].
    """
    if j < 0:
        raise ParameterError(f"degree must be >= 0, got {j}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if j == 0:
        return prev[()] if prev.ndim == 0 else prev
    cur = x.copy()
    for _ in range(j - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur[()] if cur.ndim == 0 else cur


def eval_U(j: int, x):
    """Second-kind Chebyshev polynomial U_j(x): U_0 = 1, U_1 = 2x."""
    if j < 0:
        raise ParameterError(f"degree must be >= 0, got {j}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if j == 0:
        return prev[()] if prev.ndim == 0 else prev
    cur = 2.0 * x
    for _ in range(j - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur[()] if cur.ndim == 0 else cur


def to_unit(iv: Interval, x):
    """The affine map [a, b] -> [-1, 1]."""
    return (2.0 * x - (iv.b + iv.a)) / iv.width


def eval_series(series: ChebSeries, x):
    """Evaluate the series at x in [a, b] by the Clenshaw recurrence."""
    iv = series.interval
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < iv.a) or np.any(x_arr > iv.b):
        raise DomainEvalError(f"evaluation point outside [{iv.a}, {iv.b}]")
    c = series.coeffs
    t = to_unit(iv, x_arr)
    u_next = np.zeros_like(t)
    u = np.zeros_like(t)
    for k in range(c.size - 1, 0, -1):
        u, u_next = c[k] + 2.0 * t * u - u_next, u
    out = c[0] + t * u - u_next
    return out[()] if out.ndim == 0 else out


def tabulated_distribution(
    pmf, tail_ratio: float | None = None, params: dict | None = None
) -> DegreeDistribution:
    """Wrap an explicit pmf (with optional geometric tail) for tests and
    random-search oracles."""
    return DegreeDistribution(
        kind=DistributionKind.TABULATED,
        params=params or {},
        pmf_prefix=np.asarray(pmf, dtype=float),
        tail_ratio=tail_ratio,
    )


def pmf_array(dist: DegreeDistribution, upto: int) -> np.ndarray:
    """q_0..q_upto, extending beyond the prefix by the tail rule."""
    j_end = dist.pmf_prefix.size - 1
    if upto <= j_end:
        return dist.pmf_prefix[: upto + 1].copy()
    out = np.zeros(upto + 1)
    out[: j_end + 1] = dist.pmf_prefix
    if dist.tail_ratio is not None:
        m = np.arange(1, upto - j_end + 1, dtype=float)
        out[j_end + 1 :] = dist.pmf_prefix[-1] * dist.tail_ratio**m
    return out


def cumulative_array(dist: DegreeDistribution, upto: int) -> np.ndarray:
    """Compensated running sums S_0..S_upto."""
    return _kahan_cumsum(pmf_array(dist, upto))


def inverse_cdf_degrees(dist: DegreeDistribution, uniforms: np.ndarray) -> np.ndarray:
    """The forward inverse CDF: for each u the first j with S_j > u, over
    the running sums of ``cumulative_array`` extended until they pass
    every u."""
    upto = dist.pmf_prefix.size
    while (cums := cumulative_array(dist, upto))[-1] <= np.max(uniforms):
        if upto > 1 << 20:
            raise ParameterError("the running sums do not pass the largest uniform")
        upto *= 2
    return np.searchsorted(cums, uniforms, side="right")


def write_pmf_csv(dist: DegreeDistribution, fh: IO[str], count: int) -> None:
    """Emit rows (i, q_i, cumsum) for i = 0..count."""
    q = pmf_array(dist, count)
    cums = cumulative_array(dist, count)
    fh.write("i,q_i,cumsum\n")
    for i in range(count + 1):
        fh.write(f"{i},{float(q[i])!r},{float(cums[i])!r}\n")


def dense_lowrank(lr: LowRankPSD) -> np.ndarray:
    """The dense theta theta^T + epsilon I a low-rank oracle applies."""
    return lr.theta @ lr.theta.T + lr.epsilon * np.eye(lr.dim)


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


def validate_objective(obj: Objective, theta0: np.ndarray, h: float = 1e-6,
                       tol: float = 1e-5) -> None:
    """Projection idempotence and g-gradient consistency at theta0."""
    projected = obj.projection(np.asarray(theta0, dtype=float))
    if not np.array_equal(obj.projection(projected), projected):
        raise ParameterError("projection is not idempotent")
    grad = np.asarray(obj.g_grad(projected), dtype=float)
    flat = projected.reshape(-1)
    scale = max(1.0, float(np.abs(grad).max()))
    for i in range(flat.size):
        probe = projected.copy()
        probe.reshape(-1)[i] += h
        fd = (obj.g_value(probe) - obj.g_value(projected)) / h
        if abs(fd - grad.reshape(-1)[i]) > tol * scale:
            raise ParameterError(
                f"g gradient coordinate {i} disagrees with finite differences"
            )


def random_feasible_pmf(rng: np.random.Generator, mean_n: int) -> DegreeDistribution:
    """Random degree distribution with mean exactly ``mean_n``.

    A Dirichlet prefix plus a geometric tail, then a two-atom correction
    to pin total mass and mean; retries until the correction keeps every
    atom nonnegative.
    """
    for _ in range(200):
        j_end = int(mean_n + rng.integers(2, 2 * mean_n + 4))
        ratio = float(rng.uniform(0.2, 0.85))
        tail_mass = float(rng.uniform(0.05, 0.3))
        head = tail_mass * (1.0 - ratio)  # stored atom at index j_end + 1
        prefix = rng.dirichlet(np.full(j_end + 1, 0.8)) * (1.0 - tail_mass)
        q = np.concatenate([prefix, [head]])
        idx = np.arange(q.size, dtype=float)
        last = float(q.size - 1)
        mass = q.sum() + head * ratio / (1.0 - ratio)
        mean = idx @ q + head * (last * ratio / (1.0 - ratio) + ratio / (1.0 - ratio) ** 2)
        # restore both constraints exactly with atoms at 0 and j_end
        b = (mean_n - mean) / j_end
        a = (1.0 - mass) - b
        q[0] += a
        q[j_end] += b
        if q[0] >= 0 and q[j_end] >= 0:
            dist = tabulated_distribution(q, tail_ratio=ratio)
            if abs(dist.mean() - mean_n) < 1e-9:
                return dist
    raise AssertionError("could not build a random feasible pmf")


def relaxed_objective(dist: DegreeDistribution, rho: float, terms: int) -> float:
    """The decay-weighted surrogate sum_{j=1}^{terms} rho^(-2j) S_{j-1}/(1 - S_{j-1})
    that the optimal distribution minimizes at fixed mean degree: the
    weighted variance at b_j = rho^-j without its pi/2, inf where the
    mass runs out below degree ``terms``."""
    log_b = -math.log(rho) * np.arange(1, terms + 1)
    return math.exp(log_weighted_variance(log_b, dist, math.inf) - math.log(math.pi / 2.0))


def finite_kkt_solution(rho: float, meanN: int, T: int) -> DegreeDistribution:
    """Optimal distribution of the horizon-T relaxed problem.

    Closed-form KKT point: zero mass through k, an atom at k+1, a
    geometric run through T-1 and a closing atom at T.  The support
    offset k is the nominal N - 1 - floor(rho/(rho-1)) or its feasible
    neighbor when the strict KKT interval excludes the nominal choice.
    Raises when no offset satisfies both feasibility conditions (T too
    small).
    """
    N = int(meanN)
    nominal = N - 1 - math.floor(rho / (rho - 1.0) + 1e-9)
    candidates = [nominal, nominal + 1, nominal - 1]
    candidates += [k for k in range(-1, N - 1) if k not in candidates]
    chosen = None
    for k in candidates:
        if k < -1 or k > N - 2 or T < k + 2:
            continue
        damp = 1.0 - rho ** (-(T - k - 1.0))
        lo = damp / (rho - 1.0)
        hi = rho * damp / (rho - 1.0)
        if lo < N - k - 1 <= hi:
            chosen = k
            break
    if chosen is None:
        raise EstimationError(
            f"no support offset k puts N-k-1 inside the KKT feasibility interval "
            f"((1-rho^(k+1-T))/(rho-1), rho*(1-rho^(k+1-T))/(rho-1)] for rho={rho}, "
            f"N={N}, T={T}; increase T"
        )
    k = chosen
    damp = 1.0 - rho ** (-(T - k - 1.0))
    c = float(N - k - 1)
    q = np.zeros(T + 1)
    q[k + 1] = 1.0 - c * (rho - 1.0) / (rho * damp)
    n_run = np.arange(k + 2, T, dtype=float)
    q[k + 2 : T] = c * (rho - 1.0) ** 2 * rho ** (k - n_run) / damp
    q[T] = c * (rho - 1.0) / (rho ** (T - k - 1.0) - 1.0)
    objective = (1.0 - rho ** (-2.0 * (k + 1))) / (rho**2 - 1.0) + damp**2 / (
        c * (rho - 1.0) ** 2 * rho ** (2.0 * (k + 1))
    )
    return tabulated_distribution(q, params={"rho": float(rho), "N": float(N), "T": float(T),
                                             "k": float(k), "kkt_objective": objective})


def random_spd(rng: np.random.Generator, dim: int, lo: float = 0.1, hi: float = 3.0) -> np.ndarray:
    """Dense SPD matrix with eigenvalues drawn uniformly in [lo, hi]."""
    w = rng.uniform(lo, hi, size=dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (basis * w) @ basis.T


def random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) * scale
    return 0.5 * (m + m.T)


def conditional_weighted_variance(series: ChebSeries, dist: DegreeDistribution,
                                  horizon: int) -> float:
    """E[ ||p_hat_n - f||_C^2 * 1{n <= horizon} ] from the per-degree
    closed form.

    Restricting to an observable degree horizon keeps the comparison
    meaningful for distributions whose survival decays faster than the
    squared coefficients (Poisson), where the unconditioned variance
    diverges in a tail no finite Monte-Carlo budget can reach.
    """
    b2 = series.coeffs**2
    q = pmf_array(dist, horizon)
    surv_incl = dist.survival_array(horizon)  # 1 - S_n
    ratio = np.zeros(horizon + 1)  # S_{j-1}/(1 - S_{j-1}) for j = 1..horizon
    ratio[1:] = (1.0 - surv_incl[:-1]) / surv_incl[:-1]
    total = 0.0
    for n in range(horizon + 1):
        tail = float(np.sum(b2[n + 1 :]))
        reweight = float(np.sum(b2[1 : n + 1] * ratio[1 : n + 1] ** 2))
        total += q[n] * 0.5 * np.pi * (tail + reweight)
    return total


def observable_horizon(dist: DegreeDistribution, floor: float = 1e-8) -> int:
    """Smallest degree whose survival drops below ``floor``."""
    surv = dist.survival_array(4096)
    return int(np.argmax(surv < floor))


def weighted_norm_sq(series: ChebSeries, coeffs, f, quad_points: int = 2048) -> float:
    """Gauss-Chebyshev quadrature of the squared weighted error
    || p - f ||_C^2 where p is the series evaluated with ``coeffs``."""
    iv = series.interval
    t = np.cos(np.pi * (np.arange(quad_points) + 0.5) / quad_points)
    x = iv.from_unit(t)
    p = eval_series(ChebSeries(iv, np.asarray(coeffs, dtype=float)), x)
    g = p - f(x)
    return float(np.pi / quad_points * np.sum(g * g))


def second_kind_vector_identity_check(
    matrix: np.ndarray, v: np.ndarray, n: int, interval: Interval | None = None
) -> bool:
    """Confirm y_j from the amortized recurrence equals U_j(shifted A) v
    and that 2 w_j = y_j - y_{j-2} for j >= 2, to 1e-9."""
    if n > 64:
        raise ParameterError("identity check capped at degree 64")
    matrix = np.asarray(matrix, dtype=float)
    if interval is None:
        interval = Interval(-1.0, 1.0)
    shifted = (2.0 * matrix - (interval.b + interval.a) * np.eye(matrix.shape[0])) / interval.width
    v = np.asarray(v, dtype=float)
    w_seq = [v, shifted @ v]
    y_seq = [v, 2.0 * (shifted @ v)]
    for j in range(2, n + 1):
        w_seq.append(2.0 * shifted @ w_seq[-1] - w_seq[-2])
        y_seq.append(2.0 * w_seq[j] + y_seq[j - 2])
    scale = max(1.0, float(np.linalg.norm(v)))
    for j in range(n + 1):
        dense = _matrix_cheb_second(shifted, j) @ v
        if np.max(np.abs(y_seq[j] - dense)) > 1e-9 * scale:
            return False
        if j >= 2 and np.max(np.abs(2.0 * w_seq[j] - (y_seq[j] - y_seq[j - 2]))) > 1e-9 * scale:
            return False
    return True


def direct_bilinear_sums(matrix: np.ndarray, interval: Interval, coeffs: np.ndarray,
                         n: int, probes: np.ndarray) -> np.ndarray:
    """Per-column sum_{k <= n} c_k v^T T_k(B) v for B = (2A - (b+a)I)/(b-a),
    by the plain three-term recurrence: n products with B per column."""
    matrix = np.asarray(matrix, dtype=float)
    shifted = (2.0 * matrix - (interval.b + interval.a) * np.eye(matrix.shape[0])) / interval.width
    w_prev, w = probes, shifted @ probes
    acc = coeffs[0] * np.einsum("dk,dk->k", probes, probes)
    for k in range(1, n + 1):
        if k >= 2:
            w_prev, w = w, 2.0 * (shifted @ w) - w_prev
        acc = acc + coeffs[k] * np.einsum("dk,dk->k", probes, w)
    return acc


def full_recurrence_adjoint_block(op, iv: Interval, bhat: np.ndarray, n: int,
                                  probes: np.ndarray) -> np.ndarray:
    """Gradient of v^T p_hat_n(B) v per column of a (d, m) probe block,
    n >= 1, by the full-length recurrence: a forward pass stores
    w_i = T_i(B) v for i < n, a backward Clenshaw pass forms
    s_i = sum_k bhat_{i+1+k} U_k(B) v from s_i = bhat_{i+1} v +
    2 B s_{i+1} - s_{i+2}, and the oracle contracts
    (2/(b-a)) sum_i' w_i^T dA s_i.  2(n - 1) matvecs of A and n partial
    matvecs per coordinate per column; sum_i' w_i s_i^T is symmetric, so
    any correct ``contract`` gives the gradient."""
    w = [probes]
    if n >= 2:
        w.append(0.5 * op.step(probes, None, iv))
    # both sequences are kept, so each step is handed a copy of the older
    # operand, which the step may write its result into
    for i in range(2, n):
        w.append(op.step(w[i - 1], w[i - 2].copy(), iv))
    s = [None] * n
    for i in range(n - 1, -1, -1):
        s[i] = bhat[i + 1] * probes
        if i < n - 1:
            s[i] += op.step(s[i + 1], s[i + 2].copy() if i < n - 2 else None, iv)
    # (n, m, d) blocks of probe rows, the layout ``contract`` takes
    return op.contract(np.stack([x.T for x in w]), np.stack([x.T for x in s]),
                       _sum_prime_weights(n) * (2.0 / iv.width))


def cosine_table_coefficients(f, interval: Interval, degree: int, quad_nodes: int):
    """Chebyshev coefficients by the dense quadrature sum
    b_j = (2 - 1_{j=0})/Q sum_k f(x_k) cos(j pi (k+1/2)/Q), a (degree+1) x Q
    cosine table times the node values.  Returns the coefficients and
    max_k |f(x_k)|."""
    theta = np.pi * (np.arange(quad_nodes) + 0.5) / quad_nodes
    fx = np.asarray([f(x) for x in interval.from_unit(np.cos(theta))], dtype=float)
    cos_table = np.cos(np.outer(np.arange(degree + 1), theta))
    coeffs = (2.0 / quad_nodes) * (cos_table @ fx)
    coeffs[0] *= 0.5
    return coeffs, float(np.max(np.abs(fx)))


def exact_spectral_grad_generic(
    matrix: np.ndarray, partials: list[np.ndarray], fprime: Callable
) -> np.ndarray:
    """Gradient of tr f(A(theta)): coordinate i is tr(f'(A) dA/dtheta_i)."""
    matrix = check_dense_symmetric(matrix)
    w, v = np.linalg.eigh(matrix)
    fprime_mat = (v * fprime(w)) @ v.T
    return np.array([float(np.sum(fprime_mat * check_dense_symmetric(p))) for p in partials])


def _matrix_cheb_first(matrix: np.ndarray, degree: int) -> np.ndarray:
    """T_degree(A) by trigonometric evaluation on the eigenbasis."""
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, -1.0, 1.0)
    return (v * np.cos(degree * np.arccos(w))) @ v.T


def _matrix_cheb_second(matrix: np.ndarray, degree: int) -> np.ndarray:
    """U_degree(A) via sin((degree+1) theta)/sin(theta) with endpoint limits."""
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, -1.0, 1.0)
    theta = np.arccos(w)
    vals = np.empty_like(w)
    interior = np.abs(np.sin(theta)) > 1e-8
    vals[interior] = np.sin((degree + 1) * theta[interior]) / np.sin(theta[interior])
    edge = ~interior
    vals[edge] = np.sign(w[edge]) ** degree * (degree + 1)
    return (v * vals) @ v.T


def chebyshev_perturbation_check(
    matrix: np.ndarray, perturbation: np.ndarray, i_max: int
) -> bool:
    """Verify the polynomial perturbation bounds
    ||T_i(A+E) - T_i(A)|| <= i^2 ||E|| and
    ||U_i(A+E) - U_i(A)|| <= i(i+1)(i+2)/3 ||E||
    in both spectral and Frobenius norms for all i <= i_max.
    """
    if i_max > 40:
        raise ParameterError("perturbation check capped at degree 40")
    a_mat = check_dense_symmetric(matrix)
    e_mat = check_dense_symmetric(perturbation)
    for m in (a_mat, a_mat + e_mat):
        eigvals = np.linalg.eigvalsh(m)
        if eigvals.min() < -1.0 - 1e-12 or eigvals.max() > 1.0 + 1e-12:
            raise ParameterError("spectra must lie inside [-1, 1]")
    slack = 1e-10
    for norm in (
        lambda m: float(np.linalg.norm(m, 2)),
        lambda m: float(np.linalg.norm(m, "fro")),
    ):
        e_norm = norm(e_mat)
        for i in range(i_max + 1):
            t_diff = norm(_matrix_cheb_first(a_mat + e_mat, i) - _matrix_cheb_first(a_mat, i))
            if t_diff > i**2 * e_norm + slack:
                return False
            u_diff = norm(_matrix_cheb_second(a_mat + e_mat, i) - _matrix_cheb_second(a_mat, i))
            if u_diff > i * (i + 1) * (i + 2) / 3.0 * e_norm + slack:
                return False
    return True


def trace_nuclear_check(a_mat: np.ndarray, b_mat: np.ndarray) -> bool:
    """Verify tr(AB) <= ||A||_nuc ||B||_2 for a symmetric pair."""
    a_mat = check_dense_symmetric(a_mat)
    b_mat = check_dense_symmetric(b_mat)
    lhs = float(np.sum(a_mat * b_mat))
    nuc = float(np.sum(np.abs(np.linalg.eigvalsh(a_mat))))
    spec = float(np.linalg.norm(b_mat, 2))
    return lhs <= nuc * spec + 1e-10 * max(1.0, nuc * spec)


def mp_coefficients(fname: str, payload, interval: Interval, degree: int, dps: int) -> list:
    """b_0..b_degree of log, sqrt, exp or the polynomial with monomial
    coefficients ``payload`` on ``interval``, in mpmath at ``dps`` digits.

    The Gauss-Chebyshev cosine sum at Q nodes carries the aliases
    b_{2kQ-j} and b_{2kQ+j}; Q is taken so that they sit below
    10^-(dps + 4) of the coefficients' scale.  log and sqrt decay at the
    rate r of the ellipse through their singularity at 0; exp is entire,
    growing on the ellipse E_r by at most exp(h (r + 1/r) / 2), h the
    half-width, and the rate giving the fewest nodes is taken; a
    polynomial of degree p is integrated exactly once 2Q > p + degree.
    """
    digits = (dps + 4) * math.log(10.0)
    if fname == "poly":
        alias = len(payload)
    elif fname == "exp":
        half = interval.width / 2.0
        alias = min(math.ceil((digits + half * (r + 1.0 / r) / 2.0) / math.log(r))
                    for r in (2.0 ** (k / 8.0) for k in range(1, 161)))
    else:
        alias = math.ceil(digits / math.log(rho_from_endpoint_singularity(interval)))
    nodes = max(degree + 1, -(-(degree + alias) // 2))
    with mp.workdps(dps):
        if fname == "poly":
            coeffs = [mp.mpf(c) for c in payload]

            def f(x):
                return mp.fsum(c * x**k for k, c in enumerate(coeffs))
        else:
            f = getattr(mp, fname)
        half_width = (mp.mpf(interval.b) - interval.a) / 2
        center = (mp.mpf(interval.b) + interval.a) / 2
        sums = [mp.mpf(0)] * (degree + 1)
        for k in range(nodes):
            t = mp.cos(mp.pi * (2 * k + 1) / (2 * nodes))
            fx = f(half_width * t + center)
            t_prev, t_cur = mp.mpf(1), t
            sums[0] += fx
            for j in range(1, degree + 1):
                sums[j] += fx * t_cur
                t_prev, t_cur = t_cur, 2 * t * t_cur - t_prev
        coeffs = [s * 2 / nodes for s in sums]
        coeffs[0] /= 2
        if fname == "poly":  # past the degree the sums hold rounding residue
            coeffs[len(payload):] = [mp.mpf(0)] * (degree + 1 - len(payload))
        return coeffs


def mp_variances(fname: str, payload, interval: Interval, dists, degree: int = 220,
                 dps: int | None = None) -> list:
    """(pi/2) sum_{j=1}^{degree} b_j^2 S_{j-1} / (1 - S_{j-1}) for each
    distribution, in mpmath at ``dps`` digits (default 130, 380 for exp), each survival
    1 - S_j recomputed from the distribution's parameters as one minus a
    running sum; mp.inf where the mass runs out below a live coefficient.
    A divergent series gives its partial sum, or rounding residue once a
    survival falls below the working precision."""
    dps = dps or (380 if fname == "exp" else 130)
    coeffs = mp_coefficients(fname, payload, interval, degree, dps)
    with mp.workdps(dps):
        noise = max(abs(c) for c in coeffs) * mp.mpf(10) ** (12 - dps)
        values = []
        for dist in dists:
            survival = _mp_survival(dist, degree)
            total = mp.mpf(0)
            for j in range(1, degree + 1):
                d = survival[j - 1]
                if d <= 0:
                    if abs(coeffs[j]) > noise:
                        total = mp.inf
                        break
                    continue
                total += coeffs[j] ** 2 * (1 - d) / d
            values.append(total * mp.pi / 2)
        return values


def _mp_survival(dist: DegreeDistribution, upto: int) -> list:
    """1 - S_j for j = 0..upto at the working precision."""
    p = dist.params
    if dist.kind is DistributionKind.DETERMINISTIC:
        return [mp.mpf(1) if j < p["n"] else mp.mpf(0) for j in range(upto + 1)]
    if dist.kind is DistributionKind.OPTIMAL:
        rho, k_supp, c = mp.mpf(p["rho"]), int(p["K"]), mp.mpf(p["N"] - p["K"])
        return [mp.mpf(1) if j < k_supp else c * (rho - 1) * rho ** (k_supp - j - 1)
                for j in range(upto + 1)]
    mean = mp.mpf(p["N"])
    if dist.kind is DistributionKind.POISSON:
        q = mp.exp(-mean)

        def step(i, q):
            return q * mean / (i + 1)
    elif dist.kind is DistributionKind.NEG_BINOMIAL:
        r = mp.mpf(p["r"])
        q = (r / (r + mean)) ** r

        def step(i, q):
            return q * mean / (r + mean) * (i + r) / (i + 1)
    else:
        raise ParameterError(f"no mp survival for {dist.kind}")
    cum, out = mp.mpf(0), []
    for i in range(upto + 1):
        cum += q
        out.append(1 - cum)
        q = step(i, q)
    return out


def record_thread_pools(monkeypatch, min_entries: int | None = None) -> list:
    """The list the keyword arguments of every thread pool the probe loop
    builds from now on are appended to, its pool cache emptied first.
    With ``min_entries``, chunks wider than 32 columns are sized by that
    entry count instead of 2^15, so 0 splits a small operator's plan into
    32-column chunks."""
    import spectral_cheb.probes as probes_module

    built = []
    real_pool = probes_module.ThreadPoolExecutor
    monkeypatch.setattr(probes_module, "ThreadPoolExecutor",
                        lambda **kw: built.append(kw) or real_pool(**kw))
    monkeypatch.setattr(probes_module, "_POOLS", {})
    if min_entries is not None:
        monkeypatch.setattr(probes_module, "_MIN_THREADED_ENTRIES", min_entries)
    return built
