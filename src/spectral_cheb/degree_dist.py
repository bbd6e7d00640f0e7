"""Truncation-degree distributions for randomized Chebyshev expansion.

The estimator truncates a Chebyshev series at a random degree n ~ {q_i}
and re-weights each coefficient b_j by 1/P(n >= j) so the result stays
unbiased; the survival is summed from the tail inward once per
distribution, so it stays accurate far below machine epsilon, and
sampling inverts the same sum.  This module provides the
variance-optimal distribution (a point mass at K plus a geometric tail
of ratio 1/rho, stored as its atom and closed-form tail), the Poisson /
negative-binomial / deterministic baselines (tabulated by their pmf
ratio recurrences), the one parser of their names
(``make_degree_distribution``: opt, pois, neg, neg(r), det;
``DegreeDistribution.name`` spells one back), log masses that do not
underflow (``DegreeDistribution.log_masses``), inverse-CDF sampling,
coefficient re-weighting, and the one evaluator of the closed-form
weighted variance (``log_weighted_variance``, summed in log space from
the log masses, ``inf`` where the series diverges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .chebyshev import ChebSeries
from .exceptions import DegenerateDistributionError, ParameterError

__all__ = [
    "DistributionKind",
    "DegreeDistribution",
    "optimal_distribution",
    "poisson_distribution",
    "negbinomial_distribution",
    "deterministic_distribution",
    "make_degree_distribution",
    "sample_degree",
    "weighted_coefficients",
    "log_weighted_variance",
]

# baselines are tabulated until at most this much mass is missing, then
# renormalized to exactly unit mass
_TABLE_MASS_TOL = 1e-13


class DistributionKind(Enum):
    OPTIMAL = "opt"
    POISSON = "pois"
    NEG_BINOMIAL = "neg"
    DETERMINISTIC = "det"
    TABULATED = "tabulated"


_RECURRENCE_KINDS = (DistributionKind.POISSON, DistributionKind.NEG_BINOMIAL)


def _kahan_cumsum(values: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Running sums with compensated accumulation, from ``start``."""
    out = np.empty_like(values)
    total = start
    comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


@dataclass(frozen=True)
class DegreeDistribution:
    """Probability mass function over truncation degrees.

    ``pmf_prefix`` stores q_0..q_J explicitly; beyond the prefix the mass
    either continues geometrically with ``tail_ratio`` (q_{J+m} =
    q_J * tail_ratio**m) or is zero.  ``survival_prefix`` holds the
    survivals P(n > j), j = 0..J: one compensated sum from the tail
    inward, exactly 1 below the first degree with mass.  Sampling and
    re-weighting both read it; past the prefix, ``survival_array`` forms
    the geometric tail's survivals in closed form.
    """

    kind: DistributionKind
    params: dict = field(default_factory=dict)
    pmf_prefix: np.ndarray = field(default_factory=lambda: np.zeros(1))
    tail_ratio: float | None = None
    survival_prefix: np.ndarray = field(init=False)
    _mass: float = field(init=False, repr=False)

    def __post_init__(self):
        q = np.asarray(self.pmf_prefix, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ParameterError("pmf prefix must be a nonempty 1-d array")
        if np.any(q < -1e-15):
            raise ParameterError("pmf entries must be nonnegative")
        q = np.maximum(q, 0.0)
        object.__setattr__(self, "pmf_prefix", q)
        if self.tail_ratio is not None and not 0.0 < self.tail_ratio < 1.0:
            raise ParameterError(f"geometric tail ratio must be in (0, 1), got {self.tail_ratio}")
        # P(n >= j): the mass past the prefix plus q_{j..J}, summed tail-inward
        tail = self._tail_mass_beyond_prefix()
        at_least = _kahan_cumsum(q[::-1], tail)[::-1]
        survival = np.append(at_least[1:], tail)
        survival[: np.argmax(q > 0.0)] = 1.0
        object.__setattr__(self, "survival_prefix", survival)
        object.__setattr__(self, "_mass", float(at_least[0]))
        if abs(self._mass - 1.0) > 1e-12:
            raise ParameterError(f"total mass must be 1 within 1e-12, got {self._mass!r}")

    @property
    def name(self) -> str:
        """The name ``make_degree_distribution`` builds this from: the
        kind's value, plus r in shortest form for neg(r).  ``variance-bench``
        labels its rows with it."""
        if self.kind is DistributionKind.NEG_BINOMIAL:
            return f"neg({self.params['r']:g})"
        return self.kind.value

    # -- mass bookkeeping ------------------------------------------------

    def _tail_mass_beyond_prefix(self) -> float:
        if self.tail_ratio is None:
            return 0.0
        c = self.tail_ratio
        return self.pmf_prefix[-1] * c / (1.0 - c)

    def total_mass(self) -> float:
        return self._mass

    def mean(self) -> float:
        j_end = self.pmf_prefix.size - 1
        prefix_mean = float(np.arange(j_end + 1) @ self.pmf_prefix)
        if self.tail_ratio is None:
            return prefix_mean
        c = self.tail_ratio
        head = self.pmf_prefix[-1]
        tail_mean = head * (j_end * c / (1.0 - c) + c / (1.0 - c) ** 2)
        return prefix_mean + tail_mean

    def survival_array(self, upto: int) -> np.ndarray:
        """P(n > j) = 1 - S_j for j = 0..upto: the stored prefix, then the
        geometric tail's closed form q_J c^(j-J+1) / (1 - c) (zero without
        a tail).

        Summing small positives from the tail inward avoids the
        cancellation that 1 - S_j suffers once S_j saturates; the result
        stays accurate even when the survival is far below machine eps.
        The tail is formed elementwise in j on every call, so every length
        gives each entry the same bits.
        """
        j_end = self.pmf_prefix.size - 1
        if upto <= j_end:
            return self.survival_prefix[: upto + 1].copy()
        out = np.zeros(upto + 1)
        out[: j_end + 1] = self.survival_prefix
        if self.tail_ratio is not None:
            c = self.tail_ratio
            powers = c ** np.arange(2, upto - j_end + 2, dtype=float)
            out[j_end + 1 :] = self.pmf_prefix[-1] * powers / (1.0 - c)
        return out

    @property
    def limit_ratio(self) -> float:
        """c = lim q_{i+1} / q_i: the geometric tail's ratio, N / (N + r)
        for neg(r), and 0 for Poisson and for finite support."""
        if self.kind in _RECURRENCE_KINDS:
            return _recurrence(self.kind, self.params)[2]
        return self.tail_ratio or 0.0

    def log_masses(self, upto: int) -> np.ndarray:
        """log q_0..log q_upto, then log P(n > upto), with no underflow:
        -inf where there is no mass.

        The Poisson and negative-binomial laws follow their ratio
        recurrence (their prefix stops where 1e-13 of the mass is left)
        until what lies beyond is e^-40 of P(n > upto); a geometric tail
        is extended and closed in log form.
        """
        if self.kind in _RECURRENCE_KINDS:
            ratio = _recurrence(self.kind, self.params)[1]
            length = 2 * upto + 2
            while True:
                log_q = _log_pmf_by_recurrence(self.kind, self.params, length)
                r = float(ratio(length))
                if r < 1.0 and log_q[-1] + math.log(r / (1.0 - r)) < log_q[upto + 1] - 40.0:
                    break
                length *= 2
            return np.append(log_q[: upto + 1], np.logaddexp.reduce(log_q[upto + 1 :]))
        with np.errstate(divide="ignore"):
            log_q = np.log(self.pmf_prefix)
        if self.tail_ratio is None:
            log_q = np.append(log_q, np.full(max(upto + 2 - log_q.size, 1), -np.inf))
        else:
            # extend the tail through max(upto, end) + 1; the last slot
            # holds all the mass from its degree on
            beyond = log_q[-1] + math.log(self.tail_ratio) * np.arange(
                1.0, max(upto - log_q.size + 1, 0) + 2)
            beyond[-1] -= math.log1p(-self.tail_ratio)
            log_q = np.append(log_q, beyond)
        return np.append(log_q[: upto + 1], np.logaddexp.reduce(log_q[upto + 1 :]))


def optimal_distribution(rho: float, meanN: int) -> DegreeDistribution:
    """Variance-optimal degree distribution at expected degree ``meanN``.

    Zero mass below K = max(0, N - floor(rho/(rho-1))), an atom
    q_K = 1 - (N-K)(rho-1)/rho, then a geometric tail
    q_i = (N-K)(rho-1)^2 rho^(K-i-1).  The atom at K may be zero when
    rho/(rho-1) is integral.  The prefix stores q_K and the first tail
    mass q_{K+1} = (N-K)((rho-1)/rho)^2, which cannot overflow, so every
    finite rho > 1 builds; the closed-form tail of ratio 1/rho carries
    the rest.
    """
    if not rho > 1.0:
        raise ParameterError(f"rho must be > 1, got {rho}")
    if math.isinf(rho):
        raise ParameterError(f"rho must be finite, got {rho}")
    if meanN < 1:
        raise ParameterError(f"mean degree must be >= 1, got {meanN}")
    n_mean = int(meanN)
    K = max(0, n_mean - math.floor(rho / (rho - 1.0) + 1e-9))
    c = float(n_mean - K)
    prefix = np.zeros(K + 2)
    prefix[K] = max(1.0 - c * (rho - 1.0) / rho, 0.0)
    prefix[K + 1] = c * ((rho - 1.0) / rho) ** 2
    return DegreeDistribution(
        kind=DistributionKind.OPTIMAL,
        params={"rho": float(rho), "N": float(n_mean), "K": float(K)},
        pmf_prefix=prefix,
        tail_ratio=1.0 / rho,
    )


def _recurrence(kind: DistributionKind, params: dict):
    """(log q_0, ratio, c) of the Poisson or negative-binomial law with
    these params: q_{i+1} = q_i ratio(i), and ratio(i) tends to c.  The
    ratio falls below 1 past the mean and does not increase there."""
    mean = params["N"]
    if kind is DistributionKind.POISSON:
        return -mean, lambda i: mean / (i + 1.0), 0.0
    r = params["r"]
    c = mean / (r + mean)  # 1 - p without the cancellation that grows with r
    return -r * math.log1p(mean / r), lambda i: c * (i + r) / (i + 1.0), c


def _log_pmf_by_recurrence(kind: DistributionKind, params: dict, upto: int) -> np.ndarray:
    """log q_0..log q_upto of a recurrence law, unnormalized."""
    log_q0, ratio, _ = _recurrence(kind, params)
    log_q = np.empty(upto + 1)
    log_q[0] = log_q0
    np.cumsum(np.log(ratio(np.arange(upto, dtype=float))), out=log_q[1:])
    log_q[1:] += log_q0
    return log_q


def _tabulate(kind: DistributionKind, params: dict) -> DegreeDistribution:
    """Baseline pmf from its ratio recurrence, tabulated through the first
    doubling of 4 mean + 64 whose tail mass P(n > length) is at most
    ``_TABLE_MASS_TOL``, then renormalized.

    Past the mean the ratio is below 1 and does not increase, so the mass
    beyond 2 length is at most q_{2 length} r / (1 - r), r = ratio(2 length).
    """
    ratio = _recurrence(kind, params)[1]
    length = int(4 * params["N"] + 64)
    while True:
        q = np.exp(_log_pmf_by_recurrence(kind, params, 2 * length))
        r = float(ratio(2.0 * length))
        beyond = q[length + 1 :].sum() + q[-1] * r / (1.0 - r)
        if beyond <= _TABLE_MASS_TOL:
            break
        length *= 2
        if length > 10_000_000:
            raise ParameterError("baseline distribution tail does not close")
    q = q[: length + 1]
    q = q / q.sum()
    return DegreeDistribution(kind=kind, params=params, pmf_prefix=q, tail_ratio=None)


def poisson_distribution(meanN: float) -> DegreeDistribution:
    """Poisson baseline, tabulated and renormalized to unit mass."""
    if not meanN > 0:
        raise ParameterError(f"mean degree must be positive, got {meanN}")
    return _tabulate(DistributionKind.POISSON, {"N": float(meanN)})


def negbinomial_distribution(meanN: float, r: float = 5.0) -> DegreeDistribution:
    """Negative-binomial baseline with shape r and mean ``meanN``."""
    if not meanN > 0:
        raise ParameterError(f"mean degree must be positive, got {meanN}")
    if not r >= 1:
        raise ParameterError(f"shape parameter must be >= 1, got {r}")
    if math.isinf(r):
        raise ParameterError(f"shape parameter r must be finite, got {r}")
    return _tabulate(DistributionKind.NEG_BINOMIAL, {"N": float(meanN), "r": float(r)})


def deterministic_distribution(n: int) -> DegreeDistribution:
    """Point mass at degree n (the biased fixed-truncation baseline)."""
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    prefix = np.zeros(n + 1)
    prefix[n] = 1.0
    return DegreeDistribution(
        kind=DistributionKind.DETERMINISTIC, params={"n": float(n)}, pmf_prefix=prefix
    )


def make_degree_distribution(name: str, mean_degree: int,
                             rho: float | None = None) -> DegreeDistribution:
    """The distribution a name spells, surrounding whitespace ignored: opt
    (needs ``rho``), pois, neg (the default shape), neg(r), or det (a
    point mass at ``mean_degree``)."""
    spec = name.strip()
    if spec == "opt":
        if rho is None:
            raise ParameterError("the optimal distribution needs the decay parameter rho")
        return optimal_distribution(rho, mean_degree)
    if spec == "pois":
        return poisson_distribution(mean_degree)
    if spec == "neg":
        return negbinomial_distribution(mean_degree)
    if spec.startswith("neg(") and spec.endswith(")"):
        try:
            r = float(spec[4:-1])
        except ValueError as exc:
            raise ParameterError(f"cannot parse the r of degree distribution {spec!r}") from exc
        return negbinomial_distribution(mean_degree, r)
    if spec == "det":
        return deterministic_distribution(mean_degree)
    raise ParameterError(f"unknown degree distribution {spec!r}")


def sample_degree(dist: DegreeDistribution, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of a truncation degree from the survival sums.

    Consumes a single uniform variate u; with left = 1 - u (exact for a
    53-bit uniform) the degree is the first j with P(n > j) < left.  Past
    the prefix end J the geometric tail is inverted in closed form, so
    arbitrarily large degrees are reachable without tabulating them; a
    tabulated law's last survival is 0, so its draws stay in the prefix.
    Zero-mass atoms below the first degree with mass are never returned,
    so a point mass at n returns n.
    """
    left = 1.0 - rng.random()
    survival = dist.survival_prefix
    # the survival falls with j, so the entries below left end the prefix
    j = survival.size - int(np.searchsorted(survival[::-1], left))
    if j < survival.size:
        return j
    # conditional on exceeding J, the degree is J + 1 + G with
    # P(G >= g) = c^g, so G = floor(log(left / P(n > J)) / log c)
    g = math.floor(math.log(left / survival[-1]) / math.log(dist.tail_ratio))
    return survival.size + g


def _check_series_degree(series: ChebSeries, n: int) -> None:
    """Raise ParameterError unless 0 <= n <= the series' degree."""
    if n < 0 or n > series.degree:
        raise ParameterError(f"degree {n} outside stored series degree {series.degree}")


def weighted_coefficients(series: ChebSeries, dist: DegreeDistribution, n: int) -> np.ndarray:
    """Coefficients bhat_j = b_j / P(n >= j), j = 0..n, re-weighted for the
    degree-n randomized truncation.

    Denominators are the survivals P(n >= j) of ``survival_array``, so
    below the optimal distribution's support the weights are exactly 1
    and bhat_j == b_j bit for bit.
    """
    _check_series_degree(series, n)
    denom = np.ones(n + 1)
    if n >= 1:
        denom[1:] = dist.survival_array(n - 1)
    if np.any(denom <= 0.0):
        j_bad = int(np.nonzero(denom <= 0.0)[0][0])
        raise DegenerateDistributionError(
            f"no degree mass at or above {j_bad}: re-weighting b_{j_bad} divides by zero"
        )
    return series.coeffs[: n + 1] / denom


def log_weighted_variance(log_b: np.ndarray, dist: DegreeDistribution, rho_f: float) -> float:
    """log of (pi/2) sum_j b_j^2 S_{j-1} / (1 - S_{j-1}), inf if divergent.

    ``log_b`` holds log|b_j| for j = 1..D (-inf where b_j = 0).  The head
    S_j and the tail 1 - S_j are each summed in log space from
    ``log_masses``, so the value stays accurate far outside the double
    range (as a log); it is inf when a live coefficient lies past the
    last mass.  ``rho_f`` is the decay rate of the infinite series behind the D terms:
    coefficients falling like rho_f^-j against a law whose pmf ratio tends
    to c converge iff c rho_f^2 > 1, and a divergent series is inf; pass
    rho_f = inf for an entire function or a finite sum.
    """
    if math.isfinite(rho_f) and not dist.limit_ratio * rho_f**2 > 1.0:
        return math.inf
    log_q = dist.log_masses(log_b.size - 1)
    head = np.logaddexp.accumulate(log_q[:-1])  # log S_j
    tail = np.logaddexp.accumulate(log_q[::-1])[-2::-1]  # log(1 - S_j)
    # no mass past a degree with a live coefficient: an infinite term
    with np.errstate(invalid="ignore"):
        terms = np.where(log_b > -np.inf, 2.0 * log_b + head - tail, -np.inf)
    return math.log(math.pi / 2.0) + float(np.logaddexp.reduce(terms))
