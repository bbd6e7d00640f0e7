"""Extended-precision evaluation of the weighted-variance closed form.

The variance sweep runs the expected degree up to 100, where for the
benchmark functions the true variances sit orders of magnitude below
what double-precision coefficient computation can represent (the log
coefficients near degree 130 are ~1e-27 and their squares ~1e-53; for
exp the scales are hundreds of digits down).  The bench therefore
computes the Gauss-Chebyshev coefficient sums and the variance series
with mpmath at a per-function precision, and emits decimal strings that
preserve the tiny exponents.

Only the variance-bench command uses this module; the production
estimators stay in double precision.
"""

from __future__ import annotations

import math

import mpmath as mp

from .chebyshev import Interval, rho_from_endpoint_singularity
from .degree_dist import DegreeDistribution, DistributionKind
from .exceptions import ParameterError

__all__ = ["mp_variances"]

SERIES_DEGREE = 220
_DPS = {"log": 130, "sqrt": 130, "exp": 380, "poly": 130}
# digits beyond the working precision that the aliasing bound must reach,
# covering its constant (|b_m| <= C r^-m with C a modest multiple of the
# coefficients' scale, and both aliases b_{2kQ-j}, b_{2kQ+j} of every k)
_GUARD_DIGITS = 4


def _mp_function(fname, payload):
    if fname == "log":
        return mp.log
    if fname == "sqrt":
        return mp.sqrt
    if fname == "exp":
        return mp.exp
    if fname == "poly":
        coeffs = [mp.mpf(c) for c in payload]

        def poly(x):
            acc = mp.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        return poly
    raise ParameterError(f"unknown function {fname!r}")


def _quad_nodes(fname: str, payload, interval: Interval, degree: int, dps: int) -> int:
    """Gauss-Chebyshev node count Q that resolves b_0..b_degree to ``dps``
    digits.

    With Q nodes the computed b_j carries the aliases b_{2kQ-j} and
    b_{2kQ+j}, k >= 1, the largest of index 2Q - degree.  If |b_m| falls
    like r^-m, they stay below 10^-(dps + guard) of the coefficients'
    scale once 2Q - degree >= (dps + guard) ln 10 / ln r.  log and sqrt
    decay at the rate r of the ellipse through their singularity at 0.
    exp is entire: on the ellipse E_r its modulus grows by at most
    exp(h (r + 1/r) / 2), h the half-width, over its scale, and the rate
    giving the fewest nodes is taken.  A polynomial of degree p is
    integrated exactly once Q > (p + degree) / 2.  Q > degree always, or
    T_j for j >= Q would alias onto lower terms.
    """
    digits = (dps + _GUARD_DIGITS) * math.log(10.0)
    if fname == "poly":  # 2Q >= p + degree + 1, p = len(payload) - 1
        return max(degree + 1, -(-(len(payload) + degree) // 2))
    if fname == "exp":
        half = interval.width / 2.0
        rates = (2.0 ** (k / 8.0) for k in range(1, 161))
        alias = min(math.ceil((digits + half * (r + 1.0 / r) / 2.0) / math.log(r))
                    for r in rates)
    else:
        alias = math.ceil(digits / math.log(rho_from_endpoint_singularity(interval)))
    return max(degree + 1, -(-(degree + alias) // 2))


def _mp_coefficients(fname, payload, interval: Interval, degree: int):
    """Chebyshev coefficients by the cosine-sum quadrature, evaluated with
    the first-kind recurrence per node (no per-term trig calls)."""
    a, b = mp.mpf(interval.a), mp.mpf(interval.b)
    f = _mp_function(fname, payload)
    half_width = (b - a) / 2
    center = (b + a) / 2
    nodes = _quad_nodes(fname, payload, interval, degree, mp.mp.dps)
    sums = [mp.mpf(0) for _ in range(degree + 1)]
    for k in range(nodes):
        theta = mp.pi * (2 * k + 1) / (2 * nodes)
        t = mp.cos(theta)
        fx = f(half_width * t + center)
        t_prev = mp.mpf(1)
        t_cur = t
        sums[0] += fx
        if degree >= 1:
            sums[1] += fx * t
        for j in range(2, degree + 1):
            t_prev, t_cur = t_cur, 2 * t * t_cur - t_prev
            sums[j] += fx * t_cur
    coeffs = [s * 2 / nodes for s in sums]
    coeffs[0] /= 2
    if fname == "poly":
        # exactly zero past the polynomial's degree; what the sums hold
        # there is rounding residue, which depends on the node count
        coeffs[len(payload):] = [mp.mpf(0)] * (degree + 1 - len(payload))
    return coeffs


def _survival_optimal(rho_mp, k_supp: int, mean_n: int, upto: int):
    """1 - S_j for the optimal distribution with its mass from degree
    ``k_supp`` on, exact in mp."""
    c = mp.mpf(mean_n - k_supp)
    out = []
    for j in range(upto + 1):
        if j < k_supp:
            out.append(mp.mpf(1))
        else:
            out.append(c * (rho_mp - 1) * rho_mp ** (k_supp - j - 1))
    return out


def _survival_from_pmf(first, step, upto: int):
    """1 - S_j from a pmf given by its first value and the ratio
    recurrence q_{i+1} = step(i, q_i); summed forward in mp."""
    q = first
    cum = mp.mpf(0)
    out = []
    i = 0
    while i <= upto:
        cum += q
        out.append(1 - cum)
        q = step(i, q)
        i += 1
    return out


def _survival_poisson(mean_n: int, upto: int):
    first = mp.e ** (-mp.mpf(mean_n))
    return _survival_from_pmf(first, lambda i, q: q * mean_n / (i + 1), upto)


def _survival_negbinomial(mean_n: int, r: float, upto: int):
    r_mp = mp.mpf(r)
    p = r_mp / (r_mp + mean_n)
    first = p**r_mp
    return _survival_from_pmf(
        first, lambda i, q: q * (1 - p) * (i + r_mp) / (i + 1), upto
    )


def mp_variances(
    fname: str,
    payload,
    interval: Interval,
    dists: list[DegreeDistribution],
) -> list[str]:
    """The weighted variance of each distribution, as a decimal string or
    'inf'; each survival is recomputed in mp from the distribution's
    parameters."""
    with mp.workdps(_DPS.get(fname, 130)):
        coeffs = _mp_coefficients(fname, payload, interval, SERIES_DEGREE)
        values = []
        for dist in dists:
            p = dist.params
            if dist.kind is DistributionKind.OPTIMAL:
                survival = _survival_optimal(mp.mpf(p["rho"]), int(p["K"]), int(p["N"]),
                                             SERIES_DEGREE)
            elif dist.kind is DistributionKind.POISSON:
                survival = _survival_poisson(int(p["N"]), SERIES_DEGREE)
            elif dist.kind is DistributionKind.NEG_BINOMIAL:
                survival = _survival_negbinomial(int(p["N"]), p["r"], SERIES_DEGREE)
            elif dist.kind is DistributionKind.DETERMINISTIC:
                survival = [mp.mpf(1) if j < p["n"] else mp.mpf(0)
                            for j in range(SERIES_DEGREE + 1)]
            else:
                raise ParameterError(f"no extended-precision survival for {dist.kind}")
            values.append(_variance_or_inf(coeffs, survival))
        return values


def _variance_or_inf(coeffs, survival) -> str:
    # a zero-survival slot with a live coefficient above it means the
    # deterministic truncation of a non-polynomial: infinite variance
    scale = max(abs(c) for c in coeffs)
    noise = scale * mp.mpf(10) ** (-mp.mp.dps + 12)
    total = mp.mpf(0)
    for j in range(1, len(coeffs)):
        d = survival[j - 1]
        if d <= 0:
            if abs(coeffs[j]) > noise:
                return "inf"
            continue
        total += coeffs[j] ** 2 * (1 - d) / d
    total *= mp.pi / 2
    return mp.nstr(total, 17, min_fixed=1, max_fixed=0)
