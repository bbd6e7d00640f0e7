"""The rows of ``variance-bench``: the weighted-variance closed form
(pi/2) sum_{j=1}^{D} b_j^2 S_{j-1} / (1 - S_{j-1}) with D = SERIES_DEGREE,
in double precision.

The sweep reaches variances far below the double range (exp with the
optimal law at N = 100 is 1.5e-376), so every factor stays in log space:
log|b_j| in closed form here, and the sum by
``degree_dist.log_weighted_variance``, which also decides convergence
(rho_f from the singularity at 0 for log and sqrt; exp is entire and a
polynomial finite); a divergent row is ``inf``.
"""

from __future__ import annotations

import math

import numpy as np

from .chebyshev import Interval, rho_from_endpoint_singularity, series_from_polynomial
from .degree_dist import DegreeDistribution, log_weighted_variance

__all__ = ["variance_texts"]

SERIES_DEGREE = 220


def log_abs_coefficients(fname: str, payload, interval: Interval, degree: int) -> np.ndarray:
    """log|b_j| for j = 1..degree, -inf where b_j = 0, in closed form.

    With t the interval-mapped argument, h the half-width, and for log and
    sqrt q = 1/rho, rho the ellipse through the singularity at 0 (so that
    x = h (rho / 2) |1 + q e^{i theta}|^2 at t = cos theta):
      log:  b_j = 2 (-1)^(j+1) q^j / j;
      sqrt: b_j = 2 sqrt(h rho / 2) q^j sum_k beta_k beta_{k+j} q^(2k),
            beta_k = binom(1/2, k);
      exp:  b_j = 2 e^c I_j(h), c the center, from the all-positive series
            I_j(h) = sum_k (h/2)^(2k+j) / (k! (k+j)!);
      poly: exact by ``series_from_polynomial``, zero past its degree.
    """
    j = np.arange(1, degree + 1)
    if fname == "poly":
        with np.errstate(divide="ignore"):
            coeffs = series_from_polynomial(payload, interval, degree).coeffs
            return np.log(np.abs(coeffs[1 : degree + 1]))
    half = interval.width / 2.0
    if fname == "exp":
        # past k = h the terms fall by 1/4 or more each, past 2h by 1/16
        k = np.arange(math.ceil(2.0 * half) + 40)
        log_fact = np.array([math.lgamma(m + 1.0) for m in range(k.size + degree)])
        log_bessel = [np.logaddexp.reduce((2 * k + n) * math.log(half / 2.0)
                                          - log_fact[k] - log_fact[k + n]) for n in j]
        return math.log(2.0) + (interval.a + interval.b) / 2.0 + np.array(log_bessel)
    rho = rho_from_endpoint_singularity(interval)
    log_q = -math.log(rho)
    if fname == "log":
        return math.log(2.0) + j * log_q - np.log(j)
    # the sum's terms fall below q^(2k); stop where that is e^-46 of the
    # sum even after its cancellation, a factor 1/sqrt(1 - q^2)
    terms = math.ceil((46.0 - 0.5 * math.log(-math.expm1(2.0 * log_q))) / (-2.0 * log_q)) + 1
    ratios = (0.5 - np.arange(terms + degree)) / (np.arange(terms + degree) + 1.0)
    beta = np.cumprod(np.append(1.0, ratios))
    sums = np.correlate(beta, beta[:terms] * np.exp(2.0 * log_q * np.arange(terms)), "valid")
    return (math.log(2.0) + 0.5 * math.log(half * rho / 2.0) + j * log_q
            + np.log(np.abs(sums[1 : degree + 1])))


def _spell(log_v: float) -> str:
    """e^log_v as mpmath's nstr(v, 17, min_fixed=1, max_fixed=0) spells it
    (17 significant digits, trailing zeros stripped, no exponent for one
    digit before the point), outside the double range too."""
    if math.isinf(log_v):
        return "inf" if log_v > 0 else "0.0"
    shift = 0 if abs(log_v) < 700.0 else round(log_v / math.log(10.0))
    digits, exponent = f"{math.exp(log_v - shift * math.log(10.0)):.16e}".split("e")
    digits = digits.rstrip("0")
    digits += "0" if digits.endswith(".") else ""
    exponent = int(exponent) + shift
    return digits if exponent == 0 else f"{digits}e{exponent:+d}"


def variance_texts(fname: str, payload, interval: Interval,
                   dists: list[DegreeDistribution]) -> list[str]:
    """The weighted variance of each distribution to degree SERIES_DEGREE,
    spelled for the bench CSV, or 'inf' where the series diverges."""
    log_b = log_abs_coefficients(fname, payload, interval, SERIES_DEGREE)
    rho_f = rho_from_endpoint_singularity(interval) if fname in ("log", "sqrt") else math.inf
    return [_spell(log_weighted_variance(log_b, dist, rho_f)) for dist in dists]
