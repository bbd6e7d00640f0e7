"""Scalar Chebyshev machinery.

Intervals and series, coefficient computation by Gauss-Chebyshev
quadrature, whose sum over Q nodes is a DCT-II evaluated by FFT in
O(Q log Q); geometric truncation-error bounds, and a least-squares fit
of the coefficient decay rate for when the analyticity parameters are
not known in advance.  The matrix recurrences live with the estimators
in ``probes`` and ``grad_est``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DomainEvalError, EstimationError, ParameterError

__all__ = [
    "Interval",
    "AnalyticitySpec",
    "ChebSeries",
    "compute_coefficients",
    "series_from_polynomial",
    "truncation_error_bound",
    "estimate_rho",
    "rho_from_endpoint_singularity",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] assumed to contain every eigenvalue."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ParameterError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ParameterError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    def from_unit(self, t):
        """Affine map [-1, 1] -> [a, b]."""
        return 0.5 * self.width * t + 0.5 * (self.b + self.a)


@dataclass(frozen=True)
class AnalyticitySpec:
    """Bernstein-ellipse parameters of the expanded function.

    ``rho`` is the sum of the semi-axis lengths of the ellipse (foci at
    +-1 after mapping the interval to [-1, 1]) inside which the function
    is analytic, and ``bigU`` bounds its magnitude there.  Coefficients
    then decay like ``|b_j| <= 2 * bigU / rho**j``.
    """

    rho: float
    bigU: float

    def __post_init__(self):
        if not self.rho > 1.0:
            raise ParameterError(f"analyticity requires rho > 1, got {self.rho}")
        if not self.bigU > 0.0:
            raise ParameterError(f"magnitude bound must be positive, got {self.bigU}")


@dataclass(frozen=True)
class ChebSeries:
    """Truncated Chebyshev series of a function on an interval.

    ``coeffs[j]`` multiplies the degree-j first-kind polynomial of the
    interval-mapped argument.
    """

    interval: Interval
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ParameterError("series needs a nonempty 1-d coefficient array")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _quadrature_nodes(count: int) -> np.ndarray:
    """Gauss-Chebyshev nodes cos(pi (k + 1/2) / count) on [-1, 1]."""
    k = np.arange(count)
    return np.cos(np.pi * (k + 0.5) / count)


def compute_coefficients(
    f: Callable[[np.ndarray], np.ndarray],
    interval: Interval,
    degree: int,
) -> ChebSeries:
    """Expand ``f`` on ``interval`` to the given degree.

    Coefficients come from Gauss-Chebyshev quadrature of the projection
    integral at Q = max(1024, 4*(degree+1)) cosine-spaced points, which
    keeps the transform safely oversampled.  ``f`` is called once, on the
    array of nodes, and must return the array of its values there (a
    NumPy ufunc does).  The quadrature sum is a DCT-II of the node values,
    evaluated by FFT in O(Q log Q) rather than as a (degree+1) x Q cosine
    table.  Deterministic: same inputs give bit-identical coefficients.
    """
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")
    quad_nodes = max(1024, 4 * (degree + 1))
    t = _quadrature_nodes(quad_nodes)
    x = interval.from_unit(t)
    fx = np.asarray(f(x), dtype=float)
    bad = np.nonzero(~np.isfinite(fx))[0]
    if bad.size:
        raise DomainEvalError(
            f"function is not finite at quadrature node {bad[0]} "
            f"(x = {x[bad[0]]!r}, f(x) = {fx[bad[0]]!r})"
        )
    # b_j = (2 - 1_{j=0})/Q * sum_k f(x_k) cos(j pi (k+1/2)/Q) is a DCT-II:
    # with Z = DFT of the even extension [fx, reversed fx] (length 2Q),
    # e^{-i pi j/(2Q)} Z_j = 2 sum_k f(x_k) cos(j pi (k+1/2)/Q)
    z = np.fft.rfft(np.concatenate([fx, fx[::-1]]))[: degree + 1]
    phase = 0.5 * np.pi * np.arange(degree + 1) / quad_nodes
    coeffs = (np.cos(phase) * z.real + np.sin(phase) * z.imag) / quad_nodes
    coeffs[0] *= 0.5
    return ChebSeries(interval=interval, coeffs=coeffs)


def series_from_polynomial(
    monomial_coeffs: Sequence[float], interval: Interval, degree: int | None = None
) -> ChebSeries:
    """Exact series of a polynomial given in monomial basis.

    Converts sum_k c_k x^k through the interval map into the Chebyshev
    basis algebraically, so polynomial inputs evaluate without quadrature
    noise.  ``degree`` zero-pads the coefficients (the expansion of a
    polynomial is exactly zero past its degree), which lets randomized
    truncation draw degrees beyond it.
    """
    poly = np.polynomial.Polynomial(np.asarray(monomial_coeffs, dtype=float))
    cheb = poly.convert(domain=[interval.a, interval.b], kind=np.polynomial.Chebyshev)
    coeffs = np.asarray(cheb.coef, dtype=float)
    if degree is not None and degree + 1 > coeffs.size:
        coeffs = np.concatenate([coeffs, np.zeros(degree + 1 - coeffs.size)])
    return ChebSeries(interval=interval, coeffs=coeffs)


def truncation_error_bound(spec: AnalyticitySpec, n: int) -> float:
    """Uniform error of the degree-n truncation: 4U / ((rho-1) rho^n)."""
    if n < 0:
        raise ParameterError(f"degree must be >= 0, got {n}")
    return 4.0 * spec.bigU / ((spec.rho - 1.0) * spec.rho**n)


def estimate_rho(series: ChebSeries, j_min: int, j_max: int) -> float:
    """Fit the geometric decay rate of |b_j| over j in [j_min, j_max].

    Returns exp(-slope) of the least-squares line through log|b_j|; the
    documented fallback when the ellipse parameter is not supplied.  The
    window ends at the last coefficient above the 1e-14 quadrature floor,
    since fast decay reaches that floor inside the requested range.
    """
    if not j_max > j_min + 3:
        raise ParameterError(f"need j_max > j_min + 3, got [{j_min}, {j_max}]")
    if j_min < 0 or j_max > series.degree:
        raise ParameterError(f"fit range [{j_min}, {j_max}] outside stored degrees")
    b = np.abs(series.coeffs[j_min : j_max + 1])
    above = np.nonzero(b > 1e-14)[0]
    b = b[: above[-1] + 1] if above.size else b[:0]
    if b.size < 5:
        raise EstimationError(
            f"fewer than 5 coefficients above 1e-14 from degree {j_min}; "
            "decay rate not resolvable"
        )
    j = np.arange(j_min, j_min + b.size)
    if np.any(b <= 1e-14):
        raise EstimationError(
            "coefficients in the fit range are below 1e-14; decay rate not resolvable"
        )
    slope = np.polynomial.polynomial.polyfit(j, np.log(b), 1)[1]
    rho = math.exp(-slope)
    if rho <= 1.0:
        raise EstimationError(
            f"fitted decay rate {rho!r} <= 1; function not resolvably analytic at this degree"
        )
    return rho


def rho_from_endpoint_singularity(interval: Interval) -> float:
    """Largest ellipse parameter for a function whose nearest singularity
    sits at x = 0 left of the interval (log, sqrt, and powers on (0, b]).

    With x0 = (b+a)/(b-a) the image of the singularity under the interval
    map, the ellipse through it has parameter x0 + sqrt(x0^2 - 1); in
    terms of kappa = b/a this is (sqrt(kappa)+1)/(sqrt(kappa)-1).
    """
    if interval.a <= 0:
        raise ParameterError("interval must be strictly positive")
    x0 = (interval.b + interval.a) / interval.width
    return x0 + math.sqrt(x0 * x0 - 1.0)
