"""Tests for the scalar Chebyshev machinery."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spectral_cheb.chebyshev import (
    AnalyticitySpec,
    ChebSeries,
    Interval,
    compute_coefficients,
    estimate_rho,
    rho_from_endpoint_singularity,
    series_from_polynomial,
    truncation_error_bound,
)
from spectral_cheb.exceptions import DomainEvalError, EstimationError, ParameterError

from helpers import cosine_table_coefficients, eval_series, eval_T, eval_U

# Frozen oracle values: adaptive quadrature of the projection integral
# after the substitution x = cos(theta), computed independently of the
# cosine-sum used by compute_coefficients.
EXP_B0 = 1.2660658777520084
EXP_B1 = 1.1303182079849703


def exp_coeff_oracle(j):
    val, _ = quad(
        lambda t: np.exp(np.cos(t)) * np.cos(j * t), 0.0, np.pi, epsabs=1e-14, epsrel=1e-14
    )
    return (2.0 - (j == 0)) / np.pi * val


class TestTypes:
    def test_interval_validation(self):
        with pytest.raises(ParameterError):
            Interval(1.0, 1.0)
        with pytest.raises(ParameterError):
            Interval(2.0, 1.0)
        with pytest.raises(ParameterError):
            Interval(0.0, math.inf)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            AnalyticitySpec(rho=1.0, bigU=1.0)
        with pytest.raises(ParameterError):
            AnalyticitySpec(rho=2.0, bigU=0.0)

    def test_series_needs_coeffs(self):
        with pytest.raises(ParameterError):
            ChebSeries(Interval(-1, 1), np.array([]))


class TestComputeCoefficients:
    def test_identity_function(self):
        series = compute_coefficients(lambda x: x, Interval(-1, 1), degree=3)
        np.testing.assert_allclose(series.coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_degree_two_basis_polynomial(self):
        series = compute_coefficients(lambda x: 2 * x * x - 1, Interval(-1, 1), degree=2)
        np.testing.assert_allclose(series.coeffs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_exp_against_adaptive_quadrature(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=1)
        np.testing.assert_allclose(series.coeffs, [EXP_B0, EXP_B1], rtol=1e-12)
        # the frozen values themselves reproduce from the oracle
        np.testing.assert_allclose([exp_coeff_oracle(0), exp_coeff_oracle(1)],
                                   [EXP_B0, EXP_B1], rtol=1e-12)

    def test_deterministic(self):
        a = compute_coefficients(np.exp, Interval(-1, 1), degree=10)
        b = compute_coefficients(np.exp, Interval(-1, 1), degree=10)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_nonfinite_value_names_node(self):
        with pytest.raises(DomainEvalError, match="node"):
            compute_coefficients(np.log, Interval(-1, 1), degree=4)


# functions the estimators expand: sqrt and 1/2 log on the wide intervals of
# the completion and GP runs, log at a moderate ratio, and an entire function
EXPANDED = {
    "sqrt": (np.sqrt, Interval(0.084, 1200.0)),
    "half_log": (lambda x: 0.5 * np.log(x), Interval(0.045, 60.0)),
    "log": (np.log, Interval(0.05, 0.95)),
    "exp": (np.exp, Interval(-1.0, 2.0)),
}


def _default_nodes(degree):
    return max(1024, 4 * (degree + 1))


class TestCoefficientTransform:
    """The FFT DCT-II against the dense quadrature sum it replaces, and
    against a high-precision evaluation of that sum."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(EXPANDED)), degree=st.integers(0, 1000))
    @example(name="exp", degree=0)
    @example(name="log", degree=240)
    @example(name="half_log", degree=255)
    @example(name="sqrt", degree=256)
    @example(name="half_log", degree=300)
    @example(name="sqrt", degree=1000)
    @example(name="half_log", degree=1000)
    def test_matches_cosine_table(self, name, degree):
        # 1024 nodes up to degree 255, 4*(degree+1) past it
        f, iv = EXPANDED[name]
        series = compute_coefficients(f, iv, degree)
        ref, scale = cosine_table_coefficients(f, iv, degree, _default_nodes(degree))
        np.testing.assert_allclose(series.coeffs, ref, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("name", ["sqrt", "half_log"])
    def test_against_high_precision_sum(self, name):
        # the same node values summed against 40-digit cosines
        f, iv = EXPANDED[name]
        degree, q = 1000, _default_nodes(1000)
        series = compute_coefficients(f, iv, degree)
        fx = [float(f(x)) for x in iv.from_unit(np.cos(np.pi * (np.arange(q) + 0.5) / q))]
        tol = 16 * np.finfo(float).eps * max(abs(v) for v in fx)
        with mpmath.workdps(40):
            for j in (0, 1, 2, 37, 500, 999, 1000):
                total = mpmath.fsum(
                    v * mpmath.cos(mpmath.pi * (j * (2 * k + 1)) / (2 * q))
                    for k, v in enumerate(fx)
                )
                exact = float((2 - (j == 0)) * total / q)
                assert abs(series.coeffs[j] - exact) <= tol, (j, series.coeffs[j], exact)


    @pytest.mark.parametrize("name", sorted(EXPANDED))
    def test_f_called_once_on_the_node_array(self, name):
        # bit for bit the values of one call per node
        f, iv = EXPANDED[name]
        shapes = []

        def recorded(x):
            shapes.append(np.shape(x))
            return f(x)

        series = compute_coefficients(recorded, iv, 300)
        assert shapes == [(_default_nodes(300),)]
        per_node = compute_coefficients(lambda x: np.array([f(xi) for xi in x]), iv, 300)
        assert np.array_equal(series.coeffs, per_node.coeffs)


class TestRecurrences:
    def test_T_base_cases(self):
        assert eval_T(0, 0.3) == 1.0
        assert eval_T(1, 0.3) == 0.3

    def test_T3_half(self):
        assert eval_T(3, 0.5) == pytest.approx(-1.0, abs=1e-15)

    def test_T_against_trig_identity(self):
        # cos(25 arccos x) is an independent closed form on [-1, 1]
        assert eval_T(25, 0.9) == pytest.approx(math.cos(25 * math.acos(0.9)), abs=1e-10)

    def test_U_base_cases(self):
        assert eval_U(0, 0.7) == 1.0
        assert eval_U(1, 0.7) == pytest.approx(1.4)

    def test_U_against_trig_identity(self):
        theta = math.acos(0.4)
        expected = math.sin(11 * theta) / math.sin(theta)
        assert eval_U(10, 0.4) == pytest.approx(expected, abs=1e-10)

    def test_three_term_consistency(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=20)
        for j in range(1, 64):
            np.testing.assert_allclose(
                eval_T(j + 1, x), 2 * x * eval_T(j, x) - eval_T(j - 1, x), atol=1e-10
            )
            np.testing.assert_allclose(
                eval_U(j + 1, x), 2 * x * eval_U(j, x) - eval_U(j - 1, x), atol=1e-10
            )

    def test_derivative_identity(self):
        # d/dx T_n = n U_{n-1}, checked by central differences
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.9, 0.9, size=10)
        h = 1e-6
        for n in (1, 2, 5, 12):
            fd = (eval_T(n, x + h) - eval_T(n, x - h)) / (2 * h)
            np.testing.assert_allclose(fd, n * eval_U(n - 1, x), atol=1e-5)

    def test_orthogonality_quadrature(self):
        # Gauss-Chebyshev quadrature of T_i T_j / sqrt(1-x^2)
        q = 128
        x = np.cos(np.pi * (np.arange(q) + 0.5) / q)
        w = np.pi / q
        for i in (0, 1, 3, 17):
            for j in (0, 2, 3, 40):
                val = w * np.sum(eval_T(i, x) * eval_T(j, x))
                if i != j:
                    expected = 0.0
                elif i == 0:
                    expected = np.pi
                else:
                    expected = np.pi / 2
                assert val == pytest.approx(expected, abs=1e-10)


class TestEvalSeries:
    def test_linear_series(self):
        series = compute_coefficients(lambda x: x, Interval(-1, 1), degree=3)
        assert eval_series(series, 0.25) == pytest.approx(0.25, abs=1e-14)

    def test_exp_at_zero(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=20)
        assert eval_series(series, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_log_within_decay_bound(self):
        iv = Interval(0.05, 0.95)
        rho = rho_from_endpoint_singularity(iv)
        series = compute_coefficients(np.log, iv, degree=40)
        bigU = float(np.max(np.abs(series.coeffs) * rho ** np.arange(41))) / 2.0
        bound = truncation_error_bound(AnalyticitySpec(rho, bigU), 40)
        assert abs(eval_series(series, 0.5) - math.log(0.5)) <= bound

    def test_outside_interval_raises(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=4)
        with pytest.raises(DomainEvalError):
            eval_series(series, 1.5)

    def test_polynomial_conversion_is_exact(self):
        iv = Interval(0.0, 2.0)
        series = series_from_polynomial([0.0, 1.0], iv)  # f(x) = x
        np.testing.assert_allclose(series.coeffs, [1.0, 1.0], rtol=0, atol=0)
        assert eval_series(series, 0.75) == 0.75


class TestTruncationBound:
    def test_direct_substitution(self):
        spec = AnalyticitySpec(rho=2.0, bigU=1.0)
        assert truncation_error_bound(spec, 0) == pytest.approx(4.0)
        assert truncation_error_bound(spec, 10) == pytest.approx(4.0 / 1024.0)

    def test_sup_error_on_grid(self):
        # exp on [-1,1] is entire; any rho works with a matching U bound.
        # On the ellipse with parameter rho, |exp(z)| <= exp((rho + 1/rho)/2).
        rho = 3.0
        bigU = math.exp((rho + 1.0 / rho) / 2.0)
        spec = AnalyticitySpec(rho, bigU)
        grid = np.linspace(-1, 1, 1001)
        full = compute_coefficients(np.exp, Interval(-1, 1), degree=30)
        for n in (2, 5, 10):
            truncated = ChebSeries(full.interval, full.coeffs[: n + 1])
            sup_err = np.max(np.abs(eval_series(truncated, grid) - np.exp(grid)))
            assert sup_err <= truncation_error_bound(spec, n)

    def test_coefficient_decay_bound(self):
        rho = 3.0
        bigU = math.exp((rho + 1.0 / rho) / 2.0)
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=30)
        j = np.arange(31)
        assert np.all(np.abs(series.coeffs) <= 2.0 * bigU * rho**(-j.astype(float)) + 1e-9)


class TestEstimateRho:
    def test_exact_geometric_input(self):
        coeffs = 3.0 * 2.0 ** (-np.arange(30, dtype=float))
        series = ChebSeries(Interval(-1, 1), coeffs)
        assert estimate_rho(series, 2, 25) == pytest.approx(2.0, abs=1e-9)

    def test_log_series_matches_analytic_rate(self):
        iv = Interval(0.05, 0.95)
        series = compute_coefficients(np.log, iv, degree=80)
        rho = estimate_rho(series, 20, 60)
        analytic = rho_from_endpoint_singularity(iv)
        assert abs(rho - analytic) / analytic < 0.10
        # independent cross-check: large-j coefficient ratio
        ratio = abs(series.coeffs[50] / series.coeffs[51])
        assert abs(rho - ratio) / ratio < 0.10

    def test_zero_tail_raises(self):
        series = ChebSeries(Interval(-1, 1), np.concatenate([[1.0, 0.5], np.zeros(20)]))
        with pytest.raises(EstimationError):
            estimate_rho(series, 5, 15)

    def test_range_precondition(self):
        series = ChebSeries(Interval(-1, 1), np.ones(10))
        with pytest.raises(ParameterError):
            estimate_rho(series, 3, 6)
