"""Tests for the stochastic spectral-sum gradient estimators."""

import dataclasses
import math

import numpy as np
import pytest
from helpers import (
    dense_lowrank,
    exact_spectral_grad_generic,
    full_recurrence_adjoint_block,
    random_spd,
    random_symmetric,
    second_kind_vector_identity_check,
    validate_param_oracle,
)

from spectral_cheb.chebyshev import (
    Interval,
    compute_coefficients,
    series_from_polynomial,
)
from spectral_cheb.degree_dist import (
    deterministic_distribution,
    optimal_distribution,
)
from spectral_cheb.exceptions import DegenerateDistributionError, ParameterError, SpectralChebError
from spectral_cheb.grad_est import (
    LowRankPSD,
    ParamMatrixOracle,
    _adjoint_block,
    _estimate,
    _sum_prime_weights,
    grad_estimate_generic,
    grad_estimate_lowrank,
    sample_spectral_grads,
)
from spectral_cheb.probes import MatvecCounter, ProbePlan, estimate_spectral_sum_unbiased
from spectral_cheb.reference import exact_spectral_grad_lowrank


def affine_oracle(base, partials, theta):
    partials = [np.asarray(p, dtype=float) for p in partials]

    def apply(th, x):
        out = base @ x
        for coef, p in zip(np.ravel(th), partials):
            out = out + coef * (p @ x)
        return out

    def apply_partial(i, th, x):
        return partials[i] @ x

    return ParamMatrixOracle(
        dim=base.shape[0],
        param_dim=len(partials),
        theta=np.asarray(theta, dtype=float),
        apply=apply,
        apply_partial=apply_partial,
    )


def lowrank_as_generic(lr: LowRankPSD) -> ParamMatrixOracle:
    """Flattened-parameter view of theta theta^T + eps I (row-major)."""
    d, r = lr.theta.shape

    def apply(th, x):
        theta = th.reshape(d, r)
        return theta @ (theta.T @ x) + lr.epsilon * x

    def apply_partial(i, th, x):
        theta = th.reshape(d, r)
        ell, m = divmod(i, r)
        col = theta[:, m]
        out = np.zeros_like(x)
        out[ell] = col @ x
        out += np.multiply.outer(col, x[ell]) if x.ndim == 1 else col[:, None] * x[ell]
        return out

    return ParamMatrixOracle(
        dim=d,
        param_dim=d * r,
        theta=lr.theta.reshape(-1).copy(),
        apply=apply,
        apply_partial=apply_partial,
    )


class TestSumPrimeWeights:
    def test_values(self):
        np.testing.assert_array_equal(_sum_prime_weights(4), [1.0, 2.0, 2.0, 2.0])
        assert _sum_prime_weights(0).size == 0


class TestGenericGradient:
    def test_scaled_identity_square(self):
        # A(t) = t I_2, f(x) = x^2: d tr(A^2)/dt = 4t = 4 at t = 1
        iv = Interval(0.25, 1.75)
        oracle = affine_oracle(np.zeros((2, 2)), [np.eye(2)], [1.0])
        series = series_from_polynomial([0.0, 0.0, 1.0], iv, degree=80)
        dist = optimal_distribution(2.0, 3)
        grads = sample_spectral_grads(oracle, series, dist, 7, 10**5, M=1)
        se = grads[:, 0].std() / math.sqrt(grads.shape[0])
        assert abs(grads[:, 0].mean() - 4.0) <= 3 * se + 1e-12

    def test_polynomial_deterministic_degree(self):
        rng = np.random.default_rng(30)
        base = random_spd(rng, 10, 0.5, 2.0)
        b1 = random_symmetric(rng, 10, 0.05)
        b2 = random_symmetric(rng, 10, 0.05)
        iv = Interval(0.2, 2.6)
        theta = np.array([0.4, -0.3])
        oracle = affine_oracle(base, [b1, b2], theta)
        series = series_from_polynomial([0.5, -1.0, 2.0, 0.5], iv)
        dist = deterministic_distribution(3)
        a_dense = base + theta[0] * b1 + theta[1] * b2
        fprime = lambda x: -1.0 + 4.0 * x + 1.5 * x**2
        exact = exact_spectral_grad_generic(a_dense, [b1, b2], fprime)
        grads = sample_spectral_grads(oracle, series, dist, 8, 20000, M=1)
        for i in range(2):
            se = grads[:, i].std() / math.sqrt(grads.shape[0])
            assert abs(grads[:, i].mean() - exact[i]) < 3 * se

    def test_zero_partial_is_exactly_zero(self):
        iv = Interval(0.2, 2.0)
        rng = np.random.default_rng(31)
        base = random_spd(rng, 6, 0.4, 1.8)
        oracle = affine_oracle(base, [np.zeros((6, 6))], [0.0])
        series = compute_coefficients(np.exp, iv, degree=30)
        sample = grad_estimate_generic(oracle, series, optimal_distribution(2.0, 4), ProbePlan(3, 4))
        assert sample[0] == 0.0

    def test_unbiased_affine_family_log(self):
        rng = np.random.default_rng(32)
        base = random_spd(rng, 12, 0.8, 2.2)
        b1 = random_symmetric(rng, 12, 0.04)
        b2 = random_symmetric(rng, 12, 0.04)
        theta = np.array([0.5, -0.2])
        iv = Interval(0.3, 3.2)
        oracle = affine_oracle(base, [b1, b2], theta)
        series = compute_coefficients(np.log, iv, degree=150)
        dist = optimal_distribution(1.8, 8)
        a_dense = base + theta[0] * b1 + theta[1] * b2
        exact = exact_spectral_grad_generic(a_dense, [b1, b2], lambda x: 1.0 / x)
        grads = sample_spectral_grads(oracle, series, dist, 9, 3 * 10**4, M=1)
        for i in range(2):
            se = grads[:, i].std() / math.sqrt(grads.shape[0])
            assert abs(grads[:, i].mean() - exact[i]) < 3 * se

    def test_batch_matches_single_call(self):
        rng = np.random.default_rng(33)
        base = random_spd(rng, 8, 0.5, 1.5)
        b1 = random_symmetric(rng, 8, 0.05)
        iv = Interval(0.2, 2.0)
        oracle = affine_oracle(base, [b1], [0.1])
        series = compute_coefficients(np.exp, iv, degree=60)
        dist = optimal_distribution(2.0, 5)
        batch = sample_spectral_grads(oracle, series, dist, 11, 1, M=6)
        single = grad_estimate_generic(oracle, series, dist, ProbePlan(11, 6))
        np.testing.assert_array_equal(batch[0], single)

    def test_second_moment_shrinks_affinely_in_probes(self):
        rng = np.random.default_rng(34)
        base = random_spd(rng, 8, 0.5, 1.8)
        b1 = random_symmetric(rng, 8, 0.08)
        b2 = random_symmetric(rng, 8, 0.08)
        iv = Interval(0.2, 2.4)
        oracle = affine_oracle(base, [b1, b2], [0.3, 0.1])
        series = compute_coefficients(np.sqrt, iv, degree=80)
        dist = optimal_distribution(1.9, 5)
        m_values = np.array([1, 4, 16, 64])
        second_moments = []
        for m_probes in m_values:
            grads = sample_spectral_grads(oracle, series, dist, 12, 1500, M=int(m_probes))
            second_moments.append(float(np.mean(np.sum(grads**2, axis=1))))
        x = 1.0 / m_values
        y = np.array(second_moments)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.99
        assert slope > 0 and intercept > 0


class TestLowRankGradient:
    def test_matches_generic_on_flattened_parameters(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            d = int(rng.integers(4, 21))
            r = int(rng.integers(1, 5))
            n = int(rng.integers(1, 31))
            theta = rng.uniform(0.1, 0.8, size=(d, r))
            eps = 0.3
            b_hi = eps + float(np.linalg.norm(theta, 2)) ** 2
            lr = LowRankPSD(theta, eps)
            series = compute_coefficients(np.sqrt, Interval(eps * 0.999, b_hi * 1.05), degree=40)
            dist = deterministic_distribution(n)
            seed = int(rng.integers(0, 2**31))
            low_plan, gen_plan = ProbePlan(seed, 2), ProbePlan(seed, 2)
            low = grad_estimate_lowrank(lr, series, dist, low_plan)
            gen = grad_estimate_generic(lowrank_as_generic(lr), series, dist, gen_plan)
            assert low_plan.degree == gen_plan.degree == n
            np.testing.assert_allclose(
                low, gen.reshape(d, r), atol=1e-10
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 40, 300])
    def test_matches_generic_at_fixed_degrees(self, n):
        rng = np.random.default_rng(45)
        theta = rng.uniform(0.1, 0.6, size=(6, 2))
        b_hi = 0.3 + float(np.linalg.norm(theta, 2)) ** 2
        lr = LowRankPSD(theta, 0.3)
        series = compute_coefficients(np.sqrt, Interval(0.3 * 0.999, b_hi * 1.05), degree=300)
        dist = deterministic_distribution(n)
        low = grad_estimate_lowrank(lr, series, dist, ProbePlan(46, 3))
        gen = grad_estimate_generic(lowrank_as_generic(lr), series, dist, ProbePlan(46, 3))
        np.testing.assert_allclose(low, gen.reshape(6, 2), atol=1e-10)

    def test_zero_factor_gives_zero_gradient(self):
        lr = LowRankPSD(np.zeros((5, 2)), 0.5)
        series = compute_coefficients(np.sqrt, Interval(0.25, 1.0), degree=30)
        sample = grad_estimate_lowrank(lr, series, optimal_distribution(2.0, 4), ProbePlan(4, 3))
        assert np.all(sample == 0.0)

    def test_unbiased_against_dense_oracle(self):
        rng = np.random.default_rng(36)
        d, r = 6, 2
        theta = rng.uniform(0.2, 0.9, size=(d, r))
        eps = 0.25
        b_hi = (eps + float(np.linalg.norm(theta, 2)) ** 2) * 1.05
        lr = LowRankPSD(theta, eps)
        series = compute_coefficients(np.sqrt, Interval(eps * 0.999, b_hi), degree=120)
        rho = 1.0 / series.interval.a
        rho = 2.0
        dist = optimal_distribution(rho, 6)
        exact = exact_spectral_grad_lowrank(theta, eps, lambda x: 0.5 / np.sqrt(x))
        grads = sample_spectral_grads(lr, series, dist, 13, 10**5)
        mean = grads.mean(axis=0)
        se = grads.std(axis=0) / math.sqrt(grads.shape[0])
        assert np.all(np.abs(mean - exact) < 3 * se + 1e-12)

    def test_batch_matches_single_call(self):
        rng = np.random.default_rng(37)
        theta = rng.uniform(0.1, 0.7, size=(7, 2))
        lr = LowRankPSD(theta, 0.3)
        series = compute_coefficients(np.sqrt, Interval(0.2, 3.0), degree=50)
        dist = optimal_distribution(2.0, 5)
        batch = sample_spectral_grads(lr, series, dist, 14, 3)
        for t in range(3):
            # same streams as a batch of t+1 samples; block widths differ,
            # so agreement is exact up to float reassociation only
            single = sample_spectral_grads(lr, series, dist, 14, t + 1)[t]
            np.testing.assert_allclose(batch[t], single, rtol=1e-12, atol=1e-14)
        # bit equality holds only when the block holds the sample alone
        alone = grad_estimate_lowrank(lr, series, dist, ProbePlan(14, 1))
        np.testing.assert_array_equal(sample_spectral_grads(lr, series, dist, 14, 1)[0],
                                      alone)


class TestDegreeSharing:
    def test_shared_degree_and_probes_cancel(self):
        rng = np.random.default_rng(38)
        base = random_spd(rng, 9, 0.5, 1.5)
        b1 = random_symmetric(rng, 9, 0.05)
        iv = Interval(0.2, 2.0)
        oracle = affine_oracle(base, [b1], [0.2])
        series = compute_coefficients(np.log, iv, degree=80)
        dist = optimal_distribution(1.8, 6)
        plan_a = ProbePlan(15, 4)
        a = grad_estimate_generic(oracle, series, dist, plan_a)
        b = grad_estimate_generic(oracle, series, dist, ProbePlan(15, 4, degree=plan_a.degree))
        np.testing.assert_array_equal(a, b)


class TestSecondKindIdentity:
    def test_base_cases_and_random_matrices(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            matrix = random_symmetric(rng, 8, 0.08)
            v = rng.standard_normal(8)
            assert second_kind_vector_identity_check(matrix, v, 20)

    def test_with_interval_mapping(self):
        rng = np.random.default_rng(40)
        matrix = random_spd(rng, 6, 0.5, 1.5)
        v = rng.standard_normal(6)
        assert second_kind_vector_identity_check(matrix, v, 15, Interval(0.4, 1.6))

    def test_degree_cap(self):
        with pytest.raises(ParameterError):
            second_kind_vector_identity_check(np.eye(3), np.ones(3), 100)


class TestOracleValidation:
    def test_affine_oracle_passes(self):
        rng = np.random.default_rng(41)
        base = random_spd(rng, 7, 0.5, 1.5)
        b1 = random_symmetric(rng, 7, 0.1)
        oracle = affine_oracle(base, [b1], [0.3])
        validate_param_oracle(oracle, np.random.default_rng(0))

    def test_wrong_partial_caught(self):
        rng = np.random.default_rng(42)
        base = random_spd(rng, 5, 0.5, 1.5)
        b1 = random_symmetric(rng, 5, 0.1)
        oracle = affine_oracle(base, [b1], [0.3])
        oracle.apply_partial = lambda i, th, x: 2.0 * (b1 @ x)
        with pytest.raises(ParameterError, match="finite differences"):
            validate_param_oracle(oracle, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.inf, math.nan])
    def test_lowrank_shift_must_be_positive_and_finite(self, eps):
        # an infinite shift built and then failed only at the first estimate
        with pytest.raises(ParameterError, match=f"epsilon must be positive and finite, "
                                                 f"got {eps}"):
            LowRankPSD(np.ones((4, 2)), eps)


class TestSharedProbePlan:
    def _lowrank(self):
        rng = np.random.default_rng(43)
        theta = rng.uniform(0.0, 0.4, size=(7, 3))
        lr = LowRankPSD(theta, 0.1)
        series = compute_coefficients(np.sqrt, Interval(0.05, 2.5), degree=60)
        return lr, series, optimal_distribution(2.0, 5)

    def _generic(self):
        rng = np.random.default_rng(44)
        base = random_spd(rng, 8, 0.5, 1.5)
        oracle = affine_oracle(base, [random_symmetric(rng, 8, 0.05)], [0.2])
        series = compute_coefficients(np.log, Interval(0.2, 2.0), degree=60)
        return oracle, series, optimal_distribution(1.8, 5)

    def test_shared_plan_matches_fresh_plans(self):
        for estimate, (op, series, dist), moved in (
            (grad_estimate_lowrank, self._lowrank(), lambda th: th + 0.05),
            (grad_estimate_generic, self._generic(), lambda th: th - 0.1),
        ):
            for n in (6, 2):
                shared = ProbePlan(21, 40, degree=n)
                for oracle in (op, dataclasses.replace(op, theta=moved(op.theta))):
                    got = estimate(oracle, series, dist, shared)
                    fresh = estimate(oracle, series, dist, ProbePlan(21, 40, degree=n))
                    np.testing.assert_array_equal(got, fresh)

    def test_degree_zero_builds_no_probes(self, monkeypatch):
        import spectral_cheb.probes as probes_module

        streams = []
        real = probes_module.probe_rng
        monkeypatch.setattr(probes_module, "probe_rng",
                            lambda *args: streams.append(args) or real(*args))
        lr, lr_series, lr_dist = self._lowrank()
        lr.counter = MatvecCounter()
        low = grad_estimate_lowrank(lr, lr_series, lr_dist, ProbePlan(5, 8, degree=0))
        np.testing.assert_array_equal(low, np.zeros_like(lr.theta))
        pm, series, dist = self._generic()
        pm.counter = lr.counter
        gen = grad_estimate_generic(pm, series, dist, ProbePlan(5, 8, degree=0))
        np.testing.assert_array_equal(gen, np.zeros(pm.param_dim))
        assert streams == [] and lr.counter.count == 0
        grad_estimate_generic(pm, series, dist, ProbePlan(5, 8, degree=1))
        assert len(streams) == 8

    def test_lowrank_thread_count_does_not_change_bits(self, monkeypatch):
        lr, series, dist = self._lowrank()
        values = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
            values.append(grad_estimate_lowrank(lr, series, dist, ProbePlan(9, 70, degree=9)))
        assert values[0].tobytes() == values[1].tobytes()

    def test_degree_zero_still_reads_the_thread_count(self, monkeypatch):
        # the degree-0 shortcut must not skip the check a value estimate makes
        lr, series, _ = self._lowrank()
        pm, pm_series, _ = self._generic()
        point_mass = deterministic_distribution(0)
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "abc")
        for call in (lambda: grad_estimate_lowrank(lr, series, point_mass, ProbePlan(5, 8)),
                     lambda: grad_estimate_generic(pm, pm_series, point_mass, ProbePlan(5, 8)),
                     lambda: estimate_spectral_sum_unbiased(lr, series, point_mass,
                                                            ProbePlan(5, 8))):
            with pytest.raises(ParameterError, match="SPECTRAL_CHEB_THREADS must be an integer"):
                call()


class TestAdjointKernel:
    """The single reverse-mode kernel behind every gradient path."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("m_probes", [5, 40])
    def test_generic_matvec_columns(self, n, m_probes):
        rng = np.random.default_rng(47)
        base = random_spd(rng, 9, 0.5, 1.5)
        partials = [random_symmetric(rng, 9, 0.05) for _ in range(3)]
        oracle = affine_oracle(base, partials, [0.1, 0.2, 0.3])
        partial_cols = MatvecCounter()
        apply_partial = oracle.apply_partial

        def counted_partial(i, th, x):
            partial_cols.count += x.shape[1]
            return apply_partial(i, th, x)

        oracle.apply_partial = counted_partial
        oracle.counter = MatvecCounter()
        series = compute_coefficients(np.log, Interval(0.2, 2.0), degree=60)
        grad_estimate_generic(oracle, series, deterministic_distribution(n),
                              ProbePlan(48, m_probes))
        half = (n + 1) // 2  # ceil(n/2); no matvec of A at n = 1
        a_cols = 2 * half - 1 if n > 1 else 0
        assert partial_cols.count == m_probes * 3 * half
        assert oracle.counter.count - partial_cols.count == m_probes * a_cols

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_lowrank_matvec_columns(self, n):
        rng = np.random.default_rng(49)
        lr = LowRankPSD(rng.uniform(0.0, 0.4, size=(7, 3)), 0.1, counter=MatvecCounter())
        series = compute_coefficients(np.sqrt, Interval(0.05, 2.5), degree=60)
        grad_estimate_lowrank(lr, series, deterministic_distribution(n), ProbePlan(50, 40))
        half = (n + 1) // 2
        assert lr.counter.count == 40 * (2 * half - 1 if n > 1 else 0)

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("kind", ["generic", "lowrank"])
    def test_matches_full_recurrence(self, kind, tight):
        # the moment-doubled adjoints against the full-length recurrence;
        # a tight interval puts eigenvalues on both of its ends
        rng = np.random.default_rng(52)
        if kind == "generic":
            base = random_spd(rng, 10, 0.5, 1.5)
            partials = [random_symmetric(rng, 10, 0.05) for _ in range(3)]
            op = affine_oracle(base, partials, [0.1, -0.2, 0.3])
            dense = base + 0.1 * partials[0] - 0.2 * partials[1] + 0.3 * partials[2]
        else:
            op = LowRankPSD(rng.uniform(0.0, 0.5, size=(10, 3)), 0.2)
            dense = dense_lowrank(op)
        eigs = np.linalg.eigvalsh(dense)
        iv = (Interval(float(eigs[0]), float(eigs[-1])) if tight
              else Interval(0.9 * eigs[0], 1.1 * eigs[-1]))
        coeffs = compute_coefficients(np.log, iv, degree=100).coeffs
        probes = rng.choice([-1.0, 1.0], size=(10, 6))
        for n in (1, 2, 3, 4, 5, 8, 15, 16, 31, 96):
            got = _adjoint_block(op, iv, coeffs[: n + 1], n, probes)
            want = full_recurrence_adjoint_block(op, iv, coeffs[: n + 1], n, probes)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), n

    def test_generic_thread_count_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(51)
        base = random_spd(rng, 8, 0.5, 1.5)
        oracle = affine_oracle(base, [random_symmetric(rng, 8, 0.05)], [0.2])
        series = compute_coefficients(np.log, Interval(0.2, 2.0), degree=60)
        dist = optimal_distribution(1.8, 5)
        values = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
            values.append(grad_estimate_generic(oracle, series, dist,
                                                ProbePlan(9, 70, degree=45)))
        np.testing.assert_array_equal(values[0], values[1])

    def test_only_the_kernel_runs_the_recurrence(self):
        import ast
        from pathlib import Path

        import spectral_cheb.grad_est as grad_est

        tree = ast.parse(Path(grad_est.__file__).read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        scopes = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "step":
                scope = parents.get(node)
                while scope is not None and not isinstance(scope, ast.FunctionDef):
                    scope = parents.get(scope)
                scopes.append(None if scope is None else scope.name)
        assert scopes and set(scopes) == {"_adjoint_block"}


class TestFusedValue:
    """The unbiased value the gradient pass reads off its own recurrence."""

    def _operator(self, kind):
        rng = np.random.default_rng(81)
        if kind == "lowrank":
            op = LowRankPSD(rng.uniform(0.0, 0.4, size=(7, 3)), 0.1)
            return op, grad_estimate_lowrank, Interval(0.05, 2.5)
        base = random_spd(rng, 8, 0.5, 1.5)
        partials = [random_symmetric(rng, 8, 0.05) for _ in range(2)]
        return affine_oracle(base, partials, [0.2, -0.1]), grad_estimate_generic, Interval(0.2, 2.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 15, 40])
    @pytest.mark.parametrize("kind", ["lowrank", "generic"])
    def test_value_matches_the_unbiased_estimator(self, kind, n):
        # 40 probes span two chunks; only n = 1 pays a matvec for the value
        # (the step to w_1), and n = 0 builds no probes at all
        op, grad_estimate, iv = self._operator(kind)
        series = compute_coefficients(np.sqrt, iv, degree=60)
        dist = optimal_distribution(2.0, 5)
        op.counter = MatvecCounter()
        grad, value = _estimate(op, series, dist, ProbePlan(82, 40, degree=n), value=True)
        fused_cols = op.counter.count
        op.counter.count = 0
        want_grad = grad_estimate(op, series, dist, ProbePlan(82, 40, degree=n))
        assert op.counter.count + (40 if n == 1 else 0) == fused_cols
        want = estimate_spectral_sum_unbiased(op, series, dist, ProbePlan(82, 40, degree=n))
        assert abs(value - want) <= 1e-12 * abs(want)
        np.testing.assert_array_equal(grad, want_grad)

    def test_degree_zero_value_is_b0_times_dim(self, monkeypatch):
        import spectral_cheb.probes as probes_module

        streams = []
        real = probes_module.probe_rng
        monkeypatch.setattr(probes_module, "probe_rng",
                            lambda *args: streams.append(args) or real(*args))
        op, _, iv = self._operator("lowrank")
        series = compute_coefficients(np.sqrt, iv, degree=60)
        grad, value = _estimate(op, series, optimal_distribution(2.0, 5),
                                ProbePlan(3, 8, degree=0), value=True)
        assert value == series.coeffs[0] * op.dim and streams == []
        np.testing.assert_array_equal(grad, np.zeros(op.grad_shape))


def test_degree_past_the_support_is_a_degenerate_distribution():
    # a plan pinned past a law's support leaves a coefficient with no
    # degree mass to re-weight it by; value and gradient estimators both
    # raise, as a SpectralChebError the CLI reports as a configuration error
    rng = np.random.default_rng(66)
    base = random_spd(rng, 6, 0.5, 1.5)
    oracle = affine_oracle(base, [random_symmetric(rng, 6, 0.05)], [0.2])
    series = compute_coefficients(np.log, Interval(0.2, 2.0), degree=20)
    dist = deterministic_distribution(3)
    estimators = [
        lambda plan: estimate_spectral_sum_unbiased(oracle, series, dist, plan),
        lambda plan: grad_estimate_generic(oracle, series, dist, plan),
        lambda plan: grad_estimate_lowrank(LowRankPSD(rng.uniform(-0.5, 0.5, (6, 2)), 0.3),
                                           series, dist, plan),
    ]
    for estimate in estimators:
        with pytest.raises(DegenerateDistributionError,
                           match="no degree mass at or above 4") as exc:
            estimate(ProbePlan(0, 2, degree=5))
        assert isinstance(exc.value, SpectralChebError)
