"""Tests for the dense brute-force oracles."""

import numpy as np
import pytest
from helpers import (
    chebyshev_perturbation_check,
    exact_spectral_grad_generic,
    random_spd,
    random_symmetric,
    trace_nuclear_check,
)

from spectral_cheb.exceptions import ParameterError
from spectral_cheb.reference import exact_spectral_grad_lowrank, exact_spectral_sum


class TestExactSpectralSum:
    def test_identity_log(self):
        assert exact_spectral_sum(np.eye(3), np.log) == 0.0

    def test_diag_sqrt(self):
        assert exact_spectral_sum(np.diag([1.0, 4.0]), np.sqrt) == pytest.approx(3.0)

    def test_logdet_vs_cholesky(self):
        rng = np.random.default_rng(0)
        a_mat = random_spd(rng, 50)
        chol = np.linalg.cholesky(a_mat)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        assert exact_spectral_sum(a_mat, np.log) == pytest.approx(logdet, abs=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            exact_spectral_sum(np.array([[1.0, 2.0], [0.0, 1.0]]), np.log)


class TestExactSpectralGrad:
    def test_zero_partial_gives_zero_coordinate(self):
        rng = np.random.default_rng(1)
        a_mat = random_spd(rng, 8)
        partials = [np.zeros((8, 8)), random_symmetric(rng, 8)]
        grad = exact_spectral_grad_generic(a_mat, partials, lambda x: 1.0 / x)
        assert grad[0] == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        base = random_spd(rng, 10, lo=1.0, hi=3.0)
        b1 = random_symmetric(rng, 10, 0.05)
        b2 = random_symmetric(rng, 10, 0.05)
        theta = np.array([0.3, -0.2])

        def a_of(t):
            return base + t[0] * b1 + t[1] * b2

        grad = exact_spectral_grad_generic(a_of(theta), [b1, b2], lambda x: 1.0 / x)
        h = 1e-5
        scale = max(1.0, float(np.abs(grad).max()))
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = h
            fd = (
                exact_spectral_sum(a_of(theta + e_i), np.log)
                - exact_spectral_sum(a_of(theta - e_i), np.log)
            ) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * scale

    def test_lowrank_equals_generic_on_flattened_parameters(self):
        rng = np.random.default_rng(3)
        d, r = 7, 3
        theta = rng.uniform(0.2, 1.0, size=(d, r))
        eps = 0.3
        fprime = lambda x: 0.5 / np.sqrt(x)
        lowrank = exact_spectral_grad_lowrank(theta, eps, fprime)
        a_mat = theta @ theta.T + eps * np.eye(d)
        partials = []
        for ell in range(d):
            for m in range(r):
                p = np.zeros((d, d))
                p[ell, :] += theta[:, m]
                p[:, ell] += theta[:, m]
                partials.append(p)
        generic = exact_spectral_grad_generic(a_mat, partials, fprime).reshape(d, r)
        np.testing.assert_allclose(lowrank, generic, atol=1e-9)


class TestPerturbationBounds:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(4)
        m = random_symmetric(rng, 6, 0.1)
        assert chebyshev_perturbation_check(m, np.zeros((6, 6)), 10)

    def test_degree_one_is_tight(self):
        # T_1(A+E) - T_1(A) = E exactly, and the bound is 1^2 ||E||
        rng = np.random.default_rng(5)
        a_mat = random_symmetric(rng, 5, 0.05)
        e_mat = random_symmetric(rng, 5, 0.01)
        assert chebyshev_perturbation_check(a_mat, e_mat, 1)

    def test_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a_mat = random_symmetric(rng, 10, 0.05)
            e_mat = random_symmetric(rng, 10, 0.02)
            assert chebyshev_perturbation_check(a_mat, e_mat, 12)

    def test_spectrum_precondition(self):
        with pytest.raises(ParameterError):
            chebyshev_perturbation_check(3.0 * np.eye(4), np.zeros((4, 4)), 5)


class TestTraceNuclear:
    def test_identity_equality(self):
        assert trace_nuclear_check(np.eye(3), np.eye(3))

    def test_psd_identity_equality(self):
        rng = np.random.default_rng(7)
        a_mat = random_spd(rng, 6)
        assert trace_nuclear_check(a_mat, np.eye(6))

    def test_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            assert trace_nuclear_check(random_symmetric(rng, 12), random_symmetric(rng, 12))
