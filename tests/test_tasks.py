"""Tests for the matrix-completion and GP-learning drivers."""

import dataclasses
import math

import numpy as np
import pytest

from spectral_cheb.degree_dist import sample_degree
from spectral_cheb.exceptions import ConvergenceError, ParameterError, ParseError
from spectral_cheb.optimize import SGDConfig, SVRGConfig
from spectral_cheb.probes import certified_ends, degree_rng, expansion_for
from spectral_cheb.reference import exact_spectral_sum
from spectral_cheb.tasks import (
    CompletionProblem,
    GPProblem,
    completion_objective,
    completion_rmse,
    completion_train,
    gp_exact_nll_grad_logspace,
    gp_negloglik,
    gp_train,
    load_gp_data,
    ratings_from_files,
    synthetic_completion_data,
    synthetic_gp_data,
)
from spectral_cheb.tasks import _cg_solve


def all_train(rs):
    """The same ratings with every triple in the training split."""
    return dataclasses.replace(rs, train_mask=np.ones_like(rs.train_mask))


class TestLoadMovielens:
    """MovieLens-style ratings files, user::item::rating::timestamp lines or
    user,item,rating rows under an optional header, read by
    ``ratings_from_files``."""

    def test_double_colon_triples(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("1::10::4.0::123\n2::20::3.5::124\n1::20::5.0::125\n")
        rs = ratings_from_files(path)
        assert rs.d_users == 2 and rs.d_items == 2
        assert rs.users.tolist() == [0, 1, 0]
        assert rs.items.tolist() == [0, 1, 1]
        assert rs.ratings.tolist() == [4.0, 3.5, 5.0]

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n5,7,2.0\n6,7,9.0\n")
        rs = ratings_from_files(path)
        assert rs.ratings.tolist() == [2.0, 5.0]  # clamped to [0.5, 5]

    def test_csv_without_header_keeps_every_rating(self, tmp_path):
        rows = ["1,1,4.0", "1,2,3.0", "2,1,2.5", "2,2,1.0", "3,1,5.0", "3,2,0.5"]
        bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
        bare.write_text("\n".join(rows) + "\n")
        headed.write_text("\n".join(["user,item,rating"] + rows) + "\n")
        for path in (bare, headed):
            rs = ratings_from_files(path)
            assert rs.ratings.tolist() == [4.0, 3.0, 2.5, 1.0, 5.0, 0.5]

    def test_csv_header_skipped_only_once(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("\nuser,item,rating\n5,7,2.0\nuser,item,rating\n")
        with pytest.raises(ParseError, match=":4"):
            ratings_from_files(path)

    def test_double_colon_file_has_no_header(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("user::item::rating::timestamp\n1::2::3.0::0\n")
        with pytest.raises(ParseError, match=":1: malformed"):
            ratings_from_files(path)

    @pytest.mark.parametrize("body", ["", "\n  \n"])
    def test_empty_file(self, tmp_path, body):
        path = tmp_path / "r.csv"
        path.write_text(body)
        with pytest.raises(ParseError, match="empty ratings file"):
            ratings_from_files(path)

    def test_header_alone_has_no_triples(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n")
        with pytest.raises(ParseError, match="no rating triples"):
            ratings_from_files(path)

    def test_floor_split_count(self, tmp_path):
        lines = [f"{i}::{i % 7}::3.0::0" for i in range(1000)]
        path = tmp_path / "r.dat"
        path.write_text("\n".join(lines) + "\n")
        rs = ratings_from_files(path, seed=3)
        assert rs.n_train == 900
        # floor(0.9 * 19) = 17
        path.write_text("\n".join(lines[:19]) + "\n")
        assert ratings_from_files(path, seed=3).n_train == 17

    def test_deterministic_split(self, tmp_path):
        lines = [f"{i}::{i % 5}::3.0::0" for i in range(100)]
        path = tmp_path / "r.dat"
        path.write_text("\n".join(lines) + "\n")
        a = ratings_from_files(path, seed=11)
        b = ratings_from_files(path, seed=11)
        assert np.array_equal(a.train_mask, b.train_mask)
        assert not np.array_equal(a.train_mask, ratings_from_files(path, seed=12).train_mask)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1::2::3.0::0\nnot-a-line\n")
        with pytest.raises(ParseError, match=":2"):
            ratings_from_files(path)


class TestRatingsFromFiles:
    def test_train_and_test_files_share_one_index_space(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.dat"
        train.write_text("user,item,rating\n10,100,4.0\n30,200,6.0\n")
        test.write_text("20::100::0.1::0\n30::300::3.0::0\n")
        rs = ratings_from_files(train, test)
        assert (rs.d_users, rs.d_items) == (3, 3)
        assert rs.users.tolist() == [0, 2, 1, 2]
        assert rs.items.tolist() == [0, 1, 0, 2]
        assert rs.train_mask.tolist() == [True, True, False, False]
        assert rs.ratings.tolist() == [4.0, 5.0, 0.5, 3.0]  # clamped to [0.5, 5]


class TestCompletionObjective:
    def test_zero_factor(self):
        rs = all_train(synthetic_completion_data(5, 4, 2, 1.0, seed=0))
        problem = CompletionProblem(np.zeros((5, 4)), epsilon=1.0, lam=2.0)
        val = completion_objective(problem, rs)
        data = 2.0 * float(np.sum(rs.ratings**2))
        assert val == pytest.approx(5.0 + data, rel=1e-12)

    def test_rank_one_nuclear_limit(self):
        rng = np.random.default_rng(60)
        u = rng.uniform(0.5, 1.0, size=5)
        sigma = float(np.linalg.norm(u))
        theta = u[:, None]  # rank one, d x 1
        for eps in (1e-4, 1e-6):
            a_dense = theta @ theta.T + eps * np.eye(5)
            spectral = exact_spectral_sum(a_dense, np.sqrt)
            # tr sqrt -> sigma plus (d-1) sqrt(eps)
            assert spectral == pytest.approx(sigma, abs=5 * math.sqrt(eps))

    def test_descends_along_negative_gradient(self):
        from spectral_cheb.tasks import _completion_exact_grad

        rs = all_train(synthetic_completion_data(8, 6, 2, 0.7, seed=1))
        rng = np.random.default_rng(61)
        theta = rng.uniform(1.0, 4.0, size=(8, 6))
        problem = CompletionProblem(theta, epsilon=0.1, lam=1.0)
        users, items, vals = rs.split(train=True)
        grad = _completion_exact_grad(problem, theta).copy()
        np.add.at(grad, (users, items), 2.0 * problem.lam * (theta[users, items] - vals))
        before = completion_objective(problem, rs, theta)
        after = completion_objective(problem, rs, theta - 1e-3 * grad)
        assert after < before

    def test_rotation_invariance_of_spectral_term(self):
        rng = np.random.default_rng(62)
        theta = rng.uniform(0.5, 2.0, size=(7, 4))
        q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        eps = 0.2
        a1 = theta @ theta.T + eps * np.eye(7)
        a2 = (theta @ q_mat) @ (theta @ q_mat).T + eps * np.eye(7)
        s1 = exact_spectral_sum(a1, np.sqrt)
        s2 = exact_spectral_sum(a2, np.sqrt)
        assert abs(s1 - s2) <= 1e-9


class TestCompletionTraining:
    def _fixture(self, seed=2):
        rs = synthetic_completion_data(30, 20, 2, 0.6, seed=seed)
        rng = np.random.default_rng(63)
        theta0 = rng.uniform(0.0, 5.0, size=(30, 20))
        mean_rating = float(rs.ratings.mean())
        problem = CompletionProblem(theta0, epsilon=1e-2 * mean_rating**2, lam=1.0)
        return rs, problem

    def test_sgd_beats_initialization_and_tracks_oracle(self):
        rs, problem = self._fixture()
        cfg = SGDConfig(T=1500, M=16, N=10, master_seed=17, step_rule="exp_decay",
                        step0=0.1, decay=0.995, log_objective=False)
        result = completion_train(problem, rs, cfg, optimizer="sgd")
        assert result.test_rmse < 0.5 * result.initial_test_rmse
        # exact-gradient oracle run with the same step schedule
        from spectral_cheb.tasks import _completion_exact_grad, _truncated_svd

        users, items, vals = rs.split(train=True)
        theta = problem.theta.copy()
        for t in range(1500):
            grad = _completion_exact_grad(problem, theta).copy()
            np.add.at(grad, (users, items), 2.0 * problem.lam * (theta[users, items] - vals))
            theta = np.clip(theta - 0.1 * 0.995**t * grad, 0.0, 5.0)
        oracle_rmse = completion_rmse(_truncated_svd(theta, 10), rs, train=False)
        assert result.test_rmse <= 1.2 * oracle_rmse

    def test_fully_observed_large_lambda(self):
        rs = all_train(synthetic_completion_data(10, 8, 2, 1.0, seed=3))
        rng = np.random.default_rng(64)
        theta0 = rng.uniform(0.0, 5.0, size=(10, 8))
        problem = CompletionProblem(theta0, epsilon=0.05, lam=50.0)
        cfg = SGDConfig(T=800, M=8, N=8, master_seed=5, step_rule="exp_decay",
                        step0=0.009, decay=0.992, log_objective=False)
        result = completion_train(problem, rs, cfg, optimizer="sgd", svd_rank=8)
        users, items, vals = rs.split(train=True)
        resid = result.theta_raw[users, items] - vals
        assert problem.lam * float(np.sum(resid**2)) < 1e-2

    def test_svrg_runs_and_improves(self):
        rs, problem = self._fixture(seed=4)
        cfg = SVRGConfig(S=3, T=40, eta=0.05, M=8, N=10, master_seed=6, log_objective=False)
        result = completion_train(problem, rs, cfg, optimizer="svrg")
        assert result.test_rmse < result.initial_test_rmse
        assert result.matvecs > 0

    @pytest.mark.parametrize("optimizer, cfg, wanted", [
        ("svrg", SGDConfig(T=2, M=2, N=4, master_seed=1), "SVRGConfig"),
        ("sgd", SVRGConfig(S=1, T=2, eta=0.05, M=2, N=4, master_seed=1), "SGDConfig"),
    ])
    def test_mismatched_config_is_a_parameter_error(self, optimizer, cfg, wanted):
        rs, problem = self._fixture()
        with pytest.raises(ParameterError) as exc:
            completion_train(problem, rs, cfg, optimizer=optimizer)
        assert str(exc.value) == (f"optimizer '{optimizer}' takes an {wanted}, "
                                  f"got an {type(cfg).__name__}")

    def test_records_and_budget(self):
        rs, problem = self._fixture(seed=5)
        cfg = SGDConfig(T=20, M=4, N=6, master_seed=7, step_rule="exp_decay",
                        step0=0.05, log_objective=True)
        result = completion_train(problem, rs, cfg, optimizer="sgd")
        assert len(result.records) == 20
        assert result.records[0].degree >= 0
        assert result.matvecs > 0


class TestGPNegLogLik:
    def test_white_noise_kernel(self):
        x = np.linspace(0, 1, 12)[:, None]
        gp = GPProblem(x, np.zeros(12), np.array([1.0, 1e-8, 1.0]))
        val = gp_negloglik(gp)
        assert val == pytest.approx(0.5 * 12 * math.log(2 * math.pi), abs=1e-5)

    def test_hand_computed_3x3(self):
        x = np.array([[0.0], [1.0], [2.0]])
        theta = np.array([0.5, 1.2, 0.8])
        y = np.array([0.3, -0.1, 0.7])
        gp = GPProblem(x, y, theta)
        noise, scale, length = theta
        k_mat = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                k_mat[i, j] = scale**2 * math.exp(
                    -((x[i, 0] - x[j, 0]) ** 2) / (2 * length**2)
                )
        k_mat += noise**2 * np.eye(3)
        expected = (
            0.5 * float(y @ np.linalg.inv(k_mat) @ y)
            + 0.5 * math.log(np.linalg.det(k_mat))
            + 1.5 * math.log(2 * math.pi)
        )
        assert gp_negloglik(gp) == pytest.approx(expected, rel=1e-10)

    def test_estimation_mode_unbiased(self):
        x, y = synthetic_gp_data(40, [0.4, 1.1, 0.7], seed=8)
        gp = GPProblem(x, y, np.array([0.4, 1.1, 0.7]))
        exact = gp_negloglik(gp)
        vals = np.array(
            [gp_negloglik(gp, mode="estimate", seed=s, m_probes=1) for s in range(3000)]
        )
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) < 3 * se

    def test_estimation_mode_noise_above_one(self):
        # the spectrum's lower end 0.999 theta_0^2 lies above 1 here
        x, y = synthetic_gp_data(40, [1.2, 1.0, 0.8], seed=8)
        gp = GPProblem(x, y, np.array([1.2, 1.0, 0.8]))
        assert math.isfinite(gp_negloglik(gp, mode="estimate", seed=3, m_probes=4))

    def test_estimation_mode_draw_past_stored_series(self):
        # at noise 0.01 the interval is so wide that the series is capped at
        # degree 1000 while the geometric tail reaches past it
        x, y = synthetic_gp_data(200, [0.01, 1.0, 0.8], seed=8)
        gp = GPProblem(x, y, np.array([0.01, 1.0, 0.8]))
        a_mat = gp.kernel()
        for seed in range(5000):
            expansion = expansion_for(np.log, 0.999 * 0.01**2, certified_ends(a_mat)[1], 10)
            if sample_degree(expansion.dist, degree_rng(seed, 0)) > expansion.series.degree:
                break
        else:
            pytest.fail("no seed draws past the stored series")
        assert math.isfinite(gp_negloglik(gp, mode="estimate", seed=seed))

    def test_cholesky_data_term_matches_lu(self):
        x, y = synthetic_gp_data(512, [0.1, 1.2, 0.5], seed=10)
        gp = GPProblem(x, y, np.array([0.1, 1.2, 0.5]))
        a_mat = gp.kernel(gp.theta)
        lu = (0.5 * float(y @ np.linalg.solve(a_mat, y)) + 0.5 * np.linalg.slogdet(a_mat)[1]
              + 256 * math.log(2 * math.pi))
        assert gp_negloglik(gp) == pytest.approx(lu, rel=1e-12)

    def test_inputs_are_rows_whatever_their_dimension(self):
        # 3 points in 5 input dimensions stay 3 points; only a 1-D x becomes a column
        x = np.random.default_rng(13).uniform(0.0, 4.0, size=(3, 5))
        gp = GPProblem(x, np.array([0.3, -0.1, 0.7]), np.array([0.5, 1.0, 1.0]))
        assert gp.x.shape == (3, 5) and gp.dim == 3
        assert math.isfinite(gp_negloglik(gp))
        line = GPProblem(np.linspace(0.0, 1.0, 4), np.zeros(4), np.array([0.5, 1.0, 1.0]))
        assert line.x.shape == (4, 1)

    def test_exact_matches_cholesky_solve_reference(self):
        import scipy.linalg

        x, y = synthetic_gp_data(300, [0.3, 1.2, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.3, 1.2, 0.8]))
        # the second row is the noise at a tenth of the data's
        for theta in ([0.3, 1.2, 0.8], [0.03, 1.2, 0.8], [0.5, 2.0, 0.3], [0.1, 0.7, 1.5]):
            chol = np.linalg.cholesky(gp.kernel(np.array(theta)))
            want = (0.5 * float(y @ scipy.linalg.cho_solve((chol, True), y))
                    + float(np.sum(np.log(np.diag(chol)))) + 150 * math.log(2 * math.pi))
            assert gp_negloglik(gp, np.array(theta)) == pytest.approx(want, rel=1e-12, abs=0)

    def test_kernel_and_exact_nll_form_each_array_once(self):
        # gp.kernel() allocates the kernel alone; the exact NLL builds it into
        # the bordered matrix, so that and its Cholesky factor are all it holds
        import tracemalloc

        d = 200
        x, y = synthetic_gp_data(d, [0.3, 1.2, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.3, 1.2, 0.8]))

        def peak_bytes(call):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak_bytes(gp.kernel) <= 1.1 * d * d * 8
        assert peak_bytes(lambda: gp_negloglik(gp)) <= 2.1 * (d + 1) ** 2 * 8

    def test_non_pd_kernel_message(self):
        x = np.zeros((5, 1))  # duplicate inputs, zero noise floor
        gp = GPProblem(x, np.ones(5), np.array([1e-12, 1.0, 1.0]))
        with pytest.raises(ParameterError, match="noise"):
            gp_negloglik(gp)


class TestCGSolve:
    def test_matches_scipy_cg_bit_for_bit(self):
        import scipy.sparse.linalg

        for theta, seed in (((0.3, 1.2, 0.8), 2024), ((0.05, 2.0, 1.5), 7)):
            x, y = synthetic_gp_data(200, theta, seed)
            a_mat = GPProblem(x, y, np.array(theta)).kernel()
            want, info = scipy.sparse.linalg.cg(a_mat, y, rtol=1e-8, atol=0.0, maxiter=2000)
            assert info == 0
            assert np.array_equal(_cg_solve(a_mat, y), want)

    def test_out_of_iterations_is_convergence_error(self):
        # I plus a large skew part: p^T A p = ||p||^2 never vanishes, but CG
        # needs a symmetric operator to converge and here never does
        a_mat = np.array([[1.0, 5.0], [-5.0, 1.0]])
        with pytest.raises(ConvergenceError, match="stopped after 20 iterations"):
            _cg_solve(a_mat, np.array([1.0, 0.0]))


class TestGPTraining:
    def test_gradient_estimates_match_finite_differences(self):
        x, y = synthetic_gp_data(60, [0.3, 1.0, 0.9], seed=9)
        gp = GPProblem(x, y, np.array([0.35, 0.9, 1.0]))
        phi = np.log(gp.theta)
        exact = gp_exact_nll_grad_logspace(gp, phi)
        h = 1e-5
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (
                gp_negloglik(gp, np.exp(phi + step)) - gp_negloglik(gp, np.exp(phi - step))
            ) / (2 * h)
            assert fd == pytest.approx(exact[i], abs=1e-5 * max(1.0, abs(exact[i])))

    def test_training_approaches_generating_nll(self):
        theta_true = np.array([0.3, 1.2, 0.8])
        x, y = synthetic_gp_data(120, theta_true, seed=10)
        gp = GPProblem(x, y, theta_true * np.array([1.6, 0.6, 1.5]))
        cfg = SGDConfig(T=300, M=16, N=15, master_seed=12, step_rule="exp_decay",
                        step0=3e-3, decay=0.99, log_objective=False)
        result = gp_train(gp, cfg)
        nll_true = gp_negloglik(gp, theta_true)
        assert result.nll_curve[-1] <= nll_true + 0.02 * abs(nll_true)
        assert result.nll_curve[-1] < result.nll_curve[0]

    def test_one_kernel_and_one_solve_per_iterate(self, monkeypatch):
        import spectral_cheb.tasks as tasks_module

        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        kernels, solves, partials = [], [], []
        real_kernel, real_cg = tasks_module._rbf_kernel, tasks_module._cg_solve
        real_partials = tasks_module._rbf_partials
        monkeypatch.setattr(tasks_module, "_rbf_kernel", lambda sq, theta, *rest: (
            kernels.append(np.asarray(theta).tobytes()) or real_kernel(sq, theta, *rest)))
        monkeypatch.setattr(tasks_module, "_cg_solve", lambda a_mat, rhs: (
            solves.append(a_mat.tobytes()) or real_cg(a_mat, rhs)))
        monkeypatch.setattr(tasks_module, "_rbf_partials", lambda sq, theta, *rest: (
            partials.append(np.asarray(theta).tobytes()) or real_partials(sq, theta, *rest)))
        # the exact NLL curve after training builds its own kernels
        monkeypatch.setattr(tasks_module, "gp_negloglik", lambda gp, theta: 0.0)
        cfg = SGDConfig(T=12, M=4, N=6, master_seed=13, step_rule="exp_decay", step0=2e-3)
        gp_train(gp, cfg)
        # every iterate a step starts from is built once, for its gradient
        # and its log; the last iterate, which no step starts from, never is
        assert len(kernels) == len(set(kernels)) == cfg.T
        assert len(solves) == len(set(solves)) == cfg.T
        assert partials == kernels

    def test_iterate_builds_once_under_concurrent_readers(self, monkeypatch):
        import sys
        import threading

        import spectral_cheb.tasks as tasks_module

        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        kernels = []
        real_kernel = tasks_module._rbf_kernel
        monkeypatch.setattr(tasks_module, "_rbf_kernel", lambda *args: (
            kernels.append(1) or real_kernel(*args)))
        iterate = tasks_module._GPIterate(gp, np.log(gp.theta))
        probe = np.ones((30, 2))
        seen = []

        def reader():
            seen.append((iterate.kernel @ probe, iterate.partial_mv(2, probe)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(8)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert len(seen) == 8 and len(kernels) == 1
        np.testing.assert_array_equal(seen[0][0], gp.kernel() @ probe)

    def test_iterates_reuse_donor_arrays_and_held_donors_raise(self, monkeypatch):
        import spectral_cheb.tasks as tasks_module

        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        iterates = []

        class Recording(tasks_module._GPIterate):
            def __init__(self, *args):
                super().__init__(*args)
                self.built = (self.kernel, *self.partials)
                self.kernel_exact = np.array_equal(self.kernel, gp.kernel(self.theta))
                iterates.append(self)

        monkeypatch.setattr(tasks_module, "_GPIterate", Recording)
        cfg = SGDConfig(T=6, M=2, N=6, master_seed=13, step_rule="exp_decay", step0=2e-3)
        gp_train(gp, cfg)
        assert len(iterates) == cfg.T
        assert all(iterate.kernel_exact for iterate in iterates)
        probe = np.linspace(-1.0, 1.0, 30)
        for donor, iterate in zip(iterates, iterates[1:]):
            for new, old in zip(iterate.built, donor.built):
                assert np.shares_memory(new, old)
            # a held donor has handed its arrays over and cannot read them
            with pytest.raises(AttributeError):
                donor.kernel
            with pytest.raises(AttributeError):
                donor.partial_mv(1, probe)
        last = iterates[-1]
        np.testing.assert_array_equal(last.kernel, gp.kernel(last.theta))
        for i, partial in enumerate(tasks_module._gp_partials_logspace(gp, last.theta)):
            np.testing.assert_allclose(last.partial_mv(i, probe), partial @ probe,
                                       rtol=1e-14, atol=0)

    def test_partials_equal_their_closed_forms(self):
        import spectral_cheb.tasks as tasks_module

        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        first = tasks_module._GPIterate(gp, np.log(gp.theta))
        built = [(first.theta, first.kernel.copy(), [p.copy() for p in first.partials])]
        donee = tasks_module._GPIterate(gp, np.log([0.4, 1.1, 0.9]), first)
        built.append((donee.theta, donee.kernel, donee.partials))
        for theta, kernel, partials in built:
            noise, scale, length = theta
            exp_term = np.exp(-gp.sq_dists / (2.0 * length**2))
            # no subnormal entry, where doubling scale^2 exp would round twice
            assert (scale**2 * exp_term).min() >= np.finfo(float).tiny
            np.testing.assert_array_equal(kernel, scale**2 * exp_term + noise**2 * np.eye(30))
            np.testing.assert_array_equal(partials[0], 2.0 * scale**2 * exp_term)
            np.testing.assert_array_equal(partials[1], gp.sq_dists / length**2 * kernel)

    @pytest.mark.parametrize("T, want", [
        (1, [0, 1]),
        (12, [0, 1, 11, 12]),
        (100, [0, *range(1, 92, 10), 100]),
    ])
    def test_exact_nll_at_checkpoints_only(self, monkeypatch, T, want):
        import spectral_cheb.tasks as tasks_module

        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        calls = []
        real_nll = tasks_module.gp_negloglik
        monkeypatch.setattr(tasks_module, "gp_negloglik", lambda *args, **kwargs: (
            calls.append(1) or real_nll(*args, **kwargs)))
        cfg = SGDConfig(T=T, M=2, N=4, master_seed=13, step_rule="exp_decay", step0=2e-3,
                        log_objective=False)
        result = gp_train(gp, cfg)
        assert result.nll_iters == want
        assert len(calls) == len(result.nll_curve) == len(want)
        # iterate k >= 1 is record k - 1's post-step point
        trajectory = [np.log(gp.theta)] + [rec.theta for rec in result.records]
        for k, nll in zip(result.nll_iters, result.nll_curve):
            assert nll == real_nll(gp, np.exp(trajectory[k])), k

    def test_curve_reproducible(self):
        x, y = synthetic_gp_data(30, [0.4, 1.0, 0.8], seed=11)
        gp = GPProblem(x, y, np.array([0.5, 0.8, 1.0]))
        cfg = SGDConfig(T=15, M=2, N=6, master_seed=13, step_rule="exp_decay",
                        step0=2e-3, log_objective=False)
        a = gp_train(gp, cfg).nll_curve
        b = gp_train(gp, cfg).nll_curve
        assert np.array_equal(a, b)


class TestCertifiedIntervals:
    """Training and the estimated NLL bound the spectrum with certificates:
    completion by eps plus the top Gram eigenvalue, the GP by the kernel's
    infinity norm; none of them runs the power method."""

    @staticmethod
    def _capture_expansions(monkeypatch):
        import spectral_cheb.tasks as tasks_module

        built = []
        build = tasks_module.expansion_for
        monkeypatch.setattr(tasks_module, "expansion_for",
                            lambda *args, **kwargs: built.append(build(*args, **kwargs))
                            or built[-1])
        return built

    def test_no_path_runs_the_power_method(self, monkeypatch, tmp_path, capsys):
        import sys

        from spectral_cheb.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("the power method ran")

        for name, module in list(sys.modules.items()):
            if name.startswith("spectral_cheb") and hasattr(module, "power_method_bound"):
                monkeypatch.setattr(module, "power_method_bound", refuse)
        rs = synthetic_completion_data(12, 8, 2, 0.6, seed=3)
        problem = CompletionProblem(np.random.default_rng(1).uniform(0.0, 5.0, size=(12, 8)),
                                    epsilon=0.1, lam=1.0)
        completion_train(problem, rs, SGDConfig(T=12, M=2, N=4, master_seed=1), "sgd")
        completion_train(problem, rs, SVRGConfig(S=2, T=3, eta=0.05, M=2, N=4,
                                                 master_seed=1), "svrg")
        x, y = synthetic_gp_data(30, [0.3, 1.0, 0.8], seed=2)
        gp = GPProblem(x, y, np.array([0.3, 1.0, 0.8]))
        gp_train(gp, SGDConfig(T=12, M=2, N=4, master_seed=2, step0=1e-3))
        assert math.isfinite(gp_negloglik(gp, mode="estimate", seed=4, m_probes=2))
        path = tmp_path / "spd.txt"
        path.write_text("4 -1 0.5\n-1 3 -1\n0.5 -1 5\n")
        assert main(["estimate", str(path), "--func", "log", "--rho", "2", "--N", "4",
                     "--M", "2"]) == 0
        assert math.isfinite(float(capsys.readouterr().out))

    def test_completion_upper_end_is_eps_plus_gram_top(self, monkeypatch):
        built = self._capture_expansions(monkeypatch)
        rs = synthetic_completion_data(30, 20, 2, 0.6, seed=2)
        theta0 = np.random.default_rng(63).uniform(0.0, 5.0, size=(30, 20))
        problem = CompletionProblem(theta0, epsilon=0.3, lam=1.0)
        completion_train(problem, rs, SGDConfig(T=1, M=2, N=4, master_seed=1), "sgd")
        top = float(np.linalg.eigvalsh(theta0 @ theta0.T)[-1])
        assert len(built) == 1 and built[0].interval.a == 0.3
        assert built[0].interval.b == pytest.approx(1.1 * (0.3 + top), rel=1e-12)

    def test_gp_ends_are_half_the_noise_floor_and_the_infinity_norm(self, monkeypatch):
        built = self._capture_expansions(monkeypatch)
        x, y = synthetic_gp_data(40, [0.3, 1.0, 0.8], seed=2)
        gp = GPProblem(x, y, np.array([0.4, 1.1, 0.7]))
        gp_train(gp, SGDConfig(T=1, M=2, N=4, master_seed=2, step0=1e-3))
        norm = max(math.fsum(abs(v) for v in row) for row in gp.kernel())
        assert len(built) == 1
        assert built[0].interval.a == pytest.approx(0.5 * 0.4**2, rel=1e-12)
        assert built[0].interval.b == pytest.approx(1.1 * norm, rel=1e-12)


class TestLoadGPData:
    def test_two_column_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0\n0.5,2.0\n1.0,0.5\n")
        x, y = load_gp_data(path)
        assert x.shape == (3, 1)
        assert y.tolist() == [1.0, 2.0, 0.5]

    def test_whitespace_matrix_multidim(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0.0 1.0 3.0\n0.5 0.5 2.0\n")
        x, y = load_gp_data(path)
        assert x.shape == (2, 2)
        assert y.tolist() == [3.0, 2.0]

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_empty_file_is_parse_error(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="empty"):
            load_gp_data(path)


def test_make_fixtures_reproduces_data():
    # the ratings and the GP inputs byte for byte; the GP outputs come from
    # a Cholesky draw whose last bits vary with the platform's LAPACK
    import importlib.util
    import io
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  root / "scripts" / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    assert make_fixtures.ratings_text() == (root / "data" / "synthetic_ratings.csv").read_text()
    made = np.loadtxt(io.StringIO(make_fixtures.gp_text()), delimiter=",")
    committed = np.loadtxt(root / "data" / "synthetic_gp.csv", delimiter=",")
    np.testing.assert_array_equal(made[:, 0], committed[:, 0])
    np.testing.assert_allclose(made[:, 1], committed[:, 1], rtol=0,
                               atol=1e-12 * np.abs(committed[:, 1]).max())
