"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria complete.  Tolerances are pinned here, not tuned elsewhere.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
from helpers import (
    chebyshev_perturbation_check,
    conditional_weighted_variance,
    exact_spectral_grad_generic,
    finite_kkt_solution,
    observable_horizon,
    random_feasible_pmf,
    random_spd,
    random_symmetric,
    relaxed_objective,
    trace_nuclear_check,
    weighted_norm_sq,
)

import spectral_cheb as sc
from spectral_cheb.cli import main as cli_main
from spectral_cheb.tasks import gp_exact_nll_grad_logspace

RHO_LOG_INTERVAL = 1.595433215948964  # singularity-at-zero ellipse for [0.05, 0.95]


@contextmanager
def criterion(num, title):
    started = time.time()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:2d}] FAIL - {title}")
        raise
    print(f"\n[criterion {num:2d}] PASS - {title} ({time.time() - started:.1f}s)")


def affine_param_oracle(base, partials, theta):
    partials = [np.asarray(p, dtype=float) for p in partials]

    def apply(th, x):
        out = base @ x
        for coef, p in zip(np.ravel(th), partials):
            out = out + coef * (p @ x)
        return out

    return sc.ParamMatrixOracle(
        dim=base.shape[0],
        param_dim=len(partials),
        theta=np.asarray(theta, dtype=float),
        apply=apply,
        apply_partial=lambda i, th, x: partials[i] @ x,
    )


def test_criterion_1_unbiased_logdet():
    with criterion(1, "unbiased log-det estimator, 1e5 draws within 3 SE, < 30 s"):
        started = time.time()
        rng = np.random.default_rng(101)
        matrix = random_spd(rng, 50, 0.3, 2.5)
        interval = sc.Interval(0.25, 2.6)
        oracle = sc.MatrixOracle.from_matrix(matrix)
        series = sc.compute_coefficients(np.log, interval, degree=300)
        rho_est = sc.estimate_rho(series, 5, 35)
        dist = sc.optimal_distribution(rho_est, 10)
        truth = sc.exact_spectral_sum(matrix, np.log)
        draws = sc.sample_spectral_sums(oracle, series, dist, 7101, 10**5, M=1)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - truth) < 3 * se
        assert time.time() - started < 30.0


def test_criterion_2_weighted_variance_closed_form():
    with criterion(2, "weighted-variance closed form vs Monte-Carlo, < 60 s"):
        started = time.time()
        iv = sc.Interval(0.05, 0.95)
        for f in (np.log, np.sqrt):
            series = sc.compute_coefficients(f, iv, degree=250)
            for dist in (
                sc.optimal_distribution(RHO_LOG_INTERVAL, 10),
                sc.poisson_distribution(10),
                sc.negbinomial_distribution(10, 5),
            ):
                # both routes conditioned on the observable degree range;
                # the Poisson tail sum diverges through < 1e-8 probability
                # events no draw budget can reach (see decisions ledger)
                horizon = observable_horizon(dist)
                closed = conditional_weighted_variance(series, dist, horizon)
                rng = np.random.default_rng(202)
                degrees = np.array(
                    [sc.sample_degree(dist, rng) for _ in range(10**4)]
                )
                degrees = degrees[degrees <= horizon]
                per_degree = {}
                for n in np.unique(degrees):
                    bhat = sc.weighted_coefficients(series, dist, int(n))
                    per_degree[int(n)] = weighted_norm_sq(series, bhat, f,
                                                          quad_points=2048)
                vals = np.array([per_degree[int(n)] for n in degrees])
                se = vals.std() / math.sqrt(vals.size)
                assert abs(vals.mean() - closed) <= max(3 * se, 0.02 * closed)
        assert time.time() - started < 60.0


def test_criterion_3_optimal_distribution_optimality():
    with criterion(3, "relaxed objective optimality vs KKT point and random search"):
        rng = np.random.default_rng(303)
        for rho in (2.0, 3.0, 5.0):
            for mean_n in (2, 5, 10, 20):
                opt = sc.optimal_distribution(rho, mean_n)
                assert abs(opt.total_mass() - 1.0) <= 1e-12
                assert abs(opt.mean() - mean_n) <= 1e-9
                fkkt = finite_kkt_solution(rho, mean_n, 64)
                assert abs(fkkt.total_mass() - 1.0) <= 1e-12
                assert abs(fkkt.mean() - mean_n) <= 1e-9
                v_opt64 = relaxed_objective(opt, rho, 64)
                v_kkt64 = relaxed_objective(fkkt, rho, 64)
                assert v_opt64 <= v_kkt64 + 1e-10
                v_opt = relaxed_objective(opt, rho, 300)
                for _ in range(200):
                    q = random_feasible_pmf(rng, mean_n)
                    assert abs(q.total_mass() - 1.0) <= 1e-12
                    assert abs(q.mean() - mean_n) <= 1e-9
                    assert v_opt <= relaxed_objective(q, rho, 300) + 1e-10


def test_criterion_4_figure_ordering(tmp_path):
    with criterion(4, "variance-bench ordering opt < pois, neg(r) for all N"):
        cases = [("log", RHO_LOG_INTERVAL), ("sqrt", RHO_LOG_INTERVAL), ("exp", 4.0)]
        for fname, rho in cases:
            out = tmp_path / f"bench_{fname}.csv"
            assert cli_main(["variance-bench", "--func", fname, "--rho", repr(rho),
                             "--out", str(out)]) == 0
            table = {}
            for row in out.read_text().strip().split("\n")[1:]:
                _, dist, n, val = row.split(",")
                table[(dist, int(n))] = val
            for n in range(5, 101, 5):
                v_opt = mp.mpf(table[("opt", n)])
                assert v_opt < mp.mpf(table[("pois", n)])
                for r in (2, 5, 10):
                    assert v_opt < mp.mpf(table[(f"neg({r})", n)])


def test_criterion_5_gradient_unbiasedness():
    with criterion(5, "gradient estimator unbiased on affine 12x12 family, f=sqrt"):
        rng = np.random.default_rng(505)
        base = random_spd(rng, 12, 0.8, 2.4)
        b1 = random_symmetric(rng, 12, 0.05)
        b2 = random_symmetric(rng, 12, 0.05)
        theta = np.array([0.4, -0.3])
        interval = sc.Interval(0.3, 3.2)
        oracle = affine_param_oracle(base, [b1, b2], theta)
        a_dense = base + theta[0] * b1 + theta[1] * b2
        fprime = lambda x: 0.5 / np.sqrt(x)
        exact = exact_spectral_grad_generic(a_dense, [b1, b2], fprime)
        # the oracle itself must match finite differences of the exact sum
        h = 1e-5
        for i in range(2):
            e_i = np.zeros(2)
            e_i[i] = h
            fd = (
                sc.exact_spectral_sum(base + (theta + e_i)[0] * b1 + (theta + e_i)[1] * b2, np.sqrt)
                - sc.exact_spectral_sum(base + (theta - e_i)[0] * b1 + (theta - e_i)[1] * b2, np.sqrt)
            ) / (2 * h)
            assert abs(fd - exact[i]) <= 1e-6 * max(1.0, abs(exact[i]))
        series = sc.compute_coefficients(np.sqrt, interval, degree=150)
        rho = sc.rho_from_endpoint_singularity(interval)
        dist = sc.optimal_distribution(rho, 8)
        grads = sc.sample_spectral_grads(oracle, series, dist, 7505, 10**5, M=1)
        for i in range(2):
            se = grads[:, i].std() / math.sqrt(grads.shape[0])
            assert abs(grads[:, i].mean() - exact[i]) < 3 * se


def test_criterion_6_lowrank_identity():
    with criterion(6, "amortized low-rank gradient equals generic path to 1e-10"):
        rng = np.random.default_rng(606)
        for _ in range(100):
            d = int(rng.integers(3, 21))
            r = int(rng.integers(1, 5))
            n = int(rng.integers(1, 31))
            theta = rng.uniform(0.1, 0.9, size=(d, r))
            eps = float(rng.uniform(0.15, 0.5))
            b_hi = (eps + float(np.linalg.norm(theta, 2)) ** 2) * 1.1
            lr = sc.LowRankPSD(theta, eps)
            series = sc.compute_coefficients(np.sqrt, sc.Interval(eps * 0.999, b_hi), degree=40)
            dist = sc.deterministic_distribution(n)
            seed = int(rng.integers(0, 2**31))
            low = sc.grad_estimate_lowrank(lr, series, dist, sc.ProbePlan(seed, 2))

            def apply(th, x, d=d, r=r, eps=eps):
                mat = th.reshape(d, r)
                return mat @ (mat.T @ x) + eps * x

            def apply_partial(i, th, x, d=d, r=r):
                mat = th.reshape(d, r)
                ell, m = divmod(i, r)
                col = mat[:, m]
                out = np.zeros_like(x)
                out[ell] = col @ x
                out += col[:, None] * x[ell] if x.ndim > 1 else col * x[ell]
                return out

            pm = sc.ParamMatrixOracle(
                dim=d, param_dim=d * r, theta=theta.reshape(-1).copy(),
                apply=apply, apply_partial=apply_partial,
            )
            gen = sc.grad_estimate_generic(pm, series, dist, sc.ProbePlan(seed, 2))
            assert np.max(np.abs(low - gen.reshape(d, r))) <= 1e-10


def test_criterion_7_appendix_lemma_properties():
    with criterion(7, "polynomial perturbation bounds and trace-nuclear inequality"):
        rng = np.random.default_rng(707)
        for _ in range(200):
            a_mat = random_symmetric(rng, 10, 0.05)
            e_mat = random_symmetric(rng, 10, 0.02)
            assert chebyshev_perturbation_check(a_mat, e_mat, 20)
        for _ in range(200):
            assert trace_nuclear_check(
                random_symmetric(rng, 12), random_symmetric(rng, 12)
            )


def test_criterion_8_sgd_rate_shape():
    with criterion(8, "SGD error fits c/T with R^2 > 0.98 under eta_t = 1/(alpha t)"):
        rng = np.random.default_rng(808)
        dim = 4
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        base = (basis * rng.uniform(0.8, 1.8, dim)) @ basis.T
        partials = [random_symmetric(rng, dim, 0.15), random_symmetric(rng, dim, 0.15)]
        interval = sc.Interval(0.2, 2.8)
        series = sc.series_from_polynomial([0.0, 0.0, 1.0], interval, degree=60)
        model = sc.SpectralModel(
            lambda th: affine_param_oracle(base, partials, th),
            lambda th, n: sc.Expansion(None, series, sc.optimal_distribution(2.0, n)),
        )
        gram = np.array([[np.sum(a * b) for b in partials] for a in partials])
        lin = np.array([np.sum(base * p) for p in partials])
        alpha = 2.0 * float(np.linalg.eigvalsh(gram).min())
        theta_star = np.linalg.solve(gram, -lin)
        obj = sc.Objective(spectral=model)
        checkpoints = [100, 1000, 10000]
        errors = {T: [] for T in checkpoints}
        for seed in range(20):
            cfg = sc.SGDConfig(T=checkpoints[-1], M=1, N=2, master_seed=seed,
                               step_rule="inverse_alpha_t", alpha=alpha,
                               log_objective=False)
            traj = sc.sgd_run(obj, theta_star + np.array([1.0, -1.0]), cfg)
            for T in checkpoints:
                errors[T].append(float(np.sum((traj[T] - theta_star) ** 2)))
        mean_err = np.array([np.mean(errors[T]) for T in checkpoints])
        x = 1.0 / np.array(checkpoints, dtype=float)
        c_fit = float(x @ mean_err) / float(x @ x)
        ss_res = float(np.sum((mean_err - c_fit * x) ** 2))
        ss_tot = float(np.sum((mean_err - mean_err.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.98


def test_criterion_9_svrg_control_variate():
    with criterion(9, "SVRG: exact-zero correction, variance reduction, half budget"):
        # (a) + (b): correction structure near the anchor
        rng = np.random.default_rng(909)
        base = random_spd(rng, 8, 0.8, 2.0)
        partials = [random_symmetric(rng, 8, 0.08), random_symmetric(rng, 8, 0.08)]
        interval = sc.Interval(0.2, 3.0)
        series = sc.series_from_polynomial([0.0, 0.0, 1.0], interval, degree=60)
        model = sc.SpectralModel(
            lambda th: affine_param_oracle(base, partials, th),
            lambda th, n: sc.Expansion(None, series, sc.optimal_distribution(2.0, n)),
        )
        model.ensure(np.zeros(2), 0, 4)
        anchor_theta = np.array([0.3, -0.2])
        plan = sc.ProbePlan(4242, 2)
        cur = model.grad_sample(anchor_theta, plan)
        again = model.grad_sample(anchor_theta, sc.ProbePlan(4242, 2, degree=plan.degree))
        assert np.array_equal(cur, again)  # correction is exactly zero

        theta_near = anchor_theta + 1e-2
        a_anchor = base + anchor_theta[0] * partials[0] + anchor_theta[1] * partials[1]
        mu = exact_spectral_grad_generic(a_anchor, partials, lambda x: 2.0 * x)
        plain, reduced = [], []
        for seed in range(1000):
            plan = sc.ProbePlan(seed, 1)
            g_cur = model.grad_sample(theta_near, plan)
            g_anchor = model.grad_sample(anchor_theta, sc.ProbePlan(seed, 1, degree=plan.degree))
            plain.append(g_cur)
            reduced.append(g_cur - g_anchor + mu)
        assert float(np.var(reduced, axis=0).sum()) < float(np.var(plain, axis=0).sum())

        # (c): completion fixture, SVRG reaches SGD's final objective at
        # <= 50% of its estimator matvec budget (median of 10 seeds)
        ratings = sc.synthetic_completion_data(30, 20, 2, 0.6, seed=7)
        theta0 = np.random.default_rng(99).uniform(0.0, 5.0, size=(30, 20))
        mean_rating = float(ratings.ratings.mean())
        problem = sc.CompletionProblem(theta0, epsilon=1e-1 * mean_rating**2, lam=1.0)
        ratios = []
        for seed in range(10):
            cfg_sgd = sc.SGDConfig(T=400, M=16, N=10, master_seed=seed,
                                   step_rule="exp_decay", step0=0.08, decay=0.97,
                                   log_objective=False)
            res_sgd = sc.completion_train(problem, ratings, cfg_sgd, optimizer="sgd")
            f_sgd = sc.completion_objective(problem, ratings, res_sgd.theta_raw)
            cfg_svrg = sc.SVRGConfig(S=8, T=50, eta=0.06, M=8, N=10,
                                     master_seed=seed, log_objective=False)
            res_svrg = sc.completion_train(problem, ratings, cfg_svrg, optimizer="svrg")
            crossed = math.inf
            for rec, matvecs in zip(res_svrg.records, res_svrg.matvec_log):
                if sc.completion_objective(problem, ratings, rec.theta) <= f_sgd:
                    crossed = matvecs
                    break
            ratios.append(crossed / res_sgd.matvecs)
        assert float(np.median(ratios)) <= 0.5


def test_criterion_10_biased_vs_unbiased():
    with criterion(10, "deterministic-degree SGD worse at N=5; gap shrinks by N=30"):
        ratings = sc.synthetic_completion_data(20, 12, 2, 0.6, seed=12)
        theta0 = np.random.default_rng(55).uniform(0.0, 5.0, size=(20, 12))
        mean_rating = float(ratings.ratings.mean())
        problem = sc.CompletionProblem(theta0, epsilon=1e-1 * mean_rating**2, lam=1.0)
        gaps = {}
        for mean_n in (5, 30):
            finals = {"opt": [], "det": []}
            for seed in range(10):
                for kind in ("opt", "det"):
                    cfg = sc.SGDConfig(T=250, M=16, N=mean_n, master_seed=seed,
                                       step_rule="exp_decay", step0=0.08, decay=0.98,
                                       log_objective=False)
                    res = sc.completion_train(problem, ratings, cfg, optimizer="sgd",
                                              dist_kind=kind)
                    finals[kind].append(
                        sc.completion_objective(problem, ratings, res.theta_raw)
                    )
            gaps[mean_n] = float(np.median(finals["det"]) - np.median(finals["opt"]))
        assert gaps[5] > 0.0  # biased estimator strictly worse at small degree
        assert gaps[30] < 0.2 * gaps[5]


def test_criterion_11_gp_pipeline():
    with criterion(11, "GP gradients match finite differences; training within 2%"):
        theta_true = np.array([0.3, 1.2, 0.8])
        x, y = sc.synthetic_gp_data(200, theta_true, seed=1111)
        theta_init = theta_true * np.array([1.5, 0.7, 1.3])
        gp = sc.GPProblem(x, y, theta_init)
        phi = np.log(theta_init)
        # exact oracle vs finite differences of the exact NLL
        exact = gp_exact_nll_grad_logspace(gp, phi)
        h = 1e-5
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            fd = (
                sc.gp_negloglik(gp, np.exp(phi + step))
                - sc.gp_negloglik(gp, np.exp(phi - step))
            ) / (2 * h)
            assert abs(fd - exact[i]) <= 1e-4 * max(1.0, abs(exact[i]))
        # estimated gradient: CG data term (deterministic) + sampled logdet part
        a_mat = gp.kernel()
        lower = 0.5 * theta_init[0] ** 2
        probe = sc.MatrixOracle.from_matrix(a_mat)
        upper = max(sc.power_method_bound(probe, 50, 3), 2 * lower)
        interval = sc.Interval(lower, upper)
        from spectral_cheb.tasks import _gp_partials_logspace

        partials = _gp_partials_logspace(gp, theta_init)
        pm = sc.ParamMatrixOracle(
            dim=200, param_dim=3, theta=phi,
            apply=lambda th, v: a_mat @ v,
            apply_partial=lambda i, th, v: partials[i] @ v,
        )
        rho = sc.rho_from_endpoint_singularity(interval)
        series = sc.compute_coefficients(lambda t: 0.5 * np.log(t), interval, degree=300)
        dist = sc.optimal_distribution(rho, 10)
        logdet_grads = sc.sample_spectral_grads(pm, series, dist, 7111, 10**4, M=1)
        alpha_vec = np.linalg.solve(a_mat, y)
        data_grad = np.array([-0.5 * float(alpha_vec @ (p @ alpha_vec)) for p in partials])
        for i in range(3):
            mean_i = data_grad[i] + logdet_grads[:, i].mean()
            se = logdet_grads[:, i].std() / math.sqrt(logdet_grads.shape[0])
            assert abs(mean_i - exact[i]) < 3 * se
        # end-to-end training lands within 2% of the generating NLL
        cfg = sc.SGDConfig(T=400, M=16, N=15, master_seed=1112,
                           step_rule="exp_decay", step0=6e-4, decay=0.99,
                           log_objective=False)
        result = sc.gp_train(gp, cfg)
        nll_ref = sc.gp_negloglik(gp, theta_true)
        # one-sided: the finite-sample MLE legitimately beats the
        # generating hyperparameters (here by ~4%), so "within 2%" means
        # at most 2% worse than the generating NLL
        assert result.nll_curve[-1] <= nll_ref + 0.02 * abs(nll_ref)


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "CLI outputs byte-identical across reruns and thread counts"):
        import os

        identity = tmp_path / "identity.txt"
        identity.write_text(
            "\n".join(" ".join("1" if i == j else "0" for j in range(5)) for i in range(5)) + "\n"
        )
        gp_small = tmp_path / "gp_small.csv"
        x, y = sc.synthetic_gp_data(40, (0.4, 1.1, 0.7), seed=4)
        gp_small.write_text(
            "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x[:, 0], y)) + "\n"
        )

        def invocations(outdir):
            return [
                (
                    ["variance-bench", "--func", "exp", "--rho", "4.0", "--N", "10",
                     "--seed", "5", "--out", str(outdir / "vb.csv")],
                    [outdir / "vb.csv"],
                ),
                (
                    ["estimate", str(identity), "--func", "exp", "--a", "0.5", "--b", "1.5",
                     "--rho", "3.0", "--N", "6", "--M", "40", "--seed", "5"],
                    [],
                ),
                (
                    ["mc-train", "--train", "data/synthetic_ratings.csv", "--seed", "5",
                     "--optimizer", "svrg", "--epochs", "2", "--inner-iters", "15",
                     "--step", "0.05", "--M", "32", "--N", "8",
                     "--out", str(outdir / "mc.csv")],
                    [outdir / "mc.csv", outdir / "mc.trajectory.csv", outdir / "mc.theta.txt"],
                ),
                (
                    ["gp-train", "--train", str(gp_small), "--seed", "5",
                     "--epochs", "1", "--inner-iters", "20", "--step", "1e-3",
                     "--M", "8", "--N", "8", "--out", str(outdir / "gp.csv")],
                    [outdir / "gp.csv", outdir / "gp.trajectory.csv", outdir / "gp.theta.txt"],
                ),
            ]

        captured = []
        for tag, threads in (("run1", "1"), ("run2", "1"), ("run8", "8")):
            outdir = tmp_path / tag
            outdir.mkdir()
            env = dict(os.environ, SPECTRAL_CHEB_THREADS=threads)
            blobs = []
            for args, outputs in invocations(outdir):
                proc = subprocess.run(
                    [sys.executable, "-m", "spectral_cheb.cli", *args],
                    capture_output=True, text=False, env=env,
                )
                assert proc.returncode == 0, proc.stderr[-500:]
                blobs.append(proc.stdout)
                for path in outputs:
                    blobs.append(path.read_bytes())
            captured.append(blobs)
        assert captured[0] == captured[1] == captured[2]
