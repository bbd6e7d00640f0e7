"""Tests for the projected SGD and SVRG drivers."""

import io
import math

import numpy as np
import pytest
from helpers import (
    eval_series,
    exact_spectral_grad_generic,
    random_spd,
    random_symmetric,
    validate_objective,
)

from spectral_cheb.chebyshev import ChebSeries, Interval, series_from_polynomial
from spectral_cheb.degree_dist import deterministic_distribution, optimal_distribution
from spectral_cheb.exceptions import NumericError, ParameterError
from spectral_cheb.grad_est import ParamMatrixOracle
from spectral_cheb.optimize import (
    REFRESH_EVERY,
    IterationRecord,
    Objective,
    SGDConfig,
    SpectralModel,
    SVRGConfig,
    box_projection,
    sgd_run,
    svrg_run,
    write_trajectory_csv,
)
from spectral_cheb.probes import Expansion, ProbePlan, expansion_for
from spectral_cheb.reference import exact_spectral_sum


def quadratic_objective(target, alpha):
    """(alpha/2) |theta - target|^2 with a degree-0 spectral model of zero
    series: its gradient samples are exact zeros, drawn without probes."""
    target = np.asarray(target, dtype=float)
    interval = Interval(0.5, 2.0)

    def oracle_at(theta):
        return ParamMatrixOracle(dim=1, param_dim=target.size,
                                 theta=np.asarray(theta, dtype=float),
                                 apply=lambda th, x: x,
                                 apply_partial=lambda i, th, x: np.zeros_like(x))

    def refresh(theta, mean_degree):
        return Expansion(None, ChebSeries(interval, np.zeros(1)), deterministic_distribution(0))

    return Objective(
        spectral=SpectralModel(oracle_at, refresh),
        g_value=lambda th: float(alpha / 2 * np.sum((th - target) ** 2)),
        g_grad=lambda th: alpha * (th - target),
    )


def affine_spectral_model(rng, dim=6, scale=0.08, interval=Interval(0.2, 3.0)):
    """tr((A0 + t1 B1 + t2 B2)^2) model with probe noise; returns the model
    together with the pieces needed for exact gradients."""
    base = random_spd(rng, dim, 0.8, 2.0)
    partials = [random_symmetric(rng, dim, scale), random_symmetric(rng, dim, scale)]

    def apply(th, x):
        out = base @ x
        for coef, p in zip(np.ravel(th), partials):
            out = out + coef * (p @ x)
        return out

    def oracle_at(theta):
        return ParamMatrixOracle(
            dim=dim,
            param_dim=2,
            theta=np.asarray(theta, dtype=float),
            apply=apply,
            apply_partial=lambda i, th, x: partials[i] @ x,
        )

    series = series_from_polynomial([0.0, 0.0, 1.0], interval, degree=60)

    def refresh(theta, mean_degree):
        return Expansion(None, series, optimal_distribution(2.0, mean_degree))

    return SpectralModel(oracle_at, refresh), base, partials


class TestBoxProjection:
    def test_clamps(self):
        assert box_projection(np.array(-1.0), 0, 5) == 0.0
        assert box_projection(np.array(6.0), 0, 5) == 5.0
        assert box_projection(np.array(2.5), 0, 5) == 2.5

    def test_idempotent_on_random_input(self):
        rng = np.random.default_rng(50)
        x = rng.uniform(-10, 10, size=(4, 3))
        once = box_projection(x, 0, 5)
        assert np.array_equal(box_projection(once, 0, 5), once)

    def test_feasible_unchanged_bitwise(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(0.0, 5.0, size=12)
        assert np.array_equal(box_projection(x, 0, 5), x)

    def test_bad_box(self):
        with pytest.raises(ParameterError):
            box_projection(np.ones(3), 2.0, 1.0)


class TestSGD:
    def test_quadratic_inverse_alpha_converges(self):
        obj = quadratic_objective(np.ones(4), alpha=2.0)
        cfg = SGDConfig(T=1000, M=1, N=1, master_seed=0,
                        step_rule="inverse_alpha_t", alpha=2.0)
        theta0 = np.full(4, 5.0)
        traj = sgd_run(obj, theta0, cfg)
        initial = float(np.sum((theta0 - 1.0) ** 2))
        final = float(np.sum((traj[-1] - 1.0) ** 2))
        assert final <= 1e-2 * initial

    def test_projection_enforced_from_first_step(self):
        obj = quadratic_objective(np.zeros(3), alpha=2.0)
        obj.projection = lambda th: box_projection(th, 0.0, 5.0)
        cfg = SGDConfig(T=20, M=1, N=1, master_seed=1, step_rule="exp_decay", step0=0.01)
        traj = sgd_run(obj, np.full(3, 9.0), cfg)
        assert np.all(traj[1] <= 5.0) and np.all(traj[1] >= 0.0)
        assert np.all(traj[1:] <= 5.0) and np.all(traj[1:] >= 0.0)

    def test_extended_series_kept_until_refresh(self):
        rng = np.random.default_rng(54)
        model, _, _ = affine_spectral_model(rng)
        short = series_from_polynomial([0.0, 0.0, 1.0], Interval(0.2, 3.0), degree=8)
        model.refresh = lambda th, n: Expansion(None, short, optimal_distribution(2.0, n))
        theta = np.array([0.1, -0.1])
        model.ensure(theta, 0, 3)
        model.grad_sample(theta, ProbePlan(5, 1, degree=20))
        assert model.expansion.series.degree == 20
        model.grad_sample(theta, ProbePlan(6, 1, degree=4))
        assert model.expansion.series.degree == 20
        model.ensure(theta, REFRESH_EVERY, 3)
        assert model.expansion.series is short

    def test_refreshes_every_refresh_every_iterations(self):
        model, _, _ = affine_spectral_model(np.random.default_rng(55))
        refreshed = []
        refresh = model.refresh
        model.refresh = lambda th, n: refreshed.append(th.copy()) or refresh(th, n)
        cfg = SGDConfig(T=25, M=2, N=3, master_seed=8, step_rule="exp_decay", step0=0.05)
        traj = sgd_run(Objective(spectral=model), np.array([0.5, -0.2]), cfg)
        assert REFRESH_EVERY == 10
        assert np.array_equal(np.array(refreshed), traj[[0, 10, 20]])

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(52)
        model, _, _ = affine_spectral_model(rng)
        obj = Objective(spectral=model, g_grad=lambda th: 0.1 * th,
                        g_value=lambda th: 0.05 * float(th @ th))
        cfg = SGDConfig(T=25, M=2, N=3, master_seed=7, step_rule="exp_decay", step0=0.05)
        a = sgd_run(obj, np.array([0.5, -0.2]), cfg)
        rng = np.random.default_rng(52)
        model2, _, _ = affine_spectral_model(rng)
        obj2 = Objective(spectral=model2, g_grad=lambda th: 0.1 * th,
                         g_value=lambda th: 0.05 * float(th @ th))
        b = sgd_run(obj2, np.array([0.5, -0.2]), cfg)
        assert np.array_equal(a, b)

    def test_spectral_quadratic_descends(self):
        rng = np.random.default_rng(53)
        model, base, partials = affine_spectral_model(rng)
        obj = Objective(spectral=model)
        theta0 = np.array([0.8, -0.6])

        def exact_value(th):
            a_dense = base + th[0] * partials[0] + th[1] * partials[1]
            return float(np.trace(a_dense @ a_dense))

        cfg = SGDConfig(T=150, M=2, N=3, master_seed=3, step_rule="exp_decay",
                        step0=0.05, decay=0.98)
        traj = sgd_run(obj, theta0, cfg)
        assert exact_value(traj[-1]) < exact_value(theta0)

    def test_rate_shape_inverse_alpha(self):
        # strongly convex spectral quadratic; error ~ c/T under eta_t = 1/(alpha t)
        rng = np.random.default_rng(54)
        model, base, partials = affine_spectral_model(rng, dim=4, scale=0.15)
        gram = np.array([[np.sum(p1 * p2) for p2 in partials] for p1 in partials])
        lin = np.array([np.sum(base * p) for p in partials])
        alpha = 2.0 * float(np.linalg.eigvalsh(gram).min())
        theta_star = np.linalg.solve(gram, -lin)
        obj = Objective(spectral=model)
        checkpoints = [50, 400, 3200]
        errors = {T: [] for T in checkpoints}
        for seed in range(8):
            cfg = SGDConfig(T=checkpoints[-1], M=1, N=2, master_seed=seed,
                            step_rule="inverse_alpha_t", alpha=alpha, log_objective=False)
            traj = sgd_run(obj, theta_star + np.array([0.5, -0.5]), cfg)
            for T in checkpoints:
                errors[T].append(float(np.sum((traj[T] - theta_star) ** 2)))
        mean_err = np.array([np.mean(errors[T]) for T in checkpoints])
        x = 1.0 / np.array(checkpoints, dtype=float)
        slope = float(x @ mean_err) / float(x @ x)  # no-intercept fit err = c/T
        fitted = slope * x
        ss_res = float(np.sum((mean_err - fitted) ** 2))
        ss_tot = float(np.sum((mean_err - mean_err.mean()) ** 2))
        assert 1.0 - ss_res / ss_tot > 0.9

    def test_nonfinite_aborts_with_iteration(self):
        obj = quadratic_objective(np.zeros(2), alpha=2.0)
        obj.g_grad = lambda th: np.array([np.nan, 0.0])
        cfg = SGDConfig(T=5, M=1, N=1, master_seed=0, step_rule="exp_decay")
        with pytest.raises(Exception, match="iteration 0"):
            sgd_run(obj, np.ones(2), cfg)


@pytest.mark.parametrize("optimizer, where", [("sgd", "iteration 0"),
                                              ("svrg", "epoch 1, iteration 0")])
def test_nonfinite_iterate_aborts_naming_its_step(optimizer, where):
    # both optimizers check the projected iterate, not only the direction
    obj = quadratic_objective(np.zeros(2), alpha=2.0)
    obj.projection = lambda th: np.full_like(th, np.nan)
    with pytest.raises(NumericError, match=f"non-finite iterate at {where}$"):
        if optimizer == "sgd":
            sgd_run(obj, np.ones(2), SGDConfig(T=1, M=1, N=1, master_seed=0))
        else:
            svrg_run(obj, np.ones(2), SVRGConfig(S=1, T=1, eta=0.1, M=1, N=1, master_seed=0),
                     exact_grad=np.zeros_like)


class TestSGDConfig:
    @pytest.mark.parametrize("step0", [0.0, -1.0, math.nan])
    def test_step_must_be_positive(self, step0):
        with pytest.raises(ParameterError, match="step size must be positive"):
            SGDConfig(T=1, M=1, N=1, master_seed=0, step0=step0)

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5, math.nan])
    def test_decay_must_lie_in_unit_interval(self, decay):
        with pytest.raises(ParameterError, match="step decay"):
            SGDConfig(T=1, M=1, N=1, master_seed=0, decay=decay)

    def test_decay_one_keeps_the_step(self):
        cfg = SGDConfig(T=1, M=1, N=1, master_seed=0, step0=0.2, decay=1.0)
        assert cfg.step0 * cfg.decay**50 == 0.2


class TestSVRG:
    def _setup(self, seed=55):
        rng = np.random.default_rng(seed)
        model, base, partials = affine_spectral_model(rng)
        obj = Objective(spectral=model)

        def exact_grad(th):
            a_dense = base + th[0] * partials[0] + th[1] * partials[1]
            return exact_spectral_grad_generic(a_dense, partials, lambda x: 2.0 * x)

        return obj, exact_grad, base, partials

    def test_control_variate_exactly_zero_at_anchor(self):
        obj, exact_grad, _, _ = self._setup()
        theta = np.array([0.4, -0.1])
        obj.spectral.ensure(theta, 0, 3)
        plan = ProbePlan(1234, 3)
        cur = obj.spectral.grad_sample(theta, plan)
        anchor = obj.spectral.grad_sample(theta, ProbePlan(1234, 3, degree=plan.degree))
        assert np.array_equal(cur, anchor)

    def test_variance_reduction_near_anchor(self):
        obj, exact_grad, _, _ = self._setup()
        theta_tilde = np.array([0.4, -0.1])
        theta = theta_tilde + 1e-2
        obj.spectral.ensure(theta_tilde, 0, 3)
        mu = exact_grad(theta_tilde)
        plain, reduced = [], []
        for seed in range(1000):
            plan = ProbePlan(seed, 1)
            cur = obj.spectral.grad_sample(theta, plan)
            anchor = obj.spectral.grad_sample(theta_tilde, ProbePlan(seed, 1, degree=plan.degree))
            plain.append(cur)
            reduced.append(cur - anchor + mu)
        plain_var = float(np.var(np.asarray(plain), axis=0).sum())
        reduced_var = float(np.var(np.asarray(reduced), axis=0).sum())
        assert reduced_var < plain_var

    def test_epoch_contraction_over_step_grid(self):
        # linear-rate shape: every epoch contracts the anchor error for a
        # grid of step sizes below a working threshold
        obj, exact_grad, base, partials = self._setup()
        gram = np.array([[np.sum(p1 * p2) for p2 in partials] for p1 in partials])
        lin = np.array([np.sum(base * p) for p in partials])
        theta_star = np.linalg.solve(gram, -lin)
        for eta in (0.005, 0.01, 0.02):
            cfg = SVRGConfig(S=3, T=40, eta=eta, M=2, N=3, master_seed=5,
                             log_objective=False)
            anchors = svrg_run(obj, theta_star + np.array([0.6, -0.4]), cfg, exact_grad)
            dist = [float(np.sum((a - theta_star) ** 2)) for a in anchors]
            assert dist[1] < dist[0]
            assert dist[2] < dist[1]

    def test_probe_streams_per_run_and_per_step(self, monkeypatch):
        # the objective log draws no probes of its own, and the
        # current/anchor pair of a step shares one probe block
        import spectral_cheb.probes as probes_module

        seeds = []
        real = probes_module.probe_rng
        monkeypatch.setattr(probes_module, "probe_rng",
                            lambda *args: seeds.append(args[0]) or real(*args))
        obj, exact_grad, _, _ = self._setup()
        cfg = SVRGConfig(S=2, T=6, eta=0.02, M=3, N=1, master_seed=6)
        records = []
        svrg_run(obj, np.array([0.3, 0.3]), cfg, exact_grad, callback=records.append)
        assert len(records) == 12
        probed_steps = sum(rec.degree > 0 for rec in records)
        assert 0 < probed_steps < len(records)
        assert len(seeds) == cfg.M * probed_steps

    def test_refreshes_at_every_anchor(self):
        obj, exact_grad, _, _ = self._setup()
        refreshed = []
        refresh = obj.spectral.refresh
        obj.spectral.refresh = lambda th, n: refreshed.append(th.copy()) or refresh(th, n)
        cfg = SVRGConfig(S=3, T=12, eta=0.02, M=2, N=3, master_seed=6, log_objective=False)
        anchors = svrg_run(obj, np.array([0.3, 0.3]), cfg, exact_grad)
        assert np.array_equal(np.array(refreshed), anchors[:3])

    def test_deterministic(self):
        obj, exact_grad, _, _ = self._setup()
        cfg = SVRGConfig(S=2, T=10, eta=0.02, M=2, N=3, master_seed=6, log_objective=False)
        a = svrg_run(obj, np.array([0.3, 0.3]), cfg, exact_grad)
        obj2, exact_grad2, _, _ = self._setup()
        b = svrg_run(obj2, np.array([0.3, 0.3]), cfg, exact_grad2)
        assert np.array_equal(a, b)


class TestObjectiveLog:
    """Each record logs g plus the step's own unbiased spectral value."""

    def test_logged_value_is_unbiased(self):
        # log det at a fixed theta, spectrum down to 0.02: the mean of the
        # logged values lies within 3 s.e. of the exact tr f, which the
        # degree-N truncation misses by more than that
        rng = np.random.default_rng(61)
        dim = 8
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        base = (basis * np.linspace(0.02, 2.0, dim)) @ basis.T
        partials = [random_symmetric(rng, dim, 0.02) for _ in range(2)]
        theta = np.array([0.3, -0.2])
        dense = base + theta[0] * partials[0] + theta[1] * partials[1]
        eigs = np.linalg.eigvalsh(dense)
        expansion = expansion_for(np.log, 0.9 * eigs[0], eigs[-1], 3)

        def oracle_at(th):
            return ParamMatrixOracle(
                dim=dim, param_dim=2, theta=np.asarray(th, dtype=float),
                apply=lambda t, x: (base + t[0] * partials[0] + t[1] * partials[1]) @ x,
                apply_partial=lambda i, t, x: partials[i] @ x)

        obj = Objective(spectral=SpectralModel(oracle_at, lambda th, n: expansion))
        logged = []
        for seed in range(1200):
            cfg = SGDConfig(T=1, M=4, N=3, master_seed=seed)
            sgd_run(obj, theta, cfg, callback=lambda rec: logged.append(rec.objective_estimate))
        logged = np.array(logged)
        exact = exact_spectral_sum(dense, np.log)
        se = logged.std(ddof=1) / math.sqrt(logged.size)
        assert abs(logged.mean() - exact) <= 3.0 * se
        truncated = ChebSeries(expansion.interval, expansion.series.coeffs[: cfg.N + 1])
        assert abs(float(np.sum(eval_series(truncated, eigs))) - exact) > 3.0 * se

    def test_logging_leaves_trajectories_alone(self):
        def run(optimizer, log_objective, callback):
            obj, exact_grad, _, _ = TestSVRG()._setup(seed=57)
            theta0 = np.array([0.3, -0.3])
            if optimizer == "sgd":
                cfg = SGDConfig(T=30, M=3, N=1, master_seed=9, log_objective=log_objective)
                return sgd_run(obj, theta0, cfg, callback=callback)
            cfg = SVRGConfig(S=2, T=15, eta=0.02, M=3, N=1, master_seed=9,
                             log_objective=log_objective)
            return svrg_run(obj, theta0, cfg, exact_grad, callback=callback)

        for optimizer in ("sgd", "svrg"):
            records = []
            logged = run(optimizer, True, records.append)
            assert all(math.isfinite(rec.objective_estimate) for rec in records)
            assert {0, 1} < {rec.degree for rec in records}
            unlogged = []
            np.testing.assert_array_equal(logged, run(optimizer, False, unlogged.append))
            assert all(math.isnan(rec.objective_estimate) for rec in unlogged)
            np.testing.assert_array_equal(logged, run(optimizer, True, None))


class TestObjectiveValidation:
    def test_good_objective_passes(self):
        obj = quadratic_objective(np.ones(3), alpha=1.5)
        validate_objective(obj, np.zeros(3))

    def test_non_idempotent_projection(self):
        obj = quadratic_objective(np.ones(2), alpha=1.0)
        obj.projection = lambda th: th * 0.5
        with pytest.raises(ParameterError, match="idempotent"):
            validate_objective(obj, np.ones(2))

    def test_wrong_gradient(self):
        obj = quadratic_objective(np.ones(2), alpha=1.0)
        obj.g_grad = lambda th: 3.0 * th
        with pytest.raises(ParameterError, match="finite differences"):
            validate_objective(obj, np.full(2, 2.0))


class TestTrajectoryCsv:
    def test_columns_and_determinism(self):
        records = [
            IterationRecord("sgd", 0, t, np.zeros(2), 4, 1.5 + t, 0.25, 12.3 + t)
            for t in range(3)
        ]
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_trajectory_csv(records, buf1)
        write_trajectory_csv(records, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == "phase,epoch,iter,objective_estimate,grad_norm,degree_n,wallclock_ms"
        assert lines[1].split(",")[-1] == "0"  # deterministic timing zeroes the column
