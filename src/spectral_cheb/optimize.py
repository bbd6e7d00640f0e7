"""Projected SGD and SVRG over objectives tr f(A(theta)) + g(theta).

Every objective has a spectral part, whose gradient comes from the
unbiased randomized estimators; SVRG's control variate evaluates the
estimator at the current and the anchor parameters with identical probes
and an identical drawn degree, so the correction vanishes exactly when
they coincide.  The model's ``Expansion`` owns the eigenvalue interval,
the series and the degree distribution, refreshed on a schedule, not per
sample; each step's ``ProbePlan`` owns its degree and probes, and the
drivers read the drawn degree back from the plan they built.  Both
drivers take their steps through one step body: it checks the direction,
projects, checks the iterate and builds the step's ``IterationRecord``.
The record's objective is g(theta_t) plus the unbiased spectral value
that the step's own gradient pass reads off at theta_t, the iterate the
step started from: logging costs no recurrence and no probes of its own,
and a run that logs nothing computes no value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from .exceptions import NumericError, ParameterError
from .grad_est import (
    LowRankPSD,
    ParamMatrixOracle,
    _estimate,
)
from .probes import Expansion, ProbePlan

__all__ = [
    "SpectralModel",
    "Objective",
    "SGDConfig",
    "SVRGConfig",
    "IterationRecord",
    "sgd_run",
    "svrg_run",
    "box_projection",
    "write_trajectory_csv",
]

# SGD iterations between interval refreshes; SVRG refreshes at every anchor
REFRESH_EVERY = 10


class SpectralModel:
    """Bundle of the parametric oracle and the (refreshable) expansion.

    ``oracle_at(theta)`` returns the operator at given parameters; the
    estimators step it on the interval of ``model.expansion``, which
    ``refresh(theta, mean_degree)`` replaces with one from certified ends
    at ``theta``.  ``ensure(theta, iteration, mean_degree)`` refreshes when
    no expansion exists yet or ``REFRESH_EVERY`` divides ``iteration``:
    ``sgd_run`` passes its iteration count, ``svrg_run`` 0 at each anchor.
    """

    def __init__(self, oracle_at: Callable[[np.ndarray], ParamMatrixOracle | LowRankPSD],
                 refresh: Callable[[np.ndarray, int], Expansion]):
        self.oracle_at = oracle_at
        self.refresh = refresh
        self.expansion: Expansion | None = None

    def ensure(self, theta: np.ndarray, iteration: int, mean_degree: int) -> None:
        if self.expansion is None or iteration % REFRESH_EVERY == 0:
            self.expansion = self.refresh(theta, mean_degree)

    def extend_series(self, degree: int) -> None:
        """Extend the series to ``degree``; kept until the next refresh."""
        self.expansion = self.expansion.to_degree(degree)

    def grad_sample(self, theta: np.ndarray, plan: ProbePlan) -> np.ndarray:
        """Gradient estimate at ``theta`` on ``plan``'s degree and probes.

        The plan draws its degree from the expansion's distribution unless
        it already holds one, so a plan shared with an earlier estimate
        (SVRG's anchor) reuses that estimate's degree and probe block.
        """
        return self._sample(theta, plan, value=False)

    def _sample(self, theta: np.ndarray, plan: ProbePlan, value: bool):
        """``grad_sample``'s gradient, or with ``value`` the pair (gradient,
        unbiased estimate of tr f(A(theta))) from the same pass."""
        degree = plan.draw_degree(self.expansion.dist)
        if degree > self.expansion.series.degree:
            # geometric tails occasionally out-draw the stored expansion
            self.extend_series(degree)
        return _estimate(self.oracle_at(theta), self.expansion.series, self.expansion.dist,
                         plan, value)

    def objective_estimate(self, theta: np.ndarray, plan: ProbePlan) -> float:
        """Unbiased estimate of tr f(A(theta)) on ``plan``'s degree and
        probes, the value a logged step reads off its own gradient pass.
        No package path calls it: it stays only because the benchmark's
        tracer (``bench/tracer.py``) binds it by name."""
        return float(self._sample(theta, plan, value=True)[1])


@dataclass
class Objective:
    """min tr f(A(theta)) + g(theta) over the projection's fixed-point set."""

    spectral: SpectralModel
    g_value: Callable[[np.ndarray], float] = lambda theta: 0.0
    g_grad: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    projection: Callable[[np.ndarray], np.ndarray] = lambda theta: theta


@dataclass
class SGDConfig:
    T: int
    M: int
    N: int
    master_seed: int
    step_rule: str = "exp_decay"  # or "inverse_alpha_t"
    alpha: float | None = None
    step0: float = 0.1
    decay: float = 0.97
    log_objective: bool = True

    def __post_init__(self):
        if self.T < 1:
            raise ParameterError(f"need at least one iteration, got T = {self.T}")
        if self.step_rule not in ("exp_decay", "inverse_alpha_t"):
            raise ParameterError(f"unknown step rule {self.step_rule!r}")
        if self.step_rule == "inverse_alpha_t" and not 0 < (self.alpha or 0) < math.inf:
            raise ParameterError(f"inverse_alpha_t needs a finite alpha > 0, got {self.alpha}")
        if not 0 < self.step0 < math.inf:
            raise ParameterError(f"step size must be positive and finite, got {self.step0}")
        if not 0 < self.decay <= 1:
            raise ParameterError(f"step decay must lie in (0, 1], got {self.decay}")


@dataclass
class SVRGConfig:
    S: int
    T: int
    eta: float
    M: int
    N: int
    master_seed: int
    log_objective: bool = True

    def __post_init__(self):
        if self.S < 1 or self.T < 1:
            raise ParameterError("need at least one outer and one inner iteration")
        if not 0 < self.eta < math.inf:
            raise ParameterError(f"step size must be positive and finite, got {self.eta}")


@dataclass
class IterationRecord:
    """One step: ``theta`` is the iterate it ended at, and
    ``objective_estimate`` is g plus the spectral value at the iterate it
    started from (nan when the run does not log the objective)."""

    phase: str
    epoch: int
    iteration: int
    theta: np.ndarray
    degree: int
    objective_estimate: float
    grad_norm: float
    wallclock_ms: float


def _iteration_seeds(master_seed: int, count: int) -> np.ndarray:
    return np.random.SeedSequence(master_seed, spawn_key=(3,)).generate_state(count, np.uint64)


def _step_size(cfg: SGDConfig, t: int) -> float:
    if cfg.step_rule == "inverse_alpha_t":
        return 1.0 / (cfg.alpha * (t + 1))
    return cfg.step0 * cfg.decay**t


def box_projection(theta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Elementwise clamp onto [lo, hi]; feasible entries pass unchanged."""
    if not lo < hi:
        raise ParameterError(f"box needs lo < hi, got [{lo}, {hi}]")
    return np.clip(theta, lo, hi)


def _step_body(
    obj: Objective,
    cfg: SGDConfig | SVRGConfig,
    phase: str,
    callback: Callable[[IterationRecord], None] | None,
):
    """The current evaluation and the projected step both optimizers take.

    ``sample(theta, plan)`` is a step's own spectral evaluation at theta:
    the gradient paired with its unbiased value when the run logs the
    objective (a callback and ``cfg.log_objective``), with nan otherwise,
    computing no value.  ``step(theta, rate, direction, epoch, t, degree,
    value)`` checks the direction, projects ``theta - rate * direction``,
    checks the iterate and, when there is a callback, hands it the step's
    record, whose objective is g(theta) + value at the theta it was
    given.  Errors name the iteration, and under SVRG the epoch too.
    """
    logged = callback is not None and cfg.log_objective
    start = time.perf_counter()

    def sample(theta, plan):
        if logged:
            return obj.spectral._sample(theta, plan, value=True)
        return obj.spectral.grad_sample(theta, plan), math.nan

    def step(theta, rate, direction, epoch, t, degree, value):
        where = f"iteration {t}" if phase == "sgd" else f"epoch {epoch}, iteration {t}"
        if not np.isfinite(direction).all():
            raise NumericError(f"non-finite gradient at {where}")
        objective = float(obj.g_value(theta)) + float(value) if logged else math.nan
        theta = obj.projection(theta - rate * direction)
        if not np.isfinite(theta).all():
            raise NumericError(f"non-finite iterate at {where}")
        if callback is not None:
            callback(IterationRecord(phase, epoch, t, theta.copy(), degree, objective,
                                     float(np.linalg.norm(direction)),
                                     (time.perf_counter() - start) * 1e3))
        return theta

    return sample, step


def sgd_run(
    obj: Objective,
    theta0: np.ndarray,
    cfg: SGDConfig,
    callback: Callable[[IterationRecord], None] | None = None,
) -> np.ndarray:
    """Projected SGD; returns the trajectory theta^(0..T).

    One gradient sample per iteration: a drawn degree shared across the
    parameter coordinates plus M Rademacher probes, then a projected
    step.  Deterministic given the config's master seed.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    seeds = _iteration_seeds(cfg.master_seed, cfg.T)
    trajectory = np.empty((cfg.T + 1,) + theta.shape)
    trajectory[0] = theta
    sample, step = _step_body(obj, cfg, "sgd", callback)
    for t in range(cfg.T):
        obj.spectral.ensure(theta, t, cfg.N)
        plan = ProbePlan(int(seeds[t]), cfg.M)
        psi, value = sample(theta, plan)
        theta = step(theta, _step_size(cfg, t), psi + obj.g_grad(theta), 0, t, plan.degree,
                     value)
        trajectory[t + 1] = theta
    return trajectory


def svrg_run(
    obj: Objective,
    theta0: np.ndarray,
    cfg: SVRGConfig,
    exact_grad: Callable[[np.ndarray], np.ndarray],
    callback: Callable[[IterationRecord], None] | None = None,
) -> np.ndarray:
    """Variance-reduced stochastic gradient descent.

    Each outer epoch anchors at theta_tilde with its exact spectral
    gradient; every inner step draws one probe set and one degree and
    evaluates the estimator at both the current iterate and the anchor
    with that identical randomness, the anchor running on the current
    evaluation's plan.  A logged step's value is the current evaluation's;
    the anchor's computes none.  The epoch output is the average of the
    inner iterates.  The expansion is refreshed at each epoch's anchor.
    Returns the anchors theta_tilde^(0..S).
    """
    theta_tilde = np.asarray(theta0, dtype=float).copy()
    anchors = np.empty((cfg.S + 1,) + theta_tilde.shape)
    anchors[0] = theta_tilde
    seeds = _iteration_seeds(cfg.master_seed, cfg.S * cfg.T)
    sample, step = _step_body(obj, cfg, "svrg", callback)
    for s in range(1, cfg.S + 1):
        obj.spectral.ensure(theta_tilde, 0, cfg.N)
        mu = np.asarray(exact_grad(theta_tilde), dtype=float)
        theta = theta_tilde.copy()
        inner_sum = np.zeros_like(theta)
        for t in range(cfg.T):
            plan = ProbePlan(int(seeds[(s - 1) * cfg.T + t]), cfg.M)
            current, value = sample(theta, plan)
            correction = current - obj.spectral.grad_sample(theta_tilde, plan)
            theta = step(theta, cfg.eta, correction + mu + obj.g_grad(theta), s, t, plan.degree,
                         value)
            inner_sum += theta
        theta_tilde = inner_sum / cfg.T
        anchors[s] = theta_tilde
    return anchors


def write_trajectory_csv(records: Sequence[IterationRecord], fh: IO[str]) -> None:
    """Serialize iteration records.

    The wallclock column is zeroed so fixed-seed runs are byte-identical;
    measured timings stay available on the records themselves.
    """
    fh.write("phase,epoch,iter,objective_estimate,grad_norm,degree_n,wallclock_ms\n")
    for rec in records:
        fh.write(
            f"{rec.phase},{rec.epoch},{rec.iteration},{rec.objective_estimate!r},"
            f"{rec.grad_norm!r},{rec.degree},0\n"
        )
