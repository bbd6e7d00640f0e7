"""Command-line surface.

Four subcommands: ``variance-bench`` tabulates the closed-form weighted
variance of the degree distributions over a sweep of expected degrees
(in double precision, summed in log space; ``inf`` where the series
diverges),
``estimate`` runs one unbiased spectral-sum estimate on a matrix file,
and ``mc-train`` / ``gp-train`` drive the optimization tasks; the two
share one check of --train/--out and one writer of the metrics CSV,
``<out>.trajectory.csv`` and ``<out>.theta.txt``.  The ``mc-train``
metrics CSV has a row per iteration, the ``gp-train`` one a row at each
exact-NLL checkpoint (iterations 0, 10, 20, ... and the last).  --dist
passes its name (opt, pois, neg, neg(r), det) to ``degree_dist``, which
parses it; ``estimate --dist det`` truncates at the degree --N.  A flat
key=value config file supplies defaults; flags override it.  Every CSV
output is byte-stable for a fixed --seed (timing columns are zeroed;
measured times go to stderr); the ``gp-train`` metrics CSV only at a
fixed BLAS thread count, as its exact NLL's Cholesky factor rounds
differently with BLAS threads.

Exit codes: 1 configuration error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .chebyshev import (
    AnalyticitySpec,
    Interval,
    compute_coefficients,
    estimate_rho,
    series_from_polynomial,
    truncation_error_bound,
)
from ._variance_bench import variance_texts
from .degree_dist import DistributionKind, make_degree_distribution
from .exceptions import (
    ConvergenceError,
    NumericError,
    ParameterError,
    ParseError,
    SpectralChebError,
)
from .optimize import SGDConfig, SVRGConfig, write_trajectory_csv
from .probes import (
    Expansion,
    MatrixOracle,
    ProbePlan,
    certified_ends,
    estimate_spectral_sum_unbiased,
    load_matrix,
)
from .tasks import (
    CompletionProblem,
    GPProblem,
    completion_rmse,
    completion_train,
    gp_train,
    load_gp_data,
    ratings_from_files,
)

__all__ = ["main"]

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

BENCH_SWEEP = tuple(range(5, 101, 5))
BENCH_DISTS = ("opt", "pois", "neg(2)", "neg", "neg(10)", "det")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value defaults file; flags override")
    p.add_argument("--seed", type=int, default=0, help="master seed for all randomness")


def _add_function_flags(p: argparse.ArgumentParser):
    p.add_argument("--func", default="log",
                   help="log, sqrt, exp, or poly:c0,c1,... (monomial coefficients)")
    p.add_argument("--a", type=float, help="lower eigenvalue bound")
    p.add_argument("--b", type=float, help="upper eigenvalue bound")
    p.add_argument("--rho", type=float, help="coefficient decay parameter (> 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spectral-cheb",
                     description="Unbiased randomized-Chebyshev spectral-sum toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("variance-bench", parents=[], help="closed-form variance sweep")
    _add_common(bench)
    bench.add_argument("--out", help="output CSV path")
    _add_function_flags(bench)
    bench.add_argument("--dist", help="restrict to one distribution: opt, pois, neg, neg(r), det")
    bench.add_argument("--N", type=int, help="single expected degree instead of the 5..100 sweep")

    est = sub.add_parser("estimate", help="one unbiased spectral-sum estimate")
    _add_common(est)
    _add_function_flags(est)
    est.add_argument("matrix", help="MatrixMarket (.mtx) or dense whitespace matrix file")
    est.add_argument("--dist", default="opt")
    est.add_argument("--N", type=int, default=10, help="expected truncation degree")
    est.add_argument("--M", "--probes", dest="M", type=int, default=10,
                     help="number of Rademacher probes")

    mc = sub.add_parser("mc-train", help="run the mc task")
    gp = sub.add_parser("gp-train", help="run the gp task")
    for train in (mc, gp):
        _add_common(train)
        train.add_argument("--out", help="metrics CSV path")
        train.add_argument("--train", required=False, help="training data file")
        train.add_argument("--N", type=int, default=10)
        train.add_argument("--M", "--probes", dest="M", type=int, default=8)
        train.add_argument("--epochs", type=int, default=4, help="svrg outer epochs; sgd blocks")
        train.add_argument("--inner-iters", dest="inner_iters", type=int, default=100)
        train.add_argument("--step", type=float, default=0.1)
        train.add_argument("--step-decay", dest="step_decay", type=float,
                           help=f"SGD step decay per iteration (default {SGDConfig.decay})")
    mc.add_argument("--test", help="held-out ratings file")
    mc.add_argument("--optimizer", default="sgd", choices=["sgd", "svrg"])
    mc.add_argument("--dist", default="opt")
    mc.add_argument("--lambda", dest="lam", type=float, default=1.0, help="data-fit weight")
    mc.add_argument("--epsilon", type=float, help="diagonal smoothing")
    mc.add_argument("--rank", type=int, default=10, help="post-training SVD rank")
    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Read --config key=value defaults and splice them before the flags."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ParameterError("--config needs a file path")
    path = Path(argv[idx + 1])
    if not path.exists():
        raise ParameterError(f"config file not found: {path}")
    injected: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        injected += [f"--{key.strip().replace('_', '-')}", value.strip()]
    # defaults go right after the subcommand so explicit flags win
    return argv[:1] + injected + argv[1:]


def _parse_function(args) -> tuple:
    """(name, f) for log, sqrt and exp; ("poly", monomial coefficients)."""
    func = args.func
    if func.startswith("poly:"):
        try:
            coeffs = [float(c) for c in func[5:].split(",")]
        except ValueError as exc:
            raise ParameterError(f"cannot parse polynomial coefficients in {func!r}") from exc
        return "poly", coeffs
    if func not in ("log", "sqrt", "exp"):
        raise ParameterError(f"unknown function {func!r}")
    return func, {"log": np.log, "sqrt": np.sqrt, "exp": np.exp}[func]


def _bench_interval(fname: str, args) -> Interval:
    if (args.a is None) != (args.b is None):
        raise ParameterError("--a and --b bound the interval together: give both or neither")
    if args.a is not None:
        return Interval(args.a, args.b)
    if fname in ("log", "sqrt"):
        return Interval(0.05, 0.95)
    if fname == "exp":
        return Interval(-1.0, 1.0)
    raise ParameterError("custom polynomial needs explicit --a and --b")


def _build_series(fname, f_or_coeffs, interval, degree):
    if fname == "poly":
        return series_from_polynomial(f_or_coeffs, interval, degree=degree)
    return compute_coefficients(f_or_coeffs, interval, degree)


def cmd_variance_bench(args) -> int:
    if args.out is None:
        raise ParameterError("variance-bench needs --out for the CSV file")
    fname, f_or_coeffs = _parse_function(args)
    interval = _bench_interval(fname, args)
    if args.N is not None and args.N < 1:
        raise ParameterError(f"--N must be at least 1, got {args.N}")
    sweep = list(BENCH_SWEEP) if args.N is None else [args.N]
    # built in double precision first, so a bad --rho or r fails here
    swept = [(mean_n, make_degree_distribution(name, mean_n, rho=args.rho))
             for name in ([args.dist] if args.dist else BENCH_DISTS) for mean_n in sweep]
    # the true variances reach far below the double range, so the closed
    # form is summed in log space; a divergent series is a row of inf
    payload = f_or_coeffs if fname == "poly" else None
    values = variance_texts(fname, payload, interval, [dist for _, dist in swept])
    lines = ["function,distribution,N,weighted_variance"]
    for (mean_n, dist), text in zip(swept, values):
        lines.append(f"{fname},{dist.name},{mean_n},{text}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.out}", file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    if args.N < 1:
        raise ParameterError(f"--N must be at least 1, got {args.N}")
    matrix = load_matrix(args.matrix)
    dim = matrix.shape[0]
    fname, f_or_coeffs = _parse_function(args)
    oracle = MatrixOracle.from_matrix(matrix)
    # Gershgorin's lower end and the infinity norm bound every eigenvalue
    ends = certified_ends(matrix) if args.a is None or args.b is None else None
    lower = ends[0] if args.a is None else args.a
    upper = ends[1] if args.b is None else args.b
    if args.a is None and lower <= 0 and fname in ("log", "sqrt"):
        raise ParameterError(f"the matrix's Gershgorin lower end {lower!r} is not positive "
                             f"and {fname} is singular at 0; give the lower end with --a")
    if args.b is None and upper <= lower:
        given = "--a" if args.a is not None else "the Gershgorin lower end"
        raise ParameterError(f"the matrix's infinity norm {upper!r} does not exceed "
                             f"{given} {lower!r}; give the upper end with --b")
    interval = Interval(lower, upper)
    series = _build_series(fname, f_or_coeffs, interval, 4 * args.N + 120)
    rho = args.rho
    if rho is None:
        try:
            rho = estimate_rho(series, args.N, min(3 * args.N + 20, series.degree))
        except SpectralChebError as exc:
            # other laws run without rho, and without the bias line
            if args.dist.strip() == DistributionKind.OPTIMAL.value:
                raise ParameterError(f"cannot fit the decay parameter rho ({exc}); "
                                     "give it with --rho") from exc
    dist = make_degree_distribution(args.dist, args.N, rho=rho)
    plan = ProbePlan(args.seed, args.M)
    # a tail draw past the provisional series extends it
    expansion = Expansion(None if fname == "poly" else f_or_coeffs, series, dist)
    expansion = expansion.to_degree(plan.draw_degree(dist))
    value = estimate_spectral_sum_unbiased(oracle, expansion.series, dist, plan)
    print(repr(float(value)))
    print(f"sampled degree n = {plan.degree}", file=sys.stderr)
    print(f"probes M = {args.M}", file=sys.stderr)
    if rho is not None:
        # coefficients at the 1e-14 quadrature floor carry no decay
        # information, as in estimate_rho; rho^j would blow them up
        above = np.nonzero(np.abs(series.coeffs) > 1e-14)[0]
        resolved = series.coeffs[: above[-1] + 1 if above.size else 1]
        j = np.arange(resolved.size, dtype=float)
        big_u = float(np.max(np.abs(resolved) * rho**j)) / 2.0
        bound = dim * truncation_error_bound(AnalyticitySpec(rho, big_u), args.N)
        print(
            f"fixed-degree-{args.N} bias bound: {bound:.6g} "
            f"(rho = {rho:.6g}, U ~ {big_u:.6g})",
            file=sys.stderr,
        )
    return 0


def _check_training_args(args) -> None:
    """--train and --out are given, every data file named exists, and
    --step-decay, SGD's (``SGDConfig.decay`` when absent), is not given to SVRG."""
    if args.train is None:
        raise ParameterError(f"{args.command} needs --train")
    for kind, path in (("training", args.train), ("test", getattr(args, "test", None))):
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"{kind} data not found: {path}")
    if args.out is None:
        raise ParameterError(f"{args.command} needs --out for the metrics CSV")
    if args.step_decay is None:
        args.step_decay = SGDConfig.decay
    elif getattr(args, "optimizer", "sgd") == "svrg":
        raise ParameterError("--step-decay applies to SGD only; SVRG steps at the constant "
                             "--step")


def _write_training_outputs(out, records, rows, theta) -> None:
    """The metrics CSV at ``out`` (one row per ``(i, metric)`` of ``rows``:
    record i's objective estimate, at the iterate step i started from, and
    the task's metric after the step),
    ``<out>.trajectory.csv`` (every record) and ``<out>.theta.txt``."""
    lines = ["iter,objective,rmse_or_nll,wallclock_ms"]
    for i, metric in rows:
        lines.append(f"{i},{records[i].objective_estimate!r},{float(metric)!r},0")
    Path(out).write_text("\n".join(lines) + "\n")
    with open(Path(out).with_suffix(".trajectory.csv"), "w") as fh:
        write_trajectory_csv(records, fh)
    np.savetxt(str(Path(out).with_suffix(".theta.txt")), theta, fmt="%.17g")


def cmd_mc_train(args) -> int:
    _check_training_args(args)
    started = time.perf_counter()
    ratings = ratings_from_files(args.train, args.test, seed=args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(11,)))
    theta0 = rng.uniform(0.0, 5.0, size=(ratings.d_users, ratings.d_items))
    mean_rating = float(ratings.ratings.mean())
    epsilon = args.epsilon if args.epsilon is not None else 1e-2 * mean_rating**2
    problem = CompletionProblem(theta0, epsilon=epsilon, lam=args.lam)
    total_iters = args.epochs * args.inner_iters
    if args.optimizer == "sgd":
        cfg = SGDConfig(T=total_iters, M=args.M, N=args.N, master_seed=args.seed,
                        step_rule="exp_decay", step0=args.step, decay=args.step_decay)
    else:
        cfg = SVRGConfig(S=args.epochs, T=args.inner_iters, eta=args.step, M=args.M,
                         N=args.N, master_seed=args.seed)
    result = completion_train(problem, ratings, cfg, optimizer=args.optimizer,
                              dist_kind=args.dist, svd_rank=args.rank)
    rmse = [completion_rmse(rec.theta, ratings, train=False) for rec in result.records]
    _write_training_outputs(args.out, result.records, enumerate(rmse), result.theta)
    elapsed = time.perf_counter() - started
    print(
        f"{args.optimizer}: test RMSE {result.test_rmse:.6g} "
        f"(initial {result.initial_test_rmse:.6g}), {result.matvecs} matvecs, "
        f"{elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


def cmd_gp_train(args) -> int:
    _check_training_args(args)
    started = time.perf_counter()
    x, y = load_gp_data(args.train)
    spread = float(np.std(y)) or 1.0
    width = float(np.ptp(x)) or 1.0
    theta0 = np.array([0.3 * spread, spread, 0.25 * width])
    gp = GPProblem(x, y, theta0)
    cfg = SGDConfig(T=args.epochs * args.inner_iters, M=args.M, N=args.N,
                    master_seed=args.seed, step_rule="exp_decay",
                    step0=args.step, decay=args.step_decay)
    result = gp_train(gp, cfg)
    # the exact NLL exists at the checkpoints only; iterate k follows record k - 1
    rows = zip([k - 1 for k in result.nll_iters[1:]], result.nll_curve[1:])
    _write_training_outputs(args.out, result.records, rows, result.theta)
    elapsed = time.perf_counter() - started
    print(
        f"sgd: NLL {result.nll_curve[-1]:.6g} (initial {result.nll_curve[0]:.6g}), "
        f"hyperparameters {np.array2string(result.theta, precision=4)}, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return 0


_COMMANDS = {
    "variance-bench": cmd_variance_bench,
    "estimate": cmd_estimate,
    "mc-train": cmd_mc_train,
    "gp-train": cmd_gp_train,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.seed < 0:  # NumPy's SeedSequence takes non-negative ints only
            raise ParameterError(f"--seed must be non-negative, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (NumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ParameterError, SpectralChebError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
