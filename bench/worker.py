"""One repetition of a workload in a fresh process.

    python3 bench/worker.py --workload NAME --inputs DIR --seed REP_SEED \
        [--trace 0|1] [--setup-only]

Times ``import spectral_cheb`` plus the input load (set-up), then the
compute phase, and prints one JSON line: set-up and solve seconds, the
per-step latencies, the peak resident set, the outputs the benchmark
checks, a fingerprint of every output bit, and (with ``--trace 1``) the
per-layer metrics.  The calls are the ones the README CLI commands make.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402  (sibling module; numpy-free at import)


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return digest.hexdigest()


def _step_ms(records) -> list[float]:
    stamps = [0.0] + [rec.wallclock_ms for rec in records]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def setup_mc(sc, inputs: Path, seed: int):
    """Everything `mc-train` does before completion_train."""
    import numpy as np

    ratings = sc.ratings_from_files(inputs / "ratings.csv", None, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    theta0 = rng.uniform(0.0, 5.0, size=(ratings.d_users, ratings.d_items))
    epsilon = 1e-2 * float(ratings.ratings.mean()) ** 2
    problem = sc.CompletionProblem(theta0, epsilon=epsilon, lam=wl.MC_FLAGS["lam"])
    f = wl.MC_FLAGS
    cfg = sc.SVRGConfig(S=f["epochs"], T=f["inner_iters"], eta=f["step"], M=f["M"],
                        N=f["N"], master_seed=seed)
    return problem, ratings, cfg


def solve_mc(sc, problem, ratings, cfg) -> dict:
    import numpy as np

    started = time.perf_counter()
    result = sc.completion_train(problem, ratings, cfg, optimizer="svrg", dist_kind="opt",
                                 svd_rank=wl.MC_FLAGS["rank"])
    solve_s = time.perf_counter() - started
    ok = bool(np.isfinite(result.test_rmse) and result.test_rmse < result.initial_test_rmse)
    estimates = np.array([rec.objective_estimate for rec in result.records])
    return {
        "solve_s": solve_s,
        "steps_ms": _step_ms(result.records),
        "ok": ok,
        "outputs": {"test_rmse": result.test_rmse,
                    "initial_test_rmse": result.initial_test_rmse,
                    "max_degree": max(rec.degree for rec in result.records),
                    "matvecs": result.matvecs},
        "fingerprint": _fingerprint(result.theta, result.theta_raw, estimates,
                                    result.test_rmse),
        "theta": result.theta,
    }


def setup_gp(sc, inputs: Path, seed: int):
    """Everything `gp-train` does before gp_train."""
    import numpy as np

    x, y = sc.load_gp_data(inputs / "gp.csv")
    spread = float(np.std(y)) or 1.0
    width = float(np.ptp(x)) or 1.0
    gp = sc.GPProblem(x, y, np.array([0.3 * spread, spread, 0.25 * width]))
    f = wl.GP_FLAGS
    cfg = sc.SGDConfig(T=f["T"], M=f["M"], N=f["N"], master_seed=seed,
                       step_rule="exp_decay", step0=f["step"], decay=f["decay"])
    return gp, cfg


def solve_gp(sc, gp, cfg) -> dict:
    import numpy as np

    theta0 = gp.theta.copy()
    started = time.perf_counter()
    result = sc.gp_train(gp, cfg, log_halfwidth=wl.GP_LOG_HALFWIDTH)
    solve_s = time.perf_counter() - started
    lo = np.exp(np.log(theta0) - wl.GP_LOG_HALFWIDTH)
    hi = np.exp(np.log(theta0) + wl.GP_LOG_HALFWIDTH)
    ok = bool(np.all(np.isfinite(result.theta)) and np.all(result.theta >= lo)
              and np.all(result.theta <= hi))
    estimates = np.array([rec.objective_estimate for rec in result.records])
    return {
        "solve_s": solve_s,
        "steps_ms": _step_ms(result.records),
        "ok": ok,
        "outputs": {"theta": result.theta.tolist(),
                    "initial_nll": float(result.nll_curve[0]),
                    "final_nll": float(result.nll_curve[-1]),
                    "max_degree": max(rec.degree for rec in result.records)},
        "fingerprint": _fingerprint(result.theta, result.nll_curve, estimates),
        "theta": result.theta,
    }


def mc_heldout_rmse(inputs: Path, ratings, theta) -> float:
    """RMSE of the completed matrix over every ground-truth entry outside
    the training split (the program's own test split holds ~36)."""
    import numpy as np

    truth = np.loadtxt(inputs / "truth.txt")
    if theta.shape != truth.shape:
        return math.nan
    held = np.ones(truth.shape, dtype=bool)
    users, items, _ = ratings.split(train=True)
    held[users, items] = False
    resid = theta[held] - truth[held]
    return float(np.sqrt(np.mean(resid * resid)))


def gp_heldout_rmse(inputs: Path, gp, theta) -> float:
    """RMSE of the posterior mean under the learned hyperparameters on
    the held-out posterior draws."""
    import numpy as np

    test = np.loadtxt(inputs / "gp_test.csv", delimiter=",", ndmin=2)
    pred = wl.gp_predict(gp.x[:, 0], gp.y, theta, test[:, 0])
    resid = pred - test[:, 1]
    return float(np.sqrt(np.mean(resid * resid)))


def solve_logdet(sc, inputs: Path, seed: int) -> dict:
    shifts = wl.logdet_shifts()
    exact = [wl.exact_logdet(sigma) for sigma in shifts]
    steps_ms, printed, rel_errors, failed = [], [], [], 0
    started = time.perf_counter()
    for step, sigma in enumerate(shifts):
        argv = wl.estimate_argv(inputs / f"shift{step:02d}.mtx", sigma, wl.step_seed(seed, step))
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sc.cli.main(argv)
        except Exception:  # a step that raises counts as failed; the sweep goes on
            code = traceback.format_exc()
        steps_ms.append((time.perf_counter() - t0) * 1e3)
        text = out.getvalue().strip()
        printed.append(text)
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        rel = (value - exact[step]) / abs(exact[step])
        rel_errors.append(rel)
        if code != 0 or not abs(rel) <= wl.LOGDET_REL_TOL:
            failed += 1
            print(f"step {step} (sigma={sigma!r}) exit {code}, estimate {text!r}, "
                  f"exact {exact[step]!r}: {err.getvalue().strip()}", file=sys.stderr)
    solve_s = time.perf_counter() - started
    finite = [r for r in rel_errors if math.isfinite(r)]
    rms = math.sqrt(sum(r * r for r in finite) / len(finite)) if finite else math.nan
    return {
        "solve_s": solve_s,
        "steps_ms": steps_ms,
        "ok": failed == 0,
        "failed_steps": failed,
        "test_rmse": rms,
        "outputs": {"estimates": printed, "max_abs_rel_err": max(map(abs, rel_errors))},
        "fingerprint": _fingerprint(*printed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WHY))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import spectral_cheb as sc

    if args.workload == "logdet-sparse":
        import spectral_cheb.cli  # noqa: F401  (the estimate steps go through cli.main)
    import_s = time.perf_counter() - started
    if args.workload == "mc-svrg":
        loaded = setup_mc(sc, args.inputs, wl.PROGRAM_SEED[args.workload])
    elif args.workload == "gp-sgd-512":
        loaded = setup_gp(sc, args.inputs, wl.PROGRAM_SEED[args.workload])
    else:
        loaded = None  # each estimate call loads its own matrix
    setup_s = time.perf_counter() - started
    report = {"import_s": import_s, "setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if args.workload == "mc-svrg":
            out = solve_mc(sc, *loaded)
        elif args.workload == "gp-sgd-512":
            out = solve_gp(sc, *loaded)
        else:
            out = solve_logdet(sc, args.inputs, args.seed)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.metrics()
        theta = out.pop("theta", None)
        if args.workload == "mc-svrg":
            out["test_rmse"] = mc_heldout_rmse(args.inputs, loaded[1], theta)
        elif args.workload == "gp-sgd-512":
            out["test_rmse"] = gp_heldout_rmse(args.inputs, loaded[0], theta)
        report.update(out)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
