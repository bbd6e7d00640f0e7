"""Outside-in benchmark of spectral-cheb.

    python3 bench/run.py --workload {mc-svrg,gp-sgd-512,logdet-sparse} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Inputs are generated from ``--seed`` before any
timing (see workloads.py, which also records why each workload was
chosen) and the program receives only the generated files.  Each
repetition runs in a fresh ``worker.py`` process, as many at once as
keep every CPU busy (see ``THREADS`` in workloads.py), a new one starting
as soon as one ends; repetitions start until ``--seconds`` have passed
(at least ``MIN_REPS``), and the metrics are medians over them.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every repetition runs twice, untraced and traced, the two
must agree bit for bit, and the last line carries the per-layer
metrics.  Earlier stdout lines record the machine and every repetition.
Runs use no CPU pinning and no frequency or cache control.

End-to-end metrics:
  setup_s       median over fresh processes of `import spectral_cheb` plus
                the input load through the public loaders (logdet-sparse:
                the import, with `spectral_cheb.cli`, only)
  solve_s       median wall time of the training call / the 12-call sweep
  step_p50_ms   median step over all repetitions; a step is one optimizer
                iteration or one `estimate` call
  step_tail_ms  median over repetitions of each one's TAIL_PERCENTILE step
                (logdet-sparse: of the steps of all repetitions); the
                details line states the percentile and the step count
  peak_rss_mb   median peak resident set of the worker processes
  test_rmse     held-out error, root mean square over repetitions:
                mc-svrg: completed matrix against every ground-truth entry
                outside the training split; gp-sgd-512: posterior mean under
                the learned hyperparameters against held-out posterior
                draws; logdet-sparse: relative error of each estimate
                against the closed form
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "spectral_cheb" / "__init__.py"

# fewest repetitions per run; logdet-sparse needs more for its tail
MIN_REPS = {"mc-svrg": 4, "gp-sgd-512": 4, "logdet-sparse": 6}
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 165.0  # no repetition starts that could end after this
CALIBRATION_LOOP = 2_000_000
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_WORKERS = 4  # repetitions at once at most, to bound memory (~170 MB each)
POLL_S = 0.05  # how long to wait on one running worker before checking the next

STEPS_PER_REP = {"mc-svrg": 400, "gp-sgd-512": 100, "logdet-sparse": 12}
# step_tail_ms: the highest whole percentile with at least ten steps
# beyond it, taken in each repetition and the median reported; a
# repetition of fewer than TAIL_MIN_STEPS steps (logdet-sparse's 12) is
# too short, so there the percentile is taken over the steps of all
# repetitions, at least MIN_REPS of them.  Per repetition, the ten-run
# spread of gp-sgd-512's tail was about half that of pooled steps.
TAIL_MIN_STEPS = 100
TAIL_POOLED = {name: steps < TAIL_MIN_STEPS for name, steps in STEPS_PER_REP.items()}
TAIL_PERCENTILE = {
    name: math.floor(100.0 * (1.0 - 10.0 / (steps * MIN_REPS[name] if TAIL_POOLED[name]
                                            else steps)))
    for name, steps in STEPS_PER_REP.items()
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "test_rmse": "1",
}


def machine_info(env: dict, width: int) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    started = time.perf_counter()
    sum(i * i % 7 for i in range(CALIBRATION_LOOP))
    calibration_s = time.perf_counter() - started
    threads = {k: env.get(k, "unset") for k in ("SPECTRAL_CHEB_THREADS", *BLAS_THREADS)}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "worker_threads": threads,
        "workers_at_once": width,
        f"calibration_s ({CALIBRATION_LOOP:,}-step pure-Python loop)": calibration_s,
        "control": "no CPU pinning, no frequency or cache control",
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def prepare_inputs(workload: str, rep_seed: int, work: Path, wl) -> Path:
    inputs = work / f"rep{rep_seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "mc-svrg":
        wl.write_ratings(inputs, rep_seed)
    elif workload == "gp-sgd-512":
        wl.write_gp(inputs, rep_seed)
    else:
        shared = work / "matrices"
        if not shared.exists():
            shared.mkdir()
            for step, sigma in enumerate(wl.logdet_shifts()):
                wl.write_shifted_laplacian(shared / f"shift{step:02d}.mtx", sigma)
        return shared
    return inputs


class Worker:
    """One running ``worker.py`` process."""

    def __init__(self, cmd: list[str], env: dict, ends_at: float, seed: int, trace: int):
        self.cmd, self.ends_at, self.seed, self.trace = cmd, ends_at, seed, trace
        self.result: dict | None = None
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def done(self, wait: float) -> bool:
        """Whether the worker has ended, waiting up to ``wait`` seconds.
        Once it has, ``result`` holds its output, None if it failed."""
        try:
            out, err = self.proc.communicate(timeout=wait)
        except subprocess.TimeoutExpired:
            if time.monotonic() < self.ends_at:
                return False
            self.stop()
            print(f"worker timed out: {' '.join(self.cmd)}", file=sys.stderr)
            return True
        wall = time.monotonic() - self.started
        if err:
            sys.stderr.write(err)
        if self.proc.returncode != 0:
            print(f"worker exited {self.proc.returncode}: {' '.join(self.cmd)}", file=sys.stderr)
            return True
        try:
            self.result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"worker printed no result: {' '.join(self.cmd)}", file=sys.stderr)
            return True
        self.result["seed"], self.result["wall_s"] = self.seed, wall
        return True

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Runner:
    def __init__(self, workload: str, threads: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ)
        for key in ("SPECTRAL_CHEB_THREADS", *BLAS_THREADS):
            self.env[key] = str(threads)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def start(self, inputs: Path, seed: int, trace: int = 0,
              setup_only: bool = False) -> Worker:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--inputs", str(inputs), "--seed", str(seed), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        return Worker(cmd, self.env, self.deadline + 10.0, seed, trace)

    def stream(self, jobs, width: int):
        """Run the jobs, each a tuple of ``start`` arguments, ``width`` at a
        time, starting the next as soon as one ends, and yield each worker
        as it ends.  ``jobs`` is read only when a slot is free, so it can
        decide then whether to go on.  Close the generator to stop what
        still runs."""
        running = []
        jobs = iter(jobs)
        try:
            while True:
                while len(running) < width and (job := next(jobs, None)) is not None:
                    running.append(self.start(*job))
                if not running:
                    return
                for worker in list(running):
                    if worker.done(POLL_S):
                        running.remove(worker)
                        yield worker
        finally:
            for worker in running:
                worker.stop()

    def worker(self, inputs: Path, seed: int, trace: int = 0,
               setup_only: bool = False) -> dict | None:
        """Run one worker and return its result, None if it failed."""
        [worker] = self.stream([(inputs, seed, trace, setup_only)], 1)
        return worker.result

    def import_times(self) -> dict:
        """Cumulative `-X importtime` of the package and of degree_dist."""
        samples = {"spectral_cheb": [], "spectral_cheb.degree_dist": []}
        for _ in range(IMPORTTIME_SAMPLES):
            done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import spectral_cheb"], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            for line in done.stderr.splitlines():
                fields = [f.strip() for f in line.split("|")]
                if len(fields) == 3 and fields[2] in samples:
                    samples[fields[2]].append(int(fields[1]) / 1e3)
        return {
            "spectral_cheb.import_ms": statistics.median(samples["spectral_cheb"]),
            "degree_dist.import_ms": statistics.median(samples["spectral_cheb.degree_dist"]),
        }


def tail_ms(steps: list[float], percentile: int) -> float:
    ordered = sorted(steps)
    rank = percentile / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: the running workers are killed and
    # reaped, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not PACKAGE.is_file():
        print(f"spectral_cheb sources not found at {PACKAGE.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WHY:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WHY)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, wl, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, wl, work: Path, deadline: float) -> int:
    workload = args.workload
    threads = wl.THREADS[workload]
    runner = Runner(workload, threads, deadline)
    # enough repetitions at once to keep every CPU busy (see workloads.THREADS)
    width = max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0)) // threads))
    print(json.dumps({"machine": machine_info(runner.env, width)}))

    first = prepare_inputs(workload, wl.rep_seed(args.seed, 0), work, wl)
    runner.worker(first, wl.rep_seed(args.seed, 0), setup_only=True)  # warm caches

    min_reps = MIN_REPS[workload]
    measure_start = time.monotonic()
    ticks_start = cpu_ticks()
    walls = []

    def jobs():
        rep = 0
        while rep < min_reps or time.monotonic() - measure_start < args.seconds:
            slowest = max(walls, default=0.0) * (2 if args.trace else 1)
            if rep >= min_reps and time.monotonic() + 1.5 * slowest > deadline:
                return
            seed = wl.rep_seed(args.seed, rep)
            inputs = prepare_inputs(workload, seed, work, wl)
            yield inputs, seed, 0
            if args.trace:
                yield inputs, seed, 1
            rep += 1

    steps_per_rep = STEPS_PER_REP[workload]
    plain, traced, attempted, failed = {}, {}, 0, 0
    with contextlib.closing(runner.stream(jobs(), width)) as ended:
        for worker in ended:
            attempted += steps_per_rep
            result = worker.result
            if result is None:
                failed += steps_per_rep
                continue
            failed += result.get("failed_steps", 0 if result["ok"] else steps_per_rep)
            (traced if worker.trace else plain)[worker.seed] = result
            if not worker.trace:
                walls.append(result["wall_s"])
    reps = [plain[seed] for seed in sorted(plain)]
    mismatches = [seed for seed, t in sorted(traced.items())
                  if seed not in plain or t["fingerprint"] != plain[seed]["fingerprint"]]
    traced = [traced[seed] for seed in sorted(traced)]

    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        extra = runner.worker(first, wl.rep_seed(args.seed, 0), setup_only=True)
        if extra is None:
            break
        setups.append(extra["setup_s"])

    ticks_end = cpu_ticks()
    steal_share = None
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        steal_share = (ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1])
    steps = [s for r in reps for s in r["steps_ms"]]
    percentile = TAIL_PERCENTILE[workload]
    details = {
        "workload": workload,
        "why": wl.WHY[workload],
        "seed": args.seed,
        "repetitions": [
            {k: r[k] for k in ("seed", "setup_s", "solve_s", "peak_rss_mb", "test_rmse",
                               "ok", "outputs", "fingerprint")}
            for r in reps
        ],
        "setup_samples_s": setups,
        # share of the machine's CPU time the hypervisor stole during the
        # repetitions; bursts of ~14% slowed every timing by up to a third
        "steal_share": steal_share,
        "step_tail": (f"p{percentile} of {len(steps)} steps" if TAIL_POOLED[workload] else
                      f"median over {len(reps)} repetitions of p{percentile} of "
                      f"{STEPS_PER_REP[workload]} steps"),
        # a known defect kept in view: SGD can end the GP at a higher NLL
        # than it started from
        "final_nll_above_initial": [r["seed"] for r in reps
                                    if r["outputs"].get("final_nll", 0)
                                    > r["outputs"].get("initial_nll", 0)],
        "trace_mismatch_seeds": mismatches,
    }
    print(json.dumps({"details": details}))

    correct = bool(reps) and failed == 0 and not mismatches
    if args.trace:
        layers = {}
        if traced:
            for name in traced[0]["layers"]:
                layers[name] = statistics.median(t["layers"][name] for t in traced)
        layers.update(runner.import_times())
        nll = [t["outputs"] for t in traced if "initial_nll" in t["outputs"]]
        for key in ("initial_nll", "final_nll"):
            layers[f"tasks.{key}"] = statistics.median(o[key] for o in nll) if nll else 0.0
        if traced and reps:
            layers["trace.overhead_s"] = (median_of(traced, "solve_s")
                                          - median_of(reps, "solve_s"))
        else:
            layers["trace.overhead_s"] = 0.0
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in sorted(layers.items())}
        correct = correct and set(metrics) == set(LAYER_UNITS)
    else:
        values = {}
        if reps and steps and setups:
            values = {
                "setup_s": statistics.median(setups),
                "solve_s": median_of(reps, "solve_s"),
                "step_p50_ms": statistics.median(steps),
                "step_tail_ms": (tail_ms(steps, percentile) if TAIL_POOLED[workload] else
                                 statistics.median(tail_ms(r["steps_ms"], percentile)
                                                   for r in reps)),
                "peak_rss_mb": median_of(reps, "peak_rss_mb"),
                # pooled over repetitions: root of the mean squared error
                "test_rmse": math.sqrt(statistics.fmean(r["test_rmse"] ** 2 for r in reps)),
            }
        correct = correct and len(values) == len(END_TO_END_UNITS) and all(
            math.isfinite(v) and v > 0 for v in values.values())
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "spectral_cheb.import_ms": "ms",
    "degree_dist.import_ms": "ms",
    "chebyshev.coeff_calls": "count",
    "chebyshev.coeff_ms": "ms",
    "chebyshev.coeff_nodes": "count",
    "degree_dist.reweight_ms": "ms",
    "degree_dist.sample_ms": "ms",
    "degree_dist.build_ms": "ms",
    "degree_dist.degrees_drawn": "count",
    "degree_dist.max_degree": "degree",
    "probes.probe_streams": "count",
    "probes.probe_gen_ms": "ms",
    "probes.recurrence_ms": "ms",
    "probes.matvec_cols": "count",
    "probes.matvec_ms": "ms",
    "probes.ms_per_matvec_col": "ms/col",
    "probes.matvec_bytes_computed": "B",
    "probes.power_ms": "ms",
    "probes.load_ms": "ms",
    "grad_est.lowrank_self_ms": "ms",
    "grad_est.lowrank_cols": "count",
    "grad_est.generic_self_ms": "ms",
    "grad_est.a_cols": "count",
    "grad_est.partial_cols": "count",
    "optimize.objective_log_ms": "ms",
    "optimize.objective_log_cols": "count",
    "optimize.refresh_calls": "count",
    "optimize.refresh_ms": "ms",
    "optimize.overhead_ms": "ms",
    "tasks.cg_calls": "count",
    "tasks.cg_iters": "count",
    "tasks.cg_ms": "ms",
    "tasks.data_term_ms": "ms",
    "tasks.kernel_ms": "ms",
    "tasks.nll_curve_ms": "ms",
    "tasks.oracle_build_ms": "ms",
    "tasks.initial_nll": "nat",
    "tasks.final_nll": "nat",
    "reference.anchor_grad_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


if __name__ == "__main__":
    sys.exit(main())
