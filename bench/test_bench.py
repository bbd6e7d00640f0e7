"""Checks of the benchmark itself: run with ``python3 -m pytest bench -q``.

Not part of the package's test suite (``testpaths`` is ``tests``); the
trace and CLI checks run each workload once or twice, about 75 s in all
on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import worker
import workloads as wl

ROOT = run.ROOT
WORKLOADS = sorted(wl.WHY)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == wl.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert spec["command"] == ["python3", "bench/run.py"]


def test_ratings_generator_reproduces_the_fixture(tmp_path):
    wl.write_ratings(tmp_path, None)
    assert (tmp_path / "ratings.csv").read_bytes() == (
        ROOT / "data" / "synthetic_ratings.csv").read_bytes()
    from spectral_cheb import ratings_from_files

    ratings = ratings_from_files(tmp_path / "ratings.csv")
    truth = np.loadtxt(tmp_path / "truth.txt")
    np.testing.assert_array_equal(truth[ratings.users, ratings.items], ratings.ratings)


def test_gp_held_out_points_follow_the_posterior(tmp_path):
    wl.write_gp(tmp_path, 7)
    data = np.loadtxt(tmp_path / "gp.csv", delimiter=",")
    test = np.loadtxt(tmp_path / "gp_test.csv", delimiter=",")
    pred = wl.gp_predict(data[:, 0], data[:, 1], wl.GP_TRUE_THETA, test[:, 0])
    # residuals of draws from the posterior: noise plus posterior spread
    rmse = float(np.sqrt(np.mean((pred - test[:, 1]) ** 2)))
    assert 0.2 < rmse < 0.45


def test_closed_form_logdet_matches_the_written_matrix(tmp_path):
    from spectral_cheb import load_matrix

    grid, sigma = 7, 0.05
    path = tmp_path / "small.mtx"
    wl.write_shifted_laplacian(path, sigma, grid=grid)
    dense = load_matrix(path).toarray()
    exact = float(np.sum(np.log(np.linalg.eigvalsh(dense))))
    assert wl.exact_logdet(sigma, grid=grid) == pytest.approx(exact, rel=1e-12)
    assert np.linalg.eigvalsh(dense).max() < sigma + 8.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_bit_identical(workload, tmp_path):
    runner = run.Runner(workload, wl.THREADS[workload], time.monotonic() + run.DEADLINE_S)
    seed = 2024
    inputs = run.prepare_inputs(workload, seed, tmp_path, wl)
    plain = runner.worker(inputs, seed)
    traced = runner.worker(inputs, seed, trace=1)
    assert plain["ok"] and traced["ok"]
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["outputs"] == plain["outputs"]
    assert set(traced["layers"]) | {"spectral_cheb.import_ms", "degree_dist.import_ms",
                                    "tasks.initial_nll", "tasks.final_nll",
                                    "trace.overhead_s"} == set(run.LAYER_UNITS)


CLI_FLAGS = {
    "mc-svrg": ["mc-train", "--optimizer", "svrg", "--epochs", "8", "--inner-iters", "50",
                "--step", "0.06", "--M", "64", "--N", "15"],
    "gp-sgd-512": ["gp-train", "--epochs", "1", "--inner-iters", "100", "--step", "3e-4",
                   "--M", "16", "--N", "15"],
}


@pytest.mark.parametrize("workload", sorted(CLI_FLAGS))
def test_workload_reproduces_the_cli(workload, tmp_path):
    import spectral_cheb as sc
    from spectral_cheb import cli

    seed = 2025
    inputs = run.prepare_inputs(workload, seed, tmp_path, wl)
    if workload == "mc-svrg":
        out = worker.solve_mc(sc, *worker.setup_mc(sc, inputs, seed))
        data = inputs / "ratings.csv"
    else:
        out = worker.solve_gp(sc, *worker.setup_gp(sc, inputs, seed))
        data = inputs / "gp.csv"
    csv = tmp_path / "out.csv"
    argv = CLI_FLAGS[workload] + ["--train", str(data), "--seed", str(seed), "--out", str(csv)]
    assert cli.main(argv) == 0
    np.testing.assert_array_equal(np.loadtxt(csv.with_suffix(".theta.txt")), out["theta"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-svrg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
