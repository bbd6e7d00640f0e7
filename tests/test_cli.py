"""Tests for the command-line surface."""

import math
import re
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from helpers import mp_coefficients, mp_variances
from spectral_cheb._variance_bench import SERIES_DEGREE, log_abs_coefficients
from spectral_cheb.chebyshev import Interval
from spectral_cheb.cli import BENCH_SWEEP, build_parser, main
from spectral_cheb.degree_dist import make_degree_distribution, optimal_distribution, sample_degree
from spectral_cheb.exceptions import ParameterError
from spectral_cheb.probes import degree_rng

FIXTURE_RATINGS = "data/synthetic_ratings.csv"
FIXTURE_GP = "data/synthetic_gp.csv"

RHO_LOG = "1.595433215948964"


def run_cli(args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "spectral_cheb.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def write_identity(tmp_path, dim=5):
    path = tmp_path / "identity.txt"
    rows = [" ".join("1" if i == j else "0" for j in range(dim)) for i in range(dim)]
    path.write_text("\n".join(rows) + "\n")
    return path


def write_shifted_grid_laplacian(tmp_path, sigma, side=20):
    """MatrixMarket file of the side x side grid Laplacian plus sigma I."""
    import scipy.io
    import scipy.sparse

    path = tmp_path / f"laplacian_{sigma}.mtx"
    line = scipy.sparse.diags([-np.ones(side - 1), 2.0 * np.ones(side), -np.ones(side - 1)],
                              [-1, 0, 1])
    matrix = scipy.sparse.kronsum(line, line) + sigma * scipy.sparse.identity(side * side)
    scipy.io.mmwrite(str(path), scipy.sparse.csr_matrix(matrix))
    return path


class TestVarianceBench:
    def test_missing_rho_for_opt_is_config_error(self, tmp_path):
        code = main(["variance-bench", "--func", "log", "--out", str(tmp_path / "v.csv")])
        assert code == 1

    @pytest.mark.parametrize("bound", [["--a", "0.2"], ["--b", "0.9"]])
    def test_half_given_interval_is_config_error(self, tmp_path, bound):
        out = tmp_path / "v.csv"
        code = main(["variance-bench", "--func", "log", *bound, "--rho", "1.5", "--N", "5",
                     "--dist", "opt", "--out", str(out)])
        assert code == 1 and not out.exists()

    @pytest.mark.parametrize("degree", ["0", "-3"])
    def test_degree_below_one_is_config_error(self, tmp_path, capsys, degree):
        out = tmp_path / "v.csv"
        code = main(["variance-bench", "--func", "exp", "--rho", "4.0", "--N", degree,
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"--N must be at least 1, got {degree}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--rho", "0.5"], "rho must be > 1, got 0.5"),
        (["--rho", "1.0"], "rho must be > 1, got 1.0"),
        (["--rho", "2.0", "--dist", "neg(0.5)"], "shape parameter must be >= 1, got 0.5"),
        (["--rho", "inf"], "rho must be finite, got inf"),
        (["--rho", "2.0", "--dist", "neg(inf)"], "shape parameter r must be finite, got inf"),
    ])
    def test_invalid_distribution_is_config_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "v.csv"
        code = main(["variance-bench", "--func", "log", "--N", "5", *flags, "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("fname, rho", [("log", "1.5954"), ("sqrt", "1.5954"),
                                            ("exp", "4.0")])
    def test_default_sweep_matches_mp_reference(self, tmp_path, fname, rho):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", fname, "--rho", rho, "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        dists = [make_degree_distribution(dist, int(n), rho=float(rho)) for _, dist, n, _ in rows]
        interval = Interval(-1.0, 1.0) if fname == "exp" else Interval(0.05, 0.95)
        divergent = set()
        with mp.workdps(30):
            for (_, dist, n, text), want in zip(rows, mp_variances(fname, None, interval, dists)):
                if text == "inf":
                    divergent.add((dist, int(n)))
                    continue
                # the optimal law's rows, summed from its closed-form tail, to
                # 1e-13, or to 8 ulps of ln V where a row printed from its log
                # |ln V| cannot carry more (exp past N = 35), never looser
                # than the 1e-12 every other row keeps
                tol = 1e-12
                if dist == "opt":
                    tol = min(1e-12, max(1e-13, 8 * np.finfo(float).eps
                                         * abs(float(mp.log(want)))))
                assert abs(mp.mpf(text) / want - 1) < tol, (dist, n, text)
                # spelled as mp.nstr spells the reference: its exponent,
                # 17 significant digits at most, no trailing zero
                spelled = mp.nstr(want, 17, min_fixed=1, max_fixed=0)
                assert text.partition("e")[1:] == spelled.partition("e")[1:]
                assert re.fullmatch(r"[1-9]\.(\d{0,15}[1-9]|0)(e[+-]\d+)?", text)
        # c rho_f^2 <= 1, with rho_f^2 = 2.545: Poisson (c = 0) and neg(10)
        # at N = 5 (c = 1/3); det has no mass past N
        want = {("det", n) for n in BENCH_SWEEP}
        if fname != "exp":
            want |= {("pois", n) for n in BENCH_SWEEP} | {("neg(10)", 5)}
        assert divergent == want

    def test_optimal_rows_past_underflow_match_mp_reference(self, tmp_path):
        # at rho = 1e5 the optimal law's masses leave the double range by
        # degree 62, and exp's b_220 is ~1e-493: 600 digits resolve it,
        # where the default 380 leave rounding residue
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "exp", "--rho", "1e5", "--dist", "opt",
                     "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        dists = [optimal_distribution(1e5, int(n)) for _, _, n, _ in rows]
        wants = mp_variances("exp", None, Interval(-1.0, 1.0), dists, dps=600)
        with mp.workdps(30):
            for (_, _, n, text), want in zip(rows, wants):
                assert abs(mp.mpf(text) / want - 1) < 1e-12, (n, text)

    @pytest.mark.parametrize("rho", ["1e154", "2e154"])
    def test_optimal_row_at_huge_rho_matches_mp_reference(self, tmp_path, rho):
        # the optimal law's rho^-2 underflows past rho ~ 6.7e153 and its
        # (rho - 1)^2 overflows past ~1.34e154; the row's log is ~7.4e4,
        # whose last bit alone is ~1.5e-11 of the value
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "exp", "--rho", rho, "--dist", "opt",
                     "--N", "5", "--out", str(out)]) == 0
        (row,) = out.read_text().strip().split("\n")[1:]
        (want,) = mp_variances("exp", None, Interval(-1.0, 1.0),
                               [optimal_distribution(float(rho), 5)], dps=600)
        with mp.workdps(30):
            assert abs(mp.mpf(row.split(",")[3]) / want - 1) < 1e-10

    @pytest.mark.parametrize("fname, a, b, dps", [
        ("log", 0.05, 0.95, 70), ("log", 0.01, 10.0, 30),
        ("sqrt", 0.05, 0.95, 70), ("sqrt", 0.01, 10.0, 30), ("exp", -1.0, 2.0, 480),
    ])
    def test_closed_form_coefficients_match_mp_quadrature(self, fname, a, b, dps):
        # dps resolves b_220 to 1e-13 or better; on [0.01, 10] (rho_f = 1.065)
        # the alternating binomial sum of sqrt cancels the most
        interval = Interval(a, b)
        got = log_abs_coefficients(fname, None, interval, SERIES_DEGREE)
        want = mp_coefficients(fname, None, interval, SERIES_DEGREE, dps)[1:]
        with mp.workdps(dps):
            assert max(abs(g - float(mp.log(abs(w)))) for g, w in zip(got, want)) < 1e-12

    @pytest.mark.parametrize("flags, inf_at", [
        # Poisson's survival falls faster than any geometric
        (["--func", "log", "--dist", "pois"], BENCH_SWEEP),
        (["--func", "sqrt", "--dist", "pois"], BENCH_SWEEP),
        # c rho_f^2 = 0.848 at N = 5 and 1.27 at N = 10
        (["--func", "log", "--dist", "neg(10)"], (5,)),
        (["--func", "sqrt", "--dist", "neg(10)"], (5,)),
        # c rho_f^2 = 2.545 / 3
        (["--func", "log", "--rho", "3", "--dist", "opt"], BENCH_SWEEP),
        # exp is entire
        (["--func", "exp", "--dist", "pois"], ()),
    ], ids=["log-pois", "sqrt-pois", "log-neg10", "sqrt-neg10", "log-opt-rho3", "exp-pois"])
    def test_rows_are_inf_where_the_series_diverges(self, tmp_path, flags, inf_at):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", *flags, "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        assert [int(n) for *_, n, _ in rows] == list(BENCH_SWEEP)
        assert [int(n) for *_, n, text in rows if text == "inf"] == list(inf_at)
        assert all(mp.mpf(text) > 0 for *_, text in rows)

    @pytest.mark.parametrize("mean_n, want", [("5", {"opt": "0.0", "det": "0.0"}),
                                              ("1", {"det": "inf"})])
    def test_polynomial_rows_exact(self, tmp_path, mean_n, want):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "poly:1,0.5,0.25", "--a", "0.1", "--b", "2",
                     "--rho", "2", "--N", mean_n, "--out", str(out)]) == 0
        rows = dict(row.split(",")[1::2] for row in out.read_text().strip().split("\n")[1:])
        assert {dist: rows[dist] for dist in want} == want

    @pytest.mark.parametrize("fname, a, b", [("log", "0", "1"), ("sqrt", "-1", "1")])
    def test_interval_through_singularity_is_config_error(self, tmp_path, capsys, fname, a, b):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", fname, "--a", a, "--b", b, "--rho", "2",
                     "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "configuration error: interval must be strictly positive\n"

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["variance-bench", "--func", "exp", "--rho", "4.0", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_det_rows_inf_for_nonpolynomial(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "log", "--rho", RHO_LOG,
                     "--dist", "det", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[-1] == "inf" for row in rows)

    @pytest.mark.parametrize("spec, label", [("neg", "neg(5)"), ("neg(2.50)", "neg(2.5)"),
                                             (" pois ", "pois")])
    def test_row_label_spells_the_distribution(self, tmp_path, spec, label):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "exp", "--rho", "4.0", "--N", "5",
                     "--dist", spec, "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].split(",")[:3] == ["exp", label, "5"]

    def test_opt_below_baselines(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["variance-bench", "--func", "log", "--rho", RHO_LOG,
                     "--out", str(out)]) == 0
        table = {}
        for row in out.read_text().strip().split("\n")[1:]:
            _, dist, n, val = row.split(",")
            # values reach far below double range; parse in extended precision
            table[(dist, int(n))] = mp.mpf(val)
        for n in range(5, 101, 5):
            assert table[("opt", n)] < table[("pois", n)]
            for r in (2, 5, 10):
                assert table[("opt", n)] < table[(f"neg({r})", n)]


class TestEstimate:
    def test_empty_matrixmarket_is_data_error(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n")
        proc = run_cli(["estimate", str(path), "--func", "log"])
        assert proc.returncode == 2
        assert proc.stderr == f"data error: matrix in {path} is empty\n"

    def test_identity_polynomial_exact(self, tmp_path):
        path = write_identity(tmp_path)
        proc = run_cli(["estimate", str(path), "--func", "poly:0,1", "--a", "0", "--b", "2",
                        "--dist", "det", "--N", "1", "--M", "4", "--seed", "3"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "5.0"
        assert "sampled degree" in proc.stderr

    def test_degenerate_distribution_is_config_error(self, tmp_path, capsys, monkeypatch):
        import spectral_cheb.cli as cli
        from spectral_cheb.exceptions import DegenerateDistributionError

        def degenerate(*args):
            raise DegenerateDistributionError("no degree mass at or above 4")

        monkeypatch.setattr(cli, "estimate_spectral_sum_unbiased", degenerate)
        assert main(["estimate", str(write_identity(tmp_path)), "--func", "exp",
                     "--a", "0", "--b", "2", "--dist", "det", "--N", "3"]) == 1
        assert capsys.readouterr().err == "configuration error: no degree mass at or above 4\n"

    def test_failed_decay_fit_names_its_reason(self, tmp_path):
        # log on [1.5, ~2.2]: the coefficients reach the 1e-14 floor before
        # the fit window starts at degree N
        path = tmp_path / "two.txt"
        path.write_text("\n".join(" ".join("2" if i == j else "0" for j in range(4))
                                  for i in range(4)) + "\n")
        args = ["estimate", str(path), "--func", "log", "--a", "1.5", "--N", "10"]
        proc = run_cli(args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "configuration error: cannot fit the decay parameter rho (fewer than 5 "
            "coefficients above 1e-14 from degree 10; decay rate not resolvable); "
            "give it with --rho\n")
        # the other laws need no rho, and print no bias line without it
        proc = run_cli(args + ["--dist", "pois"])
        assert proc.returncode == 0
        assert "bias bound" not in proc.stderr

    def test_diag_square_with_many_probes(self, tmp_path):
        path = tmp_path / "diag.txt"
        path.write_text("1 0\n0 2\n")
        proc = run_cli(["estimate", str(path), "--func", "poly:0,0,1", "--a", "0", "--b", "2.5",
                        "--dist", "det", "--N", "2", "--probes", "100000", "--seed", "1"])
        assert proc.returncode == 0
        # tr A^2 = 5; single-probe var is small here, 3 sigma band generous
        assert abs(float(proc.stdout.strip()) - 5.0) < 0.2

    def test_fixed_seed_stdout_identical(self, tmp_path):
        path = write_identity(tmp_path, 4)
        args = ["estimate", str(path), "--func", "exp", "--a", "0.5", "--b", "1.5",
                "--rho", "3.0", "--N", "6", "--M", "8", "--seed", "11"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_rho_fitted_on_shifted_laplacian(self, tmp_path, capsys):
        # fast coefficient decay reaches the 1e-14 floor inside the fit window
        path = write_shifted_grid_laplacian(tmp_path, 0.5)
        assert main(["estimate", str(path), "--func", "log", "--a", "0.5", "--N", "30",
                     "--M", "8", "--seed", "2"]) == 0
        out = capsys.readouterr()
        assert math.isfinite(float(out.out))
        assert "rho = 1.6" in out.err
        # U and the bound come from coefficients above the quadrature floor
        match = re.search(r"bias bound: (\S+) \(rho = \S+, U ~ (\S+)\)", out.err)
        assert float(match.group(2)) < 10 and float(match.group(1)) < 1e-2

    def test_resolvable_rho_output_unchanged(self, tmp_path, capsys):
        path = write_shifted_grid_laplacian(tmp_path, 0.05)
        assert main(["estimate", str(path), "--func", "log", "--a", "0.05", "--N", "30",
                     "--M", "8", "--seed", "2"]) == 0
        out = capsys.readouterr()
        assert out.out == "480.38928206226683\n"
        assert out.err == (
            "sampled degree n = 30\nprobes M = 8\n"
            "fixed-degree-30 bias bound: 47.313 (rho = 1.1893, U ~ 1.01553)\n"
        )

    @pytest.mark.parametrize("suffix", [".txt", ".mtx"])
    def test_upper_end_is_the_infinity_norm(self, tmp_path, capsys, monkeypatch, suffix):
        # without --b the interval ends at the largest absolute row sum,
        # a certified bound, and the power method never runs
        import spectral_cheb.cli as cli
        import spectral_cheb.probes as probes

        if suffix == ".txt":
            dense = np.array([[3.0, -1.0, 0.5], [-1.0, 2.0, -2.0], [0.5, -2.0, 4.0]])
            path = tmp_path / "signed.txt"
            np.savetxt(path, dense)
        else:
            path = write_shifted_grid_laplacian(tmp_path, 0.3, side=5)
            import scipy.io

            dense = scipy.io.mmread(str(path)).toarray()
        want = max(math.fsum(abs(x) for x in row) for row in dense)

        def refuse(*args, **kwargs):
            raise AssertionError("estimate called the power method")

        monkeypatch.setattr(probes, "power_method_bound", refuse)
        intervals = []
        build = cli._build_series
        monkeypatch.setattr(cli, "_build_series", lambda name, f, interval, degree: (
            intervals.append(interval) or build(name, f, interval, degree)))
        assert main(["estimate", str(path), "--func", "log", "--a", "0.2", "--rho", "1.5",
                     "--N", "4", "--M", "2"]) == 0
        capsys.readouterr()
        assert intervals == [Interval(0.2, want)]

    def test_infinity_norm_at_the_lower_end_asks_for_b(self, tmp_path, capsys):
        # 2 I with --a 2: the certified upper end leaves a zero-width interval
        path = tmp_path / "two.txt"
        path.write_text("2 0\n0 2\n")
        assert main(["estimate", str(path), "--func", "log", "--a", "2"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("configuration error: the matrix's infinity norm 2.0 does not "
                           "exceed --a 2.0; give the upper end with --b\n")
        assert main(["estimate", str(path), "--func", "log", "--a", "2", "--b", "2.5",
                     "--rho", "3", "--N", "2"]) == 0

    @staticmethod
    def _record_intervals(monkeypatch):
        import spectral_cheb.cli as cli

        intervals = []
        build = cli._build_series
        monkeypatch.setattr(cli, "_build_series", lambda name, f, interval, degree: (
            intervals.append(interval) or build(name, f, interval, degree)))
        return intervals

    @pytest.mark.parametrize("suffix", [".txt", ".mtx"])
    def test_lower_end_is_gershgorins(self, tmp_path, capsys, monkeypatch, suffix):
        # without --a the interval starts at min_i (a_ii - sum_{j != i} |a_ij|)
        if suffix == ".txt":
            dense = np.array([[4.0, -1.0, 0.5], [-1.0, 3.0, -1.0], [0.5, -1.0, 5.0]])
            path = tmp_path / "spd.txt"
            np.savetxt(path, dense)
        else:
            path = write_shifted_grid_laplacian(tmp_path, 0.3, side=5)
            import scipy.io

            dense = scipy.io.mmread(str(path)).toarray()
        want = min(row[i] - math.fsum(abs(x) for j, x in enumerate(row) if j != i)
                   for i, row in enumerate(dense))
        norm = max(math.fsum(abs(x) for x in row) for row in dense)
        intervals = self._record_intervals(monkeypatch)
        assert main(["estimate", str(path), "--func", "log", "--rho", "1.5", "--N", "4",
                     "--M", "2"]) == 0
        capsys.readouterr()
        assert len(intervals) == 1
        assert intervals[0].a == pytest.approx(want, rel=1e-12)
        assert intervals[0].b == norm

    @pytest.mark.parametrize("func", ["log", "sqrt"])
    def test_nonpositive_gershgorin_end_asks_for_a(self, tmp_path, capsys, func):
        # eigenvalues 2 and -0.5; a guessed lower end of 0.01 once printed
        # an estimate of -532.9 here and exited 0
        path = tmp_path / "indefinite.txt"
        path.write_text("0.75 1.25\n1.25 0.75\n")
        assert main(["estimate", str(path), "--func", func]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("configuration error: the matrix's Gershgorin lower end -0.5 is not "
                           f"positive and {func} is singular at 0; give the lower end with --a\n")

    @pytest.mark.parametrize("func", ["exp", "poly:0,1"])
    def test_nonpositive_gershgorin_end_taken_as_it_is(self, tmp_path, capsys, monkeypatch,
                                                       func):
        path = tmp_path / "indefinite.txt"
        path.write_text("0.75 1.25\n1.25 0.75\n")
        intervals = self._record_intervals(monkeypatch)
        assert main(["estimate", str(path), "--func", func, "--rho", "3", "--N", "4",
                     "--M", "2"]) == 0
        assert math.isfinite(float(capsys.readouterr().out))
        assert intervals == [Interval(-0.5, 2.0)]

    def test_gershgorin_end_at_the_infinity_norm_asks_for_b(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text("2 0\n0 2\n")
        assert main(["estimate", str(path), "--func", "log"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("configuration error: the matrix's infinity norm 2.0 does not "
                           "exceed the Gershgorin lower end 2.0; give the upper end with --b\n")

    def test_sparse_estimate_identical_at_one_and_two_threads(self, tmp_path, capsys,
                                                              monkeypatch):
        # d = 1600 with 64 probes: two chunks, each above the inline limit
        path = write_shifted_grid_laplacian(tmp_path, 0.1, side=40)
        outputs = []
        for threads in ("1", "2", "1"):
            monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
            assert main(["estimate", str(path), "--func", "log", "--a", "0.1", "--b", "8.2",
                         "--rho", "1.25", "--N", "20", "--M", "64", "--seed", "5"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("threads", ["abc", "0", "-2"])
    def test_bad_thread_count_is_config_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
        assert main(["estimate", str(write_identity(tmp_path)), "--func", "log", "--a", "0.5",
                     "--b", "2", "--rho", "1.5", "--dist", "det", "--N", "4", "--M", "4"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("configuration error: SPECTRAL_CHEB_THREADS must be an integer "
                           f">= 1, got '{threads}'\n")

    def test_draw_past_provisional_series_extends_it(self, tmp_path, capsys):
        # the series is first built to degree 4N + 120 = 160
        rng = np.random.default_rng(40)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        matrix = (basis * np.geomspace(0.05, 50.0, 40)) @ basis.T
        path = tmp_path / "spd.txt"
        np.savetxt(path, 0.5 * (matrix + matrix.T))
        dist = optimal_distribution(1.0202, 10)
        seed, degree = next((s, n) for s in range(10_000)
                            if (n := sample_degree(dist, degree_rng(s, 0))) > 160)
        assert main(["estimate", str(path), "--a", "0.01", "--b", "100", "--rho", "1.0202",
                     "--N", "10", "--seed", str(seed)]) == 0
        out = capsys.readouterr()
        assert math.isfinite(float(out.out))
        assert f"sampled degree n = {degree}\n" in out.err

    @pytest.mark.parametrize("mean", ["0", "-2"])
    def test_mean_degree_below_one_is_config_error(self, tmp_path, capsys, mean):
        code = main(["estimate", str(write_identity(tmp_path, dim=2)), "--func", "exp",
                     "--a", "0", "--b", "2", "--N", mean])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert f"--N must be at least 1, got {mean}" in out.err and "--rho" not in out.err

    def test_infinite_negative_binomial_shape_is_config_error(self, tmp_path, capsys):
        code = main(["estimate", str(write_identity(tmp_path, dim=2)), "--func", "exp",
                     "--a", "0", "--b", "2", "--dist", "neg(inf)"])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err == "configuration error: shape parameter r must be finite, got inf\n"

    def test_asymmetric_matrix_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n0 1\n")
        assert main(["estimate", str(path), "--func", "exp", "--a", "0", "--b", "3"]) == 2

    @pytest.mark.parametrize("suffix, body", [
        (".txt", "2 1\n1.000001 2\n"),
        (".mtx", "%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                 "1 1 2\n1 2 1\n2 1 1.000001\n2 2 2\n"),
    ])
    def test_nearly_symmetric_matrix_is_data_error_in_both_formats(self, tmp_path, suffix,
                                                                   body):
        # one check for both formats: an asymmetry of 1e-6 is far above 1e-12
        path = tmp_path / f"near{suffix}"
        path.write_text(body)
        proc = run_cli(["estimate", str(path), "--func", "exp", "--a", "0", "--b", "4"])
        assert proc.returncode == 2
        assert proc.stderr == f"data error: matrix in {path} is not symmetric\n"

    @pytest.mark.parametrize("name, body", [
        ("nan.txt", "2 nan\nnan 2\n"), ("inf.txt", "2 inf\ninf 2\n"),
        ("nan.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                    "1 1 nan\n1 2 1\n2 1 1\n2 2 2\n"),
    ], ids=["nan-txt", "inf-txt", "nan-mtx"])
    def test_nonfinite_entry_is_data_error(self, tmp_path, name, body):
        # named before the symmetry check, which a NaN fails and an inf
        # turns into NumPy's invalid-value warning
        path = tmp_path / name
        path.write_text(body)
        proc = run_cli(["estimate", str(path), "--func", "exp", "--a", "0", "--b", "4"])
        assert proc.returncode == 2
        assert proc.stderr == f"data error: matrix in {path} has a non-finite entry\n"

    @pytest.mark.parametrize("body", ["", " \n\t\n"])
    def test_empty_dense_file_is_data_error(self, tmp_path, body):
        path = tmp_path / "empty.txt"
        path.write_text(body)
        proc = run_cli(["estimate", str(path), "--func", "exp", "--a", "0", "--b", "2"])
        assert proc.returncode == 2
        assert proc.stderr == f"data error: matrix in {path} is empty\n"

    def test_missing_matrix_is_data_error(self):
        assert main(["estimate", "/nonexistent.mtx", "--func", "exp"]) == 2


class TestArgumentHandling:
    def test_unknown_flag_exit_1(self):
        proc = run_cli(["variance-bench", "--func", "exp", "--rho", "2", "--bogus", "1"])
        assert proc.returncode == 1

    def test_gp_train_rejects_optimizer(self, tmp_path):
        proc = run_cli(["gp-train", "--train", FIXTURE_GP, "--optimizer", "svrg",
                        "--out", str(tmp_path / "g.csv")])
        assert proc.returncode == 1
        assert "unrecognized arguments: --optimizer svrg" in proc.stderr
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command, flags", [
        ("gp-train", ["--test", "t.csv"]), ("gp-train", ["--dist", "pois"]),
        ("gp-train", ["--rho", "9"]), ("gp-train", ["--lambda", "2"]),
        ("gp-train", ["--epsilon", "0.1"]), ("gp-train", ["--rank", "3"]),
        ("mc-train", ["--rho", "9"]), ("estimate", ["--out", "o.csv"]),
        ("estimate", ["--epsilon", "0.1"]), ("estimate", ["--degree", "2"]),
    ])
    def test_training_flags_not_read_are_rejected(self, command, flags):
        given = ["m.txt"] if command == "estimate" else ["--train", "x.csv"]
        build_parser().parse_args([command, *given])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *given, *flags])
        assert exc.value.code == 1

    @pytest.mark.parametrize("spec", ["neg(abc)", "neg()"])
    @pytest.mark.parametrize("command", ["variance-bench", "estimate", "mc-train"])
    def test_malformed_distribution_is_config_error(self, tmp_path, capsys, command, spec):
        out = str(tmp_path / "o.csv")
        argv = {
            "variance-bench": ["variance-bench", "--func", "exp", "--rho", "4.0", "--out", out],
            "estimate": ["estimate", str(write_identity(tmp_path)), "--func", "exp",
                         "--a", "0", "--b", "2"],
            "mc-train": ["mc-train", "--train", FIXTURE_RATINGS, "--out", out],
        }[command]
        assert main([*argv, "--dist", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and spec in err

    @pytest.mark.parametrize("flag, value", [("--step", "-1"), ("--step", "0"),
                                             ("--step-decay", "0"), ("--step-decay", "1.5")])
    @pytest.mark.parametrize("command", ["mc-train", "gp-train"])
    def test_step_schedule_out_of_range_is_config_error(self, tmp_path, capsys, command, flag,
                                                        value):
        out = tmp_path / "o.csv"
        train = FIXTURE_RATINGS if command == "mc-train" else FIXTURE_GP
        assert main([command, "--train", train, "--epochs", "1", "--inner-iters", "2",
                     flag, value, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: step ")

    @pytest.mark.parametrize("argv, message", [
        (["mc-train", "--optimizer", "svrg", "--step", "inf"],
         "step size must be positive and finite, got inf"),
        (["gp-train", "--step", "inf"], "step size must be positive and finite, got inf"),
        (["mc-train", "--step", "inf"], "step size must be positive and finite, got inf"),
        (["mc-train", "--lambda", "inf"], "lambda must be positive and finite, got inf"),
        (["mc-train", "--epsilon", "inf"], "epsilon must be positive and finite, got inf"),
    ])
    def test_infinite_rate_or_weight_is_config_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.csv"
        train = FIXTURE_RATINGS if argv[0] == "mc-train" else FIXTURE_GP
        assert main([*argv, "--train", train, "--epochs", "1", "--inner-iters", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["variance-bench", "estimate", "mc-train", "gp-train"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_seed_is_a_config_error(self, tmp_path, command, via_config):
        out = str(tmp_path / "o.csv")
        argv = {
            "variance-bench": ["variance-bench", "--func", "exp", "--rho", "4.0", "--out", out],
            "estimate": ["estimate", str(write_identity(tmp_path)), "--func", "exp",
                         "--a", "0", "--b", "2"],
            "mc-train": ["mc-train", "--train", FIXTURE_RATINGS, "--out", out],
            "gp-train": ["gp-train", "--train", FIXTURE_GP, "--out", out],
        }[command]
        if via_config:
            config = tmp_path / "run.cfg"
            config.write_text("seed=-1\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--seed", "-1"]
        proc = run_cli(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "configuration error: --seed must be non-negative, got -1\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("via_config", [False, True])
    def test_svrg_rejects_step_decay(self, tmp_path, capsys, via_config):
        out = tmp_path / "mc.csv"
        argv = ["mc-train", "--train", FIXTURE_RATINGS, "--optimizer", "svrg", "--epochs", "1",
                "--inner-iters", "2", "--out", str(out)]
        if via_config:
            config = tmp_path / "run.cfg"
            config.write_text("step_decay=0.0\n")
            argv += ["--config", str(config)]
        else:
            argv += ["--step-decay", "0.0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == ("configuration error: --step-decay applies to SGD "
                                           "only; SVRG steps at the constant --step\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-train", "gp-train"])
    def test_sgd_step_decay_defaults_to_config_default(self, tmp_path, monkeypatch, command):
        import spectral_cheb.cli as cli
        from spectral_cheb.optimize import SGDConfig

        seen = []

        def stop(problem, *args, **kwargs):
            seen.extend(arg for arg in args if isinstance(arg, SGDConfig))
            raise ParameterError("stopped")

        monkeypatch.setattr(cli, "completion_train" if command == "mc-train" else "gp_train",
                            stop)
        train = FIXTURE_RATINGS if command == "mc-train" else FIXTURE_GP
        assert main([command, "--train", train, "--out", str(tmp_path / "o.csv")]) == 1
        assert seen[0].decay == SGDConfig.decay == 0.97

    def test_help_lists_flags(self):
        proc = run_cli(["mc-train", "--help"])
        assert proc.returncode == 0
        for flag in ("--train", "--test", "--optimizer", "--step-decay", "--lambda",
                     "--epsilon", "--rank", "--seed", "--out"):
            assert flag in proc.stdout

    def test_config_file_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("func=exp\nrho=4.0\nN=10\n")
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        assert main(["variance-bench", "--config", str(cfg), "--out", str(out1)]) == 0
        rows = out1.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[2] == "10" for row in rows)
        # flag overrides the config value
        assert main(["variance-bench", "--config", str(cfg), "--N", "20",
                     "--out", str(out2)]) == 0
        rows = out2.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[2] == "20" for row in rows)

    def test_missing_config_file(self, tmp_path):
        assert main(["variance-bench", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.csv")]) == 1


class TestMcTrain:
    # threshold frozen from the exact-gradient-descent oracle on this
    # fixture and schedule (rmse 0.1807), with 25% slack
    FIXTURE_THRESHOLD = 0.226
    PINNED = ["mc-train", "--train", FIXTURE_RATINGS, "--seed", "4",
              "--optimizer", "sgd", "--epochs", "8", "--inner-iters", "100",
              "--step", "0.1", "--step-decay", "0.992", "--M", "128", "--N", "15"]

    def test_fixture_run_below_threshold(self, tmp_path):
        out = tmp_path / "mc.csv"
        proc = run_cli(self.PINNED + ["--out", str(out)])
        assert proc.returncode == 0
        rmse = float(proc.stderr.split("test RMSE ")[1].split(" ")[0])
        assert rmse < self.FIXTURE_THRESHOLD
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,objective,rmse_or_nll,wallclock_ms"
        assert len(lines) == 801
        theta = np.loadtxt(out.with_suffix(".theta.txt"))
        assert theta.shape == (30, 20)

    def test_missing_data_exit_2(self, tmp_path):
        proc = run_cli(["mc-train", "--train", "/nonexistent.csv",
                        "--out", str(tmp_path / "x.csv")])
        assert proc.returncode == 2
        assert "not found" in proc.stderr

    def test_nonfinite_rating_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "ratings.csv"
        data.write_text("user,item,rating\n1,1,4.0\n1,2,nan\n2,1,3.0\n")
        out = tmp_path / "mc.csv"
        assert main(["mc-train", "--train", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {data}: non-finite rating\n"
        assert not out.exists()

    @pytest.mark.parametrize("rank", ["0", "-1"])
    def test_rank_below_one_is_config_error(self, tmp_path, capsys, rank):
        out = tmp_path / "mc.csv"
        assert main(["mc-train", "--train", FIXTURE_RATINGS, "--epochs", "1",
                     "--inner-iters", "2", "--rank", rank, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: SVD rank must be >= 1, got {rank}\n")
        assert not out.exists()

    def test_optimizers_have_distinct_phase_columns(self, tmp_path):
        phases = {}
        for opt in ("sgd", "svrg"):
            out = tmp_path / f"{opt}.csv"
            args = ["mc-train", "--train", FIXTURE_RATINGS, "--seed", "4",
                    "--optimizer", opt, "--epochs", "2", "--inner-iters", "10",
                    "--step", "0.05", "--M", "8", "--N", "8", "--out", str(out)]
            assert main(args) == 0
            traj = out.with_suffix(".trajectory.csv").read_text().strip().split("\n")
            phases[opt] = {row.split(",")[0] for row in traj[1:]}
        assert phases["sgd"] == {"sgd"}
        assert phases["svrg"] == {"svrg"}


class TestGpTrain:
    def test_fixture_run_and_outputs(self, tmp_path):
        out = tmp_path / "gp.csv"
        proc = run_cli(["gp-train", "--train", FIXTURE_GP, "--seed", "5",
                        "--epochs", "2", "--inner-iters", "100", "--step", "3e-4",
                        "--step-decay", "0.99", "--M", "16", "--N", "15",
                        "--out", str(out)])
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iter,objective,rmse_or_nll,wallclock_ms"
        nll_first = float(lines[1].split(",")[2])
        nll_last = float(lines[-1].split(",")[2])
        assert nll_last < nll_first
        theta = np.loadtxt(out.with_suffix(".theta.txt"))
        assert theta.shape == (3,)
        assert np.all(theta > 0)

    def test_metrics_rows_at_checkpoints_only(self, tmp_path):
        # gp-train writes a row where it takes the exact NLL; mc-train writes every row
        iters = {}
        for command, train in (("gp-train", FIXTURE_GP), ("mc-train", FIXTURE_RATINGS)):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--train", train, "--seed", "5", "--epochs", "1",
                         "--inner-iters", "25", "--step", "3e-4", "--M", "4", "--N", "8",
                         "--out", str(out)]) == 0
            lines = out.read_text().strip().split("\n")
            assert lines[0] == "iter,objective,rmse_or_nll,wallclock_ms"
            iters[command] = [int(line.split(",")[0]) for line in lines[1:]]
            traj = out.with_suffix(".trajectory.csv").read_text().strip().split("\n")
            assert len(traj) == 26
        assert iters == {"gp-train": [0, 10, 20, 24], "mc-train": list(range(25))}

    def test_missing_data_exit_2(self, tmp_path):
        assert main(["gp-train", "--train", "/nope.csv", "--out", str(tmp_path / "g.csv")]) == 2

    def test_nonfinite_output_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "gp.csv"
        data.write_text("0.0,1.0\n0.5,nan\n1.0,0.5\n")
        out = tmp_path / "g.csv"
        assert main(["gp-train", "--train", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {data}: non-finite value in the regression data\n"
        assert not out.exists()

    def test_empty_data_exit_2(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = run_cli(["gp-train", "--train", str(empty), "--out", str(tmp_path / "g.csv")])
        assert proc.returncode == 2
        assert "data error" in proc.stderr and "Traceback" not in proc.stderr


class TestSeedStability:
    def test_mc_csv_bytes_across_runs_and_threads(self, tmp_path):
        outs = []
        for tag, threads in (("t1", "1"), ("t8", "8"), ("again", "1")):
            out = tmp_path / f"{tag}.csv"
            args = ["mc-train", "--train", FIXTURE_RATINGS, "--seed", "4",
                    "--optimizer", "sgd", "--epochs", "1", "--inner-iters", "40",
                    "--step", "0.05", "--M", "64", "--N", "8", "--out", str(out)]
            proc = run_cli(args, env_extra={"SPECTRAL_CHEB_THREADS": threads})
            assert proc.returncode == 0
            outs.append(
                (out.read_bytes(),
                 out.with_suffix(".trajectory.csv").read_bytes(),
                 out.with_suffix(".theta.txt").read_bytes())
            )
        assert outs[0] == outs[1] == outs[2]
