"""Tests for probing and the spectral-sum estimators."""

import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from helpers import (
    dense_lowrank,
    direct_bilinear_sums,
    eval_series,
    random_spd,
    random_symmetric,
    record_thread_pools,
    to_unit,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_cheb.probes as probes_module
from spectral_cheb.chebyshev import (
    ChebSeries,
    Interval,
    compute_coefficients,
    rho_from_endpoint_singularity,
    series_from_polynomial,
)
from spectral_cheb.degree_dist import (
    DistributionKind,
    deterministic_distribution,
    optimal_distribution,
    poisson_distribution,
    sample_degree,
)
from spectral_cheb.exceptions import NumericError, ParameterError, ParseError
from spectral_cheb.grad_est import LowRankPSD, ParamMatrixOracle
from spectral_cheb.probes import (
    HEADROOM,
    Expansion,
    MatrixOracle,
    MatvecCounter,
    ProbePlan,
    certified_ends,
    estimate_spectral_sum_fixed,
    estimate_spectral_sum_unbiased,
    expansion_for,
    load_matrix,
    power_method_bound,
    probe_rng,
    rademacher_probe,
    sample_spectral_sums,
)
from spectral_cheb.reference import exact_spectral_sum


def spd_oracle(rng, dim, lo=0.2, hi=2.0, margin=0.05, counter=None):
    """(matrix, oracle, interval holding the matrix's spectrum)."""
    matrix = random_spd(rng, dim, lo, hi)
    iv = Interval(lo * (1 - margin), hi * (1 + margin))
    return matrix, MatrixOracle.from_matrix(matrix, counter=counter), iv


class TestRademacher:
    def test_reproducible(self):
        a = rademacher_probe(4, probe_rng(123, 0))
        b = rademacher_probe(4, probe_rng(123, 0))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_distinct_probe_streams(self):
        a = rademacher_probe(64, probe_rng(123, 0))
        b = rademacher_probe(64, probe_rng(123, 1))
        assert not np.array_equal(a, b)

    def test_norm_is_dim(self):
        v = rademacher_probe(37, probe_rng(5, 2))
        assert float(v @ v) == 37.0

    def test_coordinate_means(self):
        rng = np.random.default_rng(9)
        probes = rng.integers(0, 2, size=(10**5, 8)) * 2.0 - 1.0
        assert np.all(np.abs(probes.mean(axis=0)) < 3.0 / math.sqrt(10**5))


def _step_oracles(rng, dim, counter):
    """(name, dense A, oracle) for every kind of recurrence step: a folded
    CSR and dense matrix, a callable matvec, a low-rank factor on both
    sides of its rule (dim x 3 steps with two thin products at every dim
    used here, dim x 2dim with its folded dim x dim matrix on more than
    2dim/3 columns) and a parametric oracle."""
    theta = rng.uniform(-0.6, 0.6, size=(dim, 3))
    lowrank = LowRankPSD(theta, 0.3, counter=counter)
    dense = random_spd(rng, dim, 0.3, 4.0)
    sparse = scipy.sparse.random(dim, dim, density=0.2, random_state=rng)
    sparse = (sparse + sparse.T + 3.0 * scipy.sparse.identity(dim)).tocsr()
    partial = random_symmetric(rng, dim, 0.1)
    folded = LowRankPSD(rng.uniform(-0.3, 0.3, size=(dim, 2 * dim)), 0.3, counter=counter)
    param = ParamMatrixOracle(
        dim=dim, param_dim=1, theta=np.array([0.5]),
        apply=lambda th, x: dense @ x + th[0] * (partial @ x),
        apply_partial=lambda i, th, x: partial @ x,
        counter=counter)
    return [
        ("csr", sparse.toarray(), MatrixOracle.from_matrix(sparse, counter=counter)),
        ("dense", dense, MatrixOracle.from_matrix(dense, counter=counter)),
        ("callable", dense, MatrixOracle(dim=dim, matvec=lambda x: dense @ x,
                                         counter=counter)),
        ("lowrank", dense_lowrank(lowrank), lowrank),
        ("lowrank_folded", dense_lowrank(folded), folded),
        ("param", dense + 0.5 * partial, param),
    ]


class TestStep:
    """``step(w, w_prev, iv)`` = 2B w - w_prev on every oracle."""

    def test_from_matrix_takes_list_array_and_csr(self):
        rows = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
        iv = Interval(0.5, 3.5)
        w = np.array([1.0, -2.0, 0.5])
        want = 2.0 * (2.0 * np.array(rows) @ w - 4.0 * w) / 3.0
        listed, dense, csr = (MatrixOracle.from_matrix(m) for m in (
            rows, np.array(rows), scipy.sparse.csr_matrix(rows)))
        assert isinstance(listed.matrix, np.ndarray) and isinstance(dense.matrix, np.ndarray)
        assert scipy.sparse.issparse(csr.matrix)
        for oracle in (listed, dense, csr):
            assert oracle.dim == 3
            np.testing.assert_allclose(oracle.step(w, None, iv), want, rtol=1e-15)

    @pytest.mark.parametrize("with_prev", [False, True])
    @pytest.mark.parametrize("cols", [None, 4, 64])
    def test_matches_unfolded_formula(self, with_prev, cols):
        rng = np.random.default_rng(60)
        dim = 40
        shape = (dim,) if cols is None else (dim, cols)
        counter = MatvecCounter()
        iv = Interval(0.1, 5.0)
        for name, matrix, oracle in _step_oracles(rng, dim, counter):
            w = rng.standard_normal(shape)
            w_prev = rng.standard_normal(shape) if with_prev else None
            for arr in (w, w_prev):
                if arr is not None:
                    arr.flags.writeable = False
            kept = [w.copy(), None if w_prev is None else w_prev.copy()]
            counter.count = 0
            got = oracle.step(w, w_prev, iv)
            assert counter.count == (1 if cols is None else cols), name
            want = 2.0 * (2.0 * (matrix @ w) - (iv.b + iv.a) * w) / iv.width
            if with_prev:
                want = want - w_prev
            norm = np.linalg.norm(matrix, 2)
            assert np.max(np.abs(got - want)) <= 1e-14 * norm * np.max(np.abs(w)), name
            assert got.flags.writeable and not np.may_share_memory(got, w), name
            np.testing.assert_array_equal(w, kept[0])
            if with_prev:
                np.testing.assert_array_equal(w_prev, kept[1])
                assert not np.may_share_memory(got, w_prev), name

    @pytest.mark.parametrize("cols", [None, 4, 64])
    def test_half_the_first_step_is_b_v(self, cols):
        # the kernels take T_1 = B v as half of the first step 2B v
        rng = np.random.default_rng(60)
        dim = 40
        shape = (dim,) if cols is None else (dim, cols)
        iv = Interval(0.1, 5.0)
        for name, matrix, oracle in _step_oracles(rng, dim, None):
            v = rng.standard_normal(shape)
            got = 0.5 * oracle.step(v, None, iv)
            want = (2.0 * (matrix @ v) - (iv.b + iv.a) * v) / iv.width
            norm = np.linalg.norm(matrix, 2)
            assert np.max(np.abs(got - want)) <= 1e-14 * norm * np.max(np.abs(v)), name

    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_handed_over_w_prev_holds_the_step(self, layout):
        # w is never written; a writeable w_prev may come back as the
        # result, and then holds 2B w - w_prev; the sparse fold
        # always reuses a C-ordered one
        rng = np.random.default_rng(63)
        dim = 40
        iv = Interval(0.1, 5.0)
        for name, matrix, oracle in _step_oracles(rng, dim, None):
            w = rng.standard_normal(dim if layout == "vector" else (dim, 4))
            if layout == "F":
                w = np.asfortranarray(w)
            w_prev = rng.standard_normal(w.shape)
            kept = [w.copy(), w_prev.copy()]
            got = oracle.step(w, w_prev, iv)
            want = 2.0 * (2.0 * (matrix @ kept[0]) - (iv.b + iv.a) * kept[0]) / iv.width
            want -= kept[1]
            norm = np.linalg.norm(matrix, 2)
            assert np.max(np.abs(got - want)) <= 1e-14 * norm * np.max(np.abs(w)), name
            np.testing.assert_array_equal(w, kept[0])
            assert not np.may_share_memory(got, w), name
            if not np.may_share_memory(got, w_prev):
                np.testing.assert_array_equal(w_prev, kept[1])
            if name == "csr":
                assert got is w_prev, name

    def test_sparse_chunk_allocates_no_block_per_step(self):
        # every array a step returns is kept alive, so a step that
        # allocates its result leaves one block behind per step (~n/2)
        import tracemalloc

        side, cols, n = 64, 32, 40
        line = scipy.sparse.diags([2.0 * np.ones(side), -np.ones(side - 1), -np.ones(side - 1)],
                                  [0, 1, -1])
        oracle = MatrixOracle.from_matrix(scipy.sparse.kronsum(line, line).tocsr())
        iv = Interval(0.01, 8.0)
        probes = ProbePlan(3, cols).probes(side * side, 0, cols)
        coeffs = np.random.default_rng(64).standard_normal(n + 1)
        oracle._folded(iv)  # the fold is built once per interval, not per chunk

        class Holding:
            def __init__(self):
                self.results = []

            def step(self, w, w_prev, iv):
                self.results.append(oracle.step(w, w_prev, iv))
                return self.results[-1]

        held = Holding()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probes_module._bilinear_block(held, iv, coeffs, n, probes)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(held.results) == (n + 1) // 2
        assert grown <= 3 * probes.nbytes, grown

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("cols", [None, 5])
    def test_private_csr_kernel_accumulates(self, index_dtype, cols):
        # the sparse fold accumulates through SciPy's private CSR kernel,
        # Y += A X on C-ordered operands; a SciPy upgrade that moves or
        # changes it fails here
        from scipy.sparse._sparsetools import csr_matvecs

        rng = np.random.default_rng(65)
        rows, inner = 30, 20
        matrix = scipy.sparse.random(rows, inner, density=0.3, random_state=rng, format="csr")
        indptr, indices = matrix.indptr.astype(index_dtype), matrix.indices.astype(index_dtype)
        shape = (inner,) if cols is None else (inner, cols)
        x = rng.standard_normal(shape)
        y0 = rng.standard_normal((rows,) + shape[1:])
        y = y0.copy()
        csr_matvecs(rows, inner, 1 if cols is None else cols, indptr, indices, matrix.data, x, y)
        np.testing.assert_allclose(y, y0 + matrix.toarray() @ x, rtol=0, atol=1e-13)
        # the package's one caller, also with a Fortran-ordered operand
        folded = scipy.sparse.csr_matrix((matrix.data, indices, indptr), shape=matrix.shape)
        y = y0.copy()
        probes_module._csr_accumulate(folded, np.asfortranarray(x), y)
        np.testing.assert_allclose(y, y0 + matrix.toarray() @ x, rtol=0, atol=1e-13)

    def test_identity_matvec_operands_not_overwritten(self):
        identity = MatrixOracle(dim=5, matvec=lambda x: x)
        w = np.arange(5.0)
        w_prev = np.ones(5)
        got = identity.step(w, w_prev, Interval(0.0, 4.0))  # B = -I/2
        np.testing.assert_array_equal(w, np.arange(5.0))
        np.testing.assert_array_equal(w_prev, np.ones(5))
        np.testing.assert_array_equal(got, -w - w_prev)

    def test_fold_follows_the_declared_interval(self):
        matrix = np.diag([1.0, 2.0, 3.0])
        oracle = MatrixOracle.from_matrix(matrix)
        w = np.ones(3)
        np.testing.assert_allclose(0.5 * oracle.step(w, None, Interval(0.0, 4.0)),
                                   (2.0 * np.diag(matrix) - 4.0) / 4.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(0.5 * oracle.step(w, None, Interval(0.5, 3.5)),
                                   (2.0 * np.diag(matrix) - 4.0) / 3.0, rtol=0, atol=1e-15)

    def test_refold_under_concurrent_steps(self, monkeypatch):
        # probe chunks step one oracle from several threads; after the
        # interval changes, the fold of the new interval is built once and
        # every step uses it
        import sys
        import threading

        matrix = grid_laplacian_oracle(12)[0].matvec(np.eye(144))
        oracle = MatrixOracle.from_matrix(scipy.sparse.csr_matrix(matrix))
        w = np.random.default_rng(61).standard_normal((144, 8))
        oracle.step(w, None, Interval(0.4, 9.0))
        iv = Interval(0.3, 9.5)
        serial = MatrixOracle.from_matrix(matrix).step(w, None, iv)
        folds = []
        real_fold = probes_module._fold_interval
        monkeypatch.setattr(probes_module, "_fold_interval",
                            lambda m, i: folds.append(i) or real_fold(m, i))
        results, errors = [], []

        def call():
            try:
                results.append(oracle.step(w, None, iv))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(results) == 8 and folds == [iv]
        for got in results:
            np.testing.assert_allclose(got, serial, rtol=0, atol=1e-13)


class TestProbeFill:
    @pytest.mark.parametrize("dim", [1, 2, 3, 30, 31, 512, 19881])
    def test_columns_equal_single_probes(self, dim):
        for seed, eval_index, start, stop in ((0, 0, 0, 32), (7, 3, 5, 37), (11, 2, 32, 40)):
            block = probes_module._probe_columns(dim, seed, eval_index, start, stop)
            assert block.shape == (dim, stop - start) and block.flags.c_contiguous
            for col, k in enumerate(range(start, stop)):
                want = rademacher_probe(dim, probe_rng(seed, k, eval_index))
                assert block[:, col].tobytes() == want.tobytes()

    def test_plan_chunk_starting_mid_block(self):
        plan = ProbePlan(13, 70)
        whole = probes_module._probe_columns(9, 13, 0, 0, 70)
        np.testing.assert_array_equal(plan.probes(9, 37, 64), whole[:, 37:64])


def numpy_probe_rng(master_seed, k, eval_index):
    """NumPy's own stream for probe k of evaluation ``eval_index``."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(eval_index, 0, k)))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.bit_generator.random_raw(5),
                                  want.bit_generator.random_raw(5))


class TestProbeSeeding:
    """``probe_rng`` computes NumPy's SeedSequence state itself, 32 probes
    at a time; these pin its streams against NumPy's, which NumPy keeps
    stream-compatible across releases."""

    # master seeds of 1 to 5 words, eval indices of 1 and 2 words, probe
    # indices at block edges and on both sides of the 32-bit word boundary
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3)
    EVALS = (0, 5, 2**32 + 7)
    PROBES = (0, 31, 32, 2**32 - 1, 2**32, 2**32 + 33)

    @pytest.mark.parametrize("master_seed", SEEDS)
    def test_streams_are_numpys(self, master_seed):
        for eval_index in self.EVALS:
            for k in self.PROBES:
                assert_same_stream(probe_rng(master_seed, k, eval_index),
                                   numpy_probe_rng(master_seed, k, eval_index))

    @settings(max_examples=200, deadline=None)
    @given(master_seed=st.integers(0, 2**128 + 3), eval_index=st.integers(0, 2**32 + 7),
           k=st.integers(0, 2**32 + 33))
    def test_streams_are_numpys_property(self, master_seed, eval_index, k):
        assert_same_stream(probe_rng(master_seed, k, eval_index),
                           numpy_probe_rng(master_seed, k, eval_index))

    def test_numpy_integer_arguments(self):
        # NumPy integers stand for the ints they hold, as in SeedSequence
        assert_same_stream(probe_rng(np.uint64(2**63 + 5), np.int64(40), np.int64(3)),
                           numpy_probe_rng(2**63 + 5, 40, 3))

    def test_float_master_seed_raises_with_its_int_cached(self):
        probe_rng(3, 0)
        with pytest.raises(TypeError):
            numpy_probe_rng(3.0, 0, 0)
        with pytest.raises(TypeError):
            probe_rng(3.0, 0)

    def test_negative_master_seed_raises(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            numpy_probe_rng(-1, 0, 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            probe_rng(-1, 0, 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            probe_rng(-(2**64), 0, 0)

    def test_negative_eval_index_raises(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            numpy_probe_rng(7, 0, -1)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            probe_rng(7, 0, -1)

    @pytest.mark.parametrize("k", [-1, -31, -32, -33, -(2**32)])
    def test_negative_probe_index_raises(self, k):
        # k = -1 falls in block -1, whose indices must raise, not wrap
        # through uint32 into the streams of probes 2^32 - 32 .. 2^32 - 1
        with pytest.raises(ValueError, match="expected non-negative integer"):
            numpy_probe_rng(7, k, 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            probe_rng(7, k, 0)

    def test_a_block_never_crosses_a_word_boundary(self):
        spawn_words = probes_module._spawn_words
        with pytest.raises(ValueError, match="crosses a 32-bit word boundary"):
            spawn_words(7, (0, 0), range(2**32 - 16, 2**32 + 16))
        rows = spawn_words(7, (0, 0), range(2**32, 2**32 + 32))
        want = np.random.SeedSequence(7, spawn_key=(0, 0, 2**32 + 31)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(rows[31], want)

    def test_import_leaves_numpy_random_unloaded(self):
        # the seed-word type subclasses NumPy's ISeedSequence only once a
        # probe stream is asked for
        import subprocess
        import sys

        code = "import sys, spectral_cheb.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout == "False\n"

    def test_cached_rows_are_read_only(self):
        rows = probes_module._probe_seed_block(8101, 0, 0)
        assert rows.shape == (32, 4) and rows.dtype == np.uint64
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert probes_module._probe_seed_block.cache_info().maxsize == 8

    def test_seed_words_serve_only_pcg64s_request(self):
        words = probes_module._seed_words_type()(probes_module._probe_seed_block(8101, 0, 0)[5])
        assert words.generate_state(4, np.uint64) is words.words
        for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError, match="holds 4 uint64 words"):
                words.generate_state(n_words, dtype)

    def test_concurrent_streams_of_one_uncached_block(self):
        # every thread asks for probes of one block that no call has seeded
        # yet; each gets NumPy's streams whichever thread seeds the block
        import sys
        import threading

        seed = 8_102_030_405
        probes_module._probe_seed_block.cache_clear()
        want = [numpy_probe_rng(seed, k, 4).bit_generator.random_raw(3) for k in range(32, 64)]
        results, errors = [], []

        def call():
            try:
                results.append([probe_rng(seed, k, 4).bit_generator.random_raw(3)
                                for k in range(32, 64)])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(results) == 8
        for got in results:
            np.testing.assert_array_equal(np.array(got), np.array(want))


class TestFixedEstimator:
    def test_identity_trace_exact(self):
        iv = Interval(0.0, 2.0)
        oracle = MatrixOracle.from_matrix(np.eye(6))
        series = series_from_polynomial([0.0, 1.0], iv)
        vals = [
            estimate_spectral_sum_fixed(oracle, series, 1, ProbePlan(seed, 4))
            for seed in range(5)
        ]
        assert all(v == 6.0 for v in vals)  # zero variance across seeds

    def test_diag_square_mean(self):
        iv = Interval(0.0, 2.5)
        oracle = MatrixOracle.from_matrix(np.diag([1.0, 2.0]))
        series = series_from_polynomial([0.0, 0.0, 1.0], iv)
        est = estimate_spectral_sum_fixed(oracle, series, 2, ProbePlan(77, 10**5))
        # single-probe variance measured empirically below 3 sigma of the mean
        singles = sample_spectral_sums(
            oracle, series, deterministic_distribution(2), 77, 2000, M=1
        )
        se = singles.std() / math.sqrt(10**5)
        assert abs(est - 5.0) < 3 * max(se, 1e-12)

    def test_recurrence_matches_dense_polynomial(self):
        rng = np.random.default_rng(10)
        matrix, oracle, iv = spd_oracle(rng, 12)
        series = compute_coefficients(np.exp, iv, degree=25)
        plan = ProbePlan(3, 1)
        est = estimate_spectral_sum_fixed(oracle, series, 25, plan)
        v = rademacher_probe(12, probe_rng(3, 0))
        w, basis = np.linalg.eigh(matrix)
        p_mat = (basis * eval_series(series, w)) @ basis.T
        assert est == pytest.approx(float(v @ p_mat @ v), abs=1e-9)

    def test_exact_matvec_budget(self):
        counter = MatvecCounter()
        rng = np.random.default_rng(11)
        _, oracle, iv = spd_oracle(rng, 8, counter=counter)
        series = compute_coefficients(np.exp, iv, degree=30)
        estimate_spectral_sum_fixed(oracle, series, 17, ProbePlan(1, 5))
        assert counter.count == 9 * 5

    def test_degree_past_the_series_rejected_before_its_law(self, monkeypatch):
        # the point mass at n costs O(n) to build, so n is checked against
        # the series first, with the error re-weighting raises
        _, oracle, iv = spd_oracle(np.random.default_rng(24), 6)
        series = compute_coefficients(np.exp, iv, degree=30)
        monkeypatch.setattr(probes_module, "deterministic_distribution",
                            lambda n: pytest.fail(f"built the point mass at {n}"))
        with pytest.raises(ParameterError,
                           match="degree 10000000 outside stored series degree 30"):
            estimate_spectral_sum_fixed(oracle, series, 10**7, ProbePlan(1, 4))

    def test_error_shrinks_with_probes(self):
        rng = np.random.default_rng(12)
        matrix, oracle, iv = spd_oracle(rng, 20)
        series = compute_coefficients(np.exp, iv, degree=40)
        truth = exact_spectral_sum(matrix, np.exp)
        dist = deterministic_distribution(40)
        stds = []
        for m_probes in (4, 16, 64):
            ests = sample_spectral_sums(oracle, series, dist, 13, 160, M=m_probes)
            stds.append(np.std(ests))
            assert abs(np.mean(ests) - truth) < 4 * np.std(ests) / math.sqrt(160) + 1e-9
        # 1/sqrt(M): quadrupling the probes should halve the spread
        assert stds[0] / stds[1] == pytest.approx(2.0, rel=0.5)
        assert stds[1] / stds[2] == pytest.approx(2.0, rel=0.5)


class TestUnbiasedEstimator:
    def test_polynomial_deterministic_matches_fixed(self):
        iv = Interval(0.0, 3.0)
        oracle = MatrixOracle.from_matrix(np.diag([0.5, 1.5, 2.5]))
        series = series_from_polynomial([1.0, -2.0, 0.5, 0.25], iv)
        plan_a = ProbePlan(5, 8)
        plan_b = ProbePlan(5, 8)
        fixed = estimate_spectral_sum_fixed(oracle, series, 3, plan_a)
        unbiased = estimate_spectral_sum_unbiased(
            oracle, series, deterministic_distribution(3), plan_b
        )
        assert unbiased == fixed
        assert plan_b.degree == 3 and plan_a.degree is None

    def test_logdet_unbiased_50x50(self):
        rng = np.random.default_rng(14)
        matrix, oracle, iv = spd_oracle(rng, 50, lo=0.3, hi=2.5)
        series = compute_coefficients(np.log, iv, degree=300)
        rho = rho_from_endpoint_singularity(iv)
        dist = optimal_distribution(rho, 10)
        truth = exact_spectral_sum(matrix, np.log)
        ests = sample_spectral_sums(oracle, series, dist, 21, 10**4, M=1)
        se = ests.std() / math.sqrt(ests.size)
        assert abs(ests.mean() - truth) < 3 * se

    def test_poisson_unbiased_but_noisier(self):
        rng = np.random.default_rng(15)
        matrix, oracle, iv = spd_oracle(rng, 30, lo=0.3, hi=2.5)
        series = compute_coefficients(np.log, iv, degree=300)
        rho = rho_from_endpoint_singularity(iv)
        truth = exact_spectral_sum(matrix, np.log)
        opt = sample_spectral_sums(oracle, series, optimal_distribution(rho, 8), 22, 4000, M=1)
        pois = sample_spectral_sums(oracle, series, poisson_distribution(8), 22, 4000, M=1)
        assert abs(pois.mean() - truth) < 3 * pois.std() / math.sqrt(pois.size)
        assert opt.std() < pois.std()

    def test_batch_reproduces_single_calls(self):
        rng = np.random.default_rng(16)
        _, oracle, iv = spd_oracle(rng, 9)
        series = compute_coefficients(np.exp, iv, degree=60)
        dist = optimal_distribution(2.0, 4)
        batch = sample_spectral_sums(oracle, series, dist, 31, 1, M=3)
        single = estimate_spectral_sum_unbiased(oracle, series, dist, ProbePlan(31, 3))
        assert batch[0] == single

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(17)
        _, oracle, iv = spd_oracle(rng, 15)
        series = compute_coefficients(np.exp, iv, degree=40)
        dist = optimal_distribution(2.0, 6)
        built = record_thread_pools(monkeypatch, min_entries=0)  # five 32-column chunks
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "1")
        serial = estimate_spectral_sum_unbiased(oracle, series, dist, ProbePlan(9, 130))
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "8")
        threaded = estimate_spectral_sum_unbiased(oracle, series, dist, ProbePlan(9, 130))
        assert serial == threaded
        assert len(built) == 1  # the eight-thread run did use the pool

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", ""])
    def test_thread_count_must_be_a_positive_integer(self, monkeypatch, threads):
        # a set value that is not an integer >= 1 is refused, not run on one thread
        rng = np.random.default_rng(17)
        _, oracle, iv = spd_oracle(rng, 15)
        series = compute_coefficients(np.exp, iv, degree=40)
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
        with pytest.raises(ParameterError, match=f"SPECTRAL_CHEB_THREADS must be an integer "
                                                 f">= 1, got '{threads}'"):
            estimate_spectral_sum_unbiased(oracle, series, deterministic_distribution(6),
                                           ProbePlan(9, 4))

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        import sys
        import threading

        rng = np.random.default_rng(18)
        _, oracle, iv = spd_oracle(rng, 15)
        series = compute_coefficients(np.exp, iv, degree=40)
        dist = optimal_distribution(2.0, 6)
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "1")
        serial = estimate_spectral_sum_unbiased(oracle, series, dist, ProbePlan(9, 130))
        built = record_thread_pools(monkeypatch, min_entries=0)
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "3")
        results = []

        def caller():
            for _ in range(3):
                plan = ProbePlan(9, 130)
                results.append(estimate_spectral_sum_unbiased(oracle, series, dist, plan))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [serial] * 12
        assert len(built) == 1


def grid_laplacian_oracle(grid, shift=0.5):
    """Sparse 2-D grid Laplacian + shift I as an oracle, with an interval
    holding its spectrum, which lies inside [shift, shift + 8]."""
    line = scipy.sparse.diags([2.0 * np.ones(grid), -np.ones(grid - 1), -np.ones(grid - 1)],
                              [0, 1, -1])
    eye = scipy.sparse.identity(grid)
    matrix = (scipy.sparse.kron(line, eye) + scipy.sparse.kron(eye, line)
              + shift * scipy.sparse.identity(grid * grid)).tocsr()
    return (MatrixOracle(dim=grid * grid, matvec=lambda x: matrix @ x),
            Interval(0.9 * shift, shift + 8.5))


class TestMomentDoubling:
    """The value recurrence forms v^T T_k(B) v, k <= n, from ceil(n/2)
    matvecs by the doubling identities."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 300), dim=st.integers(1, 12), m=st.integers(1, 4),
           at_ends=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=299, dim=12, m=3, at_ends=True, seed=1)
    @example(n=300, dim=12, m=3, at_ends=True, seed=2)
    def test_matches_direct_recurrence_and_dense_polynomial(self, n, dim, m, at_ends, seed):
        rng = np.random.default_rng(seed)
        iv = Interval(-0.5, 2.5)
        unit = rng.uniform(-0.99, 0.99, size=dim)
        if at_ends:
            unit[0], unit[-1] = -1.0, 1.0
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        matrix = (basis * iv.from_unit(unit)) @ basis.T
        coeffs = rng.standard_normal(n + 1)
        probes = rng.standard_normal((dim, m))
        got = probes_module._bilinear_block(MatrixOracle.from_matrix(matrix), iv, coeffs, n,
                                              probes)
        tol = 1e-12 * np.sum(np.abs(coeffs)) * np.einsum("dk,dk->k", probes, probes)
        assert np.all(np.abs(got - direct_bilinear_sums(matrix, iv, coeffs, n, probes)) <= tol)
        if not at_ends:
            # at +-1 the eigh reference itself is off by ~1e-12 relative at n = 300
            lam, vecs = np.linalg.eigh(matrix)
            dense = np.polynomial.chebyshev.chebval(to_unit(iv, lam), coeffs) @ (vecs.T @ probes) ** 2
            assert np.all(np.abs(got - dense) <= tol)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 17])
    def test_matvec_columns_are_half_the_degree(self, n):
        counter = MatvecCounter()
        _, oracle, iv = spd_oracle(np.random.default_rng(22), 8, counter=counter)
        series = compute_coefficients(np.exp, iv, degree=30)
        half = (n + 1) // 2
        estimate_spectral_sum_fixed(oracle, series, n, ProbePlan(1, 37))
        assert counter.count == half * 37
        counter.count = 0
        estimate_spectral_sum_unbiased(oracle, series, deterministic_distribution(n),
                                       ProbePlan(1, 37))
        assert counter.count == half * 37
        counter.count = 0
        sample_spectral_sums(oracle, series, deterministic_distribution(n), 1, 6, M=5)
        assert counter.count == half * 5 * 6

    def test_threads_and_reruns_give_identical_bits(self, monkeypatch):
        oracle, iv = grid_laplacian_oracle(40)  # one chunk is 1600 x 32, above the inline limit
        series = compute_coefficients(np.log, iv, degree=80)
        dist = optimal_distribution(rho_from_endpoint_singularity(iv), 12)
        built = record_thread_pools(monkeypatch)
        runs = []
        for threads in ("1", "2", "1", "2"):
            monkeypatch.setenv("SPECTRAL_CHEB_THREADS", threads)
            plan = ProbePlan(4, 70)
            fixed = estimate_spectral_sum_fixed(oracle, series, 31, plan)
            runs.append((fixed, estimate_spectral_sum_unbiased(oracle, series, dist, plan)))
        assert len(built) == 1  # the two-thread runs did use the pool
        assert runs[1:] == runs[:1] * 3

    def test_small_blocks_run_inline(self, monkeypatch):
        _, oracle, iv = spd_oracle(np.random.default_rng(23), 30)
        series = compute_coefficients(np.exp, iv, degree=30)
        monkeypatch.setattr(probes_module, "ThreadPoolExecutor",
                            lambda **kw: pytest.fail("a 30 x 64 plan, one chunk, started a "
                                                     "thread pool"))
        monkeypatch.setattr(probes_module, "_POOLS", {})
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "2")
        threaded = estimate_spectral_sum_fixed(oracle, series, 15, ProbePlan(6, 64))
        monkeypatch.setenv("SPECTRAL_CHEB_THREADS", "1")
        assert threaded == estimate_spectral_sum_fixed(oracle, series, 15, ProbePlan(6, 64))

    def test_matvec_result_aliasing_an_operand_is_not_overwritten(self):
        iv = Interval(0.0, 2.0)
        identity = MatrixOracle(dim=5, matvec=lambda x: x)
        series = compute_coefficients(np.exp, iv, degree=12)
        est = estimate_spectral_sum_fixed(identity, series, 12, ProbePlan(2, 3))
        assert est == pytest.approx(5 * float(eval_series(series, np.array([1.0]))[0]), rel=1e-13)


class TestChunks:
    """Chunk widths are set in one place from (dim, M) alone, and every
    kernel's rows on a 64-column block equal those on its 32-column
    halves."""

    @pytest.mark.parametrize("name, kernel", [
        *((name, "bilinear") for name in ("csr", "dense", "callable", "lowrank",
                                          "lowrank_folded", "param")),
        *((name, kernel) for name in ("lowrank", "lowrank_folded", "param")
          for kernel in ("adjoint", "adjoint_value")),
    ])
    def test_one_block_equals_its_32_column_slices(self, name, kernel):
        # small operators run their probes as one block wider than 32
        # columns, so an estimate keeps the bits of 32-column chunking
        # only if every kernel's rows are independent of the block width,
        # down to how BLAS rounds each column.  A ragged tail is not
        # pinned: with OpenBLAS 0.3.31's Haswell kernels the parametric
        # oracle's stacked partial matvec rounds the rows of a 6-column
        # block differently from the same rows of a 70-column block
        from spectral_cheb.grad_est import _adjoint_block

        rng = np.random.default_rng(90)
        matrix, oracle = {n: (a, o) for n, a, o in _step_oracles(rng, 30, None)}[name]
        eigs = np.linalg.eigvalsh(matrix)
        iv = Interval(eigs[0] - 0.1, eigs[-1] + 0.1)
        coeffs = compute_coefficients(np.exp, iv, degree=80).coeffs
        probes = probes_module._probe_columns(30, 91, 0, 0, 64)
        run = {"bilinear": probes_module._bilinear_block,
               "adjoint": _adjoint_block,
               "adjoint_value": lambda *args: _adjoint_block(*args, value=True)}[kernel]
        for n in (1, 2, 9, 80):
            whole = run(oracle, iv, coeffs, n, probes)
            parts = [run(oracle, iv, coeffs, n, probes[:, s : s + 32]) for s in range(0, 64, 32)]
            for got, want in zip(whole if isinstance(whole, tuple) else (whole,),
                                 zip(*parts) if isinstance(whole, tuple) else (parts,)):
                assert np.concatenate(want).tobytes() == got.tobytes(), n

    def test_boundaries_depend_on_dim_and_probe_count_alone(self, monkeypatch):
        def boundaries(dim, M, workers):
            plan = ProbePlan(0, M)
            plan.probes = lambda dim, start, stop: (start, stop)
            return probes_module._map_probe_chunks(plan, dim, lambda pair, start: pair, workers)

        built = record_thread_pools(monkeypatch)
        for dim in (7, 30, 512, 1024, 19881):
            for M in (1, 16, 64, 130, 5000):
                chunks = boundaries(dim, M, 1)
                assert boundaries(dim, M, 4) == chunks
                assert chunks[0][0] == 0 and chunks[-1][1] == M
                assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
                # every chunk but the last is whole 32-column blocks, more
                # than 2^14 entries, with no room for another block under
                # the 2^15-entry cap, which no chunk passes unless 32
                # columns do
                widths = [stop - start for start, stop in chunks]
                assert all(w % 32 == 0 and dim * w > 2**14 and dim * (w + 32) > 2**15
                           for w in widths[:-1])
                assert all(dim * w <= max(32 * dim, 2**15) for w in widths)
        assert boundaries(30, 64, 4) == [(0, 64)]
        assert boundaries(19881, 64, 4) == [(0, 32), (32, 64)]
        assert boundaries(512, 64, 4) == [(0, 64)]
        assert boundaries(800, 64, 4) == [(0, 32), (32, 64)]
        assert len(built) == 1  # plans of two or more chunks ran on the pool

    def test_only_the_chunk_map_reads_the_chunk_sizes(self):
        import ast
        from pathlib import Path

        scopes = []
        for path in Path(probes_module.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in ("_CHUNK", "_MIN_THREADED_ENTRIES"):
                    scope = parents.get(node)
                    while scope is not None and not isinstance(scope, ast.FunctionDef):
                        scope = parents.get(scope)
                    scopes.append(None if scope is None else scope.name)
        assert scopes and set(scopes) == {"_map_probe_chunks"}


class TestHutchinsonMoments:
    def test_mean_and_variance(self):
        rng = np.random.default_rng(18)
        b_mat = np.asarray(rng.standard_normal((16, 16)))
        b_mat = 0.5 * (b_mat + b_mat.T)
        probes = rng.integers(0, 2, size=(10**5, 16)) * 2.0 - 1.0
        quad = np.einsum("kd,de,ke->k", probes, b_mat, probes)
        truth = float(np.trace(b_mat))
        theo_var = 2.0 * (np.sum(b_mat**2) - np.sum(np.diag(b_mat) ** 2))
        assert abs(quad.mean() - truth) < 3 * math.sqrt(theo_var / probes.shape[0])
        assert quad.var() == pytest.approx(theo_var, rel=0.05)


class TestFixedDegreeBias:
    def test_bias_within_lifted_decay_bound(self):
        rng = np.random.default_rng(19)
        matrix, oracle, iv = spd_oracle(rng, 20)
        rho = 2.0
        bigU = math.exp((rho + 1.0 / rho) / 2.0)  # |exp| on the mapped ellipse, generous
        series = compute_coefficients(np.exp, iv, degree=40)
        w = np.linalg.eigvalsh(matrix)
        for n in (3, 6, 12):
            truncated = ChebSeries(iv, series.coeffs[: n + 1])
            tr_pn = float(np.sum(eval_series(truncated, w)))
            truth = exact_spectral_sum(matrix, np.exp)
            bound = 20 * 4.0 * bigU / ((rho - 1.0) * rho**n)
            assert abs(tr_pn - truth) <= bound


class TestPowerMethod:
    def test_diag_spectrum(self):
        oracle = MatrixOracle.from_matrix(np.diag([1.0, 2.0, 3.0]))
        val = power_method_bound(oracle, 50, seed=0)
        assert 3.0 <= val <= 3.3 + 1e-12

    def test_identity(self):
        oracle = MatrixOracle.from_matrix(np.eye(7))
        assert power_method_bound(oracle, 10, seed=1) == pytest.approx(1.1)

    def test_dominates_dense_eigensolver(self):
        rng = np.random.default_rng(20)
        matrix = random_spd(rng, 100, 0.1, 5.0)
        oracle = MatrixOracle.from_matrix(matrix)
        lam_max = float(np.linalg.eigvalsh(matrix).max())
        assert power_method_bound(oracle, 100, seed=2) >= lam_max

    def test_empty_operator_rejected(self):
        # in a child process with a timeout: an unchecked length-0 start
        # vector has norm 0 on every redraw and the retry loop never ends
        import subprocess
        import sys

        code = """
import numpy as np
from spectral_cheb.exceptions import ParameterError
from spectral_cheb.probes import MatrixOracle, power_method_bound
try:
    power_method_bound(MatrixOracle(dim=0, matvec=lambda x: x), 5, 0)
except ParameterError as exc:
    print(exc)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "dimension must be at least 1, got 0" in proc.stdout


class TestExpansion:
    def test_polynomial_series_zero_padded(self):
        iv = Interval(0.5, 2.0)
        series = series_from_polynomial([1.0, -2.0, 3.0], iv, degree=5)
        expansion = Expansion(None, series, optimal_distribution(2.0, 3))
        assert expansion.to_degree(5) is expansion
        longer = expansion.to_degree(9)
        assert longer.interval == iv and longer.dist is expansion.dist
        assert np.array_equal(longer.series.coeffs,
                              series_from_polynomial([1.0, -2.0, 3.0], iv, degree=9).coeffs)

    def test_function_series_expanded_afresh(self):
        iv = Interval(0.1, 4.0)
        expansion = Expansion(np.log, compute_coefficients(np.log, iv, 60),
                              optimal_distribution(1.5, 10))
        longer = expansion.to_degree(75)
        assert np.array_equal(longer.series.coeffs, compute_coefficients(np.log, iv, 75).coeffs)

    def test_builder_interval_degree_and_distribution(self):
        a_mat = random_spd(np.random.default_rng(41), 20, 0.5, 6.0)
        upper = certified_ends(a_mat)[1]
        expansion = expansion_for(np.log, 0.4, upper, 10)
        assert expansion.interval == Interval(0.4, HEADROOM * upper)
        rho = rho_from_endpoint_singularity(expansion.interval)
        headroom = 11 + math.ceil(math.log(1e13) / math.log(rho))
        assert expansion.series.degree == min(max(headroom, 60), 1000)
        assert np.array_equal(expansion.series.coeffs,
                              compute_coefficients(np.log, expansion.interval, headroom).coeffs)
        assert np.array_equal(expansion.dist.pmf_prefix, optimal_distribution(rho, 10).pmf_prefix)

    def test_builder_floors_upper_end_at_twice_lower(self):
        expansion = expansion_for(np.sqrt, 0.3, 0.1, 4, kind="neg(3)")
        assert expansion.interval == Interval(0.3, 0.6)
        assert expansion.series.degree == 60
        assert expansion.dist.kind is DistributionKind.NEG_BINOMIAL
        assert expansion.dist.params["r"] == 3.0


class TestLoadMatrix:
    def test_matrixmarket_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        dense = random_spd(rng, 6)
        sparse = scipy.sparse.coo_matrix(dense)
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(path), sparse)
        loaded = load_matrix(path)
        np.testing.assert_allclose(loaded.toarray(), dense, atol=1e-12)

    def test_dense_text(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1.0 0.5\n0.5 2.0\n")
        np.testing.assert_allclose(load_matrix(path), [[1.0, 0.5], [0.5, 2.0]])

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.5\n0.0 2.0\n")
        with pytest.raises(ParseError, match="symmetric"):
            load_matrix(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_matrix("/nonexistent/matrix.mtx")

    @pytest.mark.parametrize("size, message", [("0 0 0", "empty"),
                                               ("2 3 1\n1 1 1.0", "not square")])
    def test_matrixmarket_shape_rejected(self, tmp_path, size, message):
        path = tmp_path / "m.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{size}\n")
        with pytest.raises(ParseError, match=message):
            load_matrix(path)


class TestProbePlan:
    def test_blocks_are_read_only_and_kept(self):
        plan = ProbePlan(3, 40)
        block = plan.probes(12, 0, 32)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
        assert plan.probes(12, 0, 32) is block
        np.testing.assert_array_equal(block[:, 5], rademacher_probe(12, probe_rng(3, 5)))

    def test_plan_keeps_its_first_drawn_degree(self):
        iv = Interval(0.5, 2.0)
        oracle = MatrixOracle.from_matrix(np.diag([0.7, 1.1, 1.9]))
        series = compute_coefficients(np.exp, iv, degree=80)
        dist = optimal_distribution(2.0, 6)
        plan = ProbePlan(12, 5)
        first = estimate_spectral_sum_unbiased(oracle, series, dist, plan)
        drawn = plan.degree
        assert drawn == sample_degree(dist, probes_module.degree_rng(12, 0))
        assert estimate_spectral_sum_unbiased(oracle, series, dist, plan) == first
        # a later evaluation on the plan, even from another distribution, keeps it
        estimate_spectral_sum_unbiased(oracle, series, poisson_distribution(30), plan)
        assert plan.degree == drawn
        pinned = ProbePlan(12, 5, degree=drawn)
        assert estimate_spectral_sum_unbiased(oracle, series, dist, pinned) == first

    def test_shared_plan_matches_fresh_plans(self):
        rng = np.random.default_rng(19)
        _, oracle, iv = spd_oracle(rng, 10)
        series = compute_coefficients(np.exp, iv, degree=40)
        shared = ProbePlan(8, 40)
        for n in (7, 3, 7):
            fresh = estimate_spectral_sum_fixed(oracle, series, n, ProbePlan(8, 40))
            assert estimate_spectral_sum_fixed(oracle, series, n, shared) == fresh


class TestDegreeZero:
    """A degree-0 value draw is b_0 d, as v^T v = d for every Rademacher
    probe, and builds no probes: the gradients' rule."""

    def _setup(self, monkeypatch):
        _, oracle, iv = spd_oracle(np.random.default_rng(31), 9)
        series = compute_coefficients(np.log, iv, degree=30)
        built = []
        probe_columns = probes_module._probe_columns

        def recorded(dim, master_seed, eval_index, start, stop):
            built.append(eval_index)
            return probe_columns(dim, master_seed, eval_index, start, stop)

        monkeypatch.setattr(probes_module, "_probe_columns", recorded)
        return oracle, series, built

    def test_builds_no_probes_and_returns_b0_d(self, monkeypatch):
        oracle, series, built = self._setup(monkeypatch)
        exact = series.coeffs[0] * 9
        assert estimate_spectral_sum_unbiased(
            oracle, series, deterministic_distribution(0), ProbePlan(3, 7)) == exact
        assert estimate_spectral_sum_fixed(oracle, series, 0, ProbePlan(3, 7)) == exact
        assert built == []
        dist = poisson_distribution(1.0)  # q_0 = 1/e
        degrees = [sample_degree(dist, probes_module.degree_rng(5, t)) for t in range(40)]
        rows = sample_spectral_sums(oracle, series, dist, 5, 40, M=7)
        zeros = [t for t, n in enumerate(degrees) if n == 0]
        assert zeros and all(rows[t] == exact for t in zeros)
        assert sorted(built) == [t for t, n in enumerate(degrees) if n > 0]

    def test_non_finite_b0_still_raises(self, monkeypatch):
        oracle, series, built = self._setup(monkeypatch)
        coeffs = series.coeffs.copy()
        coeffs[0] = np.inf
        bad = ChebSeries(series.interval, coeffs)
        point_mass = deterministic_distribution(0)
        for call in (lambda: estimate_spectral_sum_unbiased(oracle, bad, point_mass,
                                                            ProbePlan(3, 7)),
                     lambda: estimate_spectral_sum_fixed(oracle, bad, 0, ProbePlan(3, 7)),
                     lambda: sample_spectral_sums(oracle, bad, point_mass, 3, 4, M=7)):
            with pytest.raises(NumericError, match="non-finite estimate .* degree 0"):
                call()
        assert built == []


def package_references(names):
    """(module file name, line, enclosing function name or None) of every
    reference to one of ``names`` inside the package; ``__init__``'s
    re-exports are not references."""
    import ast
    from pathlib import Path

    import spectral_cheb

    refs = []
    for path in sorted(Path(spectral_cheb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                name = node.name
            else:
                continue
            if name not in names:
                continue
            scope = node
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parents.get(scope)
            refs.append((path.name, node.lineno, None if scope is None else scope.name))
    return refs


class TestSingleProbeBuilder:
    GUARDED = {"probe_rng", "rademacher_probe"}

    def test_probe_streams_only_drawn_by_the_block_helper(self):
        refs = package_references(self.GUARDED)
        helper = [r for r in refs if r[0] == "probes.py" and r[2] == "_probe_columns"]
        offenders = [f"{path}:{line}" for path, line, scope in refs
                     if (path, line, scope) not in helper]
        assert offenders == []
        # the block fill draws every stream through probe_rng; rademacher_probe
        # is the one-vector reference it reproduces, referenced by no module
        assert len(helper) == 1

    def test_degrees_only_drawn_in_probes(self):
        # one evaluation's degree is the plan's, one batch's the batched
        # driver's; every other module goes through them
        refs = package_references({"degree_rng", "sample_degree"})
        offenders = [f"{path}:{line}" for path, line, _ in refs
                     if path not in ("probes.py", "degree_dist.py")]
        assert offenders == []
        drawn_in = {scope for path, _, scope in refs if path == "probes.py"}
        assert drawn_in == {None, "draw_degree", "_evaluate_batch"}

    def test_coefficients_only_reweighted_in_the_drivers(self):
        # every evaluation, fixed-degree ones too, re-weights its series in
        # one of the two drivers; no law-free truncation path remains
        import inspect

        refs = package_references({"weighted_coefficients"})
        # its import at the top of probes, then one read in each driver
        assert sorted((path, str(scope)) for path, _, scope in refs) == [
            ("probes.py", "None"), ("probes.py", "_evaluate"), ("probes.py", "_evaluate_batch")]
        assert "n" not in inspect.signature(probes_module._evaluate).parameters

    def test_step_takes_the_series_interval(self):
        # no oracle declares an interval of its own: every step, value or
        # gradient, single or batched, is handed the interval of the series
        # that the driver holds
        import dataclasses
        import inspect

        import spectral_cheb.grad_est as grad_est

        classes = (MatrixOracle, LowRankPSD, ParamMatrixOracle)
        names = {f.name for cls in classes for f in dataclasses.fields(cls)}
        for fn in (*classes, MatrixOracle.from_matrix):
            names |= set(inspect.signature(fn).parameters)
        assert [n for n in names if "interval" in n] == []

        class Recorded:
            def __init__(self, op):
                self.op, self.seen = op, []

            def __getattr__(self, name):
                return getattr(self.op, name)

            def step(self, w, w_prev, iv, **out):
                self.seen.append(iv)
                return self.op.step(w, w_prev, iv, **out)

        rng = np.random.default_rng(62)
        series = compute_coefficients(np.exp, Interval(0.1, 5.0), degree=20)
        dist = deterministic_distribution(7)
        for _, _, oracle in _step_oracles(rng, 12, None):
            runs = [
                lambda op: estimate_spectral_sum_fixed(op, series, 7, ProbePlan(1, 3)),
                lambda op: estimate_spectral_sum_unbiased(op, series, dist, ProbePlan(1, 3)),
                lambda op: sample_spectral_sums(op, series, dist, 1, 2, M=3),
            ]
            if isinstance(oracle, LowRankPSD):
                runs += [lambda op: grad_est.grad_estimate_lowrank(op, series, dist,
                                                                   ProbePlan(1, 3)),
                         lambda op: grad_est.sample_spectral_grads(op, series, dist, 1, 2)]
            elif isinstance(oracle, ParamMatrixOracle):
                runs += [lambda op: grad_est.grad_estimate_generic(op, series, dist,
                                                                   ProbePlan(1, 3)),
                         lambda op: grad_est.sample_spectral_grads(op, series, dist, 1, 2, M=3)]
            for run in runs:
                recorded = Recorded(oracle)
                run(recorded)
                assert recorded.seen and all(s is series.interval for s in recorded.seen)
