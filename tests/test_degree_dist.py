"""Tests for truncation-degree distributions and their variance algebra."""

import io
import math

import mpmath as mp
import numpy as np
import pytest
from helpers import (
    conditional_weighted_variance,
    cumulative_array,
    finite_kkt_solution,
    inverse_cdf_degrees,
    observable_horizon,
    pmf_array,
    random_feasible_pmf,
    relaxed_objective,
    tabulated_distribution,
    weighted_norm_sq,
    write_pmf_csv,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_cheb._variance_bench import log_abs_coefficients
from spectral_cheb.chebyshev import ChebSeries, Interval, compute_coefficients
from spectral_cheb.degree_dist import (
    DistributionKind,
    deterministic_distribution,
    log_weighted_variance,
    make_degree_distribution,
    negbinomial_distribution,
    optimal_distribution,
    poisson_distribution,
    sample_degree,
    weighted_coefficients,
)
from spectral_cheb.exceptions import EstimationError, ParameterError

IV = Interval(0.05, 0.95)
RHO_LOG = 1.595433215948964  # ellipse parameter of the singularity at 0 for [0.05, 0.95]


def all_distributions(mean_n):
    return {
        "opt": optimal_distribution(2.0, mean_n),
        "pois": poisson_distribution(mean_n),
        "neg": negbinomial_distribution(mean_n, r=5),
    }


class TestOptimalDistribution:
    def test_rho2_mean1(self):
        dist = optimal_distribution(2.0, 1)
        assert dist.params["K"] == 0
        q = pmf_array(dist, 4)
        np.testing.assert_allclose(q, [0.5, 0.25, 0.125, 0.0625, 0.03125], rtol=1e-13)
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-13)
        assert dist.mean() == pytest.approx(1.0, abs=1e-10)

    def test_rho3_mean2(self):
        dist = optimal_distribution(3.0, 2)
        assert dist.params["K"] == 1
        q = pmf_array(dist, 3)
        np.testing.assert_allclose(q, [0.0, 1 / 3, 4 / 9, 4 / 27], rtol=1e-13)
        assert dist.mean() == pytest.approx(2.0, abs=1e-10)

    def test_rho2_mean5_zero_atom(self):
        # rho/(rho-1) integral makes the atom at K vanish
        dist = optimal_distribution(2.0, 5)
        assert dist.params["K"] == 3
        q = pmf_array(dist, 5)
        np.testing.assert_allclose(q[:3], 0.0, atol=0)
        assert q[3] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(q[4:], [0.5, 0.25], rtol=1e-13)

    def test_invalid_rho(self):
        with pytest.raises(ParameterError):
            optimal_distribution(1.0, 5)

    @pytest.mark.parametrize("rho", [1.0247, 2.0, 1e5, 1e150, 6e153, 1e154, 1e300])
    def test_atom_and_closed_form_tail(self, rho):
        # the prefix stores q_K and q_{K+1} = c ((rho-1)/rho)^2 only, and the
        # closed-form tail continues c (rho-1)^2 rho^(K-i-1) past it
        dist = optimal_distribution(rho, 5)
        k_supp = int(dist.params["K"])
        assert dist.pmf_prefix.size == k_supp + 2
        degrees = range(k_supp + 1, k_supp + 65)
        with mp.workdps(40):
            want = np.array([float((5 - k_supp) * (mp.mpf(rho) - 1) ** 2
                                   * mp.mpf(rho) ** (k_supp - i - 1)) for i in degrees])
        got = pmf_array(dist, k_supp + 64)[k_supp + 1:]
        normal = want >= np.finfo(float).tiny
        assert normal[0]
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
        assert np.all(got[~normal] < np.finfo(float).tiny)

    @pytest.mark.parametrize("rho", [1e154, 2e154, 1e300])
    def test_huge_rho_run_formed_from_the_ratio(self, rho):
        # (rho - 1)^2 overflows past rho ~ 1.34e154: the stored run is the
        # one tail mass q_{K+1} = c ((rho-1)/rho)^2, and the law still closes
        dist = optimal_distribution(rho, 5)
        assert dist.params["K"] == 4
        assert dist.pmf_prefix.size == 6
        assert dist.pmf_prefix[5] == ((rho - 1.0) / rho) ** 2
        assert abs(dist.total_mass() - 1.0) <= 1e-12
        assert abs(dist.mean() - 5.0) <= 1e-9

    @pytest.mark.parametrize("rho,mean_n", [(2.0, 1), (3.0, 2), (2.0, 5), (1.3, 7), (5.0, 20)])
    def test_constraints(self, rho, mean_n):
        dist = optimal_distribution(rho, mean_n)
        assert abs(dist.total_mass() - 1.0) <= 1e-12
        assert abs(dist.mean() - mean_n) <= 1e-9

    def test_unbiasedness_tail_condition(self):
        # survival decays at least geometrically: 1 - S_n <= C rho^-n
        dist = optimal_distribution(1.7, 12)
        rho, K, n_mean = 1.7, dist.params["K"], 12
        c_const = (n_mean - K) * (rho - 1.0) * rho ** (K - 1.0)
        surv = dist.survival_array(200)
        n = np.arange(201, dtype=float)
        assert np.all(surv <= c_const * rho**(-n) * (1 + 1e-9) + 1e-300)

    def test_survival_matches_closed_form(self):
        # accumulated sums and the analytic tail law agree
        dist = optimal_distribution(2.5, 8)
        rho, K, n_mean = 2.5, int(dist.params["K"]), 8
        surv = dist.survival_array(120)
        n = np.arange(K, 121, dtype=float)
        analytic = (n_mean - K) * (rho - 1.0) * rho ** (K - n - 1.0)
        np.testing.assert_allclose(surv[K:], analytic, rtol=1e-12, atol=1e-12)


class TestBaselines:
    def test_poisson_pmf_at_mean(self):
        # frozen from e^-10 10^10 / 10!
        dist = poisson_distribution(10)
        assert pmf_array(dist, 10)[10] == pytest.approx(0.125110035721133, rel=1e-10)

    def test_poisson_small_mean(self):
        dist = poisson_distribution(0.5)
        assert pmf_array(dist, 0)[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("mean_n", [1, 5, 10, 50, 100])
    def test_mean_constraints(self, mean_n):
        assert abs(poisson_distribution(mean_n).mean() - mean_n) <= 1e-9
        for r in (1, 2, 5, 10):
            assert abs(negbinomial_distribution(mean_n, r).mean() - mean_n) <= 1e-9

    @pytest.mark.parametrize("mean_n", [0.5, 3, 10, 15, 40, 100])
    def test_tables_match_scipy_stats(self, mean_n):
        from scipy import stats

        cases = [(poisson_distribution(mean_n), stats.poisson(mu=mean_n))]
        cases += [(negbinomial_distribution(mean_n, r), stats.nbinom(n=r, p=r / (r + mean_n)))
                  for r in (1, 2, 5, 10)]
        for dist, ref in cases:
            length = int(4 * mean_n + 64)
            while ref.sf(length) > 1e-13:
                length *= 2
            assert dist.pmf_prefix.size == length + 1
            want = ref.pmf(np.arange(length + 1))
            assert np.max(np.abs(dist.pmf_prefix - want / want.sum())) <= 1e-14

    def test_negative_binomial_shape_large_but_finite(self):
        # 1 - p = N / (r + N) is formed without cancellation, so a huge r
        # keeps its mean, and r = inf is refused
        for r in (1e8, 1e16, 1e300):
            assert negbinomial_distribution(15, r).mean() == pytest.approx(15.0, rel=1e-12)
        with pytest.raises(ParameterError, match="shape parameter r must be finite, got inf"):
            negbinomial_distribution(15, math.inf)

    def test_deterministic(self):
        # inverting the survival, 1 below n and 0 at n, returns n for every u
        for n in (0, 1, 7):
            dist = deterministic_distribution(n)
            assert sample_degree(dist, np.random.default_rng(0)) == n
            for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                assert sample_degree(dist, _FixedUniform(u)) == n
            assert dist.mean() == n


def _mp_survival(dist, j):
    """P(n > j) to 40 digits: the stored prefix, then the geometric tail."""
    with mp.workdps(40):
        q = [mp.mpf(float(x)) for x in dist.pmf_prefix]
        j_end = len(q) - 1
        head = mp.fsum(q[j + 1 :])
        if dist.tail_ratio is None:
            return head
        c = mp.mpf(dist.tail_ratio)
        return head + q[j_end] * c ** (max(j, j_end) - j_end + 1) / (1 - c)


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


DISTRIBUTIONS = st.one_of(
    st.builds(optimal_distribution, st.floats(1.01, 6.0), st.integers(1, 60)),
    st.builds(poisson_distribution, st.integers(1, 60)),
    st.builds(negbinomial_distribution, st.integers(1, 60),
              st.sampled_from([1.0, 2.0, 5.0, 10.0])),
)


class TestSurvivalProperties:
    @settings(max_examples=40, deadline=None)
    @given(dist=DISTRIBUTIONS)
    def test_mass_and_mean(self, dist):
        j_end = dist.pmf_prefix.size - 1
        surv = dist.survival_array(j_end + 200)
        cums = cumulative_array(dist, j_end + 200)
        assert abs(dist.total_mass() - 1.0) <= 1e-14
        assert np.max(np.abs(cums + surv - 1.0)) <= 1e-14
        # E[n] = sum_j P(n > j); the geometric tail past J sums to q_J c / (1 - c)^2
        mean = math.fsum(surv[:j_end])
        if dist.tail_ratio is not None:
            c = dist.tail_ratio
            mean += dist.pmf_prefix[-1] * c / (1.0 - c) ** 2
        assert mean == pytest.approx(dist.mean(), rel=1e-12)
        assert mean == pytest.approx(dist.params["N"], rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(dist=DISTRIBUTIONS)
    def test_survival_matches_extended_precision_sum(self, dist):
        j_end = dist.pmf_prefix.size - 1
        picks = {0, 1, j_end // 2, j_end - 1, j_end, j_end + 1, j_end + 37, 999}
        surv = dist.survival_array(max(picks))
        for j in sorted(picks):
            want = _mp_survival(dist, j)
            if want < 1e-290:  # below the normal double range
                assert surv[j] < 1e-290
            else:
                assert abs(surv[j] - want) <= 1e-13 * want, j

    @settings(max_examples=60, deadline=None)
    @given(dist=DISTRIBUTIONS, u=st.floats(0.0, 1.0, exclude_max=True))
    def test_inverse_cdf_agrees_with_pmf(self, dist, u):
        n = sample_degree(dist, _FixedUniform(u))
        surv = dist.survival_array(n)
        assert pmf_array(dist, n)[n] > 0.0
        below = 1.0 - (surv[n - 1] if n >= 1 else 1.0)  # P(degree < n)
        assert below - 1e-13 <= u <= 1.0 - surv[n] + 1e-13

    def test_stored_tail_gives_every_length_the_closed_form_bits(self):
        dist = optimal_distribution(1.0247, 15)
        j_end = dist.pmf_prefix.size - 1
        c = dist.tail_ratio
        for upto in (j_end + 1, j_end + 40, j_end + 3, j_end + 700, j_end + 41, j_end + 699):
            powers = c ** np.arange(2, upto - j_end + 2, dtype=float)
            want = np.append(dist.survival_prefix, dist.pmf_prefix[-1] * powers / (1.0 - c))
            assert dist.survival_array(upto).tobytes() == want.tobytes(), upto

    def test_denominators_deep_in_the_tail(self):
        # the GP start point's distribution: survival 9.4e-12 at j = 999,
        # where 1 - S_j has lost five digits to cancellation
        dist = optimal_distribution(1.0247, 15)
        bhat = weighted_coefficients(ChebSeries(IV, np.ones(1001)), dist, 1000)
        want = _mp_survival(dist, 998)  # P(n >= 999)
        assert 9e-12 < want < 1e-11
        assert abs(1.0 / bhat[999] - want) <= 1e-14 * want
        assert abs(1.0 - cumulative_array(dist, 998)[-1] - want) > 1e-6 * want


class TestLogMasses:
    @pytest.mark.parametrize("dist", [optimal_distribution(RHO_LOG, 10), poisson_distribution(10),
                                      negbinomial_distribution(10, 2),
                                      deterministic_distribution(10)],
                             ids=["opt", "pois", "neg2", "det"])
    def test_partition_unit_mass_and_match_the_pmf(self, dist):
        log_q = dist.log_masses(30)
        assert abs(np.logaddexp.reduce(log_q)) <= 1e-14
        np.testing.assert_allclose(np.exp(log_q[:-1]), pmf_array(dist, 30), rtol=1e-12, atol=0)

    def test_baselines_follow_their_law_past_the_tabulated_prefix(self):
        # the tabulated prefixes stop near 1e-13 of mass left; at degree
        # 220 these masses are ~2e-270 (Poisson) and ~1e-31 (neg(2))
        j = 220
        mean, r = 5.0, 2.0
        pois = -mean + j * math.log(mean) - math.lgamma(j + 1.0)
        neg = (math.lgamma(j + r) - math.lgamma(r) - math.lgamma(j + 1.0)
               + r * math.log(r / (r + mean)) + j * math.log(mean / (r + mean)))
        for dist, want in ((poisson_distribution(mean), pois),
                           (negbinomial_distribution(mean, r), neg)):
            got = dist.log_masses(j)[j]
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_geometric_tail_continues_past_underflow(self):
        dist = optimal_distribution(1e5, 5)
        # the stored atom and first tail mass are normal doubles
        assert np.all(dist.pmf_prefix[int(dist.params["K"]):] >= np.finfo(float).tiny)
        log_q = dist.log_masses(220)
        assert np.all(np.isfinite(log_q[4:]))
        end = dist.pmf_prefix.size
        np.testing.assert_allclose(np.diff(log_q[end:-1]), -math.log(1e5), rtol=1e-12)
        assert log_q[-1] == pytest.approx(log_q[-2] - math.log(1e5) - math.log1p(-1e-5),
                                          rel=1e-14)


class TestSampling:
    def test_optimal_monte_carlo_matches_pmf(self):
        dist = optimal_distribution(2.0, 1)
        rng = np.random.default_rng(42)
        draws = np.array([sample_degree(dist, rng) for _ in range(10**6)])
        # mean 1, atom q_0 = 0.5; variance of the degree distribution:
        q = pmf_array(dist, 400)
        i = np.arange(401, dtype=float)
        var = float(q @ (i - 1.0) ** 2) + dist._tail_mass_beyond_prefix() * 400**2
        se_mean = math.sqrt(var / draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se_mean
        p0 = np.mean(draws == 0)
        se_p0 = math.sqrt(0.5 * 0.5 / draws.size)
        assert abs(p0 - 0.5) < 3 * se_p0

    def test_optimal_support_floor(self):
        dist = optimal_distribution(3.0, 2)
        rng = np.random.default_rng(7)
        draws = np.array([sample_degree(dist, rng) for _ in range(10**5)])
        assert draws.min() == 1  # == K

    def test_tabulated_sampling(self):
        dist = poisson_distribution(4)
        rng = np.random.default_rng(3)
        draws = np.array([sample_degree(dist, rng) for _ in range(10**5)])
        assert abs(draws.mean() - 4.0) < 3 * 2.0 / math.sqrt(draws.size)

    @pytest.mark.parametrize("dist", [
        optimal_distribution(1.0068, 15), optimal_distribution(1.0247, 15),
        optimal_distribution(1.19, 30), poisson_distribution(15), negbinomial_distribution(15, 5),
    ], ids=["opt-1.0068", "opt-1.0247", "opt-1.19", "pois", "neg"])
    def test_draws_match_the_forward_inverse_cdf(self, dist):
        # the survival boundaries 1 - P(n > j) and the forward running sums
        # S_j differ by rounding only, so no seeded draw moves
        uniforms = np.random.default_rng(31).random(10**5)
        rng = np.random.default_rng(31)
        draws = np.array([sample_degree(dist, rng) for _ in range(uniforms.size)])
        assert np.array_equal(draws, inverse_cdf_degrees(dist, uniforms))

    def test_deterministic_given_seed(self):
        dist = optimal_distribution(1.8, 6)
        a = [sample_degree(dist, np.random.default_rng(11)) for _ in range(50)]
        b = [sample_degree(dist, np.random.default_rng(11)) for _ in range(50)]
        assert a == b


class TestWeightedCoefficients:
    def test_deterministic_keeps_coefficients(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=10)
        dist = deterministic_distribution(10)
        bhat = weighted_coefficients(series, dist, 10)
        assert np.array_equal(bhat, series.coeffs)

    def test_optimal_rho2_mean1(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=10)
        dist = optimal_distribution(2.0, 1)
        bhat = weighted_coefficients(series, dist, 4)
        assert bhat[1] == pytest.approx(2.0 * series.coeffs[1], rel=1e-13)

    def test_optimal_rho3_mean2(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=10)
        dist = optimal_distribution(3.0, 2)
        bhat = weighted_coefficients(series, dist, 5)
        assert bhat[2] == pytest.approx(series.coeffs[2] * 1.5, rel=1e-13)

    def test_bit_exact_below_support(self):
        series = compute_coefficients(np.log, IV, degree=40)
        dist = optimal_distribution(1.6, 20)
        k_supp = int(dist.params["K"])
        bhat = weighted_coefficients(series, dist, 30)
        assert np.array_equal(bhat[: k_supp + 1], series.coeffs[: k_supp + 1])

    def test_degree_outside_series(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=5)
        with pytest.raises(ParameterError):
            weighted_coefficients(series, optimal_distribution(2.0, 2), 9)


def _log_b(series):
    """log|b_j| for j = 1..degree of a computed series."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(series.coeffs[1:]))


TABULATED = st.builds(
    lambda q, ratio: tabulated_distribution(
        np.asarray(q) / (sum(q) + (q[-1] * ratio / (1.0 - ratio) if ratio else 0.0)),
        tail_ratio=ratio),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=40)
    .filter(lambda q: q[-1] > 0.0),
    st.one_of(st.none(), st.floats(0.05, 0.9)),
)


class TestWeightedVariance:
    def test_polynomial_with_covering_deterministic_degree(self):
        series = compute_coefficients(lambda x: 4 * x**3 - x, Interval(-1, 1), degree=3)
        dist = deterministic_distribution(5)
        assert log_weighted_variance(_log_b(series), dist, math.inf) == -math.inf

    def test_two_atom_hand_value(self):
        series = ChebSeries(Interval(-1, 1), np.array([0.0, 1.0]))
        dist = tabulated_distribution([0.5, 0.5])
        value = math.exp(log_weighted_variance(_log_b(series), dist, math.inf))
        assert value == pytest.approx(np.pi / 2)

    def test_two_atom_monte_carlo_oracle(self):
        # sample degrees, integrate the weighted error numerically, average
        series = ChebSeries(Interval(-1, 1), np.array([0.0, 1.0]))
        dist = tabulated_distribution([0.5, 0.5])
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(4000):
            n = sample_degree(dist, rng)
            bhat = weighted_coefficients(series, dist, n)
            vals.append(weighted_norm_sq(series, bhat, lambda x: x))
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals) - np.pi / 2) < max(3 * se, 1e-12)

    def test_deterministic_on_nonpolynomial_diverges(self):
        series = compute_coefficients(np.exp, Interval(-1, 1), degree=20)
        dist = deterministic_distribution(5)
        assert log_weighted_variance(_log_b(series), dist, math.inf) == math.inf

    def test_figure_ordering_on_log(self):
        log_b = log_abs_coefficients("log", None, IV, 300)
        for mean_n in (5, 10, 20, 50):
            v_opt = log_weighted_variance(log_b, optimal_distribution(RHO_LOG, mean_n), RHO_LOG)
            v_pois = log_weighted_variance(log_b, poisson_distribution(mean_n), RHO_LOG)
            v_neg = log_weighted_variance(log_b, negbinomial_distribution(mean_n, 5), RHO_LOG)
            assert math.isfinite(v_opt) and math.isfinite(v_neg)
            assert v_pois == math.inf  # Poisson's tail falls faster than rho^-2j
            assert v_opt < v_neg

    @settings(max_examples=150, deadline=None)
    @given(log_b=st.lists(st.one_of(st.floats(-30.0, 5.0), st.just(-math.inf)),
                          min_size=1, max_size=60),
           dist=st.one_of(DISTRIBUTIONS, TABULATED, st.builds(deterministic_distribution,
                                                              st.integers(0, 60))),
           rho_f=st.one_of(st.just(math.inf), st.floats(1.01, 10.0)))
    def test_matches_direct_sum(self, log_b, dist, rho_f):
        # the direct terms b_j^2 S_{j-1} / (1 - S_{j-1}) from the same law's
        # masses, each S and 1 - S an exact sum of doubles
        log_b = np.array(log_b)
        got = log_weighted_variance(log_b, dist, rho_f)
        log_q = dist.log_masses(log_b.size - 1)
        q = np.exp(log_q)
        live = np.nonzero(log_b > -np.inf)[0] + 1  # the j with b_j != 0
        last = (math.inf if dist.tail_ratio is not None or dist.kind in (
            DistributionKind.POISSON, DistributionKind.NEG_BINOMIAL)
            else np.nonzero(dist.pmf_prefix)[0][-1])
        divergent = math.isfinite(rho_f) and dist.limit_ratio * rho_f**2 <= 1.0
        assert (got == math.inf) == (divergent or bool(np.any(live > last)))
        if got == math.inf:
            return
        assume(np.all((log_q == -np.inf) | (log_q > -700.0)))  # no mass underflows
        terms = [math.exp(2.0 * log_b[j - 1]) * math.fsum(q[:j]) / math.fsum(q[j:])
                 for j in live]
        total = math.fsum(terms)
        assume(math.isfinite(total))
        want = math.log(math.pi / 2.0 * total) if total > 0.0 else -math.inf
        assert got == pytest.approx(want, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("fname,f", [("log", np.log), ("sqrt", np.sqrt), ("exp", np.exp)])
    def test_closed_form_vs_monte_carlo(self, fname, f):
        # Both routes are conditioned on the degree range a 1e4-draw
        # budget can observe; beyond it the Poisson-weighted sum diverges
        # through events of probability < 1e-8.
        iv = Interval(-1, 1) if fname == "exp" else IV
        series = compute_coefficients(f, iv, degree=200)
        rho = 4.0 if fname == "exp" else RHO_LOG
        for dist in (
            optimal_distribution(rho, 8),
            poisson_distribution(8),
            negbinomial_distribution(8, 5),
        ):
            horizon = observable_horizon(dist)
            closed = conditional_weighted_variance(series, dist, horizon)
            rng = np.random.default_rng(17)
            degrees = np.array([sample_degree(dist, rng) for _ in range(10**4)])
            degrees = degrees[degrees <= horizon]
            per_degree = {}
            for n in np.unique(degrees):
                bhat = weighted_coefficients(series, dist, int(n))
                per_degree[int(n)] = weighted_norm_sq(series, bhat, f)
            vals = np.array([per_degree[int(n)] for n in degrees])
            se = vals.std() / math.sqrt(vals.size)
            assert abs(vals.mean() - closed) <= max(3 * se, 0.02 * closed)

    def test_tail_sum_matches_conditional_when_finite(self):
        # for geometric-tailed distributions the conditioned value and the
        # straight tail sum agree; the sum takes the closed-form
        # coefficients, since the quadrature's ~1e-17 floor, divided by
        # the tail survivals, would swamp it
        series = compute_coefficients(np.log, IV, degree=200)
        dist = optimal_distribution(RHO_LOG, 8)
        full = math.exp(log_weighted_variance(log_abs_coefficients("log", None, IV, 300), dist,
                                              RHO_LOG))
        conditioned = conditional_weighted_variance(series, dist, observable_horizon(dist))
        assert conditioned == pytest.approx(full, rel=1e-3)


class TestRelaxedObjective:
    def test_cauchy_schwarz_equality_case(self):
        # below the support threshold the optimum hits 1/(rho-1)^2 - 1/(rho^2-1)
        val = relaxed_objective(optimal_distribution(2.0, 1), 2.0, 400)
        assert val == pytest.approx(1.0 - 1.0 / 3.0, rel=1e-12)

    def test_deterministic_diverges(self):
        assert relaxed_objective(deterministic_distribution(5), 2.0, 40) == math.inf

    def test_optimal_beats_random_search(self):
        rng = np.random.default_rng(23)
        rho, mean_n = 2.0, 6
        v_opt = relaxed_objective(optimal_distribution(rho, mean_n), rho, 300)
        for _ in range(200):
            dist = random_feasible_pmf(rng, mean_n)
            assert v_opt <= relaxed_objective(dist, rho, 300) + 1e-10


class TestFiniteKKT:
    def test_hand_value_rho3_mean2(self):
        dist = finite_kkt_solution(3.0, 2, 8)
        q1 = pmf_array(dist, 1)[1]
        assert q1 == pytest.approx(1.0 - (2.0 / 3.0) * (2187.0 / 2186.0), rel=1e-12)
        assert abs(dist.total_mass() - 1.0) <= 1e-12
        assert dist.mean() == pytest.approx(2.0, abs=1e-9)

    def test_kkt_residuals(self):
        # stationarity: rho^{-2(n+1)} / (1 - S_n)^2 constant on the support run
        rho, mean_n, horizon = 3.0, 2, 8
        dist = finite_kkt_solution(rho, mean_n, horizon)
        k = int(dist.params["k"])
        surv = dist.survival_array(horizon - 1)
        lam = rho ** (-2.0 * (np.arange(k + 1, horizon) + 1)) / surv[k + 1 : horizon] ** 2
        np.testing.assert_allclose(lam, lam[0], rtol=1e-10)

    def test_converges_to_infinite_optimum(self):
        for rho, mean_n in [(3.0, 2), (2.0, 5), (5.0, 10)]:
            fkkt = finite_kkt_solution(rho, mean_n, 64)
            opt = optimal_distribution(rho, mean_n)
            q_f = pmf_array(fkkt, 63)
            q_o = pmf_array(opt, 63)
            assert np.max(np.abs(q_f - q_o)) < 1e-12

    def test_objective_closed_form(self):
        rho, mean_n, horizon = 3.0, 2, 12
        dist = finite_kkt_solution(rho, mean_n, horizon)
        surv = dist.survival_array(horizon - 1)
        j = np.arange(1, horizon + 1, dtype=float)
        direct = float(np.sum(rho ** (-2.0 * j) / surv))
        assert direct == pytest.approx(dist.params["kkt_objective"], rel=1e-12)

    def test_infeasible_horizon_raises(self):
        with pytest.raises(EstimationError, match="interval"):
            finite_kkt_solution(1.01, 50, 8)


class TestCsvExport:
    def test_columns_and_determinism(self):
        dist = optimal_distribution(2.0, 3)
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_pmf_csv(dist, buf1, 20)
        write_pmf_csv(dist, buf2, 20)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().strip().split("\n")
        assert lines[0] == "i,q_i,cumsum"
        assert len(lines) == 22
        i, q, s = lines[5].split(",")
        assert int(i) == 4
        assert float(q) == pmf_array(dist, 4)[4]


class TestKindLabels:
    def test_kinds(self):
        assert optimal_distribution(2.0, 2).kind is DistributionKind.OPTIMAL
        assert poisson_distribution(2).kind is DistributionKind.POISSON
        assert negbinomial_distribution(2, 2).kind is DistributionKind.NEG_BINOMIAL
        assert deterministic_distribution(2).kind is DistributionKind.DETERMINISTIC


class TestNames:
    @pytest.mark.parametrize("spec, direct, name", [
        (" opt ", lambda n: optimal_distribution(1.7, n), "opt"),
        ("pois", poisson_distribution, "pois"),
        ("neg", lambda n: negbinomial_distribution(n, 5), "neg(5)"),
        ("neg(5)", lambda n: negbinomial_distribution(n, 5), "neg(5)"),
        ("neg(2.50)", lambda n: negbinomial_distribution(n, 2.5), "neg(2.5)"),
        ("det", deterministic_distribution, "det"),
    ])
    def test_each_spelling_builds_its_constructor(self, spec, direct, name):
        built, want = make_degree_distribution(spec, 7, rho=1.7), direct(7)
        assert built.kind is want.kind and built.params == want.params
        assert built.tail_ratio == want.tail_ratio
        assert np.array_equal(built.pmf_prefix, want.pmf_prefix)
        assert built.name == name
        assert make_degree_distribution(built.name, 7, rho=1.7).params == want.params

    @pytest.mark.parametrize("spec, message", [
        ("neg(abc)", "cannot parse the r of degree distribution 'neg(abc)'"),
        ("neg()", "cannot parse the r of degree distribution 'neg()'"),
        ("bogus", "unknown degree distribution 'bogus'"),
        ("opt", "the optimal distribution needs the decay parameter rho"),
    ])
    def test_bad_spelling_or_missing_rho_raises(self, spec, message):
        with pytest.raises(ParameterError) as exc:
            make_degree_distribution(spec, 7)
        assert str(exc.value) == message


def test_package_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy is the package's only third-party import, and the training
    # commands and a default variance-bench sweep load nothing more: scipy
    # waits for a sparse matrix file, and mpmath is for the tests only
    import subprocess
    import sys
    from pathlib import Path

    data = Path(__file__).resolve().parents[1] / "data"
    short = ["--epochs", "1", "--inner-iters", "2", "--M", "2", "--N", "3"]
    code = f"""
import sys, spectral_cheb, spectral_cheb.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))
print(loaded())
for command, train in (("mc-train", "synthetic_ratings.csv"), ("gp-train", "synthetic_gp.csv")):
    argv = [command, "--train", {str(data)!r} + "/" + train, *{short!r},
            "--out", {str(tmp_path)!r} + "/" + command + ".csv"]
    assert spectral_cheb.cli.main(argv) == 0
argv = ["variance-bench", "--func", "log", "--rho", "1.5954",
        "--out", {str(tmp_path)!r} + "/variance-bench.csv"]
assert spectral_cheb.cli.main(argv) == 0
print(loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n[]\n"
