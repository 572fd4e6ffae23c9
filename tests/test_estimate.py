import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import digamma, gamma as G

import tempstable as ts
from tempstable import (
    DomainError,
    InfeasibleCumulantsError,
    OneSidedParams,
    TemperedStableParams,
)
from tempstable import core, estimate
from tempstable.estimate import population_kappa

from conftest import moments_from_cumulants


def one_sided_kappa(p: OneSidedParams, n: int) -> float:
    return G(n - p.beta) * p.alpha / p.lam ** (n - p.beta)


def _leg_cumulants(theta) -> tuple:
    # both legs' first six cumulants from core's per-leg kernel, the minus leg's signed
    k_minus, _ = core._leg_kappas(*theta[3:])
    return core._leg_kappas(*theta[:3])[0], [s * k for s, k in zip(core._SIGNS, k_minus)]


def _array_mismatch_jacobian(kappa_hat, theta, k_plus, k_minus) -> np.ndarray:
    # estimate._mismatch_jacobian's closed form in numpy array arithmetic,
    # given both legs' cumulants (the minus leg's signed)
    k_plus, k_minus = np.array(k_plus), np.array(k_minus)
    resid = k_plus + k_minus - np.asarray(kappa_hat)
    cols = []
    for (alpha, beta, lam), k in ((theta[:3], k_plus), (theta[3:], k_minus)):
        e, log_lam = np.arange(1, 7) - beta, math.log(lam)
        cols += [k / alpha, log_lam * (k - resid) - k * digamma(e), e * (resid - k) / lam]
    return np.array(cols).T


class TestSampleCumulants:
    def test_constant_data(self):
        k = ts.sample_cumulants(np.full(50, 3.7))
        assert k.kappa_hat[0] == pytest.approx(3.7, rel=1e-15)
        assert np.allclose(k.kappa_hat[1:], 0.0, atol=1e-10)

    def test_requires_seven_observations(self):
        with pytest.raises(DomainError) as err:
            ts.sample_cumulants(np.arange(6))
        assert err.value.code == "TOO_FEW_OBS"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observations_are_domain_error(self, bad):
        x = np.linspace(-1.0, 1.0, 20)
        x[[3, 11]] = bad
        with pytest.raises(DomainError, match="2 of 20 observations are not finite") as err:
            ts.sample_cumulants(x)
        assert err.value.code == "PARAM_DOMAIN"

    def test_overflowing_cumulants_are_domain_error(self):
        # finite data whose sixth central moment passes the float range
        x = np.random.default_rng(0).standard_normal(50) * 1e60
        with pytest.raises(DomainError, match="leave the float range") as err:
            ts.sample_cumulants(x)
        assert err.value.code == "PARAM_DOMAIN"

    def test_standard_normal_synthetic(self, rng):
        n = 1_000_000
        k = ts.sample_cumulants(rng.standard_normal(n))
        # asymptotic standard errors of k-statistics under normality
        assert abs(k.kappa_hat[1] - 1.0) < 5.0 * math.sqrt(2.0 / n)
        assert abs(k.kappa_hat[2]) < 5.0 * math.sqrt(6.0 / n)
        assert abs(k.kappa_hat[3]) < 5.0 * math.sqrt(24.0 / n)

    def test_shift_invariance(self, rng):
        # cumulants past the first do not move when the data is shifted
        x = rng.standard_normal(200_000)
        base = np.array(ts.sample_cumulants(x).kappa_hat)
        shifted = np.array(ts.sample_cumulants(x + 1e3).kappa_hat)
        assert shifted[0] == pytest.approx(base[0] + 1e3, abs=1e-9)
        assert np.allclose(shifted[1:], base[1:], rtol=0.0, atol=1e-9)

    def test_matches_exact_rational_reference(self, rng):
        # skewed, heavy-tailed data far from the origin: every float is an
        # exact rational, so the mean, central moments and cumulants of the
        # sample have an exact reference
        noise = rng.lognormal(0.0, 1.0, 200) - rng.standard_exponential(200)
        for offset in (1e3, 1e6, 1e9):
            x = offset + noise
            xs = [Fraction(v) for v in x.tolist()]
            mu = sum(xs) / len(xs)
            m2, m3, m4, m5, m6 = (sum((v - mu) ** j for v in xs) / len(xs) for j in range(2, 7))
            exact = [mu, m2, m3, m4 - 3 * m2**2, m5 - 10 * m3 * m2,
                     m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3]
            got = ts.sample_cumulants(x).kappa_hat
            for j in range(1, 7):
                err = abs(float(Fraction(got[j - 1]) - exact[j - 1]))
                assert err <= 1e-12 * max(abs(float(exact[j - 1])), float(m2) ** (j / 2)), (offset, j)

    def test_moment_map_on_known_laws(self):
        # Exp(1): kappa_n = (n-1)! and raw moments m_n = n!
        kappa_exp = np.array([math.factorial(n - 1) for n in range(1, 7)], dtype=float)
        assert np.allclose(moments_from_cumulants(kappa_exp),
                           [math.factorial(n) for n in range(1, 7)], rtol=1e-14)
        # standard normal: moments 0, 1, 0, 3, 0, 15
        assert np.allclose(moments_from_cumulants([0, 1, 0, 0, 0, 0]),
                           [0, 1, 0, 3, 0, 15], atol=1e-14)

    def test_population_moments_reproduce_cumulants(self):
        # small-mean law keeps the k-statistic cancellation benign, so the
        # identity holds to near machine precision
        law = TemperedStableParams.create(1.3, 0.4, 2.0, 1.0, 0.5, 3.0)
        kappa = np.array(ts.cumulant_vector(law).kappa)
        m = moments_from_cumulants(kappa)
        # feed exact raw moments through the k-statistic identities
        m1, m2, m3, m4, m5, m6 = m
        k1 = m1
        k2 = m2 - m1**2
        k3 = m3 - 3 * m1 * m2 + 2 * m1**3
        k4 = m4 - 4 * m1 * m3 - 3 * m2**2 + 12 * m1**2 * m2 - 6 * m1**4
        k5 = (m5 - 5 * m1 * m4 - 10 * m2 * m3 + 20 * m1**2 * m3
              + 30 * m1 * m2**2 - 60 * m1**3 * m2 + 24 * m1**5)
        k6 = (m6 - 6 * m1 * m5 - 15 * m2 * m4 + 30 * m1**2 * m4 - 10 * m3**2
              + 120 * m1 * m2 * m3 - 120 * m1**3 * m3 + 30 * m2**3
              - 270 * m1**2 * m2**2 + 360 * m1**4 * m2 - 120 * m1**6)
        assert np.allclose([k1, k2, k3, k4, k5, k6], kappa, rtol=1e-12, atol=1e-12)


class TestFitOneSided:
    def test_population_round_trip(self):
        p = OneSidedParams(2.0, 0.5, 3.0)
        kappa = [one_sided_kappa(p, n) for n in range(1, 7)]
        fit = ts.fit_one_sided(kappa)
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.beta == pytest.approx(0.5, abs=1e-12)
        assert fit.lam == pytest.approx(3.0, rel=1e-12)

    def test_round_trip_sweep(self, rng):
        for _ in range(25):
            p = OneSidedParams(rng.uniform(0.2, 4.0), rng.uniform(0.01, 0.99),
                               rng.uniform(0.2, 5.0))
            kappa = [one_sided_kappa(p, n) for n in range(1, 7)]
            fit = ts.fit_one_sided(kappa)
            assert fit.alpha == pytest.approx(p.alpha, rel=1e-10)
            assert fit.beta == pytest.approx(p.beta, abs=1e-10)
            assert fit.lam == pytest.approx(p.lam, rel=1e-10)

    def test_gamma_boundary(self):
        # kappa_n = (n-1)! a / l^n gives k1 k3 = 2 k2^2, hence beta = 0
        a, lam = 1.7, 2.2
        kappa = [math.factorial(n - 1) * a / lam**n for n in range(1, 7)]
        fit = ts.fit_one_sided(kappa)
        assert fit.beta == 0.0
        assert fit.alpha == pytest.approx(a, rel=1e-12)
        assert fit.lam == pytest.approx(lam, rel=1e-12)

    def test_infeasible_boundary(self):
        with pytest.raises(InfeasibleCumulantsError):
            ts.fit_one_sided([1.0, 1.0, 1.0])  # k1 k3 == k2^2

    def test_accepts_sample_cumulants(self, rng):
        p = OneSidedParams(1.0, 0.4, 1.0)
        x = ts.sample_one_sided(p, 1.0, rng, size=200_000)
        fit = ts.fit_one_sided(ts.sample_cumulants(x))
        assert fit.beta == pytest.approx(p.beta, abs=0.15)
        assert fit.lam == pytest.approx(p.lam, rel=0.4)


class TestTwoSidedSystem:
    def test_population_root(self, rng):
        for _ in range(100):
            theta = np.array([
                rng.uniform(0.2, 4.0), rng.uniform(0.02, 0.98), rng.uniform(0.2, 5.0),
                rng.uniform(0.2, 4.0), rng.uniform(0.02, 0.98), rng.uniform(0.2, 5.0),
            ])
            kappa = population_kappa(theta)
            g = ts.two_sided_G(kappa, theta)
            j = np.arange(1, 7)
            s = theta[2] ** (j - theta[1]) * theta[5] ** (j - theta[4])
            scale = np.maximum(np.abs(kappa), kappa[1] ** (j / 2.0))
            assert np.max(np.abs(g) / (s * scale)) < 1e-12

    def test_jacobian_against_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            theta = np.array([
                rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95), rng.uniform(0.3, 4.0),
                rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95), rng.uniform(0.3, 4.0),
            ])
            kappa = population_kappa(theta) * rng.uniform(0.7, 1.3, 6)
            jac = ts.two_sided_jacobian(kappa, theta)
            fd = np.empty_like(jac)
            for i in range(6):
                h = 1e-6 * max(abs(theta[i]), 1e-3)
                up, dn = theta.copy(), theta.copy()
                up[i] += h
                dn[i] -= h
                fd[:, i] = (ts.two_sided_G(kappa, up) - ts.two_sided_G(kappa, dn)) / (2 * h)
            row_scale = np.max(np.abs(fd), axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(jac - fd) / row_scale)))
        assert worst < 1e-6

    def test_solver_system_matches_record_path(self, rng):
        # the solver's raw-float system is exactly the scaled mismatch of
        # population_kappa, and population_kappa is the record-based
        # cumulant bit for bit: both take Python's pow and scipy's gamma
        kappa_hat = population_kappa(np.array([1.0, 0.3, 3.0, 2.0, 0.6, 4.0]))
        scale = np.maximum(np.abs(kappa_hat), kappa_hat[1] ** (np.arange(1, 7) / 2.0))
        fun, _ = estimate._scaled_system(kappa_hat, scale)
        for _ in range(200):
            u = np.array([rng.uniform(-3.0, 2.0), rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(-3.0, 2.0), rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0)])
            theta = estimate._from_unconstrained(u)
            p = TemperedStableParams.create(*theta)
            records = np.array([ts.cumulant(p, n) for n in range(1, 7)])
            assert np.array_equal(population_kappa(theta), records)
            assert np.array_equal(fun(u), (records - kappa_hat) / scale)

    def test_mismatch_jacobian_is_the_array_form(self, rng):
        # each entry of the float-path W is the elementwise array form's,
        # bit for bit at the same cumulants; so are G's and the solver's
        # Jacobians built on it
        for _ in range(200):
            theta = (rng.uniform(0.05, 20.0), rng.uniform(0.001, 0.999), rng.uniform(0.05, 20.0),
                     rng.uniform(0.05, 20.0), rng.uniform(0.001, 0.999), rng.uniform(0.05, 20.0))
            kappa_hat = population_kappa(theta) * rng.uniform(0.7, 1.3, 6)
            expect = _array_mismatch_jacobian(kappa_hat, theta, *_leg_cumulants(theta))
            assert np.array_equal(estimate._mismatch_jacobian(kappa_hat.tolist(), theta), expect)
            assert np.array_equal(ts.two_sided_jacobian(kappa_hat, np.array(theta)),
                                  estimate._row_weights(theta)[:, None] * expect)
            scale = np.maximum(np.abs(kappa_hat), kappa_hat[1] ** (np.arange(1, 7) / 2.0))
            _, jac = estimate._scaled_system(kappa_hat, scale)
            u = estimate._to_unconstrained(theta)
            t = estimate._from_unconstrained(u)
            d_theta = np.array([t[0], t[1] * (1.0 - t[1]), t[2], t[3], t[4] * (1.0 - t[4]), t[5]])
            assert np.array_equal(jac(u), _array_mismatch_jacobian(kappa_hat, t, *_leg_cumulants(t))
                                  / scale[:, None] * d_theta)

    def test_solver_jacobian_at_root_against_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            theta = np.array([
                rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95), rng.uniform(0.3, 4.0),
                rng.uniform(0.3, 3.0), rng.uniform(0.05, 0.95), rng.uniform(0.3, 4.0),
            ])
            kappa = population_kappa(theta)
            scale = np.maximum(np.abs(kappa), kappa[1] ** (np.arange(1, 7) / 2.0))
            fun, jac = estimate._scaled_system(kappa, scale)
            u = estimate._to_unconstrained(theta)
            fd = np.empty((6, 6))
            for i in range(6):
                step = np.zeros(6)
                step[i] = 1e-6
                fd[:, i] = (fun(u + step) - fun(u - step)) / 2e-6
            row_scale = np.max(np.abs(fd), axis=1, keepdims=True)
            worst = max(worst, float(np.max(np.abs(jac(u) - fd) / row_scale)))
        assert worst < 1e-6

    def test_jacobian_determinant_never_vanishes(self, rng):
        # the system matrix is nonsingular on the whole open domain; its
        # determinant keeps one sign (positive once the columns are
        # grouped by parameter kind)
        grouped = [0, 3, 1, 4, 2, 5]
        for _ in range(100):
            theta = np.array([
                rng.uniform(0.2, 4.0), rng.uniform(0.02, 0.98), rng.uniform(0.2, 5.0),
                rng.uniform(0.2, 4.0), rng.uniform(0.02, 0.98), rng.uniform(0.2, 5.0),
            ])
            jac = ts.two_sided_jacobian(population_kappa(theta), theta)
            assert np.linalg.det(jac) < 0.0
            assert np.linalg.det(jac[:, grouped]) > 0.0


class TestFitTwoSided:
    def test_population_round_trip_with_perturbed_starts(self, rng):
        for _ in range(20):
            theta = np.array([
                rng.uniform(0.4, 2.5), rng.uniform(0.1, 0.9), rng.uniform(0.5, 4.0),
                rng.uniform(0.4, 2.5), rng.uniform(0.1, 0.9), rng.uniform(0.5, 4.0),
            ])
            kappa = population_kappa(theta)
            start = theta * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 6))
            start[1] = min(max(start[1], 0.02), 0.98)
            start[4] = min(max(start[4], 0.02), 0.98)
            fit = ts.fit_two_sided(kappa, TemperedStableParams.create(*start))
            assert fit.converged
            assert np.max(np.abs(np.array(fit.params.as_tuple()) - theta)) < 1e-8

    def test_symmetry_preserved(self):
        theta = np.array([1.3, 0.45, 2.2, 1.3, 0.45, 2.2])
        kappa = population_kappa(theta)
        start = TemperedStableParams.create(1.0, 0.5, 2.0, 1.0, 0.5, 2.0)
        fit = ts.fit_two_sided(kappa, start)
        assert fit.converged
        assert fit.params.plus.alpha == pytest.approx(fit.params.minus.alpha, rel=1e-8)
        assert fit.params.plus.beta == pytest.approx(fit.params.minus.beta, abs=1e-8)
        assert fit.params.plus.lam == pytest.approx(fit.params.minus.lam, rel=1e-8)

    def test_gamma_start_rejected(self, skewed):
        kappa = population_kappa(np.array(skewed.as_tuple()))
        with pytest.raises(DomainError):
            ts.fit_two_sided(kappa, TemperedStableParams.create(1.0, 0.0, 1.0, 1.0, 0.5, 1.0))

    def test_nonpositive_even_cumulants_rejected(self, skewed):
        # both fits make the one check, before any solve
        for kappa in ([0.1, -1.0, 0.0, 1.0, 0.0, 1.0], [0.1, 0.0, 0.0, 1.0, 0.0, 1.0],
                      [0.1, 1.0, 0.0, 0.0, 0.0, 1.0], [0.1, 1.0, 0.0, -1.0, 0.0, 1.0],
                      [0.1, 1.0, 0.0, 1.0, 0.0, -1.0]):
            with pytest.raises(InfeasibleCumulantsError):
                ts.fit_two_sided(kappa, skewed)
            with pytest.raises(InfeasibleCumulantsError, match="even sample cumulants"):
                ts.multistart_fit_two_sided(kappa)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_nonpositive_max_iter_rejected(self, skewed, max_iter):
        kappa = [ts.cumulant(skewed, n) for n in range(1, 7)]
        with pytest.raises(DomainError, match="max_iter"):
            ts.fit_two_sided(kappa, skewed, max_iter=max_iter)
        with pytest.raises(DomainError, match="max_iter"):
            ts.multistart_fit_two_sided(kappa, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_tol_outside_positive_reals_rejected(self, skewed, tol):
        kappa = [ts.cumulant(skewed, n) for n in range(1, 7)]
        with pytest.raises(DomainError, match="tol"):
            ts.fit_two_sided(kappa, skewed, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            ts.multistart_fit_two_sided(kappa, tol=tol)

    def test_solver_builds_no_parameter_records(self, monkeypatch):
        # the solve evaluates its system on raw floats: parameter records
        # are built per start (its alphas, init and result), never per
        # evaluation, so their count does not move with the evaluation cap
        law = TemperedStableParams.create(0.1, 0.3, 3.0, 0.2, 0.6, 4.0)
        path = ts.simulate_path(law, ts.PathConfig(1000.0, 0.1, 7))
        kappa = ts.sample_cumulants(np.diff(path.values))
        starts = len(estimate._default_starts(kappa))
        built = [0]
        post_init = OneSidedParams.__post_init__

        def counting(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(OneSidedParams, "__post_init__", counting)
        counts = []
        for max_iter in (5, 200):
            built[0] = 0
            ts.multistart_fit_two_sided(kappa, max_iter=max_iter)
            counts.append(built[0])
        assert counts[0] == counts[1] <= 10 * starts

    def test_multistart_recovers_population_root(self, skewed):
        kappa = population_kappa(np.array(skewed.as_tuple()))
        fit = ts.multistart_fit_two_sided(kappa)
        assert fit.converged
        assert fit.residual < 1e-12

    def test_consistency_trend(self):
        # The fitted law's cumulant errors shrink like 1/sqrt(n).  Order r's
        # error is scaled by sqrt(kappa_2r), the leading term of sqrt(n)
        # times its sample cumulant's standard deviation, so that each
        # order weighs alike.  From n = 1e4 to 1e6 the median over five
        # seeds of the largest scaled error must fall by a factor 5 (1/10
        # expected); at 1e6, where the fits converge, it must stay within 4
        # standard deviations, which a 2% bias in every draw (9 standard
        # deviations on kappa_2) breaks.  The parameter error at the
        # largest sample beats the smallest.
        theta_true = np.array([0.15, 0.4, 0.8, 0.1, 0.5, 1.0])
        p_true = TemperedStableParams.create(*theta_true)
        init = TemperedStableParams.create(
            *(theta_true * np.array([1.1, 0.9, 1.1, 0.9, 1.1, 0.9]))
        )
        kap_true = population_kappa(theta_true)
        sd = np.sqrt([one_sided_kappa(p_true.plus, 2 * r) + one_sided_kappa(p_true.minus, 2 * r)
                      for r in range(1, 7)])
        kappa_err, param_err = [], []
        for n in (10_000, 1_000_000):
            k_errs, p_errs = [], []
            for seed in range(1, 6):
                gen = np.random.default_rng(seed)
                x = (ts.sample_one_sided(p_true.plus, 1.0, gen, size=n)
                     - ts.sample_one_sided(p_true.minus, 1.0, gen, size=n))
                fit = ts.fit_two_sided(ts.sample_cumulants(x), init)
                theta_hat = np.array(fit.params.as_tuple())
                k_errs.append(np.max(np.abs(population_kappa(theta_hat) - kap_true) / sd))
                p_errs.append(np.max(np.abs(theta_hat - theta_true) / theta_true))
            kappa_err.append(float(np.median(k_errs)))
            param_err.append(float(np.median(p_errs)))
        assert kappa_err[1] < 0.2 * kappa_err[0]
        assert kappa_err[1] < 4.0 / math.sqrt(1_000_000)
        assert param_err[1] < param_err[0]


class TestPathEstimators:
    def test_zero_counts(self):
        assert ts.alpha_from_jump_counts(np.zeros(10, dtype=int), 5.0) == 0.0

    def test_poisson_oracle(self, rng):
        alpha, horizon, n_bins = 2.0, 400.0, 25
        counts = rng.poisson(alpha * horizon, n_bins)
        est = ts.alpha_from_jump_counts(counts, horizon)
        se = math.sqrt(alpha / (n_bins * horizon))
        assert abs(est - alpha) < 3.0 * se

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ts.alpha_from_jump_counts([], 1.0)

    @pytest.mark.parametrize("counts, horizon", [
        ([3, 1], math.inf), ([3, 1], math.nan), ([3, 1], 0.0),
        ([-3, 1], 1.0), ([math.nan, 1], 1.0), ([math.inf, 1], 1.0),
    ], ids=["inf-horizon", "nan-horizon", "zero-horizon", "negative-count", "nan-count",
            "inf-count"])
    def test_out_of_domain_rejected(self, counts, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                ts.alpha_from_jump_counts(counts, horizon)

    def test_lambda_from_mean_gamma(self):
        assert ts.lambda_given_alpha_beta(1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_lambda_from_mean_algebraic(self):
        mu = 2.0 * math.sqrt(math.pi)
        assert ts.lambda_given_alpha_beta(4.0, 0.5, mu) == pytest.approx(4.0, rel=1e-14)

    def test_lambda_round_trip(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0.2, 4.0)
            beta = rng.uniform(0.0, 0.95)
            lam = rng.uniform(0.3, 5.0)
            mean = G(1.0 - beta) * alpha / lam ** (1.0 - beta)
            assert ts.lambda_given_alpha_beta(alpha, beta, mean) == pytest.approx(
                lam, rel=1e-12
            )

    def test_lambda_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            ts.lambda_given_alpha_beta(1e6, 0.999, 1e-6)

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(DomainError):
            ts.lambda_given_alpha_beta(1.0, 0.5, 0.0)
