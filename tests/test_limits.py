import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

import tempstable as ts
from tempstable import DomainError, TemperedStableParams
from tempstable.core import cumulant_one_sided

from conftest import random_params


def bound_uncancelled(p, n=7):
    """The Kolmogorov bound written in the pre-cancellation layout of the
    rescaled-sum estimate: all sqrt(n) and sigma factors left in place."""
    stats = ts.moment_stats(p)
    mu, sigma = stats.mean, math.sqrt(stats.variance)
    bp, bm = p.plus.beta, p.minus.beta
    # unit-variance reduction carries rates lambda*sigma, then the n-th
    # rescaling divides them by sqrt(n); nothing else changes
    rn = math.sqrt(n)
    lp = p.plus.lam * sigma / rn
    lm = p.minus.lam * sigma / rn
    mu_u = (mu / sigma) / rn
    denom = rn * lp * ((1.0 - bm) * rn * lp + (1.0 - bp) * rn * lm)
    term_p = (1.0 - bp) * (2.0 - bp) * ((1.0 - bm) * rn * mu_u + rn * lm) / denom
    denom_m = rn * lm * ((1.0 - bm) * rn * lp + (1.0 - bp) * rn * lm)
    term_m = (1.0 - bm) * (2.0 - bm) * ((bp - 1.0) * rn * mu_u + rn * lp) / denom_m
    return 32.0 * ts.BERRY_ESSEEN_C * (term_p + term_m)


class TestAlphaPair:
    def test_round_trip_moments(self, rng):
        for _ in range(25):
            bp, bm = rng.uniform(0.0, 0.95, 2)
            lp, lm = rng.uniform(0.3, 5.0, 2)
            mu = rng.normal(0.0, 0.3)
            sigma2 = rng.uniform(0.2, 3.0)
            try:
                ap, am = ts.alpha_pair_for_moments(bp, lp, bm, lm, mu, sigma2)
            except DomainError:
                continue
            p = TemperedStableParams.create(ap, bp, lp, am, bm, lm)
            stats = ts.moment_stats(p)
            assert stats.mean == pytest.approx(mu, abs=1e-12)
            assert stats.variance == pytest.approx(sigma2, rel=1e-12)

    def test_centered_always_feasible(self, rng):
        for _ in range(25):
            bp, bm = rng.uniform(0.0, 0.99, 2)
            lp, lm = rng.uniform(0.1, 10.0, 2)
            ap, am = ts.alpha_pair_for_moments(bp, lp, bm, lm, 0.0, 1.0)
            assert ap > 0.0 and am > 0.0

    def test_symmetric_inputs_give_equal_legs(self):
        ap, am = ts.alpha_pair_for_moments(0.4, 2.0, 0.4, 2.0, 0.0, 1.5)
        assert ap == am

    def test_infeasible(self):
        # strongly negative target mean starves the upward leg
        with pytest.raises(DomainError):
            ts.alpha_pair_for_moments(0.5, 1.0, 0.5, 1.0, -10.0, 0.1)

    @pytest.mark.parametrize("args", [
        (0.5, 1e300, 0.5, 1e300, 0.0, 1.0),  # both second cumulants, and the determinant, are 0
        (0.5, 1e200, 0.5, 1e200, 0.0, 1e10),  # intensities past the float range
    ])
    def test_out_of_range_is_refused_without_warnings(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="no law with these shape/rate parameters"):
                ts.alpha_pair_for_moments(*args)


class TestBerryEsseenBound:
    def test_positive(self, rng):
        for _ in range(25):
            assert ts.berry_esseen_bound(random_params(rng)).bound > 0.0

    def test_sqrt_t_scaling(self, skewed):
        b1 = ts.berry_esseen_bound(skewed).bound
        for t in (2.0, 10.0, 100.0):
            bt = ts.berry_esseen_bound(ts.marginal(skewed, t)).bound
            assert bt == pytest.approx(b1 / math.sqrt(t), rel=1e-12)

    def test_uncancelled_form_agrees(self, rng):
        for _ in range(10):
            p = random_params(rng)
            b = ts.berry_esseen_bound(p).bound
            for n in (1, 4, 49):
                assert bound_uncancelled(p, n) == pytest.approx(b, rel=1e-12)

    def test_vacuous_flag(self):
        weak = TemperedStableParams.create(0.1, 0.5, 0.3, 0.1, 0.5, 0.3)
        assert ts.berry_esseen_bound(weak).vacuous
        strong = ts.marginal(weak, 1e6)
        assert not ts.berry_esseen_bound(strong).vacuous

    def test_empirical_kolmogorov_within_bound(self, rng):
        p = TemperedStableParams.create(1.0, 0.5, 5.0, 1.0, 0.5, 5.0)
        report = ts.berry_esseen_bound(p)
        n = 1_000_000
        xp = ts.sample_one_sided(p.plus, 1.0, rng, size=n)
        xm = ts.sample_one_sided(p.minus, 1.0, rng, size=n)
        x = np.sort(xp - xm)
        grid = norm.cdf(x, loc=report.mu, scale=math.sqrt(report.sigma2))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(grid - ecdf_hi)), np.max(np.abs(grid - ecdf_lo)))
        assert ks <= report.bound


class TestCltSequence:
    def test_exact_moments(self):
        mu, sigma2 = 0.4, 2.0
        n0 = ts.clt_min_index(0.3, 1.2, 0.7, 0.8, mu, sigma2)
        for n in (n0, 4 * n0, 16 * n0):
            p = ts.clt_sequence(mu, sigma2, 0.3, 1.2, 0.7, 0.8, n)
            stats = ts.moment_stats(p)
            assert stats.mean == pytest.approx(mu, abs=1e-12)
            assert stats.variance == pytest.approx(sigma2, rel=1e-12)

    def test_mean_error_is_bounded_by_the_leg_mean(self):
        # far along the sequence the two leg means are near 6.7e8 and their
        # difference keeps only their rounding
        p = ts.clt_sequence(0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 10**18)
        stats = ts.moment_stats(p)
        kappa1_plus = cumulant_one_sided(p.plus, 1)
        assert stats.mean != 0.0
        assert abs(stats.mean) <= np.finfo(float).eps * kappa1_plus
        assert stats.variance == pytest.approx(1.0, rel=1e-15)

    def test_bound_halves_when_n_quadruples(self):
        mu, sigma2 = 0.2, 1.0
        for n in (256, 4096):
            b_n = ts.berry_esseen_bound(ts.clt_sequence(mu, sigma2, 0.4, 1.0, 0.5, 2.0, n)).bound
            b_4n = ts.berry_esseen_bound(ts.clt_sequence(mu, sigma2, 0.4, 1.0, 0.5, 2.0, 4 * n)).bound
            assert b_n / b_4n == pytest.approx(2.0, rel=0.05)

    def test_centered_first_index(self):
        assert ts.clt_min_index(0.5, 1.0, 0.5, 1.0, 0.0, 1.0) == 1

    def test_below_first_index_rejected(self):
        n0 = ts.clt_min_index(0.1, 0.5, 0.1, 0.5, 5.0, 0.01)
        assert n0 > 1
        with pytest.raises(DomainError):
            ts.clt_sequence(5.0, 0.01, 0.1, 0.5, 0.1, 0.5, n0 - 1)

    @pytest.mark.parametrize("bad", range(5), ids=["mu", "beta-plus", "lambda-plus",
                                                   "beta-minus", "lambda-minus"])
    def test_nan_inputs_rejected(self, bad):
        # each gave the first index 1, as max() drops a NaN comparison
        args = [0.5, 0.3, 1.2, 0.7, 0.8]  # mu, then each leg's beta and lambda
        args[bad] = math.nan
        mu, legs = args[0], args[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite mean|beta must|lambda must"):
                ts.clt_min_index(*legs, mu, 1.0)
            with pytest.raises(DomainError, match="finite mean|beta must|lambda must"):
                ts.clt_sequence(mu, 1.0, *legs, 10)

    def test_negative_mean_binds_the_other_leg(self):
        mu, sigma2 = -4.0, 0.02
        n0 = ts.clt_min_index(0.3, 0.7, 0.6, 0.9, mu, sigma2)
        assert n0 > 1
        with pytest.raises(DomainError):
            ts.clt_sequence(mu, sigma2, 0.3, 0.7, 0.6, 0.9, n0 - 1)
        p = ts.clt_sequence(mu, sigma2, 0.3, 0.7, 0.6, 0.9, n0)
        stats = ts.moment_stats(p)
        assert stats.mean == pytest.approx(mu, rel=1e-12)
        assert stats.variance == pytest.approx(sigma2, rel=1e-12)
