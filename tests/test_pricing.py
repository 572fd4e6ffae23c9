import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tempstable as ts
import tempstable.pricing as pricing
from conftest import carr_madan_call, clear_pricing_caches
from tempstable import (ConvergenceError, DomainError, MarketConfig, OptionSpec,
                        TemperedStableParams, TempStableError)

#: a Q-law of the pricing benchmark (seed 110) whose lambda+ sits just above 1
SLOW_DECAY_LAW = (0.30599, 0.36229, 1.00154, 0.68842, 0.68864, 7.26351)
#: a law whose Esscher law's pricing sum overflowed to NaN with numpy warnings
NAN_PRICE_LAW = (2484.85, 1.2356e-4, 2.3735e-3, 4.5796, 2.2367e-3, 65.904)


@pytest.fixture
def market():
    return MarketConfig(s0=100.0, r=0.04, q_div=0.01)


@pytest.fixture
def risk_neutral(skewed_tight, market):
    sol = ts.esscher_martingale(skewed_tight, market.r, market.q_div)
    assert sol.exists
    return sol.new_params


class TestFourierCall:
    def test_contour_invariance(self, risk_neutral, market):
        opt = OptionSpec(strike=100.0, maturity=1.0)
        lam_plus = risk_neutral.plus.lam
        base = ts.call_price_fourier(risk_neutral, market, opt, 1.0 + 0.5 * (lam_plus - 1.0))
        for nu in (1.05, 1.4, 2.0, lam_plus - 0.05):
            assert ts.call_price_fourier(risk_neutral, market, opt, nu) == pytest.approx(
                base, abs=1e-8 * market.s0
            )

    def test_monte_carlo_cross_check(self, risk_neutral, market):
        opt = OptionSpec(strike=95.0, maturity=0.75)
        fourier = ts.call_price_fourier(risk_neutral, market, opt)
        mc, se = ts.mc_call_price(risk_neutral, market, opt, 400_000, seed=2024)
        assert abs(fourier - mc) < 3.0 * se

    def test_deep_in_the_money_forward_limit(self, risk_neutral, market):
        opt = OptionSpec(strike=1e-8 * market.s0, maturity=1.0)
        price = ts.call_price_fourier(risk_neutral, market, opt, nu=1.02)
        forward = market.s0 * math.exp(-market.q_div * opt.maturity)
        assert price == pytest.approx(forward, rel=1e-6)

    def test_contour_validation(self, risk_neutral, market):
        opt = OptionSpec(strike=100.0, maturity=1.0)
        with pytest.raises(DomainError):
            ts.call_price_fourier(risk_neutral, market, opt, nu=1.0)
        with pytest.raises(DomainError):
            ts.call_price_fourier(risk_neutral, market, opt, nu=risk_neutral.plus.lam)

    def test_requires_tempering_above_one(self, market):
        shallow = TemperedStableParams.create(0.5, 0.4, 0.9, 0.5, 0.4, 2.0)
        with pytest.raises(DomainError):
            ts.call_price_fourier(shallow, market, OptionSpec(strike=100.0, maturity=1.0))

    def test_arbitrage_bounds_on_grid(self, risk_neutral, market):
        forward = lambda t: market.s0 * math.exp(-market.q_div * t)
        for strike in np.linspace(60.0, 150.0, 10):
            for mat in np.linspace(0.25, 3.0, 10):
                price = ts.call_price_fourier(
                    risk_neutral, market, OptionSpec(strike=strike, maturity=mat)
                )
                lo = max(0.0, forward(mat) - strike * math.exp(-market.r * mat))
                assert lo - 1e-8 <= price <= forward(mat) + 1e-8

    def test_monotone_in_strike_and_maturity(self):
        # symmetric law, zero carry: canonical monotonicity setting
        sym = TemperedStableParams.create(0.5, 0.5, 3.0, 0.5, 0.5, 3.0)
        market = MarketConfig(s0=100.0, r=0.0, q_div=0.0)
        strikes = np.linspace(70.0, 140.0, 10)
        with pytest.warns(RuntimeWarning):
            prices_k = [ts.call_price_fourier(sym, market, OptionSpec(k, 1.0))
                        for k in strikes]
        assert np.all(np.diff(prices_k) < 0.0)
        mats = np.linspace(0.2, 3.0, 10)
        with pytest.warns(RuntimeWarning):
            prices_t = [ts.call_price_fourier(sym, market, OptionSpec(100.0, t))
                        for t in mats]
        assert np.all(np.diff(prices_t) > 0.0)


class TestTiltedTransform:
    @pytest.mark.parametrize("law", [
        (1.0, 0.3, 3.0, 2.0, 0.6, 4.0),  # the README law
        (0.6, 0.4, 4.0, 0.5, 0.5, 3.5),  # the criterion-9 law
        (1.0, 0.0, 3.0, 2.0, 0.6, 4.0),  # a Gamma plus leg
    ], ids=["readme", "criterion-9", "gamma-leg"])
    def test_contour_is_the_tilted_law_on_the_real_axis(self, law):
        # the pricer's integrand: log_cf(p, -u - i nu) = cgf(p, nu) + log_cf(p_nu, -u)
        p = TemperedStableParams.create(*law)
        u = np.concatenate((np.geomspace(1e-8, 1e4, 600), np.linspace(0.0, 1e4, 401)))
        for frac in (0.001, 0.25, 0.5, 0.75, 0.999):
            nu = 1.0 + frac * (p.plus.lam - 1.0)
            contour = ts.log_cf(p, -u - 1j * nu)
            tilted = ts.bilateral_esscher(p, ts.EsscherPair(nu, -nu))
            real_axis = ts.cgf(p, nu) + ts.log_cf(tilted, -u)
            assert np.all(np.abs(real_axis - contour) <= 1e-13 * np.maximum(1.0, np.abs(contour)))


class TestPlannedGrid:
    @pytest.mark.parametrize("strike, maturity, nu_frac", [
        (60.0, 0.25, 0.02), (60.0, 3.0, 0.98), (150.0, 0.25, 0.98), (150.0, 3.0, 0.02),
        (60.0, 1.0, 0.5), (150.0, 1.0, 0.5), (100.0, 0.25, 0.02), (100.0, 3.0, 0.98),
        (1.0, 3.0, 0.5),  # deep in the money, where the upper-tail term sets the step
    ])
    def test_matches_quadrature_oracle(self, risk_neutral, market, strike, maturity, nu_frac):
        nu = 1.0 + nu_frac * (risk_neutral.plus.lam - 1.0)
        price = ts.call_price_fourier(risk_neutral, market, OptionSpec(strike, maturity), nu)
        oracle = carr_madan_call(risk_neutral, market.s0, market.r, strike, maturity, nu)
        assert abs(price - oracle) <= 1e-9 * market.s0

    def test_deep_in_the_money_matches_quadrature_oracle(self, risk_neutral, market):
        strike = 1e-8 * market.s0
        price = ts.call_price_fourier(risk_neutral, market, OptionSpec(strike, 1.0), nu=1.02)
        oracle = carr_madan_call(risk_neutral, market.s0, market.r, strike, 1.0, 1.02)
        assert abs(price - oracle) <= 1e-9 * market.s0

    def test_slow_log_strike_decay_fails_in_the_plan(self, monkeypatch):
        # an earlier refusal of this law (CLI price) leaves its plan cached
        clear_pricing_caches()
        law = TemperedStableParams.create(*SLOW_DECAY_LAW)
        market = MarketConfig(s0=100.0, r=ts.cgf(law, 1.0), q_div=0.0)  # a martingale law
        sizes = []
        real = pricing.log_cf

        def recording(p, z):
            sizes.append(np.size(z))
            return real(p, z)

        monkeypatch.setattr(pricing, "log_cf", recording)
        with pytest.raises(ConvergenceError, match="pricing grid needs"):
            ts.call_price_fourier(law, market, OptionSpec(100.0, 0.29))
        # only the extent search and the tail bound ran, never the grid
        assert sizes and max(sizes) < 100


class TestConditioning:
    """Sums whose largest term exceeds 1e6 of spot are refused: their
    cancellation error would pass for a price."""

    @pytest.mark.parametrize("s0, strike, nu", [
        (100.0, 1e-6, None),  # terms reach 2e9 of spot; the price was off by 7e-5
        (100.0, 1e-6, 2.8),  # terms reach 1e13 of spot; the price was off by 0.2
        (1e200, 1e-200, None),  # raised a raw OverflowError
        (1e50, 1e-50, None),  # gave 5.6e164
    ])
    def test_ill_conditioned_sum_is_convergence_error(self, risk_neutral, market,
                                                      s0, strike, nu):
        market = MarketConfig(s0=s0, r=market.r, q_div=market.q_div)
        with pytest.raises(ConvergenceError, match="of spot"):
            ts.call_price_fourier(risk_neutral, market, OptionSpec(strike, 1.0), nu)

    @pytest.mark.parametrize("strike", [50.0, 100.0, 200.0])
    def test_overflowing_sum_is_convergence_error(self, strike):
        # priced NaN with "overflow in exp" warnings
        sol = ts.esscher_martingale(TemperedStableParams.create(*NAN_PRICE_LAW), 0.03, 0.0)
        with pytest.raises(ConvergenceError, match="of spot"):
            ts.call_price_fourier(sol.new_params, MarketConfig(100.0, 0.03),
                                  OptionSpec(strike, 1.0))


class TestPriceCache:
    """A price does not depend on what the plan and transform caches hold."""

    @pytest.fixture
    def options(self, risk_neutral, market):
        # two laws, three maturities, two heights and strikes on both sides of
        # spot; the (law, maturity, height) triples outnumber the plan cache
        c9 = ts.esscher_martingale(TemperedStableParams.create(0.6, 0.4, 4.0, 0.5, 0.5, 3.5),
                                   market.r, market.q_div).new_params
        return [(p, OptionSpec(strike, mat), nu)
                for p in (risk_neutral, c9) for mat in (0.25, 1.0, 3.0)
                for nu in (None, 1.0 + 0.25 * (p.plus.lam - 1.0))
                for strike in (60.0, 97.0, 100.0, 150.0)]

    @staticmethod
    def _prices(options, market, order):
        return {i: ts.call_price_fourier(options[i][0], market, options[i][1], options[i][2])
                for i in order}

    def _cold(self, options, market):
        cold = []
        for i in range(len(options)):
            clear_pricing_caches()
            cold.append(self._prices(options, market, [i])[i])
        return cold

    def test_warm_prices_are_the_cold_bits(self, options, market):
        cold = self._cold(options, market)
        n = len(options)
        for order in (range(n), range(n - 1, -1, -1), np.random.default_rng(27).permutation(n)):
            clear_pricing_caches()
            prices = self._prices(options, market, order)
            assert [prices[i] for i in range(n)] == cold
        assert pricing._contour_plan.cache_info().hits > 0
        assert pricing._weighted_transform.cache_info().hits > 0

    def test_threads_price_the_cold_bits(self, options, market):
        # more threads than the 2 CPUs of the host the test was written on
        cold = self._cold(options, market)
        n = len(options)
        clear_pricing_caches()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(self._prices, options, market, np.roll(np.arange(n), shift))
                        for shift in (0, 7, 19, 31)]
                got = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(switch)
        for prices in got:
            assert [prices[i] for i in range(n)] == cold

    def test_cached_arrays_are_read_only(self, risk_neutral, market):
        ts.call_price_fourier(risk_neutral, market, OptionSpec(100.0, 1.0))
        nu = ts.default_contour(risk_neutral)
        blocks, _ = pricing._weighted_transform(risk_neutral, 1.0, nu, 512)
        for array in (blocks, *pricing._contour_plan(risk_neutral, 1.0, nu)[3:]):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0

    def test_refusals_fire_on_a_cache_hit(self, risk_neutral, market):
        clear_pricing_caches()
        opt = OptionSpec(100.0, 1.0)
        ts.call_price_fourier(risk_neutral, market, opt)
        hits = pricing._contour_plan.cache_info().hits
        with pytest.warns(RuntimeWarning, match="not a martingale law"):
            ts.call_price_fourier(risk_neutral, MarketConfig(100.0, 0.0), opt)
        with pytest.raises(DomainError):
            ts.call_price_fourier(risk_neutral, market, opt, nu=risk_neutral.plus.lam)
        assert pricing._contour_plan.cache_info().hits == hits + 1
        # a cached law, maturity and height, at a strike whose terms reach 2e9
        # of spot: the check runs before the plan is looked up
        with pytest.raises(ConvergenceError, match="of spot"):
            ts.call_price_fourier(risk_neutral, market, OptionSpec(1e-6, 1.0))
        slow = TemperedStableParams.create(*SLOW_DECAY_LAW)
        slow_market = MarketConfig(s0=100.0, r=ts.cgf(slow, 1.0), q_div=0.0)
        for _ in range(2):  # a miss that caches the plan, then a hit
            with pytest.raises(ConvergenceError, match="pricing grid needs"):
                ts.call_price_fourier(slow, slow_market, OptionSpec(100.0, 0.29))
        assert pricing._contour_plan.cache_info().hits == hits + 2

    def test_cache_size_stays_at_its_bound(self, risk_neutral, market):
        clear_pricing_caches()
        for mat in np.linspace(0.25, 3.0, 40):
            ts.call_price_fourier(risk_neutral, market, OptionSpec(100.0, mat))
        for cached in (pricing._contour_plan, pricing._weighted_transform):
            info = cached.cache_info()
            assert info.misses == 40 and info.currsize == info.maxsize


_ALPHA = st.floats(1e-6, 1e6)
_BETA = st.one_of(st.just(0.0), st.floats(1e-9, 0.999))
_LAM = st.floats(1e-3, 1e3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(law=st.tuples(_ALPHA, _BETA, _LAM, _ALPHA, _BETA, _LAM))
@example(law=NAN_PRICE_LAW)
def test_esscher_prices_within_bounds_or_typed_error(law):
    s0, r = 100.0, 0.03
    market = MarketConfig(s0=s0, r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = ts.esscher_martingale(TemperedStableParams.create(*law), r, 0.0)
        except ConvergenceError as exc:
            assert "ill-conditioned at double precision" in str(exc), exc
            return
        except TempStableError:
            return
        if not sol.exists:
            return
        for strike in (50.0, 100.0, 200.0):
            try:
                price = ts.call_price_fourier(sol.new_params, market, OptionSpec(strike, 1.0))
            except TempStableError:
                continue
            lower = max(0.0, s0 - strike * math.exp(-r))
            assert lower - 1e-8 * s0 <= price <= s0 + 1e-8 * s0, (strike, price)


class TestMonteCarloPricer:
    def test_calibrated_on_heavy_upper_tail(self):
        # lambda+ < 2: the call payoff has infinite variance, the put's is finite
        law = TemperedStableParams.create(0.2, 0.5, 1.0046, 0.5, 0.5, 1.4954)
        market = MarketConfig(s0=100.0, r=ts.cgf(law, 1.0), q_div=0.0)
        opt = OptionSpec(strike=100.0, maturity=1.0)
        fourier = ts.call_price_fourier(law, market, opt)
        z = []
        for seed in range(40):
            mc, se = ts.mc_call_price(law, market, opt, 20_000, seed=seed)
            z.append((mc - fourier) / se)
        z = np.array(z)
        assert np.sum(np.abs(z) > 3.0) <= 2
        assert 0.5 < np.mean(z**2) < 1.5

    def test_degenerate_law_hits_intrinsic_value(self, market):
        tiny = TemperedStableParams.create(1e-12, 0.5, 3.0, 1e-12, 0.5, 3.0)
        opt = OptionSpec(strike=80.0, maturity=1.0)
        price, se = ts.mc_call_price(tiny, market, opt, 10_000, seed=5)
        intrinsic = math.exp(-market.r) * (market.s0 - opt.strike)
        assert price == pytest.approx(intrinsic, rel=1e-6)
        assert se < 1e-6

    def test_seed_determinism(self, risk_neutral, market):
        opt = OptionSpec(strike=105.0, maturity=0.5)
        a = ts.mc_call_price(risk_neutral, market, opt, 20_000, seed=11)
        b = ts.mc_call_price(risk_neutral, market, opt, 20_000, seed=11)
        assert a == b

    def test_path_count_floor(self, risk_neutral, market):
        with pytest.raises(DomainError):
            ts.mc_call_price(risk_neutral, market, OptionSpec(100.0, 1.0), 10, seed=1)


class TestPut:
    def test_parity_identity(self, risk_neutral, market):
        opt = OptionSpec(strike=110.0, maturity=1.5)
        call = ts.call_price_fourier(risk_neutral, market, opt)
        put = ts.put_price(risk_neutral, market, opt)
        forward = market.s0 * math.exp(-market.q_div * opt.maturity)
        disc_k = opt.strike * math.exp(-market.r * opt.maturity)
        assert call - put == pytest.approx(forward - disc_k, abs=1e-12)

    def test_tiny_strike_put_worthless(self, risk_neutral, market):
        opt = OptionSpec(strike=1e-8 * market.s0, maturity=1.0)
        assert abs(ts.put_price(risk_neutral, market, opt, nu=1.02)) < 1e-6

    def test_put_against_monte_carlo(self, risk_neutral, market):
        opt = OptionSpec(strike=115.0, maturity=1.0)
        put = ts.put_price(risk_neutral, market, opt)
        rng_children = np.random.SeedSequence(7).spawn(2)
        gen_p = np.random.Generator(np.random.Philox(rng_children[0]))
        gen_m = np.random.Generator(np.random.Philox(rng_children[1]))
        n = 400_000
        x = (ts.sample_one_sided(risk_neutral.plus, opt.maturity, gen_p, size=n)
             - ts.sample_one_sided(risk_neutral.minus, opt.maturity, gen_m, size=n))
        disc = math.exp(-market.r * opt.maturity)
        payoff = disc * np.maximum(opt.strike - market.s0 * np.exp(x), 0.0)
        se = np.std(payoff, ddof=1) / math.sqrt(n)
        assert abs(put - np.mean(payoff)) < 3.0 * se


class TestValidation:
    def test_market_invariants(self):
        with pytest.raises(DomainError):
            MarketConfig(s0=-1.0, r=0.02)
        with pytest.raises(DomainError):
            MarketConfig(s0=100.0, r=0.01, q_div=0.02)

    def test_option_invariants(self):
        with pytest.raises(DomainError):
            OptionSpec(strike=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            OptionSpec(strike=100.0, maturity=0.0)
