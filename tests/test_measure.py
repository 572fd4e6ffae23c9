import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import tempstable as ts
from conftest import EMPTY_CURVE_LAWS
from tempstable import (
    ConvergenceError,
    DomainError,
    EsscherPair,
    NoMartingaleMeasureError,
    TemperedStableParams,
    TempStableError,
)
from tempstable.measure import _increasing_root


@pytest.fixture
def upper_end_rounds():
    """Law whose Esscher tilt domain [lo, hi] has lo + (hi - lo) * 99 / 99.0 > hi."""
    return TemperedStableParams.create(0.6, 0.4, 3.1, 0.5, 0.5, 3.1)


def hellinger_integral(p, q, cutoff):
    """int over cutoff <= |x| <= 1 of (1 - sqrt(dF2/dF1))^2 dF1,
    integrated in log-space to tame the jump-density singularity."""

    def leg(a1, b1, l1, a2, b2, l2):
        def f(u):
            x = np.exp(u)
            ratio = (a2 / a1) * x ** (b1 - b2) * np.exp(-(l2 - l1) * x)
            return (1.0 - np.sqrt(ratio)) ** 2 * a1 * x ** (-b1) * np.exp(-l1 * x)

        val, _ = quad(f, np.log(cutoff), 0.0, limit=400)
        return val

    return (leg(p.plus.alpha, p.plus.beta, p.plus.lam,
                q.plus.alpha, q.plus.beta, q.plus.lam)
            + leg(p.minus.alpha, p.minus.beta, p.minus.lam,
                  q.minus.alpha, q.minus.beta, q.minus.lam))


class TestLocalEquivalence:
    def test_reflexive(self, skewed):
        assert ts.locally_equivalent(skewed, skewed)

    def test_rate_changes_preserve_equivalence(self, skewed):
        q = TemperedStableParams.create(
            skewed.plus.alpha, skewed.plus.beta, 7.7,
            skewed.minus.alpha, skewed.minus.beta, 0.4,
        )
        assert ts.locally_equivalent(skewed, q)

    def test_intensity_change_breaks_equivalence(self, skewed):
        q = TemperedStableParams.create(
            2.0 * skewed.plus.alpha, skewed.plus.beta, skewed.plus.lam,
            skewed.minus.alpha, skewed.minus.beta, skewed.minus.lam,
        )
        assert not ts.locally_equivalent(skewed, q)
        # the Hellinger-type integral diverges as the cutoff shrinks
        vals = [hellinger_integral(skewed, q, c) for c in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(v2 > 2.0 * v1 for v1, v2 in zip(vals, vals[1:]))

    def test_equivalent_case_integral_converges(self, skewed):
        q = TemperedStableParams.create(
            skewed.plus.alpha, skewed.plus.beta, skewed.plus.lam + 1.5,
            skewed.minus.alpha, skewed.minus.beta, skewed.minus.lam - 0.5,
        )
        vals = [hellinger_integral(skewed, q, c) for c in (1e-4, 1e-8, 1e-12)]
        assert vals[-1] == pytest.approx(vals[0], rel=1e-3)


class TestBilateralEsscher:
    def test_zero_tilt_identity(self, skewed):
        assert ts.bilateral_esscher(skewed, EsscherPair(0.0, 0.0)) == skewed

    def test_composition_is_additive(self, skewed):
        t1 = EsscherPair(0.4, -0.3)
        t2 = EsscherPair(-0.2, 0.9)
        once = ts.bilateral_esscher(ts.bilateral_esscher(skewed, t1), t2)
        both = ts.bilateral_esscher(skewed, EsscherPair(0.2, 0.6))
        assert once.plus.lam == pytest.approx(both.plus.lam, rel=1e-15)
        assert once.minus.lam == pytest.approx(both.minus.lam, rel=1e-15)

    def test_preserves_equivalence_class(self, skewed):
        tilted = ts.bilateral_esscher(skewed, EsscherPair(1.1, -2.0))
        assert ts.locally_equivalent(skewed, tilted)

    def test_rate_collapse_rejected(self, skewed):
        with pytest.raises(DomainError):
            ts.bilateral_esscher(skewed, EsscherPair(skewed.plus.lam, 0.0))

    def test_radon_nikodym_rate_matching(self, skewed):
        target = TemperedStableParams.create(
            skewed.plus.alpha, skewed.plus.beta, 1.25,
            skewed.minus.alpha, skewed.minus.beta, 6.5,
        )
        pair = EsscherPair(skewed.plus.lam - target.plus.lam,
                           skewed.minus.lam - target.minus.lam)
        assert ts.bilateral_esscher(skewed, pair) == target


class TestDensityProcess:
    def test_zero_tilt_vanishes(self, skewed):
        assert ts.density_process_log(skewed, EsscherPair(0.0, 0.0), 1.2, 3.4, 2.0) == 0.0

    def test_likelihood_is_unbiased(self, rng, skewed):
        t = EsscherPair(0.8, -0.6)
        n = 1_000_000
        xp = ts.sample_one_sided(skewed.plus, 1.0, rng, size=n)
        xm = ts.sample_one_sided(skewed.minus, 1.0, rng, size=n)
        lam = np.exp(ts.density_process_log(skewed, t, xp, xm, 1.0))
        se = np.std(lam, ddof=1) / math.sqrt(n)
        assert abs(np.mean(lam) - 1.0) < 4.0 * se

    def test_change_of_measure_matches_tilted_transform(self, rng, skewed):
        t = EsscherPair(0.7, -0.4)
        tilted = ts.bilateral_esscher(skewed, t)
        n = 1_000_000
        xp = ts.sample_one_sided(skewed.plus, 1.0, rng, size=n)
        xm = ts.sample_one_sided(skewed.minus, 1.0, rng, size=n)
        lam = np.exp(ts.density_process_log(skewed, t, xp, xm, 1.0))
        x = xp - xm
        for z in (0.5, 1.5, -2.0):
            weighted = lam * np.exp(1j * z * x)
            err = np.mean(weighted) - ts.cf(tilted, z)
            se = np.std(weighted, ddof=1) / math.sqrt(n)
            assert abs(err) < 5.0 * se

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_components(self, skewed, bad):
        # inf at a zero tilt would be 0 * inf = nan with a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xp, xm in ((bad, 1.0), (1.0, bad), (np.array([1.0, bad]), 1.0)):
                with pytest.raises(DomainError, match="nonnegative and finite"):
                    ts.density_process_log(skewed, EsscherPair(0.0, 0.1), xp, xm, 1.0)

    def test_rejects_negative_components(self, skewed):
        with pytest.raises(DomainError):
            ts.density_process_log(skewed, EsscherPair(0.1, 0.1), -1.0, 0.0, 1.0)


class TestEsscherMartingale:
    def test_rate_sum_condition(self):
        p = TemperedStableParams.create(1.0, 0.5, 0.4, 1.0, 0.5, 0.4)
        sol = ts.esscher_martingale(p, 0.03, 0.0)
        assert not sol.exists
        assert "lambda" in sol.message

    def test_symmetric_zero_carry(self, sym_half):
        sol = ts.esscher_martingale(sym_half, 0.02, 0.02)
        assert sol.exists
        assert sol.residual <= 1e-10
        # tilt moves the rates in opposite directions
        assert sol.new_params.plus.lam == pytest.approx(sym_half.plus.lam - sol.theta)
        assert sol.new_params.minus.lam == pytest.approx(sym_half.minus.lam + sol.theta)

    def test_carry_above_range(self, skewed_tight):
        hi = ts.esscher_f(skewed_tight, skewed_tight.plus.lam - 1.0)
        sol = ts.esscher_martingale(skewed_tight, hi + 0.5, 0.0)
        assert not sol.exists
        assert "range" in sol.message

    def test_upper_end_rounding(self, upper_end_rounds):
        # no step of the solve may evaluate the tilt function past hi
        sol = ts.esscher_martingale(upper_end_rounds, 0.04, 0.01)
        assert sol.exists
        assert sol.residual <= 1e-10

    def test_near_gamma_leg_meets_the_gate(self):
        # the cancelling closed form put the residual at 1.4e-10 for this law
        p = TemperedStableParams.create(2.553, 1.83e-6, 2.79, 0.111, 0.48, 4.88)
        sol = ts.esscher_martingale(p, 0.03, 0.0)
        assert sol.exists
        assert sol.residual <= 1e-10

    def test_root_between_floats_meets_the_gate(self):
        # brentq's float had residual 2.6e-10; an adjacent float has 8.8e-11
        p = TemperedStableParams.create(512638.7602432579, 0.1763105942450143, 1.5,
                                        512638.7602432579, 0.1763105942450143, 1.5)
        sol = ts.esscher_martingale(p, 0.03, 0.0)
        assert sol.exists
        assert sol.residual <= 1e-10

    def test_ill_conditioned_law_names_adjacent_residuals(self):
        # no float meets the gate: the residual jumps by 1.8e-9 between adjacent floats
        p = TemperedStableParams.create(219011.4046016295, 0.7140060001550653, 98.23675074703844,
                                        368711.61879779975, 0.19625423793308067, 543.2723846459726)
        with pytest.raises(ConvergenceError, match="ill-conditioned at double precision") as exc:
            ts.esscher_martingale(p, 0.03, 0.0)
        below, above = map(float, re.search(r"residuals (\S+) and (\S+),", str(exc.value)).groups())
        assert below == pytest.approx(-1.6e-9, rel=0.05)
        assert above == pytest.approx(2.0e-10, rel=0.05)

    def test_tilt_function_finite_at_closed_ends(self, skewed_tight, upper_end_rounds):
        for p in (skewed_tight, upper_end_rounds):
            lo, hi = -p.minus.lam, p.plus.lam - 1.0
            assert math.isfinite(ts.esscher_f(p, lo))
            assert math.isfinite(ts.esscher_f(p, hi))

    def test_residual_tolerance(self, skewed_tight, rng):
        for _ in range(10):
            r = rng.uniform(0.0, 0.05)
            q = rng.uniform(0.0, r)
            sol = ts.esscher_martingale(skewed_tight, r, q)
            if sol.exists:
                assert sol.residual <= 1e-10


class TestMartingaleCurve:
    def test_no_measure_when_capacity_too_small(self):
        p = TemperedStableParams.create(0.01, 0.5, 4.0, 0.5, 0.5, 3.0)
        with pytest.raises(NoMartingaleMeasureError):
            ts.phi_domain(p, 0.2, 0.0)

    def test_residuals_along_curve(self, skewed_tight):
        r, q = 0.04, 0.01
        t1, t2 = ts.phi_domain(skewed_tight, r, q)
        for theta in np.linspace(t1 + 1e-3 * (t2 - t1), t2 - 1e-3 * (t2 - t1), 12):
            sol = ts.curve_point(skewed_tight, theta, r, q)
            assert sol.residual <= 1e-10

    def test_strictly_increasing(self, skewed_tight):
        r, q = 0.04, 0.01
        t1, t2 = ts.phi_domain(skewed_tight, r, q)
        grid = np.linspace(t1 + 0.02 * (t2 - t1), t2 - 0.02 * (t2 - t1), 50)
        phis = [ts.martingale_curve_phi(skewed_tight, th, r, q) for th in grid]
        assert np.all(np.diff(phis) > 0.0)

    def test_consistent_with_esscher_solution(self, skewed_tight):
        r, q = 0.04, 0.01
        sol = ts.esscher_martingale(skewed_tight, r, q)
        assert sol.exists
        phi = ts.martingale_curve_phi(skewed_tight, sol.theta, r, q)
        assert phi == pytest.approx(-sol.theta, abs=1e-10)

    def test_theta_outside_domain(self, skewed_tight):
        r, q = 0.04, 0.01
        _, t2 = ts.phi_domain(skewed_tight, r, q)
        with pytest.raises(DomainError):
            ts.martingale_curve_phi(skewed_tight, t2 + 0.5, r, q)

    @pytest.mark.parametrize("law", EMPTY_CURVE_LAWS)
    def test_empty_domain_is_domain_error(self, law):
        with pytest.raises(DomainError, match="curve is empty: on the clipped brackets"):
            ts.phi_domain(TemperedStableParams.create(*law), 0.03, 0.0)

    def test_theta_outside_domain_named(self, skewed_tight):
        # below theta1, between theta2 and lambda+ - 1, and above lambda+ - 1
        r, q = 0.04, 0.01
        t1, t2 = ts.phi_domain(skewed_tight, r, q)
        edge = skewed_tight.plus.lam - 1.0
        assert t2 < edge
        for theta in (t1 - 0.5, 0.5 * (t2 + edge), edge + 0.5):
            with pytest.raises(DomainError, match="outside the curve domain"):
                ts.martingale_curve_phi(skewed_tight, theta, r, q)


class TestIncreasingRoot:
    def test_best_of_adjacent_floats(self):
        # no float squares to exactly 2
        f = lambda x: x * x - 2.0
        x, (below, above) = _increasing_root(f, 0.0, 5.0)
        assert below < 0.0 < above
        a, b = (x, math.nextafter(x, math.inf)) if f(x) < 0.0 else (math.nextafter(x, 0.0), x)
        assert (f(a), f(b)) == (below, above)
        assert abs(f(x)) == min(-below, above)

    def test_one_sign_returns_the_end(self):
        assert _increasing_root(lambda x: x + 1.0, 0.0, 1.0) == (0.0, (1.0, 1.0))
        assert _increasing_root(lambda x: x - 2.0, 0.0, 1.0) == (1.0, (-1.0, -1.0))
        assert _increasing_root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, (0.0, 0.0))


class TestMinimalMartingale:
    @pytest.fixture
    def upward_tight(self):
        # positive carry Psi(1) > 0 so the boundary cases sit at r >= 0
        return TemperedStableParams.create(1.2, 0.4, 4.0, 0.3, 0.5, 3.5)

    def test_zero_numerator_gives_untilted_law(self, upward_tight):
        carry = ts.cgf(upward_tight, 1.0)
        res = ts.minimal_martingale(upward_tight, carry, 0.0)
        assert res.exists
        assert res.c == pytest.approx(0.0, abs=1e-15)
        base, tilted = res.factors
        assert tilted is None
        assert base == upward_tight

    def test_boundary_pure_tilt(self, upward_tight):
        carry = ts.cgf(upward_tight, 2.0) - ts.cgf(upward_tight, 1.0)
        res = ts.minimal_martingale(upward_tight, carry, 0.0)
        assert res.exists
        assert res.c == pytest.approx(-1.0, abs=1e-12)
        base, tilted = res.factors
        assert base is None
        assert tilted.plus.lam == upward_tight.plus.lam - 1.0
        assert tilted.minus.lam == upward_tight.minus.lam + 1.0

    def test_martingale_residual_of_convolved_law(self, skewed_tight, rng):
        for _ in range(10):
            r = rng.uniform(0.0, 0.08)
            res = ts.minimal_martingale(skewed_tight, r, 0.0)
            if not res.exists:
                continue
            base, tilted = res.factors
            psi1 = (ts.cgf(base, 1.0) if base else 0.0) + (ts.cgf(tilted, 1.0) if tilted else 0.0)
            assert abs(psi1 - r) <= 1e-10

    def test_rate_requirement(self, sym_half):
        with pytest.raises(DomainError):
            ts.minimal_martingale(sym_half, 0.05, 0.0)

    def test_out_of_range_constant(self, skewed_tight):
        carry = ts.cgf(skewed_tight, 2.0) - ts.cgf(skewed_tight, 1.0)
        res = ts.minimal_martingale(skewed_tight, carry + 0.2, 0.0)
        assert not res.exists


class TestMeasureInvariants:
    def test_every_output_stays_equivalent(self, skewed_tight):
        r, q = 0.04, 0.01
        sol = ts.esscher_martingale(skewed_tight, r, q)
        assert ts.locally_equivalent(skewed_tight, sol.new_params)
        t1, t2 = ts.phi_domain(skewed_tight, r, q)
        point = ts.curve_point(skewed_tight, 0.5 * (t1 + t2), r, q)
        assert ts.locally_equivalent(skewed_tight, point.new_params)

    def test_tilt_function_increasing(self, skewed_tight, upper_end_rounds):
        for p in (skewed_tight, upper_end_rounds):
            lo = -p.minus.lam
            hi = p.plus.lam - 1.0
            grid = np.linspace(lo, hi, 100)
            vals = [ts.esscher_f(p, th) for th in grid]
            assert np.all(np.diff(vals) > 0.0)


_ALPHA = st.floats(1e-6, 1e6)
_BETA = st.one_of(st.just(0.0), st.floats(1e-9, 0.999))
_LAM = st.floats(1e-3, 1e3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(law=st.tuples(_ALPHA, _BETA, _LAM, _ALPHA, _BETA, _LAM))
def test_curve_domain_is_nonempty_or_typed_error(law):
    r = 0.03
    p = TemperedStableParams.create(*law)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            t1, t2 = ts.phi_domain(p, r, 0.0)
        except TempStableError:
            return
        assert t1 < t2
        try:
            point = ts.curve_point(p, 0.5 * (t1 + t2), r, 0.0)
        except ConvergenceError as exc:
            assert "ill-conditioned at double precision" in str(exc), exc
            return
        except TempStableError:
            return
        assert point.residual <= 1e-10
