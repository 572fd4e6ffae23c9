import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as G

import tempstable as ts
from tempstable import DomainError, OneSidedParams, TemperedStableParams, core

from conftest import (
    cumulant_scale,
    fd_cumulant,
    levy_cf,
    levy_cgf,
    levy_cgf_one_sided,
    random_params,
)


class TestCgfOneSided:
    def test_zero_at_origin(self):
        assert ts.cgf_one_sided(OneSidedParams(1.0, 0.5, 1.0), 0.0) == 0.0

    def test_gamma_branch_log_two(self):
        # beta = 0, lambda/(lambda - z) = 2
        assert ts.cgf_one_sided(OneSidedParams(1.0, 0.0, 2.0), 1.0) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_levy_integral_oracle(self):
        p = OneSidedParams(1.3, 0.4, 2.0)
        val = ts.cgf_one_sided(p, 0.7)
        assert val == pytest.approx(1.0108446558955515, rel=1e-12)  # frozen quadrature value
        assert val == pytest.approx(levy_cgf_one_sided(1.3, 0.4, 2.0, 0.7), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            ts.cgf_one_sided(OneSidedParams(1.0, 0.5, 1.0), 1.5)
        # closed endpoint allowed when beta > 0, open for the Gamma case
        ts.cgf_one_sided(OneSidedParams(1.0, 0.5, 1.0), 1.0)
        with pytest.raises(DomainError):
            ts.cgf_one_sided(OneSidedParams(1.0, 0.0, 1.0), 1.0)
        # the next float past the rate, on the scalar path of either type
        for beta in (0.0, 0.5):
            for z in (math.nextafter(2.0, math.inf), np.float64(math.nextafter(2.0, math.inf))):
                with pytest.raises(DomainError, match="cgf requires z"):
                    ts.cgf_one_sided(OneSidedParams(1.0, beta, 2.0), z)


def _decimal_cgf_one_sided(alpha, beta, lam, z):
    """alpha Gamma(-beta) ((lam - z)^beta - lam^beta), or -alpha ln(1 - z/lam)
    at beta = 0, to 50 digits: the working precision grows by the digits
    that 1 - z/lam would otherwise drop."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(z) / Decimal(lam)
        ctx.prec += max(0, -x.adjusted())
        if beta == 0.0:
            return float(-Decimal(alpha) * (1 - x).ln())
        b = Decimal(beta)
        ratio = (1 - x) ** b if x != 1 else Decimal(0)
        return float(Decimal(alpha) * Decimal(float(G(-beta))) * Decimal(lam) ** b * (ratio - 1))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(alpha=st.floats(1e-6, 1e6), beta=st.one_of(st.just(0.0), st.floats(1e-9, 0.999)),
       lam=st.floats(1e-3, 1e3), s=st.floats(-10.0, 1.0))
def test_cgf_one_sided_matches_decimal_reference(alpha, beta, lam, s):
    # the closed form subtracts two nearly equal powers as beta -> 0 or z -> 0;
    # it must keep its relative accuracy there (the floor is the subnormal range)
    z = lam * s
    if beta == 0.0 and z == lam:
        return
    got = ts.cgf_one_sided(OneSidedParams(alpha, beta, lam), z)
    ref = _decimal_cgf_one_sided(alpha, beta, lam, z)
    assert abs(got - ref) <= 1e-13 * abs(ref) + 1e-300, (got, ref)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(alpha=st.floats(1e-6, 1e6), beta=st.one_of(st.just(0.0), st.floats(1e-9, 0.999)),
       lam=st.floats(1e-3, 1e3),
       s=st.one_of(st.floats(-10.0, 1.0), st.just(1.0), st.floats(0.4, 0.6)),
       scalar=st.sampled_from([float, np.float64]))
def test_scalar_leg_exponent_is_the_array_path(alpha, beta, lam, s, scalar):
    # a real scalar z takes its own path; it must give the array path's bits,
    # on both sides of w = -z/lam = -1/2 and at the closed end z = lam
    z = scalar(lam * s)
    if beta == 0.0 and z == lam:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = core.leg_exponent(alpha, beta, lam, z)
    want = core.leg_exponent(alpha, beta, lam, np.array([z]))[0]
    assert type(got) is np.float64
    assert got.tobytes() == want.tobytes(), (got, want)
    if z == lam:
        assert math.isfinite(got)


@pytest.mark.parametrize("scalar", [float, np.float64])
@pytest.mark.parametrize("alpha, beta, lam, z", [
    (1.0, 0.5, 1e-300, -1e10),  # z/lam past the float range
    (1e300, 0.0, 1e300, -1e305),
    (1e300, 0.5, 1e300, -1e10),  # the coefficient past the float range
    (1e300, 0.5, 1e300, 0.5),
    (2.0, 1e-320, 1.0, 0.5),  # Gamma(-beta) past the float range
])
def test_scalar_leg_exponent_overflow_is_silent(alpha, beta, lam, z, scalar):
    # numpy-scalar arguments take the scalar path in Python floats: where a
    # product overflows it gives the array path's value or refusal, not a warning
    try:
        want = core.leg_exponent(alpha, beta, lam, np.array([z]))[0]
    except DomainError:
        want = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(DomainError, match="leaves the float range"):
                core.leg_exponent(scalar(alpha), scalar(beta), scalar(lam), scalar(z))
            return
        got = core.leg_exponent(scalar(alpha), scalar(beta), scalar(lam), scalar(z))
    assert got.tobytes() == want.tobytes(), (got, want)


def _brent_case(kind: str, rng) -> tuple:
    """A seeded increasing function of one of three shapes, and a bracket
    around its root: a power law of any scale, an exponential with noise of
    1e-16, and a tanh step up to 1e8 steep (exactly +-1 away from the root,
    where Brent's extrapolation divides by zero)."""
    r = float(rng.uniform(-3.0, 3.0))
    lo, hi = r - float(10.0 ** rng.uniform(-3.0, 1.0)), r + float(10.0 ** rng.uniform(-3.0, 1.0))
    if kind == "power":
        e, c = float(rng.uniform(0.1, 6.0)), float(10.0 ** rng.uniform(-200.0, 200.0))
        return (lambda x: c * math.copysign(abs(x - r) ** e, x - r)), lo, hi
    if kind == "exp":
        k = float(rng.uniform(0.1, 30.0))
        return (lambda x: math.exp(k * x) - math.exp(k * r) + 1e-16 * math.sin(1e7 * x)), lo, hi
    s = float(10.0 ** rng.uniform(0.0, 8.0))
    return (lambda x: math.tanh(s * (x - r))), lo, hi


@pytest.mark.parametrize("xtol", [1e-300, 2e-12])
@pytest.mark.parametrize("kind", ["power", "exp", "tanh"])
def test_brent_takes_brentqs_points(kind, xtol):
    # core._brent is scipy's brentq step for step: the same points in the
    # same order and the same root, at the iteration cap too
    from scipy.optimize import brentq

    rng, cases = np.random.default_rng([7, len(kind), int(xtol < 1e-100)]), 0
    while cases < 1000:
        f, lo, hi = _brent_case(kind, rng)
        if not f(lo) < 0.0 < f(hi):  # noise at the ends: no sign change
            continue
        cases += 1
        for maxiter in (100, 6):
            want, got = [], []
            root = brentq(lambda x: want.append(x) or f(x), lo, hi, xtol=xtol,
                          rtol=core._RTOL, maxiter=maxiter, disp=False)
            assert core._brent(lambda x: got.append(x) or f(x), lo, hi, xtol, core._RTOL,
                               maxiter) == root
            assert got == want


def test_brent_names_a_nan_value():
    # where scipy's brentq raises a bare ValueError, the search raises a typed error
    seen = []

    def f(x):
        seen.append(x)
        return math.nan if 0.0 < x < 1.0 else x - 0.25

    with pytest.raises(ts.ConvergenceError) as info:
        core._brent(f, 0.0, 1.0, 1e-300, core._RTOL)
    assert 0.0 < seen[-1] < 1.0 and str(info.value).endswith(f"NaN value at x = {seen[-1]!r}")
    with pytest.raises(ts.ConvergenceError, match=r"NaN value at x = 2\.0$"):
        core._increasing_root(lambda x: math.nan if x == 2.0 else x - 1.0, 0.0, 2.0)


class TestCgf:
    def test_zero_at_origin(self, skewed):
        assert ts.cgf(skewed, 0.0) == 0.0

    def test_symmetric(self, sym_half):
        assert ts.cgf(sym_half, 0.8) == pytest.approx(ts.cgf(sym_half, -0.8), rel=1e-15)

    def test_levy_integral_oracle(self, skewed):
        val = ts.cgf(skewed, 1.0)
        assert val == pytest.approx(-1.744522574099736, rel=1e-12)  # frozen quadrature value
        assert val == pytest.approx(levy_cgf(skewed, 1.0), rel=1e-7)

    def test_domain_endpoints(self, skewed):
        ts.cgf(skewed, skewed.plus.lam)
        ts.cgf(skewed, -skewed.minus.lam)
        with pytest.raises(DomainError):
            ts.cgf(skewed, skewed.plus.lam + 1e-9)
        with pytest.raises(DomainError):
            ts.cgf(skewed, -skewed.minus.lam - 1e-9)

    def test_mixed_legs_use_their_own_branches(self):
        # Gamma upward leg (open endpoint) with a stable downward leg
        # (closed endpoint): each side keeps its own domain rule
        p = TemperedStableParams.create(1.5, 0.0, 2.0, 1.0, 0.5, 3.0)
        val = ts.cgf(p, 1.0)
        expect = 1.5 * math.log(2.0) + ts.cgf_one_sided(OneSidedParams(1.0, 0.5, 3.0), -1.0)
        assert val == pytest.approx(expect, rel=1e-14)
        ts.cgf(p, -p.minus.lam)  # closed on the stable side
        with pytest.raises(DomainError):
            ts.cgf(p, p.plus.lam)  # open on the Gamma side


class TestCf:
    def test_at_origin(self, skewed):
        assert ts.cf(skewed, 0.0) == 1.0 + 0.0j

    def test_hermitian(self, skewed):
        assert ts.cf(skewed, -2.0) == pytest.approx(np.conj(ts.cf(skewed, 2.0)), rel=1e-15)

    def test_modulus_at_most_one(self, rng):
        for _ in range(20):
            p = random_params(rng)
            z = rng.uniform(-40.0, 40.0)
            assert abs(ts.cf(p, z)) <= 1.0 + 1e-12

    def test_oscillatory_quadrature_oracle(self, sym_half):
        val = ts.cf(sym_half, 1.0)
        assert val == pytest.approx(0.4967580721504295 + 0.0j, rel=1e-12)  # frozen
        assert val == pytest.approx(levy_cf(sym_half, 1.0), rel=1e-8)

    def test_gamma_limit_as_beta_vanishes(self):
        # pointwise convergence to the bilateral-Gamma transform
        z = np.array([0.3, 1.0, 4.0, -2.5])
        target = ((2.0 / (2.0 - 1j * z)) ** 1.5) * ((3.0 / (3.0 + 1j * z)) ** 0.7)
        errs = []
        for b in (1e-2, 1e-3, 1e-4, 1e-5):
            p = TemperedStableParams.create(1.5, b, 2.0, 0.7, b, 3.0)
            errs.append(np.max(np.abs(ts.cf(p, z) - target)))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4

    def test_log_cf_within_first_order_of_gamma_limit(self):
        # Psi_beta - Psi_0 = -alpha beta (u^2/2 + u ln lam + gamma_E u) + O(beta^2) per
        # leg, u = ln(1 - z/lam); a form that cancels is off by alpha eps / beta
        beta = 1e-12
        z = np.array([1e-6, 0.3, 1.0, 4.0, -2.5, 40.0, 1.0 - 0.9j, -3.0 + 1.5j])
        legs = ((1.5, 2.0, 1j * z), (0.7, 3.0, -1j * z))
        bound = sum(a * (beta * (1.0 + np.abs(u)) ** 2 * (1.0 + abs(math.log(lam)))
                         + 1e-15 * (1.0 + np.abs(u)))
                    for a, lam, u in ((a, lam, np.log(1.0 - w / lam)) for a, lam, w in legs))
        near = ts.log_cf(TemperedStableParams.create(1.5, beta, 2.0, 0.7, beta, 3.0), z)
        gamma = ts.log_cf(TemperedStableParams.create(1.5, 0.0, 2.0, 0.7, 0.0, 3.0), z)
        assert np.all(np.abs(near - gamma) <= bound)


def _mp_leg(alpha, beta, lam, z):
    """One leg's exponent at iz to 40 digits: alpha Gamma(-beta) lam^beta
    expm1(beta u), or -alpha u at beta = 0, with u = log1p(-iz/lam)."""
    import mpmath

    with mpmath.workdps(40):
        u = mpmath.log1p(mpmath.mpc(0, -mpmath.mpf(z) / mpmath.mpf(lam)))
        if beta == 0.0:
            return -alpha * u
        return (mpmath.mpf(alpha) * mpmath.gamma(-mpmath.mpf(beta)) * mpmath.mpf(lam) ** beta
                * mpmath.expm1(beta * u))


class TestRealAxis:
    """Real frequencies take log_cf's real-arithmetic form; complex ones
    keep the complex leg exponent."""

    LEGS = ((1.7, 2.5), (0.3, 0.8))  # (alpha, lam) of the plus and minus legs

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.05, 0.5, 0.999])
    def test_matches_mpmath_and_the_complex_path(self, beta):
        (ap, lp), (am, lm) = self.LEGS
        p = TemperedStableParams.create(ap, beta, lp, am, beta, lm)
        y = np.logspace(-12, 300, 105)
        z = lp * np.concatenate([y, -y[::3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ts.log_cf(p, z)
            via_complex = ts.log_cf(p, z + 0j)
        for zi, g, c in zip(z, got, via_complex):
            plus, minus = _mp_leg(ap, beta, lp, zi), _mp_leg(am, beta, lm, zi).conjugate()
            # each leg is exp(a + ib) - 1 scaled, and a = beta ln|1 - iz/lam|
            # carries an absolute rounding error of a few eps a; the legs'
            # moduli bound the sum's conditioning
            scale = float(abs(plus) + abs(minus))
            a = beta * math.log1p(abs(zi) / min(lp, lm))
            assert abs(g - complex(plus + minus)) <= 2e-15 * (1.0 + a) * scale, (zi, g)
            assert abs(g - c) <= 1e-14 * scale, (zi, g, c)

    def test_scalar_real_input(self, skewed):
        assert type(ts.log_cf(skewed, 1.5)) is np.complex128
        assert ts.log_cf(skewed, 1.5) == pytest.approx(ts.log_cf(skewed, 1.5 + 0j), rel=1e-15)
        assert ts.log_cf(skewed, np.array([1.5, -2.0])).shape == (2,)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("lam", [1e-160, 1e-300])
    def test_tiny_rate_at_huge_frequency(self, lam, beta):
        # z/lam leaves the float range: ln|z/lam| comes from ln|z| - ln lam,
        # and e^a (a up to 1400 here) from e^(a + beta ln lam)
        p = TemperedStableParams.create(1.0, beta, lam, 1.0, 0.5, 1.0)
        z = np.array([1.0, 1.5e148, 1e151, -1e151, 1e183, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ts.log_cf(p, z)
        for zi, g in zip(z, got):
            plus, minus = _mp_leg(1.0, beta, lam, zi), _mp_leg(1.0, 0.5, 1.0, zi).conjugate()
            a = max(b * max(math.log(abs(zi)) - math.log(l), 0.0) for b, l in ((beta, lam), (0.5, 1.0)))
            assert abs(g - complex(plus + minus)) <= 2e-15 * (1.0 + a) * float(abs(plus) + abs(minus))

    def test_leg_past_the_float_range_is_domain_error(self):
        p = TemperedStableParams.create(1e300, 0.9, 1.0, 1.0, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(ts.log_cf(p, np.array([1.0, 1e3]))).all()
            with pytest.raises(DomainError, match="float range"):
                ts.log_cf(p, np.array([1.0, 1e100]))

    def test_scalar_and_complex_paths_past_the_float_range_match_mpmath(self):
        # z/lam = -1e311: the scalar cgf gave -inf, the complex log_cf nan + nan j
        import mpmath

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ts.cgf_one_sided(OneSidedParams(1.0, 0.5, 1e-160), -1e151)
            pair = ts.log_cf(TemperedStableParams.create(1.0, 0.5, 1e-160, 1.0, 0.5, 1.0),
                             np.array([1.0 + 0j, 1e151 + 0j]))
        with mpmath.workdps(40):
            lam = mpmath.mpf(1e-160)
            want = mpmath.gamma(-0.5) * (mpmath.sqrt(lam + mpmath.mpf(1e151)) - mpmath.sqrt(lam))
        assert abs(got - float(want)) <= 1e-13 * abs(float(want))  # -1.12099824328e76
        for z, g in zip((1.0, 1e151), pair):
            want = complex(_mp_leg(1.0, 0.5, 1e-160, z) + _mp_leg(1.0, 0.5, 1.0, z).conjugate())
            assert abs(g - want) <= 1e-13 * abs(want)  # -1.58533092e76 at 1e151

    def test_gamma_leg_past_the_float_range_is_domain_error(self):
        # -alpha ln|1 - iy| passed the float range: -inf + 1.57e306 j with a warning
        p = TemperedStableParams.create(1e306, 0.0, 1.0, 1.0, 0.5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ts.log_cf(p, np.array([1.0]))[0]
            with pytest.raises(DomainError, match="float range"):
                ts.log_cf(p, np.array([1.0, 1e300]))
        want = complex(_mp_leg(1e306, 0.0, 1.0, 1.0) + _mp_leg(1.0, 0.5, 1.0, 1.0).conjugate())
        assert abs(got - want) <= 1e-13 * abs(want)  # -3.4657e305 + 7.854e305 j

    @pytest.mark.parametrize("z", [np.inf, -np.inf, np.nan, complex(1.0, np.inf),
                                   complex(np.nan, 0.0)], ids=str)
    def test_non_finite_frequency_is_domain_error(self, skewed, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                ts.log_cf(skewed, np.array([0.5, z]))
            with pytest.raises(DomainError, match="non-finite"):
                ts.cf(skewed, z)


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int32])
def test_real_axis_transform_works_in_double_precision(skewed, dtype):
    z = np.array([0.0, 1.5, -2.0, 6e4]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ts.log_cf(skewed, z)
    assert np.array_equal(got, ts.log_cf(skewed, z.astype(float)))


@pytest.mark.parametrize("z", [
    1.5 + 0.1j,
    [1.5 + 0.1j, 2.5 - 0.2j],
    [0.0j, -7.0 + 2.0j, 6e4 - 1.0j],
], ids=["scalar", "pair", "wide"])
def test_complex_transform_works_in_double_precision(z):
    # complex64 frequencies are widened, not computed in single precision
    law = TemperedStableParams.create(1.0, 0.3, 3.0, 2.0, 0.6, 4.0)
    z64 = np.asarray(z, dtype=np.complex64)
    got = ts.log_cf(law, z64)
    assert got.dtype == np.complex128
    assert np.array_equal(got, ts.log_cf(law, z64.astype(complex)))


def test_real_axis_transform_memory_is_bounded(skewed):
    # the output, 1 MiB at 2^16 points, and a few real temporaries
    z = np.linspace(-1e3, 1e3, 2**16)
    ts.cf(skewed, z[:8])
    tracemalloc.start()
    try:
        ts.cf(skewed, z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


class TestCumulants:
    def test_symmetric_odd_vanish(self, sym_half):
        assert ts.cumulant(sym_half, 1) == 0.0
        assert ts.cumulant(sym_half, 3) == 0.0

    def test_gamma_leg_factorials(self):
        # dominant Gamma(1, 1) leg: kappa_n = (n-1)!
        p = TemperedStableParams.create(1.0, 0.0, 1.0, 1e-300, 0.0, 1.0)
        for n in range(1, 7):
            assert ts.cumulant(p, n) == pytest.approx(math.factorial(n - 1), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_finite_difference_oracle(self, skewed, n):
        fd = fd_cumulant(skewed, n)
        err = abs(fd - ts.cumulant(skewed, n)) / cumulant_scale(skewed, n)
        assert err < 1e-5

    def test_order_range(self, skewed):
        with pytest.raises(DomainError):
            ts.cumulant(skewed, 7)
        with pytest.raises(DomainError):
            ts.cumulant(skewed, 0)
        with pytest.raises(DomainError):
            ts.cumulant(skewed, 2.5)


class TestMomentStats:
    def test_symmetric(self, sym_half):
        stats = ts.moment_stats(sym_half)
        assert stats.mean == 0.0
        assert stats.skewness == 0.0

    def test_kurtosis_above_three(self, rng):
        for _ in range(30):
            assert ts.moment_stats(random_params(rng)).kurtosis > 3.0

    @pytest.mark.parametrize("law, refused", [
        ((1e308, 0.5, 1.0, 1.0, 0.5, 1.0), True),
        ((1.0, 0.5, 1e100, 1.0, 0.5, 1.0), False),
    ], ids=["huge-alpha", "huge-lambda"])
    def test_overflow_named_without_warnings(self, law, refused):
        p = TemperedStableParams.create(*law)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(DomainError, match="overflow"):
                    ts.moment_stats(p)
                return
            # lambda+^(n - beta) leaves the float range: the plus leg's
            # terms are 0 and the statistics are the minus leg's
            stats = ts.moment_stats(p)
        assert stats.mean == pytest.approx(-math.sqrt(math.pi), rel=1e-15)
        assert stats.variance == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)
        assert math.isfinite(stats.skewness) and math.isfinite(stats.kurtosis)

    def test_normal_limit_kurtosis_rounds_to_three(self):
        # the excess kurtosis 3.75e-18 rounds away; the law is still valid
        p = ts.clt_sequence(0.0, 1.0, 0.5, 1.0, 0.5, 1.0, 10**18)
        stats = ts.moment_stats(p)
        assert stats.kurtosis == 3.0
        assert stats.variance == pytest.approx(1.0, rel=1e-15)
        assert 0.0 < ts.berry_esseen_bound(p).bound < 1e-7

    def test_composition_identity(self, skewed):
        stats = ts.moment_stats(skewed)
        k = [ts.cumulant(skewed, n) for n in range(1, 5)]
        assert stats.mean == k[0]
        assert stats.variance == k[1]
        assert stats.skewness == pytest.approx(k[2] / k[1] ** 1.5, rel=1e-15)
        assert stats.kurtosis == pytest.approx(3.0 + k[3] / k[1] ** 2, rel=1e-15)


class TestParameterAlgebra:
    def test_convolve_doubles_alpha(self, skewed):
        c = ts.convolve(skewed, skewed)
        assert c.plus.alpha == 2.0 * skewed.plus.alpha
        assert c.minus.alpha == 2.0 * skewed.minus.alpha

    def test_convolve_cf_product(self, rng):
        p1 = random_params(rng)
        p2 = TemperedStableParams.create(
            0.4, p1.plus.beta, p1.plus.lam, 2.2, p1.minus.beta, p1.minus.lam
        )
        z = np.linspace(-20.0, 20.0, 81)
        lhs = ts.cf(ts.convolve(p1, p2), z)
        rhs = ts.cf(p1, z) * ts.cf(p2, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_convolve_mismatch(self, skewed, sym_half):
        with pytest.raises(DomainError):
            ts.convolve(skewed, sym_half)

    def test_scale_identity(self, skewed):
        assert ts.scale(skewed, 1.0) == skewed

    def test_scale_cf_substitution(self, rng):
        p = random_params(rng)
        rho = 1.7
        z = np.linspace(-20.0, 20.0, 81)
        assert np.max(np.abs(ts.cf(ts.scale(p, rho), z) - ts.cf(p, rho * z))) < 1e-12

    def test_scale_mean_linearity(self, skewed):
        assert ts.cumulant(ts.scale(skewed, 2.5), 1) == pytest.approx(
            2.5 * ts.cumulant(skewed, 1), rel=1e-13
        )

    def test_scale_rejects_nonpositive(self, skewed):
        with pytest.raises(DomainError):
            ts.scale(skewed, 0.0)

    def test_marginal(self, skewed):
        assert ts.marginal(skewed, 1.0) == skewed
        m2 = ts.marginal(skewed, 2.0)
        assert m2 == ts.convolve(ts.marginal(skewed, 1.0), ts.marginal(skewed, 1.0))
        assert ts.cumulant(ts.marginal(skewed, 3.0), 1) == pytest.approx(
            3.0 * ts.cumulant(skewed, 1), rel=1e-14
        )
        with pytest.raises(DomainError):
            ts.marginal(skewed, 0.0)


class TestCumulantVector:
    def test_even_cumulants_positive(self, rng):
        for _ in range(25):
            k = ts.cumulant_vector(random_params(rng)).kappa
            assert k[1] > 0.0 and k[3] > 0.0 and k[5] > 0.0

    def test_one_sided_cumulant_inequality(self, rng):
        # k1 k3 = (2 - beta) k2^2 strictly exceeds k2^2 on [0, 1)
        for _ in range(25):
            p = OneSidedParams(rng.uniform(0.2, 4.0), rng.uniform(0.0, 0.99),
                               rng.uniform(0.3, 5.0))
            k = [G(n - p.beta) * p.alpha / p.lam ** (n - p.beta) for n in (1, 2, 3)]
            assert k[0] * k[2] > k[1] ** 2


class TestRatePowerPastTheFloatRange:
    """lam^(n - beta) past the float range: the cumulant is formed in logs,
    and callers return finite values or a DomainError, without a warning."""

    BIG, TINY = OneSidedParams(1.0, 0.5, 1e300), OneSidedParams(1.0, 0.5, 1e-300)

    @pytest.mark.parametrize("alpha, lam, expect", [
        (1e300, 1e200, 1e-100),  # lam^2 overflows
        (1e-300, 1e-200, 1e100),  # lam^2 underflows to 0
    ])
    def test_log_form(self, alpha, lam, expect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = core.cumulant_one_sided(OneSidedParams(alpha, 0.0, lam), 2)
        assert type(value) is np.float64
        assert value == pytest.approx(expect, rel=1e-12)

    @staticmethod
    def _reference(alpha, beta, lam, n):
        # the scalar reference: scipy's scalar gamma, then g alpha / lam^e,
        # in logs where lam^e leaves the float range
        e = n - beta
        g = G(e)
        try:
            d = lam**e
        except OverflowError:
            d = math.inf
        if 0.0 < d < math.inf:
            with np.errstate(over="ignore"):
                return float(g * alpha / d)
        x = math.log(g) + math.log(alpha) - e * math.log(lam)
        return math.exp(x) if x < math.log(np.finfo(float).max) else math.inf

    def test_kernel_is_the_scalar_formula_bit_for_bit(self):
        rng = np.random.default_rng(34)
        legs = [OneSidedParams(10 ** rng.uniform(-300, 300), b, 10 ** rng.uniform(-300, 300))
                for b in (rng.choice([0.0, 0.5, 0.999], 300) * rng.uniform(0.0, 1.0, 300)).tolist()]
        legs += [OneSidedParams(rng.uniform(0.05, 20.0), rng.uniform(0.0, 0.999), rng.uniform(0.05, 20.0))
                 for _ in range(300)]
        legs += [OneSidedParams(a, b, lam) for a in (1e-300, 1e-100, 1.0, 1e100, 1e300)
                 for lam in (1e-300, 1e-200, 1e-60, 1.0, 1e60, 1e200, 1e300) for b in (0.0, 0.5, 0.999)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, leg in enumerate(legs):
                minus = legs[(7 * i + 3) % len(legs)]
                p = TemperedStableParams(leg, minus)
                population = core._population_kappa(p.as_tuple())
                for n in range(1, 7):
                    k_plus = self._reference(leg.alpha, leg.beta, leg.lam, n)
                    k_minus = (-1) ** n * self._reference(minus.alpha, minus.beta, minus.lam, n)
                    value = core.cumulant_one_sided(leg, n)
                    assert type(value) is np.float64 and value.hex() == k_plus.hex()
                    # numpy scalar fields take the same path, without numpy's warnings
                    as_numpy = OneSidedParams(*map(np.float64, (leg.alpha, leg.beta, leg.lam)))
                    assert core.cumulant_one_sided(as_numpy, n).hex() == k_plus.hex()
                    assert population[n - 1].hex() == (k_plus + k_minus).hex()
                    if math.isinf(k_plus) and k_plus == -k_minus:
                        with pytest.raises(DomainError, match="inf - inf"):
                            ts.cumulant(p, n)
                    else:
                        assert ts.cumulant(p, n).hex() == (k_plus + k_minus).hex()

    def test_callers_are_finite_or_typed(self):
        readme_minus = OneSidedParams(2.0, 0.6, 4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (self.BIG, TemperedStableParams(self.BIG, self.BIG),
                      TemperedStableParams(self.BIG, readme_minus)):
                br = ts.mode_bracket(p)
                assert all(math.isfinite(v) for v in (br.lower, br.upper))
            assert ts.third_moment_one_sided(self.BIG) == 0.0
            assert ts.cumulant_vector(TemperedStableParams(self.BIG, self.BIG)).kappa == (0.0,) * 6
            mixed = TemperedStableParams(self.BIG, readme_minus)
            assert ts.cumulant_vector(mixed).kappa == tuple(ts.cumulant(mixed, n) for n in range(1, 7))
            with pytest.raises(DomainError, match="float range"):
                ts.cumulant_vector(TemperedStableParams(self.TINY, self.TINY))
            with pytest.raises(DomainError, match="overflows"):
                ts.third_moment_one_sided(self.TINY)
            assert ts.cumulant(TemperedStableParams(self.TINY, self.TINY), 2) == math.inf

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_cumulant_of_two_infinite_legs_is_domain_error(self, n):
        # inf - inf, which numpy sums to nan with an "invalid value" warning
        # (kappa_1 is 1.8e150 - 1.8e150 = 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="float range"):
                ts.cumulant(TemperedStableParams(self.TINY, self.TINY), n)


class TestThirdMoment:
    def test_gamma_unit(self):
        assert ts.third_moment_one_sided(OneSidedParams(1.0, 0.0, 1.0)) == pytest.approx(
            6.0, rel=1e-14
        )

    def test_cumulant_identity(self, rng):
        for _ in range(25):
            p = OneSidedParams(rng.uniform(0.2, 3.0), rng.uniform(0.0, 0.95),
                               rng.uniform(0.3, 4.0))
            k = [G(n - p.beta) * p.alpha / p.lam ** (n - p.beta) for n in (1, 2, 3)]
            expect = k[0] ** 3 + 3 * k[0] * k[1] + k[2]
            assert ts.third_moment_one_sided(p) == pytest.approx(expect, rel=1e-12)


class TestWeakConvergenceDistances:
    """Characteristic-function distances for the degenerate and normal limits."""

    def test_lln_regime(self):
        # alpha_n = n^(1-b) a, lambda_n = n l keeps the mean fixed and
        # collapses the law onto it
        a_p, b_p, l_p = 1.2, 0.4, 1.5
        a_m, b_m, l_m = 0.8, 0.6, 2.0
        mu = G(1 - b_p) * a_p / l_p ** (1 - b_p) - G(1 - b_m) * a_m / l_m ** (1 - b_m)
        z = np.linspace(-5.0, 5.0, 41)
        dists = []
        for n in (4, 16, 64, 256):
            p = TemperedStableParams.create(
                n ** (1 - b_p) * a_p, b_p, n * l_p,
                n ** (1 - b_m) * a_m, b_m, n * l_m,
            )
            dists.append(np.max(np.abs(ts.cf(p, z) - np.exp(1j * z * mu))))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < 0.05

    def test_clt_regime(self):
        mu, sigma2 = 0.3, 1.4
        z = np.linspace(-4.0, 4.0, 41)
        target = np.exp(1j * z * mu - 0.5 * z**2 * sigma2)
        dists = []
        for n in (4, 16, 64, 256):
            p = ts.clt_sequence(mu, sigma2, 0.4, 1.0, 0.6, 1.5, n)
            dists.append(np.max(np.abs(ts.cf(p, z) - target)))
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] < 0.05


class TestParamsIO:
    def test_round_trip(self, tmp_path, skewed):
        path = tmp_path / "p.json"
        ts.save_params(skewed, path)
        assert ts.load_params(path) == skewed

    def test_one_sided_round_trip(self, tmp_path, one_sided_half):
        path = tmp_path / "p.json"
        ts.save_params(one_sided_half, path)
        assert ts.load_params(path) == one_sided_half

    def test_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha_plus": 1, "beta_plus": 1.2, "lambda_plus": 1,'
                        ' "alpha_minus": 1, "beta_minus": 0.5, "lambda_minus": 1}')
        with pytest.raises(DomainError):
            ts.load_params(path)
        path.write_text('{"alpha": 1}')
        with pytest.raises(DomainError):
            ts.load_params(path)
        path.write_text("not json")
        with pytest.raises(DomainError):
            ts.load_params(path)

    def test_invariants(self):
        with pytest.raises(DomainError):
            OneSidedParams(-1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            OneSidedParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            OneSidedParams(1.0, 0.5, 0.0)
