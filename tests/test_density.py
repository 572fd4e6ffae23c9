import hashlib
import importlib
import math
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import gamma as gamma_dist

import tempstable as ts
from tempstable import (
    ConvergenceError,
    DomainError,
    InversionSettings,
    OneSidedParams,
    TemperedStableParams,
)
from tempstable.core import _fourier_sum

from conftest import inversion_cost_ok, random_params

GAMMA_PROXY = TemperedStableParams.create(2.0, 0.0, 1.0, 1e-12, 0.0, 1.0)
GAMMA_SETTINGS = InversionSettings(cf_floor=1e-10)
README_LAW = TemperedStableParams.create(1.0, 0.3, 3.0, 2.0, 0.6, 4.0)
# small stability indices: the node count follows from the frequency
# extent and |phi| never drops below 1e-16 on the planned grid
SLOW_LAW = TemperedStableParams.create(1.0, 0.1, 1.0, 1.0, 0.1, 1.0)
# support K = 1220 of 16384 nodes, past the first 256 (and 768)
PAST_FIRST_BLOCK_LAW = TemperedStableParams.create(1.0, 0.4, 1.0, 1.0, 0.4, 1.0)
# the analytic mode bracket reaches below the +-12 sd window, where the
# pointwise Fourier sum repeats the density one window period away
WIDE_BRACKET_LAW = TemperedStableParams.create(3.0, 0.95, 1.0, 1.0, 0.5, 1.0)


def _direct_dft_nodes(p, settings):
    """The grid, and every planned node z_k with its half-line weighted
    phi_k, rebuilt from the grid's plan record and the public transform."""
    g = ts.DensityEvaluator(p, settings).grid()
    z = g.meta["dz"] * np.arange(g.meta["nodes"])
    phi = ts.cf(p, z)
    phi[0] *= 0.5
    return g, z, phi


def _direct_dft_pdf(p, settings, xs):
    """Reference pointwise density: the half-line DFT over every planned node."""
    g, z, phi = _direct_dft_nodes(p, settings)
    out = np.array([(g.meta["dz"] / math.pi) * np.real(np.exp(-1j * x * z) @ phi) for x in xs])
    return np.maximum(out, 0.0)


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"extent_sd": 0.0}, {"extent_sd": -1.0}, {"extent_sd": math.nan},
        {"extent_sd": math.inf}, {"nodes": 0}, {"cf_floor": 0.0},
        {"cf_floor": 1.0}, {"cf_floor": math.nan}, {"nodes": 2**12, "max_nodes": 2**11},
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(DomainError):
            InversionSettings(**kwargs)

    def test_nodes_need_not_be_a_power_of_two(self):
        ev = ts.DensityEvaluator(README_LAW, InversionSettings(nodes=1000))
        assert ev.grid().meta["nodes"] == ev.grid().x.size == 1000


    @pytest.mark.parametrize("law, error", [
        ((1e-12, 0.0, 1e-300, 1.0, 0.5, 2.0), DomainError),  # sd inf: an OverflowError
        ((1e12, 0.0, 1e-300, 1.0, 0.5, 2.0), DomainError),  # mean and sd inf: a ValueError
        ((1e300, 0.0, 1.0, 1.0, 0.5, 2.0), DomainError),  # 12 sd below the mean's ulp
        ((1e-300, 0.0, 1e300, 1.0, 0.5, 2.0), ConvergenceError),  # extents past the range
        ((1e32, 0.0, 1e-134, 1.0, 0.5, 1e200), ConvergenceError),  # node count past it
    ])
    def test_float_range_edges_are_refused_without_warnings(self, law, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                ts.DensityEvaluator(TemperedStableParams.create(*law))


class TestPoints:
    """A NaN point has no density or probability; the infinities keep
    their limits; an array of points keeps its shape."""

    @pytest.mark.parametrize("x", [math.nan, [0.0, math.nan], np.array([math.nan, -math.inf])])
    def test_nan_point_is_domain_error(self, x):
        ev = ts.DensityEvaluator(README_LAW)
        for call in (ev.pdf, ev.cdf, lambda x: ts.pdf(README_LAW, x),
                     lambda x: ts.cdf(README_LAW, x)):
            with pytest.raises(DomainError, match="NaN point"):
                call(x)

    def test_infinite_points_keep_their_limits(self):
        ev = ts.DensityEvaluator(README_LAW)
        assert ev.pdf(-math.inf) == ev.pdf(math.inf) == 0.0
        assert (ev.cdf(-math.inf), ev.cdf(math.inf)) == (0.0, 1.0)
        points = [-math.inf, 0.0, math.inf]
        pdf, cdf = ts.pdf(README_LAW, points), ts.cdf(README_LAW, points)
        assert pdf[0] == pdf[2] == 0.0 and pdf[1] > 0.0
        assert cdf[0] == 0.0 and 0.0 < cdf[1] < 1.0 and cdf[2] == 1.0

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 1)])
    def test_array_points_keep_their_shape(self, shape):
        ev = ts.DensityEvaluator(README_LAW)
        # the last point lies outside the window, where pdf is 0
        xs = np.append(np.linspace(-1.0, 1.0, math.prod(shape) - 1), 1e6).reshape(shape)
        flat = ev.pdf(xs.ravel())
        assert flat[-1] == 0.0 and np.all(flat[:-1] > 0.0)
        for pdf in (ev.pdf(xs), ts.pdf(README_LAW, xs)):
            assert pdf.shape == shape
            np.testing.assert_array_equal(pdf.ravel(), flat)


class TestPdf:
    def test_symmetric_density_is_even(self, sym_half):
        ev = ts.DensityEvaluator(sym_half)
        xs = np.array([0.3, 0.9, 1.7, 3.2])
        assert np.max(np.abs(ev.pdf(xs) - ev.pdf(-xs))) < 1e-8

    def test_gamma_leg_closed_form(self):
        # a vanishing downward leg leaves a plain Gamma(2, 1) density;
        # the transform decays only polynomially here, hence the relaxed
        # boundary floor
        ev = ts.DensityEvaluator(GAMMA_PROXY, GAMMA_SETTINGS)
        xs = np.linspace(0.05, 10.0, 40)
        assert np.max(np.abs(ev.pdf(xs) - gamma_dist.pdf(xs, 2.0))) < 1e-5

    @pytest.mark.parametrize("law", [README_LAW, WIDE_BRACKET_LAW])
    def test_zero_outside_window(self, law):
        ev = ts.DensityEvaluator(law)
        g = ev.grid()
        period = g.meta["nodes"] * (g.x[1] - g.x[0])
        peak = g.x[np.argmax(g.pdf)]
        images = np.array([peak - period, peak + period, g.x[0] - 1e-9 * period])
        assert np.all(ev.pdf(images) == 0.0)
        stats = ts.moment_stats(law)
        assert ev.pdf(stats.mean - 20.0 * math.sqrt(stats.variance)) == 0.0
        assert ev.pdf(g.x[-1]) == pytest.approx(g.pdf[-1], abs=1e-12)

    def test_unit_mass(self, skewed):
        g = ts.density_grid(skewed)
        assert np.trapezoid(g.pdf, g.x) == pytest.approx(1.0, abs=1e-4)

    def test_nonnegative_and_clamp_accounting(self, skewed):
        g = ts.density_grid(skewed)
        assert np.all(g.pdf >= 0.0)
        assert g.meta["clamped_mass"] < 1e-3

    def test_grid_and_pointwise_agree(self, skewed):
        ev = ts.DensityEvaluator(skewed)
        g = ev.grid()
        idx = np.linspace(10, len(g.x) - 10, 7, dtype=int)
        assert np.max(np.abs(ev.pdf(g.x[idx]) - g.pdf[idx])) < 1e-12

    def test_moments_from_grid(self, rng):
        for _ in range(5):
            p = random_params(rng)
            if not inversion_cost_ok(p):
                continue
            g = ts.density_grid(p)
            stats = ts.moment_stats(p)
            mean_num = np.trapezoid(g.x * g.pdf, g.x)
            var_num = np.trapezoid((g.x - mean_num) ** 2 * g.pdf, g.x)
            assert mean_num == pytest.approx(stats.mean, abs=1e-3 * math.sqrt(stats.variance))
            assert var_num == pytest.approx(stats.variance, rel=1e-3)

    def test_slow_decay_reported_with_suggestion(self):
        with pytest.raises(ConvergenceError, match="max_nodes|cf_floor|extent_sd"):
            ts.DensityEvaluator(GAMMA_PROXY)


class TestSupportTruncation:
    """Pointwise pdf sums only the nodes where phi is numerically
    nonzero; it must match the full direct DFT in the bulk."""

    @pytest.mark.parametrize("law, settings, truncated", [
        (README_LAW, None, True),
        (SLOW_LAW, None, False),
        (GAMMA_PROXY, GAMMA_SETTINGS, False),
    ], ids=["readme", "slow-decay", "gamma-leg"])
    def test_matches_full_direct_dft(self, law, settings, truncated):
        ev = ts.DensityEvaluator(law, settings)
        assert (ev._support < ev._n) == truncated
        stats = ts.moment_stats(law)
        sd = math.sqrt(stats.variance)
        lo = 0.1 * sd if law is GAMMA_PROXY else stats.mean - 4.0 * sd
        xs = np.linspace(lo, stats.mean + 4.0 * sd, 9)
        ref = _direct_dft_pdf(law, settings, xs)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(ev.pdf(xs) - ref) / ref) < 1e-10

    @pytest.mark.parametrize("law, settings, least", [
        (README_LAW, None, 0),
        (PAST_FIRST_BLOCK_LAW, None, 256),
        (SLOW_LAW, None, None),
        (GAMMA_PROXY, GAMMA_SETTINGS, None),
    ], ids=["readme", "past-256", "slow-decay", "gamma-leg"])
    def test_support_is_the_first_negligible_node_of_the_full_plan(self, law, settings, least):
        # the plan evaluates phi once, up to the extent that bounds K; K must
        # be the first negligible node of all n, or n where none is (least
        # None), and lie past ``least`` otherwise
        meta = ts.DensityEvaluator(law, settings).grid().meta
        n = meta["nodes"]
        phi = ts.cf(law, meta["dz"] * np.arange(n))
        phi[0] *= 0.5
        negligible = np.flatnonzero((n - np.arange(n)) * np.abs(phi) <= 1e-16)
        if least is None:
            assert meta["support"] == n and negligible.size == 0
        else:
            assert least < meta["support"] == negligible[0] < n

    def test_plan_retains_only_the_support(self):
        ts.DensityEvaluator(README_LAW)  # lazy imports and caches outside the trace
        tracemalloc.start()
        try:
            ev = ts.DensityEvaluator(README_LAW)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ev._support < ev._n
        assert retained <= 64 * 1024


class TestFactoredSum:
    """Pointwise pdf factors the support's Fourier sum into two short
    exponential factors and a matrix product; it must reproduce the direct
    sum to rounding, across the whole window."""

    @pytest.mark.parametrize("law, settings", [
        (README_LAW, None),
        (SLOW_LAW, None),
        (GAMMA_PROXY, GAMMA_SETTINGS),
    ], ids=["readme", "slow-decay", "near-gamma"])
    def test_matches_direct_sum_to_rounding(self, law, settings):
        ev = ts.DensityEvaluator(law, settings)
        g = ev.grid()
        xs = g.x[0] + (g.x[-1] - g.x[0]) * np.linspace(0.001, 0.999, 41)
        ref = _direct_dft_pdf(law, settings, xs)
        assert np.max(np.abs(ev.pdf(xs) - ref)) <= 1e-13 * np.max(g.pdf)

    @pytest.mark.parametrize("law", [README_LAW, SLOW_LAW], ids=["readme", "slow-decay"])
    def test_one_point_equals_the_batch_sum(self, law):
        # one point takes einsum's product on the calling thread, a batch
        # BLAS's matmul: the two agree to rounding
        ev = ts.DensityEvaluator(law)
        g = ev.grid()
        xs = np.linspace(g.x[0], g.x[-1], 257)
        batch = _fourier_sum(xs, ev._blocks, ev._dz)
        for i in (0, 100, 128, 256):
            for x in (float(xs[i]), np.float64(xs[i]), xs[i:i + 1]):
                one = _fourier_sum(x, ev._blocks, ev._dz)
                assert np.shape(one) == np.shape(x)
                assert abs(float(np.squeeze(one)) - batch[i]) <= 1e-15 * np.max(np.abs(batch))

    def test_memory_is_bounded_by_the_chunk(self):
        # 2^18 nodes, all in the support: unchunked, the two factors of
        # 10^5 points would take 1.6 GB
        ev = ts.DensityEvaluator(TemperedStableParams.create(2.2, 0.0, 1.0, 1e-12, 0.0, 1.0),
                                 GAMMA_SETTINGS)
        assert ev._n == ev._support == 2**18
        xs = np.linspace(0.05, 5.0, 10**5)
        tracemalloc.start()
        try:
            vals = ev.pdf(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96e6
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)


def _kernel_digest():
    # the float64 kernels the transform, the FFT and the factored sum use;
    # numpy's SIMD dispatch may round them differently on another CPU, and
    # OpenBLAS rounds a product of pdf's shape, (256, 182) @ (182, 181)
    # complex, differently at one thread than at two or more; one point's
    # product is einsum's loop at any thread count
    x = np.linspace(1e-3, 3.0, 1001)
    w = np.exp(1j * x) * x
    parts = [np.log(x), np.log1p(x), np.expm1(-x), np.tan(x), np.arctan(x), np.exp(w),
             np.cos(x), np.sin(x), np.fft.fft(w), w[:992].reshape(31, 32) @ w[:32],
             np.einsum("...j,...j->...", np.cos(x), np.sin(x)),
             np.einsum("...i,ij->...j", w[:182], np.outer(w[:182], w[:181])),
             np.exp(np.multiply.outer(x[:256], -1j * np.arange(182))) @ np.outer(w[:182], w[:181])]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def _density_digest():
    # pdf at 256 points of the grid's window and mode() on the README law
    # and the 49 other laws of the density benchmark's seed 101
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    digest = hashlib.sha256()
    for law in workloads.density_inputs(101, 50):
        ev = ts.DensityEvaluator(law)
        g = ev.grid()
        digest.update(ev.pdf(np.linspace(g.x[0], g.x[-1], 256)).tobytes())
        digest.update(np.float64(ev.mode()).tobytes())
    return digest.hexdigest()


#: the density digest for each kernel fingerprint of the pinning host
#: (2-CPU x86-64 with AVX-512, numpy 2.4.6, OpenBLAS 0.3.31): one BLAS
#: thread, then two or more
_DENSITY_DIGESTS = {
    "73a1b5219c54e138af7af1b5eea14fd055f17490497e4c0e8d070b3612587c40":
        "1af345829235dd7a0753d39c12387c3902c2799f4770393a56e40dd9e73e3cf7",
    "a46f166ec0fc1fe9a69cb3865afa2b9ca9887c507ca5089cd6ffc50b386c067a":
        "637a8bcf170908fcb3d2ca749dd9329deb4cf8f44a4b1893e6976b6998c67cb4",
}


def test_factored_sum_bits_are_pinned():
    # SHA-256 of pdf's batch bits, which go through BLAS's matrix product,
    # and of mode(), whose one-point root steps go through einsum's
    expected = _DENSITY_DIGESTS.get(_kernel_digest())
    if expected is None:
        pytest.skip("float64 kernels round differently from the pinning host's")
    assert _density_digest() == expected


class TestAgainstPointwiseQuadrature:
    """Second, fully independent inversion: direct oscillatory quadrature
    of the transform at single points."""

    @staticmethod
    def _gil_pelaez_pdf(p, x):
        from scipy.integrate import quad

        f = lambda z: np.real(np.exp(-1j * z * x) * ts.cf(p, z))
        v1, _ = quad(f, 0.0, 50.0, limit=800)
        v2, _ = quad(f, 50.0, 2000.0, limit=800)
        return (v1 + v2) / math.pi

    @staticmethod
    def _gil_pelaez_cdf(p, x):
        from scipy.integrate import quad

        f = lambda z: np.imag(np.exp(-1j * z * x) * ts.cf(p, z)) / z
        v1, _ = quad(f, 1e-12, 50.0, limit=800)
        v2, _ = quad(f, 50.0, 2000.0, limit=800)
        return 0.5 - (v1 + v2) / math.pi

    def test_pdf_matches(self):
        p = TemperedStableParams.create(1.0, 0.5, 2.0, 1.5, 0.3, 2.5)
        ev = ts.DensityEvaluator(p)
        for x in (-1.0, 0.0, 0.4, 1.5):
            assert ev.pdf(x) == pytest.approx(self._gil_pelaez_pdf(p, x), abs=1e-9)

    def test_cdf_matches(self):
        p = TemperedStableParams.create(1.0, 0.5, 2.0, 1.5, 0.3, 2.5)
        ev = ts.DensityEvaluator(p)
        for x in (-1.0, 0.0, 0.4, 1.5):
            assert ev.cdf(x) == pytest.approx(self._gil_pelaez_cdf(p, x), abs=1e-6)

    def test_scaling_identity(self, skewed):
        # density of rho*X at rho*x is the density of X at x over rho
        rho = 1.6
        scaled = ts.DensityEvaluator(ts.scale(skewed, rho))
        plain = ts.DensityEvaluator(skewed)
        for x in (-0.5, 0.2, 1.1):
            assert scaled.pdf(rho * x) == pytest.approx(plain.pdf(x) / rho, abs=1e-9)


class TestCdf:
    def test_scalar_cdf_interpolates_cdf_grid(self, skewed):
        ev = ts.DensityEvaluator(skewed)
        xg, cg = ev.cdf_grid()
        stats = ts.moment_stats(skewed)
        xs = stats.mean + math.sqrt(stats.variance) * np.linspace(-20.0, 20.0, 41)
        expected = np.interp(xs, xg, cg, left=0.0, right=1.0)
        assert np.array_equal(ev.cdf(xs), expected)
        assert [ev.cdf(float(x)) for x in xs] == expected.tolist()
        # callers get the evaluator's one table, read-only like grid()'s arrays
        with pytest.raises(ValueError):
            cg[:] = -1.0
        assert np.array_equal(ev.cdf(xs), expected)
        assert ev.cdf_grid()[1] is cg

    def test_repeated_scalar_cdf_builds_grid_once(self, skewed, monkeypatch):
        calls = []
        plain_grid = ts.DensityEvaluator.grid

        def counting_grid(self):
            calls.append(1)
            return plain_grid(self)

        monkeypatch.setattr(ts.DensityEvaluator, "grid", counting_grid)
        ev = ts.DensityEvaluator(skewed)
        for x in np.linspace(-1.0, 1.0, 16):
            ev.cdf(float(x))
        assert len(calls) == 1

    def test_grid_is_built_once_and_read_only(self, skewed, monkeypatch):
        ev = ts.DensityEvaluator(skewed)
        g = ev.grid()
        assert ev.grid() is g
        assert not (g.x.flags.writeable or g.pdf.flags.writeable)
        ffts = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: ffts.append(a.size) or fft(a))
        x, c = ev.cdf_grid()
        assert x is g.x and ev.cdf(0.5) == np.interp(0.5, x, c)
        ev.mode()
        assert not ffts

    def test_symmetric_median(self, sym_half):
        assert ts.cdf(sym_half, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_far_right_tail(self, skewed):
        stats = ts.moment_stats(skewed)
        hi = stats.mean + 12.0 * math.sqrt(stats.variance)
        assert ts.cdf(skewed, hi) >= 0.9999

    def test_monotone_and_consistent_with_pdf(self, skewed):
        ev = ts.DensityEvaluator(skewed)
        xg, cg = ev.cdf_grid()
        assert np.all(np.diff(cg) >= 0.0)
        g = ev.grid()
        # cumulative trapezoid of the pdf is the construction; spot-check
        # against an independent cumulative sum on a coarser slice
        mid = len(xg) // 2
        dx = xg[1] - xg[0]
        riemann = np.sum(g.pdf[:mid]) * dx
        assert riemann == pytest.approx(cg[mid], abs=1e-3)

    def test_ecdf_cross_check(self, rng):
        p = TemperedStableParams.create(1.0, 0.5, 1.0, 0.8, 0.4, 1.2)
        n = 1_000_000
        xp = ts.sample_one_sided(p.plus, 1.0, rng, size=n)
        xm = ts.sample_one_sided(p.minus, 1.0, rng, size=n)
        x = np.sort(xp - xm)
        model = ts.cdf(p, x)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(model - ecdf_hi)), np.max(np.abs(model - ecdf_lo)))
        assert ks <= 2e-3


class TestModeBracket:
    def test_fixed_point_frozen_value(self):
        # e^(-2 xi) = xi
        assert ts.mode_fixed_point(OneSidedParams(1.0, 0.5, 1.0)) == pytest.approx(
            0.4263027510068627, abs=1e-12
        )

    def test_upper_bound_below_mean(self, rng):
        for _ in range(20):
            p = OneSidedParams(rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.95),
                               rng.uniform(0.3, 4.0))
            br = ts.mode_bracket(p)
            from tempstable.core import cumulant_one_sided

            assert br.upper <= cumulant_one_sided(p, 1) + 1e-15
            assert 0.0 < br.lower < br.upper
            assert br.xi0 is not None and br.xi0 > 0.0

    def test_grid_argmax_inside_bracket(self, rng):
        hits = 0
        while hits < 10:
            p = random_params(rng, beta_lo=0.1, beta_hi=0.9)
            if not inversion_cost_ok(p):
                continue
            hits += 1
            g = ts.density_grid(p)
            x_hat = g.x[np.argmax(g.pdf)]
            br = ts.mode_bracket(p)
            assert br.lower - 1e-6 <= x_hat <= br.upper + 1e-6

    def test_gamma_leg_rejected(self):
        with pytest.raises(DomainError):
            ts.mode_bracket(OneSidedParams(1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            ts.mode_bracket(GAMMA_PROXY)

    def test_small_beta_bracket_is_finite(self):
        # alpha^(1/beta) and (alpha/(1-beta))^(1/beta) overflow here; both
        # are bounds the bracket discards
        leg = OneSidedParams(10000.0, 0.01, 1.0)
        br = ts.mode_bracket(leg)
        assert 0.0 < br.lower < br.upper < math.inf
        xi0 = ts.mode_fixed_point(leg)
        log_a = math.log(leg.alpha)
        assert math.log(xi0) == pytest.approx(log_a / leg.beta - leg.lam * xi0 / leg.beta,
                                              rel=1e-12)
        two = ts.mode_bracket(TemperedStableParams.create(10000.0, 0.01, 1.0, 1.0, 0.5, 1.0))
        assert -math.inf < two.lower < two.upper < math.inf

    def test_infinite_mean_is_domain_error(self):
        # the mean Gamma(1 - beta) alpha / lambda^(1 - beta), the bracket's
        # upper end, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="mode bracket overflows"):
                ts.mode_bracket(OneSidedParams(1e300, 0.001, 1e-300))


def _finite_or_domain_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = call()
        except DomainError:
            return
    assert all(math.isfinite(v) for v in values if v is not None), values


@settings(derandomize=True, max_examples=400, deadline=None)
@given(alpha=st.floats(1e-6, 1e6),
       beta=st.one_of(st.just(0.0), st.floats(1e-9, 0.999)),
       lam=st.floats(1e-3, 1e3))
# a subnormal fixed point, where a bracketed root search raised a raw ValueError
@example(alpha=2.2163056666663525e-4, beta=0.011763846646541032, lam=147.68647095934816)
def test_fixed_point_and_bracket_finite_or_domain_error(alpha, beta, lam):
    leg = OneSidedParams(alpha, beta, lam)
    _finite_or_domain_error(lambda: [ts.mode_fixed_point(leg)])
    _finite_or_domain_error(lambda: astuple(ts.mode_bracket(leg)))
    _finite_or_domain_error(lambda: astuple(ts.mode_bracket(
        TemperedStableParams(leg, OneSidedParams(1.0, 0.5, 1.0)))))


class TestMode:
    def test_symmetric_mode_at_origin(self, sym_half):
        sigma = math.sqrt(ts.moment_stats(sym_half).variance)
        assert abs(ts.mode(sym_half)) < 1e-4 * sigma

    def test_near_gamma_mode(self):
        # dominant Gamma(2, 1) leg peaks near (alpha - 1) / lambda = 1
        assert ts.mode(GAMMA_PROXY, GAMMA_SETTINGS) == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("law, settings", [
        # a density_eval benchmark law (seed 107, law 17), rounded to four digits
        (TemperedStableParams.create(0.5205, 0.2878, 3.907, 1.627, 0.8330, 0.9991), None),
        (README_LAW, None),
        (GAMMA_PROXY, GAMMA_SETTINGS),
        (TemperedStableParams.create(1.0, 0.5, 1.0, 1.0, 0.5, 1.0), None),
    ], ids=["bench-law", "readme", "near-gamma", "symmetric-half"])
    def test_mode_is_the_root_of_the_direct_sum_slope(self, law, settings):
        # pdf' as the direct sum over every planned node, with coefficients
        # -i z_k phi_k, solved to rounding between the grid argmax's neighbours
        g, z, phi = _direct_dft_nodes(law, settings)
        slope = -1j * z * phi
        i = int(np.argmax(g.pdf))
        root = brentq(lambda x: np.real(np.exp(-1j * x * z) @ slope), g.x[i - 1], g.x[i + 1],
                      xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        sd = math.sqrt(ts.moment_stats(law).variance)
        assert abs(ts.mode(law, settings) - root) <= 1e-12 * sd

    def test_wide_bracket_mode_at_grid_argmax(self):
        g = ts.density_grid(WIDE_BRACKET_LAW)
        x_hat = g.x[np.argmax(g.pdf)]
        assert abs(ts.mode(WIDE_BRACKET_LAW) - x_hat) <= g.x[1] - g.x[0]

    def test_evaluator_mode_plans_once(self, skewed, monkeypatch):
        plans = []
        plan = ts.DensityEvaluator._plan
        monkeypatch.setattr(ts.DensityEvaluator, "_plan",
                            lambda self: plans.append(plan(self)))
        ev = ts.DensityEvaluator(skewed)
        ev.mode()
        assert len(plans) == 1

    def test_local_maximality(self, skewed):
        ev = ts.DensityEvaluator(skewed)
        x0 = ts.mode(skewed)
        sigma = math.sqrt(ts.moment_stats(skewed).variance)
        peak = ev.pdf(x0)
        for delta in (1e-3 * sigma, 1e-2 * sigma):
            assert peak >= ev.pdf(x0 - delta) - 1e-12
            assert peak >= ev.pdf(x0 + delta) - 1e-12

    def test_unimodality_of_grid(self, rng):
        hits = 0
        while hits < 5:
            p = random_params(rng, beta_lo=0.1, beta_hi=0.9)
            if not inversion_cost_ok(p):
                continue
            hits += 1
            g = ts.density_grid(p)
            keep = g.pdf > 1e-9
            diffs = np.diff(g.pdf[keep])
            signs = np.sign(diffs[np.abs(diffs) > 1e-9])
            flips = np.sum(np.diff(signs) != 0)
            assert flips == 1


class TestAsymptotics:
    def test_small_x_algebraic_value(self):
        # beta = 1/2, alpha = lambda = 1: the constant is Gamma(1/2)^2 = pi
        one = OneSidedParams(1.0, 0.5, 1.0)
        x = 0.37
        assert ts.small_x_log_asymptote(one, x) == pytest.approx(-math.pi / x, rel=1e-14)

    def test_small_x_diverges_at_origin(self):
        one = OneSidedParams(1.0, 0.5, 1.0)
        assert ts.small_x_log_asymptote(one, 1e-12) < -1e10

    def test_small_x_trend_toward_density(self):
        one = OneSidedParams(1.0, 0.3, 1.0)
        proxy = TemperedStableParams.create(1.0, 0.3, 1.0, 1e-12, 0.3, 1.0)
        ev = ts.DensityEvaluator(proxy, InversionSettings(extent_sd=16.0))
        sigma = math.sqrt(ts.moment_stats(proxy).variance)
        ratios = []
        for frac in (0.1, 0.05, 0.02):
            x = frac * sigma
            ratios.append(math.log(ev.pdf(x)) / ts.small_x_log_asymptote(one, x))
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert 0.0 < ratios[0] and ratios[-1] > 0.5

    def test_small_x_requires_positive_beta(self):
        with pytest.raises(DomainError):
            ts.small_x_log_asymptote(OneSidedParams(1.0, 0.0, 1.0), 0.1)

    def test_tail_constant_positive(self, rng):
        for _ in range(20):
            assert ts.tail_constant(random_params(rng)) > 0.0

    def test_tail_constant_one_sided_reduction(self):
        plus = OneSidedParams(0.3, 0.5, 1.0)
        limits = []
        for am in (1e-2, 1e-5, 1e-9):
            p = TemperedStableParams.create(0.3, 0.5, 1.0, am, 0.5, 2.0)
            limits.append(ts.tail_constant(p))
        target = ts.tail_constant_one_sided(plus)
        errs = [abs(v - target) for v in limits]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-8

    def test_tail_ratio_approaches_one(self):
        p = TemperedStableParams.create(0.3, 0.5, 1.0, 0.05, 0.5, 2.0)
        ev = ts.DensityEvaluator(p, InversionSettings(extent_sd=16.0))
        stats = ts.moment_stats(p)
        mu, sd = stats.mean, math.sqrt(stats.variance)
        c_tail = ts.tail_constant(p)
        ratios = []
        for k in (6, 8, 10):
            x = mu + k * sd
            ratios.append(ev.pdf(x) * x ** (1.0 + p.plus.beta)
                          * math.exp(p.plus.lam * x) / c_tail)
        assert all(abs(r - 1.0) <= 0.1 for r in ratios)
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_tail_constant_rejects_gamma_legs(self):
        with pytest.raises(DomainError):
            ts.tail_constant(GAMMA_PROXY)

    @pytest.mark.parametrize("law", [
        (1.0, 0.5, 1e100, 1.0, 0.5, 1.0),  # the legs' 3.5e50 cancel to 3.54
        (1.0, 0.5, 1e20, 1.0, 0.5, 1.0),
        (2.0, 0.4, 1e30, 2.0, 0.4, 1e-3),
        (1.0, 0.3, 3.0, 2.0, 0.6, 4.0),
        (0.3, 0.5, 1.0, 1e-9, 0.5, 2.0),
        (1.0, 0.5, 1e-3, 3.0, 0.7, 1e12),  # the minus leg's own terms cancel
    ])
    def test_tail_constant_matches_mpmath(self, law):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(120):
            ap, bp, lp, am, bm, lm = (mpmath.mpf(v) for v in law)
            exponent = (ap * mpmath.gamma(1 - bp) / bp * lp**bp
                        - am * mpmath.gamma(1 - bm) / bm * ((lm + lp)**bm - lm**bm))
            expected = float(ap * mpmath.exp(exponent))
        assert ts.tail_constant(TemperedStableParams.create(*law)) == pytest.approx(
            expected, rel=1e-13)

    def test_tail_constant_lost_to_rounding_is_domain_error(self):
        # alpha- puts the minus leg's 3.5e14 on the plus leg's, with the legs'
        # betas apart, so that no form of Psi(lambda+) keeps its digits;
        # the true constant is moderate
        mpmath = pytest.importorskip("mpmath")
        law = (1.0, 0.5, 1e28, 0.0015197193818580507, 0.6, 1.0)
        with mpmath.workdps(120):
            ap, bp, lp, am, bm, lm = (mpmath.mpf(v) for v in law)
            exponent = (ap * mpmath.gamma(1 - bp) / bp * lp**bp
                        - am * mpmath.gamma(1 - bm) / bm * ((lm + lp)**bm - lm**bm))
        assert abs(exponent) < 1.0
        with pytest.raises(DomainError, match="lost to rounding"):
            ts.tail_constant(TemperedStableParams.create(*law))

    @pytest.mark.parametrize("law", [
        (1000.0, 0.5, 1000.0, 1.0, 0.5, 1.0), (10000.0, 0.01, 1.0, 1.0, 0.5, 1.0),
    ])
    def test_tail_constant_overflow_is_domain_error(self, law):
        p = TemperedStableParams.create(*law)
        with pytest.raises(DomainError, match="overflows"):
            ts.tail_constant(p)
        with pytest.raises(DomainError, match="overflows"):
            ts.tail_constant_one_sided(p.plus)
