import hashlib
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1, gamma as G, gammaincc
from scipy.stats import ks_2samp, kstest

import tempstable as ts
from tempstable import DomainError, OneSidedParams, PathConfig, TemperedStableParams
from tempstable import simulate
from tempstable.simulate import _KANTER_MAX_TILT, _kanter_stable


class TestStableBlock:
    def test_laplace_transform(self, rng):
        # independent check of the positive-stable generator
        for beta in (0.3, 0.6, 0.85):
            s_draws = _kanter_stable(1.0, beta, 400_000, rng)
            for s in (0.5, 2.0):
                probe = np.exp(-s * s_draws)
                se = np.std(probe) / math.sqrt(len(probe))
                assert abs(np.mean(probe) - math.exp(-(s**beta))) < 4.0 * se

    def test_scale_parameter(self, rng):
        draws = _kanter_stable(3.0, 0.5, 400_000, rng)
        probe = np.exp(-draws)
        se = np.std(probe) / math.sqrt(len(probe))
        assert abs(np.mean(probe) - math.exp(-3.0)) < 4.0 * se


class TestSampleOneSided:
    def test_gamma_case_mean(self, rng):
        p = OneSidedParams(1.3, 0.0, 2.0)
        x = ts.sample_one_sided(p, 2.0, rng, size=200_000)
        target = 1.3 * 2.0 / 2.0
        se = np.std(x) / math.sqrt(len(x))
        assert abs(np.mean(x) - target) < 4.0 * se

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_tempered_case_moments(self, rng, t):
        p = OneSidedParams(0.8, 0.5, 1.2)
        n = 200_000
        x = ts.sample_one_sided(p, t, rng, size=n)
        mean_t = G(0.5) * 0.8 * t / 1.2**0.5
        var_t = G(1.5) * 0.8 * t / 1.2**1.5
        se_mean = np.std(x) / math.sqrt(n)
        assert abs(np.mean(x) - mean_t) < 4.0 * se_mean
        centered_sq = (x - np.mean(x)) ** 2
        se_var = np.std(centered_sq) / math.sqrt(n)
        assert abs(np.var(x) - var_t) < 4.0 * se_var

    def test_third_moment(self, rng):
        p = OneSidedParams(1.2, 0.6, 1.5)
        n = 400_000
        x = ts.sample_one_sided(p, 1.0, rng, size=n)
        cubes = x**3
        se = np.std(cubes) / math.sqrt(n)
        assert abs(np.mean(cubes) - ts.third_moment_one_sided(p)) < 4.0 * se

    def test_additivity_in_law(self, rng):
        p = OneSidedParams(0.9, 0.4, 1.0)
        n = 100_000
        whole = ts.sample_one_sided(p, 0.5, rng, size=n)
        halves = (ts.sample_one_sided(p, 0.25, rng, size=n)
                  + ts.sample_one_sided(p, 0.25, rng, size=n))
        assert ks_2samp(whole, halves).pvalue > 1e-3

    @pytest.mark.parametrize("alpha, beta, lam", [
        (7444.0, 2.8e-7, 1.09e-3),  # tilt c lam^beta = 2.7e10
        (1e6, 1e-9, 1e3),  # where an output written as c^(1/beta) X^(-b) cancels
    ], ids=["huge-tilt", "small-beta"])
    def test_large_tilt_holds_its_mean(self, rng, alpha, beta, lam):
        x = ts.sample_one_sided(OneSidedParams(alpha, beta, lam), 1.0, rng, size=200_000)
        se = np.std(x) / math.sqrt(x.size)
        assert abs(np.mean(x) - alpha * G(1.0 - beta) * lam ** (beta - 1.0)) < 4.0 * se

    @pytest.mark.parametrize("leg, t", [((1.0, 0.0, 1.0), math.inf),
                                        ((1e300, 0.0, 1.0), 1e10),
                                        ((1e300, 0.5, 1.0), 1e10)])
    def test_draws_beyond_float_range_are_domain_error(self, rng, leg, t):
        with pytest.raises(DomainError):
            ts.sample_one_sided(OneSidedParams(*leg), t, rng, size=3)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_negative_size_is_domain_error(self, rng, beta):
        with pytest.raises(DomainError, match="size"):
            ts.sample_one_sided(OneSidedParams(1.0, beta, 1.0), 1.0, rng, size=-1)

    def test_scalar_draw(self, rng):
        val = ts.sample_one_sided(OneSidedParams(1.0, 0.5, 1.0), 1.0, rng)
        assert isinstance(val, float) and val >= 0.0

    # the Gamma leg, Kanter's proposal (tilt 0.5) and the double rejection (tilt 3)
    @pytest.mark.parametrize("leg", [(1.0, 0.0, 1.0), (0.5 * 0.5 / G(0.5), 0.5, 1.0),
                                     (3.0 * 0.5 / G(0.5), 0.5, 1.0)])
    def test_legacy_generator_is_domain_error(self, leg):
        with pytest.raises(DomainError, match="Generator"):
            ts.sample_one_sided(OneSidedParams(*leg), 1.0, np.random.RandomState(1), size=10)


def _check_laplace_transform_and_mean(rng, tau, beta):
    n = 100_000
    leg = OneSidedParams(tau * beta / G(1.0 - beta), beta, 1.0)
    x = ts.sample_one_sided(leg, 1.0, rng, size=n)
    mean, sd = tau * beta, math.sqrt(tau * beta * (1.0 - beta))
    assert abs(np.mean(x) - mean) < 4.0 * sd / math.sqrt(n)

    def centred_transform(s):
        # E exp(-s (X - mean) / sd), in logs so that large tilts do not overflow
        return math.exp(s * mean / sd - tau * math.expm1(beta * math.log1p(s / sd)))

    for s in (0.3, 1.0, 1.5):
        probe = np.exp(-s * (x - mean) / sd)
        target = centred_transform(s)
        se = math.sqrt((centred_transform(2.0 * s) - target**2) / n)
        assert abs(np.mean(probe) - target) < 4.0 * se


class TestTiltedStableSampler:
    """At lam = t = 1 and alpha = tau beta / Gamma(1-beta) a draw X has
    Laplace transform exp(-tau ((1+s)^beta - 1)), mean tau beta and
    variance tau beta (1-beta).  Standard errors come from the law.  The
    largest probe is exp(-1.5 Z) in standard units Z: for a near-normal
    law exp(-3 Z) is lognormal with sigma 3, and its mean over 1e5 draws
    is far from normal (one draw below Z = -5.4, about 1 sample in 300,
    moves it by 4 standard errors)."""

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.95, 0.999])
    # either side of the switch, and of 2, where it was before
    @pytest.mark.parametrize("tau", [1e-3, 0.5, 0.999 * _KANTER_MAX_TILT,
                                     1.001 * _KANTER_MAX_TILT, 1.998, 2.002, 3.0, 1e2, 1e4,
                                     1e10])
    def test_laplace_transform_and_mean(self, rng, tau, beta):
        _check_laplace_transform_and_mean(rng, tau, beta)

    # gamma = tau beta (1 - beta) in [1/(2 pi), 1), where U's proposal was
    # a half normal before the tabulated envelope, and either side of its
    # ends: 1/(2 pi) is at tau 3.35 for beta = 0.05 (for beta = 0.4 it is
    # at tau 0.66, on Kanter's side), and 1 at tau 4.17 for beta = 0.4
    @pytest.mark.parametrize("tau, beta", [(2.5, 0.2), (4.5, 0.2), (2.5, 0.8), (4.5, 0.8),
                                           (3.2, 0.05), (3.5, 0.05), (4.0, 0.4), (4.4, 0.4)])
    def test_half_normal_band(self, rng, tau, beta):
        _check_laplace_transform_and_mean(rng, tau, beta)

    @pytest.mark.parametrize("plus, minus", [((3.5, 0.4), (4.5, 0.3)),
                                             ((2.5, 0.2), (6.0, 0.8))])
    def test_difference_matches_inversion_cdf(self, rng, plus, minus):
        # legs at (tau, beta) in the half-normal band; 1.95/sqrt(n) is the
        # Kolmogorov-Smirnov critical value at level 0.1%
        n = 400_000
        law = TemperedStableParams.create(*(v for tau, beta in (plus, minus)
                                            for v in (tau * beta / G(1.0 - beta), beta, 1.0)))
        x = (ts.sample_one_sided(law.plus, 1.0, rng, size=n)
             - ts.sample_one_sided(law.minus, 1.0, rng, size=n))
        assert kstest(x, ts.DensityEvaluator(law).cdf).statistic < 1.95 / math.sqrt(n)

    def test_small_call_takes_few_rounds(self, rng, monkeypatch):
        sizes = []
        plain_round = simulate._double_rejection_round

        def counting_round(tau, beta, k, rng):
            sizes.append(k)
            return plain_round(tau, beta, k, rng)

        monkeypatch.setattr(simulate, "_double_rejection_round", counting_round)
        leg = OneSidedParams(13.0 * 0.4 / G(0.6), 0.4, 1.0)
        x = ts.sample_one_sided(leg, 1.0, rng, size=1000)
        assert x.size == 1000
        assert len(sizes) <= 6 and max(sizes) <= 1000

    @pytest.mark.parametrize("tau, beta", [(2.5, 0.2), (2.5, 0.8), (6.0, 0.2), (6.0, 0.8)])
    def test_inner_test_passes_most_candidates(self, rng, monkeypatch, tau, beta):
        counts = []
        plain_inner = simulate._accepted_u

        def counting_inner(tau, beta, k, rng):
            kept = plain_inner(tau, beta, k, rng)
            counts.append((k, kept[0].size))
            return kept

        monkeypatch.setattr(simulate, "_accepted_u", counting_inner)
        leg = OneSidedParams(tau * beta / G(1.0 - beta), beta, 1.0)
        ts.sample_one_sided(leg, 1.0, rng, size=100_000)
        tried, passed = map(sum, zip(*counts))
        assert passed >= 0.9 * tried

    # Kanter's branch below the switch, the double rejection above it
    @pytest.mark.parametrize("tau", [0.35, 1.1, 1.9, 130.0, 1e4])
    def test_memory_is_bounded_by_the_block(self, rng, tau):
        leg = OneSidedParams(tau * 0.4 / G(0.6), 0.4, 1.0)
        tracemalloc.start()
        try:
            x = ts.sample_one_sided(leg, 1.0, rng, size=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.size == 1_000_000
        assert peak < 32 * 2**20


def test_jump_size_memory_is_bounded_by_the_block(rng):
    # at the cap on recorded jumps the draws alone take 32 MiB
    leg = OneSidedParams(0.8, 0.5, 1.2)
    tracemalloc.start()
    try:
        x = simulate._sample_jump_sizes(leg, 1e-3, simulate._MAX_JUMPS, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.size == simulate._MAX_JUMPS
    assert peak < 64 * 2**20


@pytest.mark.parametrize("draw, sampler", [
    # the upward leg's tilt is 0.6 at t = 0.1 and 6 at t = 1
    (lambda rng, law: ts.sample_one_sided(law.plus, 0.1, rng, size=10), "tilted Kanter rejection"),
    (lambda rng, law: ts.sample_one_sided(law.plus, 1.0, rng, size=10), "double rejection"),
    (lambda rng, law: ts.simulate_path(law, PathConfig(horizon=5.0, step=0.1, seed=1,
                                                       jump_floor=1e-3)), "jump-size rejection"),
], ids=["kanter", "double_rejection", "jump_sizes"])
def test_proposal_that_never_accepts_is_convergence_error(rng, monkeypatch, skewed, draw, sampler):
    # every sampler's candidates pass through the one loop; reject them all
    fill = simulate._rejection_fill
    monkeypatch.setattr(simulate, "_rejection_fill",
                        lambda propose, n, what: fill(lambda k: propose(k)[:0], n, what))
    with pytest.raises(ts.ConvergenceError, match=f"^{sampler} .*did not terminate"):
        draw(rng, skewed)


@pytest.mark.parametrize("tau", [1.001 * _KANTER_MAX_TILT, 2.001, 2.5, 4.0, 10.0, 130.0, 1e4,
                                 1e10])
@pytest.mark.parametrize("beta", [1e-9, 0.05, 0.4, 0.8, 0.999])
def test_u_envelope_dominates_the_marginal(tau, beta):
    sg = math.sqrt(tau * beta * (1.0 - beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cum, _, lo, width, _, log_h, _ = simulate._u_envelope(tau, beta)
        assert lo[0] == 0.0 and lo[-1] + width[-1] == math.pi
        assert np.all(width > 0.0) and cum[-1] == 1.0
        # 65 points on each piece, both ends included
        u = (lo[:, None] + np.linspace(0.0, 1.0, 65) * width[:, None]).ravel()
        log_g = simulate._u_marginal(u, tau, beta, sg)[3]
        assert np.all(np.repeat(log_h, 65) >= log_g)
        assert np.all(np.diff(log_g) <= 0.0)
        # the last piece runs to pi, where A is unbounded: approach it geometrically
        u = math.pi - width[-1] * 0.5 ** np.arange(1.0, 32.0)
        log_g = simulate._u_marginal(u, tau, beta, sg)[3]
        assert np.all(log_h[-1] >= log_g) and np.all(np.diff(log_g) <= 0.0)


# (10, 0.5) ends in nine pieces of zero mass: their masses round away in cum
@pytest.mark.parametrize("tau, beta", [(1e10, 0.999), (10.0, 0.5), (2.5, 0.2),
                                       (1.001 * _KANTER_MAX_TILT, 0.8)])
def test_guided_piece_is_searchsorted(tau, beta):
    cum, *_, guide = simulate._u_envelope(tau, beta)
    assert guide.dtype == np.int16 and guide.nbytes <= 8 * 2**10
    if (tau, beta) == (10.0, 0.5):
        assert np.sum(np.diff(cum) == 0.0) == 9
    edges = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    r = np.concatenate([[0.0, 1.0 - 2.0**-53], edges[edges < 1.0],
                        np.random.default_rng(5).random(100_000)])
    assert np.array_equal(simulate._guided_piece(r, cum, guide),
                          np.searchsorted(cum, r, side="right"))


def test_zero_mass_pieces_are_never_picked():
    # (10, 0.5) ends in nine pieces of zero mass; their width/mass is 0,
    # and neither building the table nor drawing from it warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cum, below, lo, width, scale, _, guide = simulate._u_envelope.__wrapped__(10.0, 0.5)
        empty = cum == below
        assert np.sum(empty) == 9 and np.all(scale[empty] == 0.0)
        r = np.concatenate([[0.0], cum[cum < 1.0], np.nextafter(cum, -np.inf),
                            np.random.default_rng(3).random(100_000)])
        piece = simulate._guided_piece(r, cum, guide)
        assert not np.any(empty[piece])
        u = (r - below[piece]) * scale[piece] + lo[piece]
        assert np.all(u >= lo[piece]) and np.all(u <= lo[piece] + width[piece])
        x = simulate._double_rejection_round(10.0, 0.5, 20_000, np.random.default_rng(3))
    assert np.all(np.isfinite(x)) and x.size > 0


@pytest.mark.parametrize("tau", [1.5, 3.0])
@pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
def test_double_rejection_matches_tilted_kanter(tau, beta):
    # two samplers that share no code, at lam = 1 and stable scale tau;
    # 1.95 sqrt(2/n) is the two-sample Kolmogorov-Smirnov critical value
    # at level 0.1%
    n, rng = 200_000, np.random.default_rng(17)

    def fill(round_):
        parts, got = [], 0
        while got < n:
            parts.append(round_(1 << 16).copy())
            got += parts[-1].size
        return np.concatenate(parts)[:n]

    devroye = fill(lambda k: simulate._double_rejection_round(tau, beta, k, rng))
    kanter = fill(lambda k: simulate._kanter_round(tau, beta, 1.0, k, rng))
    assert ks_2samp(devroye, kanter).statistic < 1.95 * math.sqrt(2.0 / n)


def _reference_round(tau, beta, k, rng):
    # the double rejection in its plain form: searchsorted for the piece,
    # boolean masks for the survivors and np.where for the outer envelope
    cum, below, lo, _, scale, log_h, _ = simulate._u_envelope(tau, beta)
    sg = math.sqrt(tau * beta * (1.0 - beta))
    r = rng.random(k)
    piece = np.searchsorted(cum, r, side="right")
    u = lo[piece] + (r - below[piece]) * scale[piece]
    lz, zeta_u, z, log_g = simulate._u_marginal(u, tau, beta, sg)
    e = rng.standard_exponential(k) + log_g - log_h[piece]
    keep = e >= 0.0
    lz, zeta_u, z, e = lz[keep], zeta_u[keep], z[keep], e[keep]
    j, c1 = e.size, simulate._HALF_PI_ROOT
    width = beta * zeta_u / sg
    total = 1.0 + c1 + z * zeta_u / sg
    pick = rng.random(j) * total
    left, right = pick < c1, pick >= 1.0 + c1
    normal = np.zeros(j)
    normal[left] = rng.standard_normal(np.count_nonzero(left))
    expo = np.log((total - (1.0 + c1)) / (total - pick))
    y = np.where(left, -width * np.abs(normal),
                 width * np.where(right, 1.0, pick - c1)
                 + np.where(right, z * np.exp(lz) / (tau * (1.0 - beta)) * expo, 0.0))
    log_x = np.log1p(np.where(y > -1.0, y, np.nan))
    b = (1.0 - beta) / beta
    with np.errstate(over="ignore"):
        excess = tau * np.exp(-lz) * ((1.0 - beta) * y + beta * np.expm1(-b * log_x))
    excess -= np.where(left, 0.5 * normal * normal, np.where(right, expo, 0.0))
    acc = excess <= e
    return tau * beta * np.exp(-b * log_x[acc] - lz[acc])


@pytest.mark.parametrize("tau", [1.001 * _KANTER_MAX_TILT, 2.5, 13.0, 1e4, 1e10])
@pytest.mark.parametrize("beta", [0.05, 0.5, 0.999])
def test_double_rejection_round_matches_the_plain_form(tau, beta):
    for k in (1, 1000, 20_000):
        got = simulate._double_rejection_round(tau, beta, k, np.random.default_rng(k))
        want = _reference_round(tau, beta, k, np.random.default_rng(k))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tau, beta", [(2.5, 0.2), (13.0, 0.5), (1e10, 0.999)])
def test_work_area_carries_nothing_between_rounds(tau, beta):
    # small rounds after a large one see its values in the thread's work rows
    for k in (20_000, 1, 1000):
        got = simulate._double_rejection_round(tau, beta, k, np.random.default_rng(k)).copy()
        want = _reference_round(tau, beta, k, np.random.default_rng(k))
        assert got.tobytes() == want.tobytes()


def test_threads_draw_as_serial_calls():
    # each thread has its own work area: concurrent draws equal serial ones
    legs = [OneSidedParams(tau * 0.4 / G(0.6), 0.4, 1.0) for tau in (2.5, 13.0, 130.0, 1e4)]
    sizes = (20_000, 1000, 50_000, 3)

    def draws(leg, seed):
        rng = np.random.default_rng(seed)
        return [ts.sample_one_sided(leg, 1.0, rng, size=n) for n in sizes * 3]

    serial = [draws(leg, seed) for seed, leg in enumerate(legs)]
    start = threading.Barrier(len(legs))
    concurrent = [None] * len(legs)

    def run(i):
        start.wait()
        concurrent[i] = draws(legs[i], i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(legs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for want, got in zip(serial, concurrent):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@pytest.mark.parametrize("tau, beta", [(2.5, 0.2), (13.0, 0.4), (1e4, 0.8)])
def test_warm_round_allocates_only_index_lists(tau, beta):
    # the work rows are reused, so a round allocates only its index lists, of
    # at most 2k intp at once; a round that made its own temporaries (about
    # 2.3 MB here) fails this
    k = 20_000
    rng = np.random.default_rng(7)
    simulate._double_rejection_round(tau, beta, k, rng)
    tracemalloc.start()
    try:
        simulate._double_rejection_round(tau, beta, k, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * k


def _kernel_digest():
    # the float64 kernels and generator streams the double rejection draws
    # from; numpy's SIMD dispatch may round them differently on another CPU
    x = np.linspace(1e-3, 3.0, 1001)
    rng = np.random.default_rng(2025)
    parts = [np.exp(-x), np.log(x), np.log1p(x), np.expm1(-x), np.sin(x), np.tan(0.5 * x),
             rng.random(1000), rng.standard_normal(1000), rng.standard_exponential(1000)]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def test_double_rejection_draws_are_pinned():
    # SHA-256 of the draws of rounds that draw only the variates they use
    # (2-CPU x86-64 with AVX-512, numpy 2.4.6)
    if _kernel_digest() != "8af0124e7cca1af6eca8b0be76c03cd5cf8ad601417e6f69093ff7dd1b5dee52":
        pytest.skip("float64 kernels round differently from the pinning host's")
    digest = hashlib.sha256()
    for tau in (2.5, 13.0, 130.0, 1e4, 1e10):
        for beta in (0.05, 0.4, 0.8, 0.999):
            leg = OneSidedParams(tau * beta / G(1.0 - beta), beta, 1.0)
            digest.update(ts.sample_one_sided(leg, 1.0, np.random.default_rng(2025),
                                              size=5000).tobytes())
    assert digest.hexdigest() == "c531e92a8a960b25eb0e061fa0c2ec83b6553fefea8ab8b6cc926e656f805076"


def _jump_survival(p, x):
    # jump_intensity_above(p, x) on an array, by the same closed form
    b, y = p.beta, p.lam * x
    if b == 0.0:
        return p.alpha * exp1(y)
    return p.alpha * p.lam**b * (G(1.0 - b) * gammaincc(1.0 - b, y) - y**-b * np.exp(-y)) / -b


@pytest.mark.parametrize("floor", [1e-3, 0.5])
@pytest.mark.parametrize("beta", [0.0, 0.3, 0.6, 0.95])
def test_jump_sizes_follow_the_jump_measure(rng, beta, floor):
    # P(size > x) = jump_intensity_above(p, x) / jump_intensity_above(p, floor);
    # near a small floor nearly every candidate is on the power-law piece,
    # at 0.5 both pieces carry mass
    p, n = OneSidedParams(1.0, beta, 3.0), 1_000_000
    probe = floor * np.array([1.0, 1.5, 4.0, 30.0])
    assert np.allclose(_jump_survival(p, probe),
                       [ts.jump_intensity_above(p, x) for x in probe], rtol=1e-12, atol=0.0)
    x = simulate._sample_jump_sizes(p, floor, n, rng)
    assert np.all(x >= floor)
    total = _jump_survival(p, floor)
    assert kstest(x, lambda v: 1.0 - _jump_survival(p, v) / total).statistic < 1.95 / math.sqrt(n)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(alpha=_log_uniform(1e-6, 1e6),
       beta=st.one_of(st.just(0.0), _log_uniform(1e-9, 0.999)),
       lam=_log_uniform(1e-3, 1e3), t=_log_uniform(1e-6, 1e3))
# tilt c lam^beta = 2.7e10
@example(alpha=7444.0, beta=2.8e-7, lam=1.09e-3, t=1.0)
def test_draws_are_finite_and_nonnegative(alpha, beta, lam, t):
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = ts.sample_one_sided(OneSidedParams(alpha, beta, lam), t, rng, size=50)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)


class TestSimulatePath:
    def test_seed_determinism(self, skewed):
        cfg = PathConfig(horizon=5.0, step=0.05, seed=123)
        a = ts.simulate_path(skewed, cfg)
        b = ts.simulate_path(skewed, cfg)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.times.tobytes() == b.times.tobytes()

    def test_jump_record_determinism(self, skewed):
        cfg = PathConfig(horizon=5.0, step=0.05, seed=123, jump_floor=1e-3)
        a = ts.simulate_path(skewed, cfg)
        b = ts.simulate_path(skewed, cfg)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.jump_sizes.tobytes() == b.jump_sizes.tobytes()

    def test_jump_count_over_cap_is_domain_error(self, skewed):
        # about 5.3e9 expected downward jumps: 42 GB per array if drawn
        with pytest.raises(DomainError, match="recorded jumps"):
            ts.simulate_path(skewed, PathConfig(horizon=100.0, step=0.1, seed=1, jump_floor=1e-12))

    def test_starts_at_zero(self, skewed):
        path = ts.simulate_path(skewed, PathConfig(horizon=1.0, step=0.1, seed=1))
        assert path.values[0] == 0.0

    def test_subordinator_paths_monotone(self):
        p = TemperedStableParams.create(2.0, 0.5, 1.0, 1e-12, 0.5, 1.0)
        exact = ts.simulate_path(p, PathConfig(horizon=10.0, step=0.1, seed=3))
        assert np.all(np.diff(exact.values) >= 0.0)
        floored = ts.simulate_path(p, PathConfig(horizon=10.0, step=0.1, seed=3,
                                                 jump_floor=1e-3))
        assert np.all(np.diff(floored.values) >= 0.0)

    def test_step_increments_match_marginal(self, rng):
        p = TemperedStableParams.create(1.0, 0.4, 2.0, 0.7, 0.6, 1.5)
        step = 0.25
        path = ts.simulate_path(p, PathConfig(horizon=10_000.0, step=step, seed=42))
        inc = np.diff(path.values)
        law = ts.marginal(p, step)
        stats = ts.moment_stats(law)
        se_mean = np.std(inc) / math.sqrt(len(inc))
        assert abs(np.mean(inc) - stats.mean) < 4.0 * se_mean
        centered_sq = (inc - np.mean(inc)) ** 2
        se_var = np.std(centered_sq) / math.sqrt(len(inc))
        assert abs(np.var(inc) - stats.variance) < 4.0 * se_var

    def test_floored_increments_keep_mean_and_variance(self, rng):
        # the sub-floor remainder is moment-matched: mean and variance of
        # step increments stay exact within Monte-Carlo error
        p = TemperedStableParams.create(1.5, 0.5, 1.0, 0.5, 0.3, 2.0)
        step = 1.0
        path = ts.simulate_path(p, PathConfig(horizon=20_000.0, step=step, seed=9,
                                              jump_floor=1e-3))
        inc = np.diff(path.values)
        stats = ts.moment_stats(ts.marginal(p, step))
        se_mean = np.std(inc) / math.sqrt(len(inc))
        assert abs(np.mean(inc) - stats.mean) < 4.0 * se_mean
        centered_sq = (inc - np.mean(inc)) ** 2
        se_var = np.std(centered_sq) / math.sqrt(len(inc))
        assert abs(np.var(inc) - stats.variance) < 4.0 * se_var

    def test_path_average_converges_to_mean(self, skewed):
        n = 10_000
        path = ts.simulate_path(skewed, PathConfig(horizon=float(n), step=1.0, seed=17))
        stats = ts.moment_stats(skewed)
        bound = 5.0 * math.sqrt(stats.variance) / math.sqrt(n)
        assert abs(path.values[-1] / n - stats.mean) <= bound

    def test_jump_signs_follow_legs(self, skewed):
        cfg = PathConfig(horizon=50.0, step=0.5, seed=8, jump_floor=1e-2)
        path = ts.simulate_path(skewed, cfg)
        assert len(path.jump_times) > 0
        assert np.all(path.jump_times[:-1] <= path.jump_times[1:])
        assert np.all(path.jump_sizes != 0.0)
        assert np.all(np.abs(path.jump_sizes) >= cfg.jump_floor)

    @pytest.mark.parametrize("n_a, n_b", [(0, 7), (7, 0), (0, 0), (40, 40), (40, 300), (300, 40)],
                             ids=["empty-a", "empty-b", "both-empty", "equal", "a-short", "b-short"])
    def test_merged_records_are_stable_argsort(self, n_a, n_b):
        # integer times give ties within and across the records
        rng = np.random.default_rng(n_a + 1000 * n_b)
        t_a, t_b = (np.sort(rng.integers(0, 20, n).astype(float)) for n in (n_a, n_b))
        x_a, x_b = rng.random(n_a), -rng.random(n_b)
        times, sizes = simulate._merge_records(t_a, x_a, t_b, x_b)
        order = np.argsort(np.concatenate([t_a, t_b]), kind="stable")
        assert times.tobytes() == np.concatenate([t_a, t_b])[order].tobytes()
        assert sizes.tobytes() == np.concatenate([x_a, x_b])[order].tobytes()

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PathConfig(horizon=1.0, step=0.3, seed=1)
        with pytest.raises(DomainError):
            PathConfig(horizon=1.0, step=0.1, seed=1, jump_floor=-1.0)


class TestJumpBinCounts:
    def test_band_edges_beta_half(self):
        assert ts.size_band_edge(0.5, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert ts.size_band_edge(0.5, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_band_edges_gamma_case(self):
        assert ts.size_band_edge(0.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_empty_path(self):
        path = ts.SamplePath(times=np.array([0.0, 1.0]), values=np.zeros(2),
                             jump_times=np.empty(0), jump_sizes=np.empty(0),
                             jump_floor=1e-4)
        assert np.all(ts.jump_bin_counts(path, OneSidedParams(1.0, 0.5, 1.0), 10) == 0)

    def test_floorless_path_has_no_record(self, skewed):
        path = ts.simulate_path(skewed, PathConfig(horizon=1.0, step=0.5, seed=4))
        with pytest.raises(DomainError):
            ts.jump_bin_counts(path, OneSidedParams(1.0, 0.5, 1.0), 5)

    def test_floor_must_cover_smallest_band(self):
        path = ts.SamplePath(times=np.array([0.0, 1.0]), values=np.zeros(2),
                             jump_times=np.empty(0), jump_sizes=np.empty(0),
                             jump_floor=0.1)
        with pytest.raises(DomainError):
            ts.jump_bin_counts(path, OneSidedParams(1.0, 0.5, 1.0), 30)

    def test_gamma_leg_exponential_bands(self):
        # beta = 0 uses e^(-x) band edges and the log-uniform size proposal
        a, lam = 1.5, 1.0
        p = TemperedStableParams.create(a, 0.0, lam, 1e-12, 0.0, 1.0)
        horizon, n_bins = 500.0, 10
        cfg = PathConfig(horizon=horizon, step=1.0, seed=21,
                         jump_floor=ts.size_band_edge(0.0, n_bins + 1))
        path = ts.simulate_path(p, cfg)
        counts = ts.jump_bin_counts(path, OneSidedParams(a, 0.0, lam), n_bins)

        def band_intensity(n):
            val, _ = quad(lambda y: np.exp(-lam * math.exp(-(n + y))), 0.0, 1.0)
            return a * val

        expected = np.mean([band_intensity(n) for n in range(1, n_bins + 1)])
        alpha_hat = ts.alpha_from_jump_counts(counts, horizon)
        se = math.sqrt(np.sum(counts)) / (n_bins * horizon)
        assert abs(alpha_hat - expected) < 3.0 * se

    def test_counts_match_band_intensity_oracle(self):
        a, b, lam = 2.0, 0.5, 1.0
        n_bins, horizon = 30, 2000.0
        p = TemperedStableParams.create(a, b, lam, 1e-10, 0.5, 1.0)
        cfg = PathConfig(horizon=horizon, step=1.0, seed=5, jump_floor=5e-4)
        path = ts.simulate_path(p, cfg)
        counts = ts.jump_bin_counts(path, OneSidedParams(a, b, lam), n_bins)

        def band_intensity(n):
            val, _ = quad(lambda y: np.exp(-lam * (1.0 + b * (n + y)) ** (-1.0 / b)),
                          0.0, 1.0)
            return a * val

        expected = np.mean([band_intensity(n) for n in range(1, n_bins + 1)])
        alpha_hat = ts.alpha_from_jump_counts(counts, horizon)
        se = math.sqrt(np.sum(counts)) / (n_bins * horizon)
        assert abs(alpha_hat - expected) < 3.0 * se


class TestPVariation:
    def test_subordinator_first_variation_is_terminal_value(self):
        p = TemperedStableParams.create(1.0, 0.6, 1.0, 1e-12, 0.5, 1.0)
        path = ts.simulate_path(p, PathConfig(horizon=5.0, step=0.05, seed=2))
        assert ts.empirical_p_variation(path, 1.0) == pytest.approx(
            path.values[-1], rel=1e-12
        )

    def test_constant_path(self):
        path = ts.SamplePath(times=np.arange(4.0), values=np.ones(4),
                             jump_times=np.empty(0), jump_sizes=np.empty(0))
        assert ts.empirical_p_variation(path, 2.0) == 0.0

    def test_refinement_trend_straddles_index(self):
        # statistic explodes below the regularity index and settles above it
        p = TemperedStableParams.create(1.0, 0.8, 1.0, 1e-10, 0.1, 1.0)
        below, above = [], []
        for step in (1e-2, 1e-3, 1e-4):
            path = ts.simulate_path(p, PathConfig(horizon=1.0, step=step, seed=11))
            below.append(ts.empirical_p_variation(path, 0.4))
            above.append(ts.empirical_p_variation(path, 1.4))
        assert all(v2 > 2.0 * v1 for v1, v2 in zip(below, below[1:]))
        assert above[2] / above[1] < above[1] / above[0]
        assert above[2] / above[1] < 1.3

    def test_rejects_nonpositive_exponent(self):
        path = ts.SamplePath(times=np.arange(3.0), values=np.zeros(3),
                             jump_times=np.empty(0), jump_sizes=np.empty(0))
        with pytest.raises(DomainError):
            ts.empirical_p_variation(path, 0.0)


class TestBgIndex:
    def test_bilateral_gamma_is_zero(self):
        p = TemperedStableParams.create(1.0, 0.0, 1.0, 2.0, 0.0, 3.0)
        assert ts.bg_index(p) == 0.0

    def test_max_of_legs(self):
        p = TemperedStableParams.create(1.0, 0.3, 1.0, 1.0, 0.7, 1.0)
        assert ts.bg_index(p) == 0.7

    def test_small_jump_moment_integral(self, rng):
        # int_{-1}^{1} |x|^p F(dx) converges just above the index (to the
        # incomplete-gamma limit, approached like cutoff^0.1) and diverges
        # just below it (growing like cutoff^-0.1)
        from scipy.special import gamma as sp_gamma, gammainc

        def analytic_limit(p, p_exp):
            total = 0.0
            for leg in (p.plus, p.minus):
                a = p_exp - leg.beta
                total += (leg.alpha * leg.lam**-a * sp_gamma(a)
                          * gammainc(a, leg.lam))
            return total

        for _ in range(5):
            p = TemperedStableParams.create(
                rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0),
                rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0),
            )
            idx = ts.bg_index(p)
            fin = bg_integral(p, idx + 0.1, 1e-12)
            assert fin == pytest.approx(analytic_limit(p, idx + 0.1), rel=0.1)
            div_a = bg_integral(p, idx - 0.1, 1e-6)
            div_b = bg_integral(p, idx - 0.1, 1e-12)
            assert div_b > 3.0 * div_a


def bg_integral(p, p_exp, cutoff):
    """Quadrature (in log-space) of the small-jump moment integral."""
    total = 0.0
    for leg in (p.plus, p.minus):
        val, _ = quad(
            lambda u: leg.alpha * math.exp(u * (p_exp - leg.beta))
            * math.exp(-leg.lam * math.exp(u)),
            math.log(cutoff), 0.0, limit=200,
        )
        total += val
    return total
