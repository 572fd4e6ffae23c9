"""Exact sampling of one-sided increments, path simulation with jump
records, and empirical path diagnostics.

The one-sided sampler is exact, and its expected cost per draw is
bounded whatever the law and the time.  A leg at time t is the stable
law with scale c = alpha t Gamma(1-beta)/beta tempered at rate lam; with
its tilt tau = c lam^beta at most 2, a draw is one positive stable
proposal S (Kanter's representation) kept with probability e^(-lam S),
which is e^(-tau) >= e^-2 on average, and above that it is Devroye's
double rejection, whose inner test proposes Kanter's angle U from a
table of bounds on its tilted marginal, built once per tilt and beta;
two thirds or more of its candidates become draws.  Both, and the jump
sizes of a floored path, fill their draws through one rejection loop
whose rounds are sized by the acceptance seen so far; one-sided draws
are made in blocks, so their temporaries stay O(block) in size.
Paths are sums of per-step increments; when a jump record is requested,
jumps above the floor come from an exact compound-Poisson layer and the
sub-floor remainder is folded into a moment-matched Gamma increment per
step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as _gamma, gammainc, gammaincc, zeta

from .core import cumulant_one_sided
from .errors import ConvergenceError, DomainError
from .params import OneSidedParams, TemperedStableParams

_MAX_REJECTION_ROUNDS = 1000
#: largest tilt drawn by one tilted Kanter proposal, though Devroye's
#: double rejection costs no more per draw from about 1.5 (2-CPU x86-64)
_KANTER_MAX_TILT = 2.0
#: draws made per pass, so that the temporaries stay O(block) in size
_BLOCK = 1 << 16
#: expected recorded jumps on one leg above which a jump floor is refused
_MAX_JUMPS = 1 << 22
_HALF_PI_ROOT = math.sqrt(0.5 * math.pi)
#: U's envelope table: uniform pieces up to _U_REACH/sqrt(gamma)
_U_PIECES, _U_REACH = 64, 6.0
_U_GRID = np.linspace(0.0, 1.0, _U_PIECES + 1)
#: ln(sin x / x) = -sum_k zeta(2k)/k (x/pi)^(2k): twelve terms reach
#: double precision for x below _SERIES_EDGE
_SERIES_EDGE = 0.5
_SINC_SERIES_K = np.arange(1, 13)
_SINC_SERIES = zeta(2.0 * _SINC_SERIES_K) / _SINC_SERIES_K


@dataclass(frozen=True)
class PathConfig:
    horizon: float
    step: float
    seed: int
    jump_floor: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.horizon < math.inf and 0.0 < self.step < math.inf):
            raise DomainError("horizon and step must be positive and finite")
        ratio = self.horizon / self.step
        n = round(ratio) if ratio < math.inf else 0
        if n < 1 or abs(n * self.step - self.horizon) > 1e-12 * self.horizon:
            raise DomainError(
                f"step {self.step} does not divide horizon {self.horizon}"
            )
        if not (0.0 <= self.jump_floor < math.inf):
            raise DomainError(f"jump_floor must be nonnegative and finite, got {self.jump_floor}")
        if not self.seed >= 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.step)


@dataclass
class SamplePath:
    times: np.ndarray
    values: np.ndarray
    jump_times: np.ndarray
    jump_sizes: np.ndarray  # signed: downward-leg jumps are negative
    jump_floor: float = 0.0

    @property
    def jumps(self):
        """Jump record as (time, signed size) pairs."""
        return list(zip(self.jump_times.tolist(), self.jump_sizes.tolist()))


def _kanter_stable(c: float, beta: float, n: int, rng) -> np.ndarray:
    """Positive stable draws with Laplace transform exp(-c s^beta).

    Kanter's ``c^(1/beta) (A(u)/w)^((1-beta)/beta)`` is evaluated in logs,
    so that no power of it overflows as beta -> 0 or beta -> 1; a draw
    beyond the float range comes out as inf.
    """
    u = rng.uniform(0.0, 1.0, n)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    w = rng.exponential(1.0, n)
    with np.errstate(divide="ignore", over="ignore"):
        log_s = (math.log(c) + (1.0 - beta) * np.log(np.sin((1.0 - beta) * np.pi * u))
                 + beta * np.log(np.sin(beta * np.pi * u)) - np.log(np.sin(np.pi * u))
                 - (1.0 - beta) * np.log(w)) / beta
        return np.exp(log_s)


def _kanter_round(c: float, beta: float, lam: float, k: int, rng) -> np.ndarray:
    """The accepted ones of k stable draws with scale c, each kept with
    probability e^(-lam S): draws of the lam-tilted law."""
    s = _kanter_stable(c, beta, k, rng)
    with np.errstate(over="ignore"):
        return s[rng.uniform(0.0, 1.0, k) < np.exp(-lam * s)]


def _rejection_fill(propose, n: int, what: str) -> np.ndarray:
    """n draws by rejection, where ``propose(k)`` returns the accepted ones
    of k iid candidates.  The first round tries n candidates; each later
    one tries enough, by the acceptance seen so far, to fill the pending
    slots with a 5% margin, but never more than n.  The accepted draws are
    iid and their order does not depend on their values, so keeping the
    first ones that fit is exact.  ``what`` names the sampler in the
    ``ConvergenceError`` raised after ``_MAX_REJECTION_ROUNDS`` rounds."""
    out = np.empty(n)
    done = tried = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        if done == n:
            return out
        k = min(n, math.ceil((n - done) * (tried + 1) / (done + 1) * 1.05) + 1)
        got = propose(k)[:n - done]
        out[done:done + got.size] = got
        done += got.size
        tried += k
    raise ConvergenceError(f"{what} did not terminate in {_MAX_REJECTION_ROUNDS} rounds")


@functools.lru_cache(maxsize=64)
def _sinc_series(beta: float) -> tuple:
    # the coefficients of ln zeta^2 in (u/pi)^2 below _SERIES_EDGE, highest first
    b = min(beta, 1.0 - beta)
    n = 2.0 * _SINC_SERIES_K + 1.0
    return tuple((_SINC_SERIES * (np.expm1(n * math.log1p(-b)) + b**n))[::-1].tolist())


def _log_zeta2(u: np.ndarray, beta: float) -> np.ndarray:
    """ln of zeta^2 = sinc(u) / (sinc(beta u)^beta sinc((1-beta) u)^(1-beta)),
    with sinc x = sin(x)/x; zeta^2 is at most 1.

    The double rejection multiplies this by the tilt, up to 1e20, where it
    is O(u^2).  Below ``_SERIES_EDGE`` it is therefore summed from the
    series of ln sinc, whose coefficients -(1 - beta^(2k+1) -
    (1-beta)^(2k+1)) zeta(2k)/k (symmetric in beta <-> 1-beta) are formed
    without cancellation.  Every one is negative, so ln zeta^2 decreases
    in u on [0, pi).
    """
    out = np.empty_like(u)
    near = u < _SERIES_EDGE
    x = (u[near] / np.pi) ** 2
    top, *rest = _sinc_series(beta)
    acc = top * x
    for c in rest:
        acc += c
        acc *= x
    out[near] = acc
    x = u[~near]
    out[~near] = (np.log(np.sin(x)) - beta * np.log(np.sin(beta * x))
                  - (1.0 - beta) * np.log(np.sin((1.0 - beta) * x))
                  + beta * math.log(beta) + (1.0 - beta) * math.log1p(-beta))
    return out


def _u_marginal(u: np.ndarray, tau: float, beta: float, sg: float):
    """ln zeta^2, zeta, z and ln g at u, for U's tilted marginal g = A B:
    A = (1 + sqrt(pi/2)) sg/zeta + z, z = 1/(1 - (1 + beta zeta/sg)^(-1/beta)),
    B = exp(-tau (zeta^-2 - 1)), sg = sqrt(tau beta (1-beta))."""
    lz = _log_zeta2(u, beta)
    zeta_u = np.exp(0.5 * lz)
    z = -1.0 / np.expm1(-np.log1p(beta * zeta_u / sg) / beta)
    return lz, zeta_u, z, np.log((1.0 + _HALF_PI_ROOT) * sg / zeta_u + z) - tau * np.expm1(-lz)


@functools.lru_cache(maxsize=64)
def _u_envelope(tau: float, beta: float):
    """Piecewise-constant bound on U's tilted marginal g on (0, pi) for
    ``_double_rejection_round``: the pieces' cumulative masses (ending at
    1), left ends, widths and ln heights.

    g decreases in u for tau > 1/2, so its value at a piece's left end
    bounds it on the piece.  zeta decreases in u (``_log_zeta2``); B has
    d ln B/d zeta = 2 tau/zeta^3 > 1/zeta; and zeta A = (1 + sqrt(pi/2)) sg
    + zeta z does not decrease in zeta, as x/(1 - (1+x)^(-q)) increases
    in x > 0 for q = 1/beta >= 1, so d ln A/d zeta >= -1/zeta.  The pieces
    are uniform up to min(pi, R/sg), R = ``_U_REACH``, and one more runs
    on to pi when that is short of it: there B < exp(-R^2/2), as
    tau (zeta^-2 - 1) >= (sg u)^2/2 (the first term of the series of
    -ln zeta^2 is beta (1-beta) u^2/2).
    """
    sg = math.sqrt(tau * beta * (1.0 - beta))
    top = min(math.pi, _U_REACH / sg)
    nodes = top * _U_GRID
    if top == math.pi:
        nodes = nodes[:-1]
    log_h = _u_marginal(nodes, tau, beta, sg)[3]
    width = np.append(nodes[1:], math.pi) - nodes
    cum = np.cumsum(width * np.exp(log_h - log_h[0]))
    return cum / cum[-1], nodes, width, log_h


def _accepted_u(tau: float, beta: float, k: int, rng):
    """The candidates among k that pass the double rejection's inner test:
    U proposed from ``_u_envelope``'s table h and kept when
    e = ln g(U) - ln h(U) + E >= 0, E standard exponential.  Returns
    ln zeta^2, zeta, z and e at the kept ones; given a kept U, e is again
    standard exponential, and the outer test reuses it."""
    cum, lo, width, log_h = _u_envelope(tau, beta)
    piece = np.searchsorted(cum, rng.random(k), side="right")
    u = lo[piece] + rng.random(k) * width[piece]
    lz, zeta_u, z, log_g = _u_marginal(u, tau, beta, math.sqrt(tau * beta * (1.0 - beta)))
    e = rng.standard_exponential(k) + log_g - log_h[piece]
    keep = e >= 0.0
    return lz[keep], zeta_u[keep], z[keep], e[keep]


def _double_rejection_round(tau: float, beta: float, k: int, rng) -> np.ndarray:
    """The accepted ones of k candidates of Devroye's double rejection for
    the law with Laplace transform exp(-tau ((1+s)^beta - 1)), tau > 0.

    L. Devroye, "Random variate generation for exponentially and
    polynomially tilted stable distributions", ACM TOMACS 19(4), 2009, in
    the lambda^alpha = tau form of M. Hofert, "Sampling exponentially
    tilted stable distributions", ACM TOMACS 22(1), 2011.  Kanter's draw
    is X^(-b), b = (1-beta)/beta, with X exponential at rate A(U) given U
    uniform on (0, pi).  The inner test (``_accepted_u``) accepts U
    against a table of its tilted marginal (``_u_envelope``), in place of
    Devroye's half-normal, uniform and ``psi/sqrt(pi - u)`` mixture; the
    outer one accepts X given U against a half-normal, flat and
    exponential envelope around its mode m, reusing the inner test's
    exponential as E.  With Y = X/m - 1 the draw is
    ``tau beta zeta^-2 (1+Y)^-b``, mean times a ratio near 1, and the
    tilt term is ``tau zeta^-2 ((1-beta) Y + beta ((1+Y)^-b - 1))``:
    neither carries a power 1/beta, which would cancel as beta -> 0.
    """
    lz, zeta_u, z, e = _accepted_u(tau, beta, k, rng)
    sg = math.sqrt(tau * beta * (1.0 - beta))

    # X's envelope in Y: half normal of width delta/m left of 0, flat on
    # [0, delta/m], exponential of mean a3/m beyond; masses c1 : 1 : z zeta/sg
    j = e.size
    width = beta * zeta_u / sg
    pick = rng.random(j) * (1.0 + _HALF_PI_ROOT + z * zeta_u / sg)
    normal, expo = rng.standard_normal(j), rng.exponential(1.0, j)
    left, right = pick < _HALF_PI_ROOT, pick >= 1.0 + _HALF_PI_ROOT
    y = np.where(left, -width * np.abs(normal),
                 width * np.where(right, 1.0, pick - _HALF_PI_ROOT)
                 + np.where(right, z * np.exp(lz) / (tau * (1.0 - beta)) * expo, 0.0))
    log_x = np.log1p(np.where(y > -1.0, y, np.nan))
    b = (1.0 - beta) / beta
    with np.errstate(over="ignore"):
        excess = tau * np.exp(-lz) * ((1.0 - beta) * y + beta * np.expm1(-b * log_x))
    excess -= np.where(left, 0.5 * normal * normal, np.where(right, expo, 0.0))
    acc = excess <= e
    return tau * beta * np.exp(-b * log_x[acc] - lz[acc])


def sample_one_sided(p: OneSidedParams, t: float, rng, size=None):
    """Exact draw(s) of the one-sided law at time t.

    Gamma case beta = 0 delegates to the Gamma sampler.  For beta > 0 a
    draw is one tilted Kanter proposal when the tilt ``tau = c lam^beta``
    is at most ``_KANTER_MAX_TILT``, and Devroye's double rejection above
    it, either one in blocks of ``_BLOCK`` draws; the law of ``lam X``
    depends on tau and beta only.  Draws whose mean or tilt leaves the float range
    are a ``DomainError``.  ``size=None`` returns a scalar.
    """
    if not (0.0 < t < math.inf):
        raise DomainError(f"time must be positive and finite, got {t}")
    n = 1 if size is None else int(size)
    if n < 0:
        raise DomainError(f"size must be nonnegative, got {size}")
    beta, lam = p.beta, p.lam
    a_eff = p.alpha * t
    # beta > 0: the stable law with scale c = alpha t Gamma(1-beta)/beta,
    # tempered at rate lam with tilt tau = c lam^beta; its mean is tau beta/lam
    c = a_eff * float(_gamma(1.0 - beta)) / beta if beta > 0.0 else 0.0
    tau = c * lam**beta
    mean = tau * beta / lam if beta > 0.0 else a_eff / lam
    if not (0.0 < mean < math.inf and tau < math.inf):
        raise DomainError(f"draws at time {t} leave the float range "
                          f"(alpha t = {a_eff:.3g}, tilt {tau:.3g})")
    if beta == 0.0:
        draws = rng.gamma(a_eff, 1.0 / lam, n)
        return float(draws[0]) if size is None else draws

    if tau <= _KANTER_MAX_TILT:
        what, propose = "tilted Kanter rejection", lambda k: _kanter_round(c, beta, lam, k, rng)
    else:
        what, propose = "double rejection", lambda k: _double_rejection_round(tau, beta, k, rng) / lam
    what += f" (tilt {tau:.3g}, beta={beta})"
    out = np.empty(n)
    for i in range(0, n, _BLOCK):
        k = min(_BLOCK, n - i)
        out[i:i + k] = _rejection_fill(propose, k, what)
    return float(out[0]) if size is None else out


# -- jump layer ---------------------------------------------------------------


def _upper_gamma(a: float, x: float) -> float:
    """Unnormalized upper incomplete Gamma for a > -1 (a may be negative)."""
    if a > 0.0:
        return _gamma(a) * gammaincc(a, x)
    if a == 0.0:
        return float(exp1(x))
    return (_gamma(a + 1.0) * gammaincc(a + 1.0, x) - x**a * math.exp(-x)) / a


def jump_intensity_above(p: OneSidedParams, floor: float) -> float:
    """Total jump intensity of the leg above the floor (finite for floor > 0)."""
    if not (floor > 0.0):
        raise DomainError("floor must be positive")
    return p.alpha * p.lam**p.beta * _upper_gamma(-p.beta, p.lam * floor)


def _subfloor_moments(p: OneSidedParams, floor: float) -> tuple[float, float]:
    # first two moments of the jump measure restricted below the floor:
    # kappa_n times the regularized lower incomplete Gamma P(n - beta, lam h)
    return tuple(cumulant_one_sided(p, n) * gammainc(n - p.beta, p.lam * floor)
                 for n in (1, 2))


def _sample_jump_sizes(p: OneSidedParams, floor: float, n: int, rng) -> np.ndarray:
    """Exact draws from the normalized jump density above the floor.

    Two-piece rejection: a truncated power-law proposal near the floor
    (accept against the tempering factor) and a shifted exponential
    proposal in the tail (accept against the power factor).
    """
    if n == 0:
        return np.empty(0)
    b, lam = p.beta, p.lam
    split = floor + 1.0 / lam
    if b > 0.0:
        w1 = math.exp(-lam * floor) * (floor**-b - split**-b) / b
    else:
        w1 = math.exp(-lam * floor) * math.log(split / floor)
    w2 = split ** (-1.0 - b) * math.exp(-lam * split) / lam
    if not (w1 + w2 > 0.0):
        raise DomainError(
            f"jump measure above floor {floor} has vanishing mass at lambda {lam}"
        )
    p1 = w1 / (w1 + w2)

    def propose(k):
        use1 = rng.uniform(0.0, 1.0, k) < p1
        x = np.empty(k)
        v = rng.uniform(0.0, 1.0, k)
        if b > 0.0:
            x[use1] = (floor**-b - v[use1] * (floor**-b - split**-b)) ** (-1.0 / b)
        else:
            x[use1] = floor * (split / floor) ** v[use1]
        x[~use1] = split + rng.exponential(1.0 / lam, int(np.sum(~use1)))
        ratio = np.empty(k)
        ratio[use1] = np.exp(-lam * (x[use1] - floor))
        ratio[~use1] = (x[~use1] / split) ** (-1.0 - b)
        return x[rng.uniform(0.0, 1.0, k) < ratio]

    return _rejection_fill(propose, n, "jump-size rejection")


def _leg_increments_with_jumps(p: OneSidedParams, cfg: PathConfig, lam_tot: float, rng):
    n = cfg.n_steps
    n_jumps = int(rng.poisson(lam_tot * cfg.horizon))
    t_jumps = np.sort(rng.uniform(0.0, cfg.horizon, n_jumps))
    sizes = _sample_jump_sizes(p, cfg.jump_floor, n_jumps, rng)
    step_idx = np.minimum((np.ceil(t_jumps / cfg.step)).astype(int) - 1, n - 1)
    step_idx = np.maximum(step_idx, 0)
    big = np.bincount(step_idx, weights=sizes, minlength=n)

    m1, m2 = _subfloor_moments(p, cfg.jump_floor)
    # Gamma increment matching the sub-floor mean and variance per step;
    # higher moments of the remainder are approximated
    shape = m1**2 * cfg.step / m2
    scale = m2 / m1
    remainder = rng.gamma(shape, scale, n)
    return big + remainder, t_jumps, sizes


def leg_generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """One Philox generator per leg (plus, minus), spawned from ``seed``."""
    return tuple(np.random.Generator(np.random.Philox(child))
                 for child in np.random.SeedSequence(seed).spawn(2))


def simulate_path(p: TemperedStableParams, cfg: PathConfig) -> SamplePath:
    """Simulate one path on the configured grid.

    With ``jump_floor == 0`` each per-step increment is an exact draw of
    the step marginal and the jump record stays empty.  With a positive
    floor, jumps at or above the floor are simulated individually (exact
    compound-Poisson thinning of the jump measure) and recorded with
    signs; the sub-floor remainder enters the path values only.  A floor
    at which one leg expects more than ``_MAX_JUMPS`` jumps is a
    ``DomainError`` before any draw.
    """
    rng_plus, rng_minus = leg_generators(cfg.seed)
    n = cfg.n_steps
    times = np.arange(n + 1) * cfg.step

    if cfg.jump_floor == 0.0:
        inc_plus = sample_one_sided(p.plus, cfg.step, rng_plus, size=n)
        inc_minus = sample_one_sided(p.minus, cfg.step, rng_minus, size=n)
        jt = np.empty(0)
        js = np.empty(0)
    else:
        rates = [jump_intensity_above(leg, cfg.jump_floor) for leg in (p.plus, p.minus)]
        if not all(rate * cfg.horizon <= _MAX_JUMPS for rate in rates):
            raise DomainError(f"jump floor {cfg.jump_floor} expects {max(rates) * cfg.horizon:.3g}"
                              f" recorded jumps on one leg (cap {_MAX_JUMPS})")
        inc_plus, jt_p, sz_p = _leg_increments_with_jumps(p.plus, cfg, rates[0], rng_plus)
        inc_minus, jt_m, sz_m = _leg_increments_with_jumps(p.minus, cfg, rates[1], rng_minus)
        jt = np.concatenate([jt_p, jt_m])
        js = np.concatenate([sz_p, -sz_m])
        order = np.argsort(jt, kind="stable")
        jt, js = jt[order], js[order]

    values = np.concatenate(([0.0], np.cumsum(inc_plus - inc_minus)))
    return SamplePath(times=times, values=values, jump_times=jt,
                      jump_sizes=js, jump_floor=cfg.jump_floor)


# -- diagnostics --------------------------------------------------------------


def size_band_edge(beta: float, x: float) -> float:
    """Decreasing map from band index to jump size: (1 + beta x)^(-1/beta),
    with the exponential limit e^(-x) at beta = 0."""
    if beta == 0.0:
        return math.exp(-x)
    return (1.0 + beta * x) ** (-1.0 / beta)


def jump_bin_counts(path: SamplePath, p_assumed: OneSidedParams, n_bins: int) -> np.ndarray:
    """Counts of recorded positive jumps in the standard size bands.

    Band n collects jumps with size in (edge(n+1), edge(n)]; the path's
    jump floor must sit at or below the smallest band edge or small bands
    would be silently censored.
    """
    if n_bins < 1:
        raise DomainError("need at least one band")
    if path.jump_floor == 0.0:
        raise DomainError(
            "path carries no jump record; simulate with a positive jump_floor"
        )
    beta = p_assumed.beta
    smallest = size_band_edge(beta, n_bins + 1)
    if path.jump_floor > smallest:
        raise DomainError(
            f"jump floor {path.jump_floor} exceeds the smallest band edge {smallest}"
        )
    pos = np.sort(path.jump_sizes[path.jump_sizes > 0.0])
    edges = np.array([size_band_edge(beta, x) for x in range(n_bins + 1, 0, -1)])
    below = np.searchsorted(pos, edges, side="right")
    return (below[1:] - below[:-1])[::-1].astype(np.int64)


def empirical_p_variation(path: SamplePath, p_exp: float) -> float:
    """Sum of |increment|^p over the observation grid (a lower bound for
    the mesh supremum, consistent as the step shrinks)."""
    if not (p_exp > 0.0):
        raise DomainError("variation exponent must be positive")
    return float(np.sum(np.abs(np.diff(path.values)) ** p_exp))


def bg_index(p: TemperedStableParams) -> float:
    """Path-regularity index: the larger stability leg.  Zero exactly for
    the bilateral Gamma boundary case."""
    return max(p.plus.beta, p.minus.beta)
