"""Exact sampling of one-sided increments, path simulation with jump
records, and empirical path diagnostics.

The one-sided sampler is exact, and its expected cost per draw is
bounded whatever the law and the time.  A leg at time t is the stable
law with scale c = alpha t Gamma(1-beta)/beta tempered at rate lam; with
its tilt tau = c lam^beta at most 1.2, where the two cost the same per
draw, a draw is one positive stable proposal S (Kanter's representation)
kept with probability e^(-lam S), which is e^(-tau) >= e^-1.2 on
average, and above that it is Devroye's double rejection, whose inner
test proposes Kanter's angle U from a table of bounds on its tilted
marginal, built once per tilt and beta with a guide table that picks a
candidate's piece; 62-76% of its candidates become draws.  A candidate
draws one uniform and one exponential for the inner test and one
uniform for the outer, plus a normal only on the outer envelope's
half-normal piece: each uniform that picks a piece also places the
candidate in it, or gives the exponential piece its exponential.  Both, and
the jump sizes of a floored path (one uniform picks the piece of a
two-piece proposal and the candidate in it), fill their draws through
one rejection loop whose rounds are sized by the acceptance seen so far;
it makes every draw in blocks, so the temporaries stay O(block) in size,
and each test keeps its survivors by index.  The double rejection's
rounds write their temporaries into a work area that each thread keeps
(``_work``), so that its pages stay mapped from one round to the next.
Paths are sums of per-step increments; when a jump record is requested,
jumps above the floor come from an exact compound-Poisson layer, the two
legs' sorted records are merged by one ``searchsorted``, and the
sub-floor remainder is folded into a moment-matched Gamma increment per
step.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as _gamma, gammainc, gammaincc, zeta

from .core import cumulant_one_sided
from .errors import ConvergenceError, DomainError
from .params import OneSidedParams, TemperedStableParams

_MAX_REJECTION_ROUNDS = 1000
#: largest tilt drawn by one tilted Kanter proposal: the measured crossover
#: with Devroye's double rejection in 5000- to 20000-draw calls (2-CPU x86-64)
_KANTER_MAX_TILT = 1.2
#: draws made per pass, so that the temporaries stay O(block) in size
_BLOCK = 1 << 16
#: expected recorded jumps on one leg above which a jump floor is refused
_MAX_JUMPS = 1 << 22
_HALF_PI_ROOT = math.sqrt(0.5 * math.pi)
#: U's envelope table: uniform pieces up to _U_REACH/sqrt(gamma)
_U_PIECES, _U_REACH = 64, 6.0
_U_GRID = np.linspace(0.0, 1.0, _U_PIECES + 1)
#: guide-table size for picking a piece (``_guided_piece``): a power of two,
#: and its int16 table takes 8 KiB
_GUIDE = 1 << 12
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
    of k iid candidates, in blocks of ``_BLOCK`` slots.  A block's first
    round tries one candidate per slot; each later one tries enough, by the
    block's acceptance so far, to fill its pending slots with a 5% margin,
    but never more than its size.  The accepted draws are iid and their
    order does not depend on their values, so keeping the first ones that
    fit is exact.  ``what`` names the sampler in the ``ConvergenceError``
    raised when a block takes ``_MAX_REJECTION_ROUNDS`` rounds.

    The double rejection's ``propose`` returns a view of the calling
    thread's work area (``_work``), which its next round overwrites; the
    block copies it first.  That area stays at the size of the thread's
    largest round, 73 bytes per candidate, so at most 4.6 MiB per thread
    for a full block."""
    out = np.empty(n)
    for start in range(0, n, _BLOCK):
        block = out[start:start + _BLOCK]
        m, done, tried = block.size, 0, 0
        for _ in range(_MAX_REJECTION_ROUNDS):
            if done == m:
                break
            k = min(m, math.ceil((m - done) * (tried + 1) / (done + 1) * 1.05) + 1)
            got = propose(k)[:m - done]
            block[done:done + got.size] = got
            done += got.size
            tried += k
        else:
            raise ConvergenceError(f"{what} did not terminate in {_MAX_REJECTION_ROUNDS} rounds")
    return out


class _Work:
    """Work arrays for rounds of up to ``size`` candidates: nine float64
    ``rows``, which the rounds also view as intp and int16, and a bool
    ``mask``; 73 bytes per candidate.  Which function writes which row is
    stated in its docstring."""

    def __init__(self, size: int):
        self.rows = np.empty((9, size))
        self.mask = np.empty(size, dtype=bool)


_LOCAL = threading.local()


def _work(k: int) -> _Work:
    """This thread's work area, grown to hold k candidates.

    The double rejection's rounds keep their temporaries there: glibc
    returns a freed array of a round's size (2e4 candidates is 160 KB) to
    the system, and the next round faults its pages back in, about 470
    faults per such round when each made its own.  As k <= ``_BLOCK`` it
    peaks at 73 * 2^16 bytes, 4.6 MiB, and stays at its largest size.
    Only the index lists of the kept candidates are made afresh.
    """
    ws = getattr(_LOCAL, "work", None)
    if ws is None or ws.mask.size < k:
        ws = _LOCAL.work = _Work(k)
    return ws


@functools.lru_cache(maxsize=64)
def _sinc_series(beta: float) -> tuple:
    # the coefficients of ln zeta^2 in (u/pi)^2 below _SERIES_EDGE, highest first
    b = min(beta, 1.0 - beta)
    n = 2.0 * _SINC_SERIES_K + 1.0
    return tuple((_SINC_SERIES * (np.expm1(n * math.log1p(-b)) + b**n))[::-1].tolist())


def _log_zeta2(u: np.ndarray, beta: float, ws: _Work) -> np.ndarray:
    """ln of zeta^2 = sinc(u) / (sinc(beta u)^beta sinc((1-beta) u)^(1-beta)),
    with sinc x = sin(x)/x; zeta^2 is at most 1.

    The double rejection multiplies this by the tilt, up to 1e20, where it
    is O(u^2).  Below ``_SERIES_EDGE`` it is therefore summed from the
    series of ln sinc, whose coefficients -(1 - beta^(2k+1) -
    (1-beta)^(2k+1)) zeta(2k)/k (symmetric in beta <-> 1-beta) are formed
    without cancellation.  Every one is negative, so ln zeta^2 decreases
    in u on [0, pi).  At and above it each ln sin y is ln(2t/(1 + t^2)),
    t = tan(y/2), as numpy's float64 tan is vectorised and its sin is
    not; the three ln 2 cancel, so it sums ln(t/(1 + t^2)).  Writes row 4
    of ``ws`` with rows 5-7 as scratch; u must lie in none of them.
    """
    k = u.size
    out, x_row, acc_row, tmp = ws.rows[4:8, :k]
    far = np.greater_equal(u, _SERIES_EDGE, out=ws.mask[:k]).nonzero()[0]
    n = far.size
    x = u.take(far, out=x_row[:n], mode="clip")
    x *= 0.5
    acc, sq = acc_row[:n], out[:n]  # out is scratch until it is written below
    acc.fill(beta * math.log(beta) + (1.0 - beta) * math.log1p(-beta))
    for w, c in ((1.0, 1.0), (beta, -beta), (1.0 - beta, beta - 1.0)):  # acc += c ln(sin(w u)/2)
        t = np.multiply(x, w, out=tmp[:n])
        np.tan(t, out=t)
        np.square(t, out=sq)
        sq += 1.0
        t /= sq
        np.log(t, out=t)
        t *= c
        acc += t
    out[far] = acc
    near = np.less(u, _SERIES_EDGE, out=ws.mask[:k]).nonzero()[0]
    n = near.size
    x = u.take(near, out=x_row[:n], mode="clip")
    x /= np.pi
    np.square(x, out=x)
    top, *rest = _sinc_series(beta)
    acc = np.multiply(x, top, out=acc_row[:n])
    for c in rest:
        acc += c
        acc *= x
    out[near] = acc
    return out


def _u_marginal(u: np.ndarray, tau: float, beta: float, sg: float, ws: _Work | None = None):
    """ln zeta^2, zeta, z and ln g at u, for U's tilted marginal g = A B:
    A = (1 + sqrt(pi/2)) sg/zeta + z, z = 1/(1 - (1 + beta zeta/sg)^(-1/beta)),
    B = exp(-tau (zeta^-2 - 1)), sg = sqrt(tau beta (1-beta)).  Writes
    rows 4-7 of ``ws`` (a fresh one by default) with row 1 as scratch;
    u must lie in none of them."""
    k = u.size
    ws = _Work(k) if ws is None else ws
    lz = _log_zeta2(u, beta, ws)
    _, zeta_u, z, log_g = ws.rows[4:8, :k]
    np.exp(np.multiply(lz, 0.5, out=zeta_u), out=zeta_u)
    np.multiply(zeta_u, beta, out=z)
    z /= sg
    np.negative(np.log1p(z, out=z), out=z)
    z /= beta
    np.divide(-1.0, np.expm1(z, out=z), out=z)
    np.divide((1.0 + _HALF_PI_ROOT) * sg, zeta_u, out=log_g)
    log_g += z
    np.log(log_g, out=log_g)
    t = np.expm1(np.negative(lz, out=ws.rows[1, :k]), out=ws.rows[1, :k])
    t *= tau
    log_g -= t
    return lz, zeta_u, z, log_g


@functools.lru_cache(maxsize=64)
def _u_envelope(tau: float, beta: float):
    """Piecewise-constant bound on U's tilted marginal g on (0, pi) for
    ``_double_rejection_round``: the pieces' cumulative masses (ending at
    1) and lower masses, left ends, widths, width/mass (0 for a piece
    whose mass rounds to 0, which is never picked) and ln heights, and the
    guide table of the masses (``_guided_piece``).

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
    cum /= cum[-1]
    below = np.append(0.0, cum[:-1])
    mass = cum - below
    scale = np.divide(width, mass, out=np.zeros_like(width), where=mass > 0.0)
    guide = np.searchsorted(cum, np.arange(_GUIDE) / _GUIDE, side="right").astype(np.int16)
    return cum, below, nodes, width, scale, log_h, guide


def _guided_piece(r: np.ndarray, cum: np.ndarray, guide: np.ndarray,
                  ws: _Work | None = None) -> np.ndarray:
    """``searchsorted(cum, r, side="right")`` for r in [0, 1), through the
    guide table of Chen and Asau (1974): guide[j] is that piece at r = j/G,
    G = ``_GUIDE``, a power of two, so floor(r G) = j is exact and guide[j]
    is never past r's piece.  Only an r at or beyond its guess's upper
    mass, at most len(cum)/G of them, is searched.  Writes row 1 of ``ws``
    (a fresh one by default) with row 2 as scratch."""
    k = r.size
    ws = _Work(k) if ws is None else ws
    piece = ws.rows[1, :k].view(np.intp)
    tmp = ws.rows[2, :k]
    np.multiply(r, _GUIDE, out=piece, casting="unsafe")  # floor, as r >= 0
    np.copyto(piece, guide.take(piece, out=tmp.view(np.int16)[:k], mode="clip"))
    far = np.greater_equal(r, cum.take(piece, out=tmp, mode="clip"), out=ws.mask[:k]).nonzero()[0]
    if far.size:
        piece[far] = np.searchsorted(cum, r[far], side="right")
    return piece


def _accepted_u(tau: float, beta: float, k: int, rng):
    """The candidates among k that pass the double rejection's inner test:
    U proposed from ``_u_envelope``'s table h and kept when
    e = ln g(U) - ln h(U) + E >= 0, E standard exponential.  One uniform
    r picks U's piece and places U in it, U = lo + (r - below) width/mass
    with below the piece's lower mass, as r is uniform on the piece's
    masses given the pick; a candidate draws r and E only.  It writes r
    and then U in row 0 of the thread's work area, the piece in row 1,
    ln h in row 2 and e in row 3, and returns ln zeta^2, zeta, z and e at
    the kept ones in rows 0, 1, 2 and 7; given a kept U, e is again
    standard exponential, and the outer test reuses it."""
    cum, below, lo, _, scale, log_h, guide = _u_envelope(tau, beta)
    ws = _work(k)
    rows = ws.rows[:, :k]
    r = rng.random(out=rows[0])
    piece = _guided_piece(r, cum, guide, ws)
    u = np.subtract(r, below.take(piece, out=rows[2], mode="clip"), out=r)
    u *= scale.take(piece, out=rows[2], mode="clip")
    u += lo.take(piece, out=rows[2], mode="clip")
    h = log_h.take(piece, out=rows[2], mode="clip")
    e = rng.standard_exponential(out=rows[3])
    lz, zeta_u, z, log_g = _u_marginal(u, tau, beta, math.sqrt(tau * beta * (1.0 - beta)), ws)
    e += log_g
    e -= h
    keep = np.greater_equal(e, 0.0, out=ws.mask[:k]).nonzero()[0]
    j = keep.size
    return tuple(a.take(keep, out=rows[i, :j], mode="clip")
                 for a, i in ((lz, 0), (zeta_u, 1), (z, 2), (e, 7)))


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
    exponential as E.  One uniform r picks the envelope's piece by
    pick = r total, total = 1 + c1 + z zeta/sg with c1 = sqrt(pi/2): on
    the flat piece it also places Y, on the exponential piece it gives
    that piece's exponential ln((total - 1 - c1)/(total - pick)), and
    only the half-normal piece draws a normal.  With Y = X/m - 1 the draw is
    ``tau beta zeta^-2 (1+Y)^-b``, mean times a ratio near 1, and the
    tilt term is ``tau zeta^-2 ((1-beta) Y + beta ((1+Y)^-b - 1))``:
    neither carries a power 1/beta, which would cancel as beta -> 0.
    Past ``_accepted_u`` it writes r and then the exponentials in row 1 of
    the thread's work area, ln X in row 2, the envelope's width and then
    the tilt term in row 3, pick and then Y in row 4, total in row 5, the
    normals in row 6, with rows 5 and 8 as scratch; the draws are row 8,
    valid until the next round.
    """
    lz, zeta_u, z, e = _accepted_u(tau, beta, k, rng)
    sg = math.sqrt(tau * beta * (1.0 - beta))
    j = e.size
    ws = _work(j)
    rows = ws.rows[:, :j]
    scratch = rows[8]

    # X's envelope in Y: half normal of width delta/m left of 0, flat on
    # [0, delta/m], exponential of mean a3/m beyond; masses c1 : 1 : z zeta/sg
    width = np.multiply(zeta_u, beta, out=rows[3])
    width /= sg
    total = np.multiply(z, zeta_u, out=rows[5])
    total /= sg
    total += 1.0 + _HALF_PI_ROOT
    pick = np.multiply(total, rng.random(out=rows[1]), out=rows[4])  # zeta_u is spent
    left = np.less(pick, _HALF_PI_ROOT, out=ws.mask[:j]).nonzero()[0]
    right = np.greater_equal(pick, 1.0 + _HALF_PI_ROOT, out=ws.mask[:j]).nonzero()[0]
    nl, nr = left.size, right.size
    # pick < total, so the exponential is finite
    expo = total.take(right, out=rows[1, :nr], mode="clip")
    gap = np.subtract(expo, pick.take(right, out=scratch[:nr], mode="clip"), out=scratch[:nr])
    expo -= 1.0 + _HALF_PI_ROOT
    expo /= gap
    np.log(expo, out=expo)
    normal = rng.standard_normal(out=rows[6, :nl])
    pick -= _HALF_PI_ROOT
    y = np.multiply(pick, width, out=pick)
    t = width.take(left, out=scratch[:nl], mode="clip")
    np.negative(t, out=t)
    t *= np.abs(normal, out=rows[5, :nl])
    y[left] = t
    t = lz.take(right, out=scratch[:nr], mode="clip")
    np.exp(t, out=t)
    jump = z.take(right, out=rows[5, :nr], mode="clip")
    jump *= t
    jump /= tau * (1.0 - beta)
    jump *= expo
    y[right] = np.add(width.take(right, out=t, mode="clip"), jump, out=t)
    b = (1.0 - beta) / beta
    # Y <= -1 has no X: its log is -inf or nan, and its excess never passes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_x = np.log1p(y, out=rows[2])
        excess = np.expm1(np.multiply(log_x, -b, out=rows[3]), out=rows[3])
        excess *= beta
        excess += np.multiply(y, 1.0 - beta, out=scratch)
        t = np.exp(np.negative(lz, out=scratch), out=scratch)
        t *= tau
        excess *= t
    half_sq = np.square(normal, out=rows[5, :nl])
    half_sq *= 0.5
    t = excess.take(left, out=scratch[:nl], mode="clip")
    t -= half_sq
    excess[left] = t
    t = excess.take(right, out=scratch[:nr], mode="clip")
    t -= expo
    excess[right] = t
    acc = np.less_equal(excess, e, out=ws.mask[:j]).nonzero()[0]
    n = acc.size
    x = np.multiply(log_x.take(acc, out=scratch[:n], mode="clip"), -b, out=scratch[:n])
    x -= lz.take(acc, out=rows[5, :n], mode="clip")
    np.exp(x, out=x)
    x *= tau * beta
    return x


def sample_one_sided(p: OneSidedParams, t: float, rng, size=None):
    """Exact draw(s) of the one-sided law at time t.

    Gamma case beta = 0 delegates to the Gamma sampler.  For beta > 0 a
    draw is one tilted Kanter proposal when the tilt ``tau = c lam^beta``
    is at most ``_KANTER_MAX_TILT``, and Devroye's double rejection above
    it; the law of ``lam X`` depends on tau and beta only.  Draws whose
    mean or tilt leaves the float range are a ``DomainError``.
    ``size=None`` returns a scalar.  ``rng`` must be a
    ``numpy.random.Generator``, as the double rejection draws into its
    work area with ``out=``; another is a ``DomainError``.
    """
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
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
        def propose(k):
            x = _double_rejection_round(tau, beta, k, rng)
            x /= lam  # in place: x is a view of the work area
            return x

        what = "double rejection"
    out = _rejection_fill(propose, n, what + f" (tilt {tau:.3g}, beta={beta})")
    return float(out[0]) if size is None else out


# -- jump layer ---------------------------------------------------------------


def jump_intensity_above(p: OneSidedParams, floor: float) -> float:
    """Total jump intensity of the leg above the floor (finite for floor > 0):
    alpha lam^beta Gamma(-beta, lam floor), the upper incomplete Gamma at
    -beta in (-1, 0] taken from Gamma(1 - beta, x) by its recurrence."""
    if not (floor > 0.0):
        raise DomainError("floor must be positive")
    b, x = p.beta, p.lam * floor
    if b == 0.0:
        upper = float(exp1(x))
    else:
        upper = (_gamma(1.0 - b) * gammaincc(1.0 - b, x) - x**-b * math.exp(-x)) / -b
    return p.alpha * p.lam**b * upper


def _subfloor_moments(p: OneSidedParams, floor: float) -> tuple[float, float]:
    # first two moments of the jump measure restricted below the floor:
    # kappa_n times the regularized lower incomplete Gamma P(n - beta, lam h)
    return tuple(cumulant_one_sided(p, n) * gammainc(n - p.beta, p.lam * floor)
                 for n in (1, 2))


def _sample_jump_sizes(p: OneSidedParams, floor: float, n: int, rng) -> np.ndarray:
    """Exact draws from the normalized jump density above the floor h.

    Two-piece rejection: a truncated power law on [h, split = h + 1/lam],
    accepted against the tempering factor e^(-lam (x-h)), and a shifted
    exponential beyond, accepted against the power factor
    (x/split)^(-1-beta).  One uniform picks the piece and, rescaled within
    it, the candidate by inversion; a standard exponential above the
    factor's negative log keeps it.
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
        # in place: each fresh temporary of a block-sized round costs page faults
        v = rng.random(k)
        tail = np.flatnonzero(v >= p1)
        x = np.minimum(v, p1)
        x /= p1
        if b > 0.0:
            x *= floor**-b - split**-b
            np.subtract(floor**-b, x, out=x)
            np.power(x, -1.0 / b, out=x)
        else:
            np.power(split / floor, x, out=x)
            x *= floor
        x_tail = split - np.log1p(-(v[tail] - p1) / (1.0 - p1)) / lam
        x[tail] = x_tail
        neg_log_ratio = np.subtract(x, floor, out=v)
        neg_log_ratio *= lam
        neg_log_ratio[tail] = (1.0 + b) * np.log(x_tail / split)
        return x[np.flatnonzero(rng.standard_exponential(k) > neg_log_ratio)]

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


def _merge_records(t_a: np.ndarray, x_a: np.ndarray, t_b: np.ndarray, x_b: np.ndarray):
    """Two records sorted by time merged into one, a's first at equal
    times: ``argsort(concatenate([t_a, t_b]), kind="stable")`` order,
    from one ``searchsorted`` of the shorter record into the longer."""
    n = t_a.size + t_b.size
    if t_a.size <= t_b.size:
        pos = np.searchsorted(t_b, t_a, side="left")
        t_short, x_short, t_long, x_long = t_a, x_a, t_b, x_b
    else:
        pos = np.searchsorted(t_a, t_b, side="right")
        t_short, x_short, t_long, x_long = t_b, x_b, t_a, x_a
    pos += np.arange(pos.size)
    rest = np.ones(n, dtype=bool)
    rest[pos] = False
    rest = rest.nonzero()[0]
    times, sizes = np.empty(n), np.empty(n)
    times[pos], sizes[pos] = t_short, x_short
    times[rest], sizes[rest] = t_long, x_long
    return times, sizes


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
        jt, js = _merge_records(jt_p, sz_p, jt_m, -sz_m)

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
