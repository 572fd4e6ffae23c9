"""Locally equivalent measure changes and martingale-measure selection.

Two laws of the process are locally equivalent exactly when their
intensity and stability legs agree; every such change of measure is a
bilateral exponential tilt that shifts the tempering rates.  On top of
that sit the three martingale-measure constructions for the exponential
stock model: the (single-parameter) Esscher measure, the one-parameter
curve of bilateral tilts, and the minimal martingale measure.

All martingale solvers share one universal postcondition: the tilted
cumulant generating function evaluated at 1 equals r - q to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _increasing_root, _require_positive_betas, cgf, cgf_one_sided, leg_exponent
from .errors import ConvergenceError, DomainError, NoMartingaleMeasureError
from .params import TemperedStableParams

#: agreement tolerance for the martingale residual |Psi_new(1) - (r - q)|
MARTINGALE_RESIDUAL_TOL = 1e-10

_REL_TOL = 1e-12

#: lower end of the clipped search interval for the downward curve tilt
_THETA_FLOOR = -1e6


@dataclass(frozen=True)
class EsscherPair:
    """Per-leg tilt parameters; each must stay below the matching rate."""

    theta_plus: float
    theta_minus: float


@dataclass(frozen=True)
class MartingaleSolve:
    theta: "float | tuple[float, float]"
    residual: float
    exists: bool
    new_params: "TemperedStableParams | None" = None
    message: str = ""


@dataclass(frozen=True)
class MinimalMartingaleResult:
    """Tilting constant and the two convolution factors of the minimal
    martingale law; a factor is None when its intensity weight vanishes."""

    c: float
    exists: bool
    factors: "tuple[TemperedStableParams | None, TemperedStableParams | None]" = (None, None)
    message: str = ""


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=0.0)


def locally_equivalent(p: TemperedStableParams, q: TemperedStableParams) -> bool:
    """True iff the intensity and stability legs of both laws agree."""
    return (
        _close(p.plus.alpha, q.plus.alpha)
        and _close(p.minus.alpha, q.minus.alpha)
        and p.plus.beta == q.plus.beta
        and p.minus.beta == q.minus.beta
    )


def bilateral_esscher(p: TemperedStableParams, t: EsscherPair) -> TemperedStableParams:
    """Law of the process under the bilateral tilt: rates shift by the tilts."""
    if not (t.theta_plus < p.plus.lam and t.theta_minus < p.minus.lam):
        raise DomainError(
            f"tilts must satisfy theta+ < {p.plus.lam} and theta- < {p.minus.lam}, "
            f"got ({t.theta_plus}, {t.theta_minus})"
        )
    return TemperedStableParams.create(
        p.plus.alpha, p.plus.beta, p.plus.lam - t.theta_plus,
        p.minus.alpha, p.minus.beta, p.minus.lam - t.theta_minus,
    )


def density_process_log(p: TemperedStableParams, t: EsscherPair,
                        x_plus, x_minus, time: float):
    """Log likelihood of the bilateral tilt given the two subordinator
    components at the given time.  Accepts arrays for the components."""
    if not (0.0 < time < math.inf):
        raise DomainError(f"time must be positive and finite, got {time}")
    xp = np.asarray(x_plus, dtype=float)
    xm = np.asarray(x_minus, dtype=float)
    if not (np.all((xp >= 0.0) & (xp < np.inf)) and np.all((xm >= 0.0) & (xm < np.inf))):
        raise DomainError("subordinator components must be nonnegative and finite")
    log_norm_plus = cgf_one_sided(p.plus, t.theta_plus)
    log_norm_minus = cgf_one_sided(p.minus, t.theta_minus)
    out = (t.theta_plus * xp - log_norm_plus * time
           + t.theta_minus * xm - log_norm_minus * time)
    return float(out) if out.ndim == 0 else out


def _plus_part(p: TemperedStableParams, theta: float) -> float:
    # tilted upward leg's part of Psi_tilted(1); its rate may round below 1 at theta = lambda+ - 1
    rate = p.plus.lam - theta
    if not rate >= 1.0 - 1e-12 * max(rate, 1.0):
        raise DomainError(f"theta = {theta} exceeds lambda+ - 1 = {p.plus.lam - 1.0}")
    return leg_exponent(p.plus.alpha, p.plus.beta, max(rate, 1.0), 1.0)


def _minus_part(p: TemperedStableParams, theta_minus: float) -> float:
    # contribution of the tilted downward leg, theta- <= lambda-; at
    # theta- = lambda- the tilted rate is 0, where Psi_0(-1) = -Psi_1(1)
    rate = p.minus.lam - theta_minus
    if rate == 0.0:
        return -leg_exponent(p.minus.alpha, p.minus.beta, 1.0, 1.0)
    return leg_exponent(p.minus.alpha, p.minus.beta, rate, -1.0)


def esscher_f(p: TemperedStableParams, theta: float) -> float:
    """The strictly increasing function whose root gives the Esscher tilt.

    Equals the cumulant generating function of the theta-tilted law at 1;
    defined on [-lambda_minus, lambda_plus - 1].
    """
    _require_positive_betas(p, "the Esscher martingale condition")
    lp, lm = p.plus.lam, p.minus.lam
    if not (-lm <= theta <= lp - 1.0):
        raise DomainError(f"theta must lie in [{-lm}, {lp - 1.0}], got {theta}")
    return _plus_part(p, theta) + _minus_part(p, -theta)


def martingale_residual(p_new: TemperedStableParams, r: float, q_div: float) -> float:
    return cgf(p_new, 1.0) - (r - q_div)


def esscher_martingale(p: TemperedStableParams, r: float, q_div: float) -> MartingaleSolve:
    """Single-parameter Esscher martingale measure, when it exists.

    Existence needs lambda+ + lambda- > 1 and r - q inside the range
    (f(lo), f(hi)] of the tilt function; the root solve's one-sign ends
    carry that test.
    """
    check_market(r, q_div)
    _require_positive_betas(p, "the Esscher martingale condition")
    lp, lm = p.plus.lam, p.minus.lam
    if not (lp + lm > 1.0):
        return MartingaleSolve(
            theta=math.nan, residual=math.nan, exists=False,
            message=f"rate condition failed: lambda+ + lambda- = {lp + lm} <= 1",
        )
    lo, hi = -lm, lp - 1.0
    rq = r - q_div
    theta, neighbours = _increasing_root(
        lambda th: _plus_part(p, th) + _minus_part(p, -th) - rq, lo, hi)
    # r - q outside (f(lo), f(hi)] comes back as lo with f(lo) - rq >= 0 or as
    # hi with f(hi) - rq < 0; f(hi) = r - q is a root at hi
    if neighbours[1] < 0.0 or (theta == lo and neighbours[0] >= 0.0):
        return MartingaleSolve(
            theta=math.nan, residual=math.nan, exists=False,
            message=f"r - q = {rq} outside the attainable range "
                    f"({esscher_f(p, lo)}, {esscher_f(p, hi)}]",
        )
    new_params = bilateral_esscher(p, EsscherPair(theta, -theta))
    residual = abs(martingale_residual(new_params, r, q_div))
    _check_residual(residual, neighbours)
    return MartingaleSolve(theta=theta, residual=residual, exists=True,
                           new_params=new_params)


def _curve_brackets(p: TemperedStableParams):
    # clipped search interval for the downward tilt, shared by the domain
    # computation and the per-theta solve so they agree on solvability
    hi = p.minus.lam - 1e-9
    lo = min(_THETA_FLOOR, hi - 1.0)
    return lo, hi


def _require_curve(p: TemperedStableParams, r: float, q_div: float) -> None:
    # the upward part of Psi(1) is bounded by -alpha+ Gamma(-beta+), its value
    # at tilted rate 1; the curve exists only when that supremum exceeds r - q
    check_market(r, q_div)
    _require_positive_betas(p, "the bilateral martingale curve")
    rq = r - q_div
    sup_plus = leg_exponent(p.plus.alpha, p.plus.beta, 1.0, 1.0)
    if not (sup_plus > rq):
        raise NoMartingaleMeasureError(
            "no bilateral tilt is a martingale measure: "
            f"-alpha+ * Gamma(-beta+) = {sup_plus} <= r - q = {rq}"
        )


def phi_domain(p: TemperedStableParams, r: float, q_div: float) -> tuple[float, float]:
    """Endpoints (theta1, theta2) of the bilateral martingale curve.

    The endpoints are located numerically as the upward tilts where the
    downward-tilt equation loses solvability on the clipped search
    bracket: below theta1 the downward tilt would have to fall past the
    floor, above theta2 it would have to reach the downward rate itself.
    A domain that the clipping or the float grid leaves empty
    (theta1 == theta2) is a ``DomainError``.
    """
    _require_curve(p, r, q_div)
    rq = r - q_div
    hi = p.plus.lam - 1.0
    lo = max(_THETA_FLOOR, hi - 1e6)
    tm_lo, tm_hi = _curve_brackets(p)
    # the plus part increases from ~0 (theta -> -inf) to sup_plus at theta = hi
    ends = []
    for tm in (tm_lo, tm_hi):
        minus = _minus_part(p, tm)
        ends.append(_increasing_root(lambda th: _plus_part(p, th) + minus - rq, lo, hi)[0])
    theta1, theta2 = ends
    if not theta1 < theta2:
        raise DomainError(
            f"the bilateral martingale curve is empty: on the clipped brackets "
            f"theta in [{lo}, {hi}] and theta- in [{tm_lo}, {tm_hi}] both of its "
            f"ends fall on theta = {theta1}"
        )
    return theta1, theta2


def martingale_curve_phi(p: TemperedStableParams, theta: float,
                         r: float, q_div: float) -> float:
    """Downward tilt paired with ``theta`` on the bilateral martingale curve.

    Solves the martingale condition for the second tilt by bracketed
    root-finding; the residual in the condition is strictly decreasing in
    the downward tilt, which makes the bracket safe.  A residual without
    a sign change on the clipped bracket is the same solvability test
    that ``phi_domain`` locates the curve endpoints with.
    """
    return _curve_solve(p, theta, r, q_div)[0]


def _curve_solve(p: TemperedStableParams, theta: float, r: float, q_div: float):
    # the downward tilt and the martingale residuals at the adjacent floats around it
    _require_curve(p, r, q_div)
    if not theta <= p.plus.lam - 1.0:
        raise DomainError(
            f"theta = {theta} outside the curve domain: it must not exceed "
            f"lambda+ - 1 = {p.plus.lam - 1.0}"
        )
    plus, rq = _plus_part(p, theta), r - q_div
    lo, hi = _curve_brackets(p)
    # minus the residual, which increases in the downward tilt
    theta_minus, (f_a, f_b) = _increasing_root(
        lambda tm: -(plus + _minus_part(p, tm) - rq), lo, hi)
    if f_a > 0.0 or f_b < 0.0:
        raise DomainError(
            f"theta = {theta} outside the curve domain: the downward tilt equation "
            f"keeps the sign of its residual {-f_a:.3e} on the clipped bracket [{lo}, {hi}]"
        )
    return theta_minus, (-f_a, -f_b)


def curve_point(p: TemperedStableParams, theta: float,
                r: float, q_div: float) -> MartingaleSolve:
    """Full solve for one point of the bilateral martingale curve."""
    theta_minus, neighbours = _curve_solve(p, theta, r, q_div)
    new_params = bilateral_esscher(p, EsscherPair(theta, theta_minus))
    residual = abs(martingale_residual(new_params, r, q_div))
    _check_residual(residual, neighbours)
    return MartingaleSolve(theta=(theta, theta_minus), residual=residual,
                           exists=True, new_params=new_params)


def minimal_martingale(p: TemperedStableParams, r: float, q_div: float) -> MinimalMartingaleResult:
    """Minimal martingale measure; exists iff the tilt constant is in [-1, 0].

    The resulting law is the convolution of a reweighted copy of the
    original law and a reweighted unit-tilted copy.  Requires
    lambda+ >= 2 so the generating function at 2 is defined.
    """
    check_market(r, q_div)
    _require_positive_betas(p, "the minimal martingale measure")
    if not (p.plus.lam >= 2.0):
        raise DomainError(f"minimal martingale measure requires lambda+ >= 2, got {p.plus.lam}")
    psi1, psi2 = cgf(p, 1.0), cgf(p, 2.0)
    c = (psi1 - (r - q_div)) / (psi2 - 2.0 * psi1)
    if not (-1.0 <= c <= 0.0):
        return MinimalMartingaleResult(
            c=c, exists=False,
            message=f"tilt constant c = {c} outside [-1, 0]",
        )
    # the law reweighted by c + 1 and its unit tilt reweighted by -c
    factors = tuple(
        TemperedStableParams.create(w * p.plus.alpha, p.plus.beta, p.plus.lam - shift,
                                    w * p.minus.alpha, p.minus.beta, p.minus.lam + shift)
        if w > 0.0 else None
        for w, shift in ((c + 1.0, 0.0), (-c, 1.0))
    )
    combined = sum(cgf(f, 1.0) for f in factors if f is not None)
    _check_residual(abs(combined - (r - q_div)))
    return MinimalMartingaleResult(c=c, exists=True, factors=factors)


def _check_residual(residual: float, neighbours: tuple[float, float] | None = None) -> None:
    # universal postcondition of every martingale solve in this module; a root
    # solve passes the residuals at the two adjacent floats around its root
    if not (residual <= MARTINGALE_RESIDUAL_TOL):
        cause = "" if neighbours is None else (
            " at the best float: the two adjacent floats around the root have "
            f"residuals {neighbours[0]:+.2e} and {neighbours[1]:+.2e}, so the law "
            "is ill-conditioned at double precision"
        )
        raise ConvergenceError(
            f"martingale residual {residual:.3e} exceeds {MARTINGALE_RESIDUAL_TOL}{cause}"
        )


def check_market(r: float, q_div: float) -> None:
    """The rates of the exponential stock model: finite, with r >= q >= 0."""
    if not (math.inf > r >= q_div >= 0.0):
        raise DomainError(f"market rates must be finite with r >= q >= 0, got r={r}, q={q_div}")
