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
from scipy.optimize import brentq

from .core import cgf, cgf_one_sided, gamma_neg, stable_leg_cgf
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
    if not (time > 0.0):
        raise DomainError("time must be positive")
    xp = np.asarray(x_plus, dtype=float)
    xm = np.asarray(x_minus, dtype=float)
    if np.any(xp < 0.0) or np.any(xm < 0.0):
        raise DomainError("subordinator components must be nonnegative")
    log_norm_plus = cgf_one_sided(p.plus, t.theta_plus)
    log_norm_minus = cgf_one_sided(p.minus, t.theta_minus)
    out = (t.theta_plus * xp - log_norm_plus * time
           + t.theta_minus * xm - log_norm_minus * time)
    return float(out) if out.ndim == 0 else out


def _require_positive_betas(p: TemperedStableParams, what: str) -> None:
    if p.plus.beta == 0.0 or p.minus.beta == 0.0:
        raise DomainError(f"{what} requires both stability legs in (0, 1)")


def _plus_part(p: TemperedStableParams, theta: float) -> float:
    # contribution of the tilted upward leg to Psi_tilted(1), theta <= lambda+ - 1
    return stable_leg_cgf(p.plus.alpha, p.plus.beta, p.plus.lam - theta, 1.0)


def _minus_part(p: TemperedStableParams, theta_minus: float) -> float:
    # contribution of the tilted downward leg, theta- <= lambda-
    return stable_leg_cgf(p.minus.alpha, p.minus.beta, p.minus.lam - theta_minus, -1.0)


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

    Existence needs lambda+ + lambda- > 1 and r - q inside the range of
    the tilt function; the solve then brackets the unique root.
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
    f_lo, f_hi = esscher_f(p, lo), esscher_f(p, hi)
    rq = r - q_div
    if not (f_lo < rq <= f_hi):
        return MartingaleSolve(
            theta=math.nan, residual=math.nan, exists=False,
            message=f"r - q = {rq} outside the attainable range ({f_lo}, {f_hi}]",
        )
    if rq == f_hi:
        theta = hi
    else:
        theta = brentq(lambda th: esscher_f(p, th) - rq, lo, hi,
                       xtol=1e-14, rtol=8.9e-16)
    new_params = bilateral_esscher(p, EsscherPair(theta, -theta))
    residual = abs(martingale_residual(new_params, r, q_div))
    _check_residual(residual)
    return MartingaleSolve(theta=theta, residual=residual, exists=True,
                           new_params=new_params)


def _curve_brackets(p: TemperedStableParams):
    # clipped search interval for the downward tilt, shared by the domain
    # computation and the per-theta solve so they agree on solvability
    hi = p.minus.lam - 1e-9
    lo = min(_THETA_FLOOR, hi - 1.0)
    return lo, hi


def _require_curve(p: TemperedStableParams, r: float, q_div: float) -> None:
    # the upward part of Psi(1) is bounded by -alpha+ Gamma(-beta+); the
    # curve exists only when that supremum exceeds r - q
    check_market(r, q_div)
    _require_positive_betas(p, "the bilateral martingale curve")
    rq = r - q_div
    sup_plus = -p.plus.alpha * gamma_neg(p.plus.beta)
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
    """
    _require_curve(p, r, q_div)
    rq = r - q_div
    hi = p.plus.lam - 1.0
    lo = max(_THETA_FLOOR, hi - 1e6)
    tm_lo, tm_hi = _curve_brackets(p)

    def solve_plus(target: float) -> float:
        # plus part is strictly increasing from ~0 (theta -> -inf) to sup_plus
        if _plus_part(p, lo) >= target:
            return lo
        if _plus_part(p, hi) <= target:
            return hi
        return brentq(lambda th: _plus_part(p, th) - target, lo, hi,
                      xtol=1e-14, rtol=8.9e-16)

    theta1 = solve_plus(rq - _minus_part(p, tm_lo))
    theta2 = solve_plus(rq - _minus_part(p, tm_hi))
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
    _require_curve(p, r, q_div)
    if not theta <= p.plus.lam - 1.0:
        raise DomainError(
            f"theta = {theta} outside the curve domain: it must not exceed "
            f"lambda+ - 1 = {p.plus.lam - 1.0}"
        )
    rq = r - q_div
    plus = _plus_part(p, theta)

    def residual(theta_minus: float) -> float:
        return plus + _minus_part(p, theta_minus) - rq

    lo, hi = _curve_brackets(p)
    r_lo, r_hi = residual(lo), residual(hi)
    if not (r_hi < 0.0 < r_lo):
        raise DomainError(
            f"theta = {theta} outside the curve domain: the downward tilt "
            f"equation has residuals ({r_lo}, {r_hi}) at the clipped bracket"
        )
    return brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16)


def curve_point(p: TemperedStableParams, theta: float,
                r: float, q_div: float) -> MartingaleSolve:
    """Full solve for one point of the bilateral martingale curve."""
    theta_minus = martingale_curve_phi(p, theta, r, q_div)
    new_params = bilateral_esscher(p, EsscherPair(theta, theta_minus))
    residual = abs(martingale_residual(new_params, r, q_div))
    _check_residual(residual)
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
    base = None
    if c + 1.0 > 0.0:
        base = TemperedStableParams.create(
            (c + 1.0) * p.plus.alpha, p.plus.beta, p.plus.lam,
            (c + 1.0) * p.minus.alpha, p.minus.beta, p.minus.lam,
        )
    tilted = None
    if -c > 0.0:
        tilted = TemperedStableParams.create(
            -c * p.plus.alpha, p.plus.beta, p.plus.lam - 1.0,
            -c * p.minus.alpha, p.minus.beta, p.minus.lam + 1.0,
        )
    combined = sum(cgf(f, 1.0) for f in (base, tilted) if f is not None)
    _check_residual(abs(combined - (r - q_div)))
    return MinimalMartingaleResult(c=c, exists=True, factors=(base, tilted))


def _check_residual(residual: float) -> None:
    # universal postcondition of every martingale solve in this module
    if not (residual <= MARTINGALE_RESIDUAL_TOL):
        raise ConvergenceError(
            f"martingale residual {residual:.3e} exceeds {MARTINGALE_RESIDUAL_TOL}"
        )


def check_market(r: float, q_div: float) -> None:
    """The rates of the exponential stock model: finite, with r >= q >= 0."""
    if not (math.inf > r >= q_div >= 0.0):
        raise DomainError(f"market rates must be finite with r >= q >= 0, got r={r}, q={q_div}")
