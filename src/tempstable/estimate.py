"""Moment/cumulant statistics and the three estimation procedures.

The one-sided law has a closed-form inverse from its first three
cumulants.  The six-parameter law is recovered by solving the
moment-matching system G(kappa, theta) = 0 with MINPACK's hybrid
(Powell dogleg) method in log/logit coordinates, so every iterate
automatically stays inside the open parameter domain.  The solver's
system and Jacobian take their cumulants from ``core``'s per-leg kernel,
``core.cumulant``'s bit for bit; the Jacobian runs on Python floats with
one digamma call on the twelve orders n - beta.  A separate estimator
reads the intensity off the jump record of an observed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gamma as _gamma, gammaln

from .core import (_ORDERS, _SIGNS, _integer_at_least, _leg_kappas,
                   _population_kappa as population_kappa, _require_positive_betas)
from .errors import DomainError, InfeasibleCumulantsError
from .limits import alpha_pair_for_moments
from .params import CumulantVector, OneSidedParams, TemperedStableParams

_LOGIT_CLIP = 30.0


@dataclass(frozen=True)
class SampleCumulants:
    kappa_hat: tuple
    n_obs: int


@dataclass(frozen=True)
class FitResult:
    params: TemperedStableParams
    residual: float
    iterations: int
    converged: bool


def _kappa_of(k) -> np.ndarray:
    if isinstance(k, SampleCumulants):
        return np.asarray(k.kappa_hat, dtype=float)
    if isinstance(k, CumulantVector):
        return np.asarray(k.kappa, dtype=float)
    return np.asarray(k, dtype=float)


def sample_cumulants(data) -> SampleCumulants:
    """First six sample cumulants from the sample mean and central moments.

    Centring first keeps the higher cumulants unchanged when the data is
    shifted; raw moments about zero cancel catastrophically instead.
    """
    x = np.asarray(data, dtype=float).ravel()
    if x.size < 7:
        raise DomainError(
            f"need at least 7 observations, got {x.size}", code="TOO_FEW_OBS"
        )
    if not np.isfinite(x).all():
        raise DomainError(f"{x.size - np.isfinite(x).sum()} of {x.size} observations are not finite")
    # a cumulant past the float range is refused below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = np.mean(x)
        d = x - k1
        d -= np.mean(d)  # the rounded k1 is off by O(ulp of the offset); a second pass removes it
        d2 = d * d
        d3 = d2 * d  # products, not powers: a pow call per element costs 30x more
        m2, m3, m4, m5, m6 = (np.mean(v) for v in (d2, d3, d2 * d2, d3 * d2, d3 * d3))
        k4 = m4 - 3 * m2**2
        k5 = m5 - 10 * m3 * m2
        k6 = m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3
    kappa = (k1, m2, m3, k4, k5, k6)
    if not np.isfinite(kappa).all():
        raise DomainError(f"the sample cumulants of {x.size} observations leave the float range: "
                          f"{tuple(float(k) for k in kappa)}; rescale the data")
    return SampleCumulants(kappa_hat=kappa, n_obs=int(x.size))


def fit_one_sided(k) -> OneSidedParams:
    """Closed-form one-sided estimate from the first three cumulants.

    Feasibility requires k1, k2 > 0 and k1*k3 > k2^2; the Gamma boundary
    k1*k3 = 2*k2^2 maps to beta = 0 and larger ratios to beta in (0, 1).
    """
    kappa = _kappa_of(k)
    if kappa.size < 3:
        raise DomainError("need at least three cumulants")
    k1, k2, k3 = kappa[0], kappa[1], kappa[2]
    if not (k1 > 0.0 and k2 > 0.0):
        raise InfeasibleCumulantsError(
            f"first cumulants must be positive, got k1={k1}, k2={k2}"
        )
    gap = k1 * k3 - k2**2
    if not (gap > 0.0):
        raise InfeasibleCumulantsError(
            f"cumulants violate k1*k3 > k2^2 (k1*k3 - k2^2 = {gap})"
        )
    beta = 1.0 - k2**2 / gap
    if -1e-12 < beta < 0.0:
        beta = 0.0  # Gamma boundary reached up to roundoff
    if not (0.0 <= beta < 1.0):
        raise InfeasibleCumulantsError(
            f"implied stability index {beta} outside [0, 1)"
        )
    lam = (1.0 - beta) * k1 / k2
    alpha = lam ** (1.0 - beta) * k1 / _gamma(1.0 - beta)
    return OneSidedParams(alpha, beta, lam)


# -- six-parameter moment solve ----------------------------------------------


def _row_weights(theta) -> np.ndarray:
    # s_j = (l+)^(j-b+) (l-)^(j-b-), the lambda powers that clear G's denominators
    TemperedStableParams.create(*theta)  # a typed error outside the domain
    _, bp, lp, _, bm, lm = theta
    return lp ** (_ORDERS - bp) * lm ** (_ORDERS - bm)


def two_sided_G(kappa, theta) -> np.ndarray:
    """Moment-matching system whose root is the parameter estimate: the
    cumulant mismatch times the row weights,
    G_j = (kappa_j(theta) - kappa_hat_j) (l+)^(j-b+) (l-)^(j-b-),  j = 1..6.
    """
    return _row_weights(theta) * (population_kappa(theta) - _kappa_of(kappa)[:6])


def _mismatch_jacobian(kappa_hat: list, theta) -> np.ndarray:
    """W = d kappa/d theta + (kappa(theta) - kappa_hat) (x) d ln s/d theta,
    so that the Jacobian of G is s W at an arbitrary point.  Per leg,
    d kappa/d alpha = kappa/alpha, d kappa/d beta = kappa (ln lam - psi(j-beta))
    and d kappa/d lam = -(j-beta) kappa/lam.  Evaluated on Python floats
    (``kappa_hat`` a list, ``theta`` Python floats) with one digamma call
    on the twelve orders; each entry has the elementwise array form's bits."""
    ap, bp, lp, am, bm, lm = theta
    (k_plus, e_plus), (k_minus, e_minus) = _leg_kappas(ap, bp, lp), _leg_kappas(am, bm, lm)
    k_minus = [s * m for s, m in zip(_SIGNS, k_minus)]
    psi = digamma(e_plus + e_minus).tolist()
    resid = [p + m - h for p, m, h in zip(k_plus, k_minus, kappa_hat)]
    log_lp, log_lm = math.log(lp), math.log(lm)
    return np.array([(x / ap, log_lp * (x - r) - x * dp, ep * (r - x) / lp,
                      y / am, log_lm * (y - r) - y * dm, em * (r - y) / lm)
                     for x, y, r, dp, dm, ep, em in
                     zip(k_plus, k_minus, resid, psi[:6], psi[6:], e_plus, e_minus)])


def two_sided_jacobian(kappa, theta) -> np.ndarray:
    """Analytic Jacobian of ``two_sided_G`` in the parameter vector, at an
    arbitrary point (not just at a root)."""
    kappa_hat = _kappa_of(kappa)[:6].tolist()
    return _row_weights(theta)[:, None] * _mismatch_jacobian(kappa_hat, list(map(float, theta)))


def _to_unconstrained(theta) -> np.ndarray:
    ap, bp, lp, am, bm, lm = theta
    logit = lambda b: math.log(b / (1.0 - b))
    return np.array([math.log(ap), logit(bp), math.log(lp),
                     math.log(am), logit(bm), math.log(lm)])


def _from_unconstrained(u) -> tuple:
    # the clip keeps theta inside the open domain, where every cumulant is finite
    a_p, b_p, l_p, a_m, b_m, l_m = [-_LOGIT_CLIP if v < -_LOGIT_CLIP else _LOGIT_CLIP
                                    if v > _LOGIT_CLIP else v for v in u.tolist()]
    return (math.exp(a_p), 1.0 / (1.0 + math.exp(-b_p)), math.exp(l_p),
            math.exp(a_m), 1.0 / (1.0 + math.exp(-b_m)), math.exp(l_m))


def _validate(k, tol: float, max_iter: int) -> np.ndarray:
    """The six cumulants of ``k``, once both fits' inputs are checked."""
    # MINPACK reads a non-positive evaluation cap as "use the default"
    _integer_at_least("max_iter", max_iter, 1)
    # an infinite tol would call any fit converged, a nan or negative one none
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    kappa = _kappa_of(k)
    if kappa.size != 6:
        raise DomainError("need exactly six cumulants")
    if not (kappa[1] > 0.0 and kappa[3] > 0.0 and kappa[5] > 0.0):
        raise InfeasibleCumulantsError(
            "even sample cumulants must be positive for a six-parameter fit"
        )
    return kappa


def _scaled_system(kappa, scale):
    """The solver's system (kappa(theta(u)) - kappa_hat)/scale in the
    log/logit coordinates u, and its Jacobian (see ``jac``), which runs on
    Python floats: numpy calls on six-element arrays cost more than their
    arithmetic."""
    kappa_hat, row_scale = kappa.tolist(), scale[:, None]

    def fun(u):
        return (population_kappa(_from_unconstrained(u)) - kappa) / scale

    def jac(u):
        ap, bp, lp, am, bm, lm = theta = _from_unconstrained(u)
        d_theta = np.array([ap, bp * (1.0 - bp), lp, am, bm * (1.0 - bm), lm])  # d theta/d u
        # W is G's Jacobian divided by the row weights s; against the
        # Jacobian of `fun` it carries the extra mismatch term
        # (kappa(theta) - kappa_hat) (x) d ln s, so it is exact only at a root
        # (relative error 1e-10 there, order 0.1-1 at 5-20% away).  It is
        # kept on purpose: from 410 starts perturbed by +-20% over 41 laws
        # hybr recovered 405 laws with it against 395 with the exact
        # cumulant Jacobian.
        return _mismatch_jacobian(kappa_hat, theta) / row_scale * d_theta

    return fun, jac


def fit_two_sided(k, init: TemperedStableParams,
                  tol: float = 1e-12, max_iter: int = 200) -> FitResult:
    """Solve the six-cumulant matching system from ``init``.

    One hybrid (Powell dogleg) solve runs in log/logit coordinates with a
    Jacobian that is exact at a root (see ``_scaled_system``); ``max_iter`` caps its function evaluations and
    ``iterations`` reports how many it used.  Convergence is declared when
    every cumulant mismatch is below ``tol`` relative to its natural scale
    max(|kappa_j|, k2^(j/2)).  On failure the final iterate is returned
    with ``converged=False``.
    """
    from scipy.optimize import root  # here, not at import: only a fit loads MINPACK

    kappa = _validate(k, tol, max_iter)
    _require_positive_betas(init, "the six-parameter solve")
    scale = np.maximum(np.abs(kappa), kappa[1] ** (_ORDERS / 2.0))
    fun, jac = _scaled_system(kappa, scale)

    u_init = _to_unconstrained(np.array(init.as_tuple()))
    sol = root(fun, u_init, jac=jac, method="hybr", tol=1e-14,
               options={"maxfev": max_iter})
    residual = float(np.max(np.abs(fun(sol.x))))
    params = TemperedStableParams.create(*_from_unconstrained(sol.x))
    return FitResult(params=params, residual=residual,
                     iterations=int(sol.nfev), converged=residual <= tol)


def _default_starts(kappa) -> list[TemperedStableParams]:
    """Moment-informed starting points for the multi-start fit."""
    kappa = _kappa_of(kappa)
    mu, k2 = kappa[0], kappa[1]
    sigma = math.sqrt(k2)
    starts = []
    for bp, bm in ((0.5, 0.5), (0.25, 0.25), (0.75, 0.75), (0.25, 0.75),
                   (0.75, 0.25), (0.5, 0.25), (0.25, 0.5), (0.6, 0.6)):
        for lam_scale in (1.0, 3.0):
            lam = lam_scale / sigma
            try:
                a_p, a_m = alpha_pair_for_moments(bp, lam, bm, lam, mu, k2)
                starts.append(TemperedStableParams.create(a_p, bp, lam, a_m, bm, lam))
            except DomainError:
                continue
            if len(starts) >= 8:
                return starts
    if not starts:
        raise InfeasibleCumulantsError("no feasible starting point found")
    return starts


def multistart_fit_two_sided(k, tol: float = 1e-12, max_iter: int = 200) -> FitResult:
    """Solve from each default start and keep the best residual, the first
    of equal ones.  The input gets ``fit_two_sided``'s check, so no start fails."""
    kappa = _validate(k, tol, max_iter)
    return min((fit_two_sided(kappa, start, tol=tol, max_iter=max_iter)
                for start in _default_starts(kappa)), key=lambda res: res.residual)


# -- path-based estimators -----------------------------------------------------


def alpha_from_jump_counts(counts, horizon: float) -> float:
    """Intensity estimate: mean band count per unit time."""
    counts = np.asarray(counts, dtype=float)
    if not (counts.size and ((counts >= 0.0) & (counts < math.inf)).all()):  # NaN fails both
        raise DomainError("jump counts must be a non-empty sequence of non-negative finite numbers")
    if not 0.0 < horizon < math.inf:
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    return float(np.sum(counts) / (counts.size * horizon))


def lambda_given_alpha_beta(alpha: float, beta: float, mean: float) -> float:
    """Tempering rate from the intensity, stability and observed mean drift."""
    if not (alpha > 0.0 and 0.0 <= beta < 1.0):
        raise DomainError("need alpha > 0 and beta in [0, 1)")
    if not (mean > 0.0):
        raise DomainError("mean of a subordinator must be positive")
    log_lam = (math.log(alpha) + gammaln(1.0 - beta) - math.log(mean)) / (1.0 - beta)
    if not abs(log_lam) < math.log(np.finfo(float).max):
        raise DomainError(f"tempering rate overflows or underflows: ln lambda = {log_lam:.6g}")
    return math.exp(log_lam)
