"""Transforms and exact parameter algebra of tempered stable laws.

Everything here is closed-form: cumulant generating functions, the
characteristic function (with its analytic extension into the strip used
by Fourier pricing), cumulants and moment statistics, and the three exact
operations on parameter records (convolution, scaling, time marginals).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError
from .params import CumulantVector, MomentStats, OneSidedParams, TemperedStableParams


def gamma_neg(beta: float) -> float:
    """Gamma evaluated at -beta for beta in (0,1), via Gamma(1-b)/(-b)."""
    if not (0.0 < beta < 1.0):
        raise DomainError(f"gamma_neg requires beta in (0,1), got {beta}")
    return _gamma(1.0 - beta) / (-beta)


def cgf_one_sided(p: OneSidedParams, z: float) -> float:
    """Cumulant generating function of a one-sided law at a real point.

    Defined for z <= lam when beta > 0 and z < lam in the Gamma case
    beta = 0.  Vanishes at z = 0.
    """
    a, b, lam = p.alpha, p.beta, p.lam
    if b == 0.0:
        if not (z < lam):
            raise DomainError(f"cgf requires z < lambda = {lam} for beta = 0, got z = {z}")
        return a * math.log(lam / (lam - z))
    if not (z <= lam):
        raise DomainError(f"cgf requires z <= lambda = {lam}, got z = {z}")
    return stable_leg_cgf(a, b, lam, z)


def stable_leg_cgf(alpha: float, beta: float, lam: float, z: float) -> float:
    """The closed form alpha * Gamma(-beta) * ((lam - z)^beta - lam^beta).

    Takes raw numbers for beta in (0, 1) so that a tilted rate may sit at
    the closed end lam = 0, which no parameter record admits.  A point
    z that overshoots lam by roundoff (lam computed as a difference of
    rates) counts as the endpoint z = lam.
    """
    shifted = lam - z
    if shifted < 0.0 and shifted > -1e-12 * max(lam, 1.0):
        shifted = 0.0
    if not (shifted >= 0.0 and lam >= 0.0):
        raise DomainError(
            f"cgf requires 0 <= lambda and z <= lambda, got lambda = {lam}, z = {z}"
        )
    return alpha * gamma_neg(beta) * (shifted**beta - lam**beta)


def cgf(p: TemperedStableParams, z: float) -> float:
    """Two-sided cumulant generating function: plus leg at z, minus leg at -z."""
    return cgf_one_sided(p.plus, z) + cgf_one_sided(p.minus, -z)


def _log_cf_leg(leg: OneSidedParams, w):
    """Log characteristic function of one leg, valid for complex w with
    Re(lam - i*w) > 0 (always true for real w)."""
    a, b, lam = leg.alpha, leg.beta, leg.lam
    w = np.asarray(w)
    arg = lam - 1j * w
    if np.any(arg.real <= 0.0):
        raise DomainError("characteristic function evaluated outside its analytic strip")
    # evaluate both terms through the same complex power routine so the
    # symbol vanishes exactly at w = 0
    if b == 0.0:
        return -a * (np.log(arg) - np.log(np.complex128(lam)))
    return a * gamma_neg(b) * (np.power(arg, b) - np.power(np.complex128(lam), b))


def log_cf(p: TemperedStableParams, z):
    """Log of the characteristic function; accepts scalars or arrays,
    real or complex (inside the strip -lam_minus < Im z < lam_plus)."""
    return _log_cf_leg(p.plus, z) + _log_cf_leg(p.minus, -np.asarray(z))


def cf(p: TemperedStableParams, z):
    """Characteristic function, principal-branch complex powers throughout."""
    out = np.exp(log_cf(p, z))
    if np.ndim(z) == 0:
        return complex(out)
    return out


def cumulant_one_sided(p: OneSidedParams, n: int) -> float:
    return _gamma(n - p.beta) * p.alpha / p.lam ** (n - p.beta)


def cumulant(p: TemperedStableParams, n: int) -> float:
    """n-th cumulant, n = 1..6.

    kappa_n = Gamma(n - b+) a+ / (l+)^(n-b+) + (-1)^n Gamma(n - b-) a- / (l-)^(n-b-)
    """
    if not (1 <= n <= 6):
        raise DomainError(f"cumulants are exposed for n = 1..6 only, got {n}")
    return cumulant_one_sided(p.plus, n) + (-1) ** n * cumulant_one_sided(p.minus, n)


def cumulant_vector(p: TemperedStableParams) -> CumulantVector:
    n = np.arange(1, 7)
    return CumulantVector(tuple(cumulant_one_sided(p.plus, n)
                                + (-1.0) ** n * cumulant_one_sided(p.minus, n)))


def moment_stats(p: TemperedStableParams) -> MomentStats:
    """Mean, variance, Charliers skewness and kurtosis from the cumulants.

    Raises DomainError when a cumulant or a ratio of them overflows the
    float range, instead of passing inf or nan on.
    """
    try:
        with np.errstate(all="ignore"):
            k1, k2, k3, k4 = (cumulant(p, n) for n in range(1, 5))
            k2_sq = k2**2
            skewness, excess = k3 / k2**1.5, k4 / k2_sq
        finite = all(math.isfinite(v) for v in (k1, k2, k3, k4, k2_sq, skewness, excess))
    except OverflowError:  # Python float powers of an extreme rate
        finite = False
    if not finite:
        raise DomainError(
            "moment statistics overflow for this law: its first four "
            "cumulants, squared variance or their ratios are not finite"
        )
    return MomentStats(mean=k1, variance=k2, skewness=skewness, kurtosis=3.0 + excess)


def mean(p: TemperedStableParams) -> float:
    return cumulant(p, 1)


def std(p: TemperedStableParams) -> float:
    return math.sqrt(cumulant(p, 2))


def convolve(p1: TemperedStableParams, p2: TemperedStableParams) -> TemperedStableParams:
    """Law of the sum of independent variables: alpha legs add.

    Requires both laws to share the stability and tempering parameters
    exactly; anything else leaves the family.
    """
    for leg in ("plus", "minus"):
        l1, l2 = getattr(p1, leg), getattr(p2, leg)
        if l1.beta != l2.beta or l1.lam != l2.lam:
            raise DomainError(
                f"convolve requires matching beta/lambda on the {leg} leg: "
                f"({l1.beta}, {l1.lam}) vs ({l2.beta}, {l2.lam})"
            )
    return TemperedStableParams.create(
        p1.plus.alpha + p2.plus.alpha, p1.plus.beta, p1.plus.lam,
        p1.minus.alpha + p2.minus.alpha, p1.minus.beta, p1.minus.lam,
    )


def scale(p: TemperedStableParams, rho: float) -> TemperedStableParams:
    """Law of rho * X for rho > 0."""
    if not (rho > 0.0):
        raise DomainError(f"scale factor must be positive, got {rho}")
    return TemperedStableParams.create(
        p.plus.alpha * rho**p.plus.beta, p.plus.beta, p.plus.lam / rho,
        p.minus.alpha * rho**p.minus.beta, p.minus.beta, p.minus.lam / rho,
    )


def marginal(p: TemperedStableParams, t: float) -> TemperedStableParams:
    """Law of the process increment over a window of length t."""
    if not (t > 0.0):
        raise DomainError(f"time must be positive, got {t}")
    return TemperedStableParams.create(
        p.plus.alpha * t, p.plus.beta, p.plus.lam,
        p.minus.alpha * t, p.minus.beta, p.minus.lam,
    )


def third_moment_one_sided(p: OneSidedParams) -> float:
    """Third raw moment of a one-sided law, k1^3 + 3 k1 k2 + k3."""
    k1, k2, k3 = (cumulant_one_sided(p, n) for n in (1, 2, 3))
    return k1**3 + 3.0 * k1 * k2 + k3
