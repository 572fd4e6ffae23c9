"""Normal-approximation machinery.

Matching the intensity legs to a target mean/variance, the uniform
Kolmogorov bound on the distance to the matching normal law (with the
best published absolute constant 0.4784), and the explicit parameter
sequence that converges to a prescribed normal at rate 1/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _integer_at_least, _leg_kappas, _moment_stats, _signed_sum
from .errors import DomainError
from .params import OneSidedParams, TemperedStableParams

#: best published value of the absolute Berry-Esseen constant
BERRY_ESSEEN_C = 0.4784


@dataclass(frozen=True)
class BerryEsseenReport:
    """Uniform bound on sup_x |F_X(x) - Normal(mu, sigma2)(x)|.

    ``vacuous`` marks bounds >= 1, which carry no information since the
    Kolmogorov distance never exceeds 1.
    """

    bound: float
    mu: float
    sigma2: float

    @property
    def vacuous(self) -> bool:
        return self.bound >= 1.0


def alpha_pair_for_moments(beta_plus: float, lambda_plus: float,
                           beta_minus: float, lambda_minus: float,
                           mu: float, sigma2: float) -> tuple[float, float]:
    """Intensities making the law have mean ``mu`` and variance ``sigma2``.

    The first two cumulants are linear in (alpha+, alpha-) for fixed
    stability/tempering parameters, so this is a two-by-two Cramer solve on
    each leg's unit-intensity cumulants from one ``_leg_kappas`` pass.  Fails
    when either intensity is nonpositive or leaves the float range (no valid
    law), as where both second cumulants underflow to 0 and so does the
    determinant; never for mu = 0 inside the float range.
    """
    if not (sigma2 > 0.0):
        raise DomainError("target variance must be positive")
    (c1p, c2p), (c1m, c2m) = (map(np.float64, _leg_kappas(1.0, leg.beta, leg.lam)[0][:2])
                              for leg in (OneSidedParams(1.0, beta_plus, lambda_plus),
                                          OneSidedParams(1.0, beta_minus, lambda_minus)))
    det = c1p * c2m + c1m * c2p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused below
        a_plus = (mu * c2m + sigma2 * c1m) / det
        a_minus = (sigma2 * c1p - mu * c2p) / det
    if not (0.0 < a_plus < math.inf and 0.0 < a_minus < math.inf):
        raise DomainError(
            "no law with these shape/rate parameters attains "
            f"mean {mu} and variance {sigma2}"
        )
    return a_plus, a_minus


def berry_esseen_bound(p: TemperedStableParams) -> BerryEsseenReport:
    """Evaluate the closed-form Kolmogorov bound for the law ``p``.  With the
    intensities written through the moment match, the paper's bound is
    32 C (kappa3+ + kappa3-) / sigma^3, from one ``_leg_kappas`` pass per leg."""
    plus, minus = (_leg_kappas(leg.alpha, leg.beta, leg.lam)[0] for leg in (p.plus, p.minus))
    stats = _moment_stats(_signed_sum(plus, minus))
    third = np.float64(plus[2]) + np.float64(minus[2])
    bound = 32.0 * BERRY_ESSEEN_C * third / stats.variance**1.5
    return BerryEsseenReport(bound=bound, mu=stats.mean, sigma2=stats.variance)


def clt_min_index(beta_plus: float, lambda_plus: float,
                  beta_minus: float, lambda_minus: float,
                  mu: float, sigma2: float) -> int:
    """Smallest sequence index with both intensity legs positive, that is
    (1-b-) mu + l- sigma2 sqrt(n) > 0 and (b+ - 1) mu + l+ sigma2 sqrt(n) > 0."""
    if not (sigma2 > 0.0 and math.isfinite(mu)):
        raise DomainError(f"need a positive target variance and a finite mean, got {sigma2}, {mu}")
    for beta, lam in ((beta_plus, lambda_plus), (beta_minus, lambda_minus)):
        OneSidedParams(1.0, beta, lam)  # a DomainError outside a leg's domain
    root = max(0.0, -(1.0 - beta_minus) * mu / (lambda_minus * sigma2),
               (1.0 - beta_plus) * mu / (lambda_plus * sigma2))
    return math.floor(root**2) + 1


def clt_sequence(mu: float, sigma2: float,
                 beta_plus: float, lambda_plus: float,
                 beta_minus: float, lambda_minus: float,
                 n: int) -> TemperedStableParams:
    """n-th element of the sequence converging to Normal(mu, sigma2).

    Every element has variance ``sigma2`` to rounding, and its Kolmogorov
    distance to the normal decays like 1/sqrt(n).  Its mean is the
    difference of the two leg means, which grow like sqrt(n), so it equals
    ``mu`` only to an absolute error of about eps times the plus leg's mean:
    at (0, 1, 0.5, 1, 0.0, 1, 10**18) the mean is -1.19e-7, against
    eps * kappa1+ = 1.48e-7.
    """
    n0 = clt_min_index(beta_plus, lambda_plus, beta_minus, lambda_minus, mu, sigma2)
    n = _integer_at_least("the sequence index n", n, n0)
    rn = math.sqrt(n)
    a_plus, a_minus = alpha_pair_for_moments(
        beta_plus, lambda_plus * rn, beta_minus, lambda_minus * rn, mu, sigma2
    )
    return TemperedStableParams.create(
        a_plus, beta_plus, lambda_plus * rn,
        a_minus, beta_minus, lambda_minus * rn,
    )
