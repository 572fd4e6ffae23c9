"""Normal-approximation machinery.

Matching the intensity legs to a target mean/variance, the uniform
Kolmogorov bound on the distance to the matching normal law (with the
best published absolute constant 0.4784), and the explicit parameter
sequence that converges to a prescribed normal at rate 1/sqrt(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gamma as _gamma

from .core import moment_stats
from .errors import DomainError
from .params import TemperedStableParams

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

    Solves the two-by-two linear system linking (alpha+, alpha-) to the
    first two cumulants for fixed stability/tempering parameters.  Fails
    when either closed-form numerator is nonpositive (no valid law); for
    mu = 0 both numerators are automatically positive.
    """
    if not (sigma2 > 0.0):
        raise DomainError("target variance must be positive")
    for b, l, name in ((beta_plus, lambda_plus, "plus"), (beta_minus, lambda_minus, "minus")):
        if not (0.0 <= b < 1.0 and l > 0.0):
            raise DomainError(f"invalid shape/rate on the {name} leg: beta={b}, lambda={l}")
    denom = (1.0 - beta_minus) * lambda_plus + (1.0 - beta_plus) * lambda_minus
    num_plus = (1.0 - beta_minus) * mu + lambda_minus * sigma2
    num_minus = (beta_plus - 1.0) * mu + lambda_plus * sigma2
    if num_plus <= 0.0 or num_minus <= 0.0:
        raise DomainError(
            "no law with these shape/rate parameters attains "
            f"mean {mu} and variance {sigma2}"
        )
    a_plus = lambda_plus ** (2.0 - beta_plus) * num_plus / (_gamma(1.0 - beta_plus) * denom)
    a_minus = lambda_minus ** (2.0 - beta_minus) * num_minus / (_gamma(1.0 - beta_minus) * denom)
    return a_plus, a_minus


def berry_esseen_bound(p: TemperedStableParams) -> BerryEsseenReport:
    """Evaluate the closed-form Kolmogorov bound for the law ``p``."""
    stats = moment_stats(p)
    mu, sigma2 = stats.mean, stats.variance
    sigma = math.sqrt(sigma2)
    bp, lp = p.plus.beta, p.plus.lam
    bm, lm = p.minus.beta, p.minus.lam
    denom = (1.0 - bm) * lp + (1.0 - bp) * lm
    term_plus = (1.0 - bp) * (2.0 - bp) * ((1.0 - bm) * mu / sigma**3 + lm / sigma) / (lp * denom)
    term_minus = (1.0 - bm) * (2.0 - bm) * ((bp - 1.0) * mu / sigma**3 + lp / sigma) / (lm * denom)
    bound = 32.0 * BERRY_ESSEEN_C * (term_plus + term_minus)
    return BerryEsseenReport(bound=bound, mu=mu, sigma2=sigma2)


def clt_min_index(beta_plus: float, lambda_plus: float,
                  beta_minus: float, lambda_minus: float,
                  mu: float, sigma2: float) -> int:
    """Smallest sequence index with both intensity legs positive."""
    if not (sigma2 > 0.0):
        raise DomainError("target variance must be positive")
    n0 = 1
    if mu < 0.0:
        # plus-leg numerator (1-b-)*mu + l- * sigma2 * sqrt(n) must be positive
        root = -(1.0 - beta_minus) * mu / (lambda_minus * sigma2)
        n0 = max(n0, math.floor(root**2) + 1)
    elif mu > 0.0:
        root = (1.0 - beta_plus) * mu / (lambda_plus * sigma2)
        n0 = max(n0, math.floor(root**2) + 1)
    return n0


def clt_sequence(mu: float, sigma2: float,
                 beta_plus: float, lambda_plus: float,
                 beta_minus: float, lambda_minus: float,
                 n: int) -> TemperedStableParams:
    """n-th element of the sequence converging to Normal(mu, sigma2).

    Every element has mean ``mu`` and variance ``sigma2`` exactly; its
    Kolmogorov distance to the normal decays like 1/sqrt(n).
    """
    n0 = clt_min_index(beta_plus, lambda_plus, beta_minus, lambda_minus, mu, sigma2)
    if n < n0:
        raise DomainError(f"sequence index n={n} below the first feasible index n0={n0}")
    rn = math.sqrt(n)
    a_plus, a_minus = alpha_pair_for_moments(
        beta_plus, lambda_plus * rn, beta_minus, lambda_minus * rn, mu, sigma2
    )
    return TemperedStableParams.create(
        a_plus, beta_plus, lambda_plus * rn,
        a_minus, beta_minus, lambda_minus * rn,
    )
