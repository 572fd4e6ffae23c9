"""European option pricing in the exponential stock model.

The call price is a contour integral of the characteristic function
along a horizontal line inside the strip of analyticity; any contour
height between 1 and the upward tempering rate gives the same price,
which doubles as a built-in correctness check.  A Monte-Carlo pricer
over exact terminal draws serves as the independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import cgf, log_cf, marginal
from .errors import ConvergenceError, DomainError
from .params import TemperedStableParams
from .simulate import sample_one_sided


@dataclass(frozen=True)
class MarketConfig:
    s0: float
    r: float
    q_div: float = 0.0

    def __post_init__(self):
        if not (self.s0 > 0.0):
            raise DomainError("spot must be positive")
        if not (self.r >= self.q_div >= 0.0):
            raise DomainError(
                f"rates must satisfy r >= q >= 0, got r={self.r}, q={self.q_div}"
            )


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    maturity: float

    def __post_init__(self):
        if not (self.strike > 0.0 and self.maturity > 0.0):
            raise DomainError("strike and maturity must be positive")


def default_contour(p_q: TemperedStableParams) -> float:
    """Midpoint of the admissible contour heights (1, lambda+)."""
    if not (p_q.plus.lam > 1.0):
        raise DomainError("pricing requires lambda+ > 1")
    return 1.0 + 0.5 * (p_q.plus.lam - 1.0)


def call_price_fourier(p_q: TemperedStableParams, market: MarketConfig,
                       option: OptionSpec, nu: float | None = None,
                       nodes: int = 2**14, max_doublings: int = 6) -> float:
    """Call price by contour integration at height ``nu``.

    The trapezoid discretization doubles its truncation point until the
    integrand magnitude is negligible and doubles its node count until
    two successive prices agree; contour independence within (1, lambda+)
    holds to well below 1e-8 of spot.
    """
    lam_plus = p_q.plus.lam
    if not (lam_plus > 1.0):
        raise DomainError(f"pricing requires lambda+ > 1, got {lam_plus}")
    if nu is None:
        nu = default_contour(p_q)
    if not (1.0 < nu < lam_plus):
        raise DomainError(f"contour height must lie in (1, {lam_plus}), got {nu}")

    drift_gap = abs(cgf(p_q, 1.0) - (market.r - market.q_div))
    if drift_gap > 1e-8:
        warnings.warn(
            f"pricing law is not a martingale law: |Psi(1) - (r - q)| = {drift_gap:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )

    p_t = marginal(p_q, option.maturity)
    k = math.log(option.strike / market.s0)

    def integrand(u):
        z = u + 1j * nu  # contour point; the transform is evaluated at -z
        log_phi = log_cf(p_t, -z)
        return np.exp(1j * u * k + log_phi) / (z * (z - 1j))

    h0 = abs(integrand(np.array([0.0]))[0])
    upper = 64.0
    for _ in range(60):
        if abs(integrand(np.array([upper]))[0]) < 1e-14 * h0:
            break
        upper *= 2.0
    else:
        raise ConvergenceError("pricing integrand does not decay; check parameters")

    prefactor = -math.exp(-market.r * option.maturity) * option.strike \
        * math.exp(-nu * k) / (2.0 * math.pi)
    price_prev = None
    n = nodes
    for _ in range(max_doublings + 1):
        u = np.linspace(0.0, upper, n + 1)
        vals = integrand(u)
        integral = 2.0 * float(np.real(np.trapezoid(vals, u)))
        price = prefactor * integral
        if price_prev is not None and abs(price - price_prev) <= max(
            1e-11 * market.s0, 1e-13
        ):
            return price
        price_prev = price
        n *= 2
    raise ConvergenceError(
        "pricing quadrature did not stabilize; increase nodes or max_doublings, "
        "or move the contour height nu toward 1 for deep in-the-money strikes"
    )


def mc_call_price(p_q: TemperedStableParams, market: MarketConfig,
                  option: OptionSpec, n_paths: int, seed: int) -> tuple[float, float]:
    """Discounted-payoff Monte Carlo over exact terminal draws.

    Returns the price estimate and its standard error.
    """
    if n_paths < 1000:
        raise DomainError("need at least 1000 paths for a meaningful estimate")
    ss = np.random.SeedSequence(seed)
    child_plus, child_minus = ss.spawn(2)
    x_plus = sample_one_sided(p_q.plus, option.maturity,
                              np.random.Generator(np.random.Philox(child_plus)),
                              size=n_paths)
    x_minus = sample_one_sided(p_q.minus, option.maturity,
                               np.random.Generator(np.random.Philox(child_minus)),
                               size=n_paths)
    s_t = market.s0 * np.exp(x_plus - x_minus)
    disc = math.exp(-market.r * option.maturity)
    payoff = disc * np.maximum(s_t - option.strike, 0.0)
    price = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_paths))
    return price, stderr


def put_price(p_q: TemperedStableParams, market: MarketConfig,
              option: OptionSpec, nu: float | None = None) -> float:
    """Put via parity against the forward of the martingale-measure law."""
    call = call_price_fourier(p_q, market, option, nu)
    forward = market.s0 * math.exp(-market.q_div * option.maturity)
    return call - forward + option.strike * math.exp(-market.r * option.maturity)
