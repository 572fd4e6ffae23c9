"""European option pricing in the exponential stock model.

The call price is a contour integral of the characteristic function
along a horizontal line inside the strip of analyticity, in one
trapezoid pass on a grid planned from the law; any contour height
between 1 and the upward tempering rate gives the same price, which
doubles as a built-in correctness check.  Only the grid's step depends
on the strike, so the plan and the weighted transform of one law,
maturity and height are cached, and the strikes of one maturity share
them.  A Monte-Carlo pricer over exact terminal draws serves as the
independent cross-check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import cgf, log_cf, marginal
from .density import _factored_blocks, _fourier_sum
from .errors import ConvergenceError, DomainError
from .measure import EsscherPair, bilateral_esscher, check_market
from .params import TemperedStableParams
from .simulate import leg_generators, sample_one_sided

#: candidate extents of the integral, node cap of one price's grid, ln(1/eps)
#: for the aliasing error eps*S0 allowed on each side, ln of the largest sum
#: term over spot (its cancellation error is 4e-16 of it), and the fractions
#: of (nu, lambda+) where the tail bound is tried
_EXTENTS = 64.0 * 2.0 ** np.arange(60)
_MAX_NODES = 2**20
_LOG_ALIAS = math.log(1e13)
_LOG_CONDITION = math.log(1e6)
_BOUND_HEIGHTS = np.linspace(0.0, 1.0, 33)[1:-1]


@dataclass(frozen=True)
class MarketConfig:
    s0: float
    r: float
    q_div: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.s0 < math.inf):
            raise DomainError(f"spot must be positive and finite, got {self.s0}")
        check_market(self.r, self.q_div)


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    maturity: float

    def __post_init__(self):
        if not (0.0 < self.strike < math.inf and 0.0 < self.maturity < math.inf):
            raise DomainError("strike and maturity must be positive and finite")


def default_contour(p_q: TemperedStableParams) -> float:
    """Midpoint of the admissible contour heights (1, lambda+)."""
    if not (p_q.plus.lam > 1.0):
        raise DomainError(f"pricing requires lambda+ > 1, got {p_q.plus.lam}")
    return 1.0 + 0.5 * (p_q.plus.lam - 1.0)


def call_price_fourier(p_q: TemperedStableParams, market: MarketConfig,
                       option: OptionSpec, nu: float | None = None) -> float:
    """Call price by one trapezoid pass along the contour at height ``nu``.

    The extent ``U`` is the first of 64, 128, ..., ``64 * 2^59`` (all
    evaluated in one call) where the integrand is below 1e-14 of its value
    at 0.  The trapezoid sum with step ``2 pi / P`` equals the
    damped price ``e^{(nu-1)k} C(k)`` summed over log-strikes ``k + jP``.
    As ``C <= S0 e^{T Psi(1)}`` and, for ``lam`` in ``(nu, lambda+)``,
    ``C(k) <= S0 e^{T Psi(lam) - (lam-1)k}`` (``r >= 0``, ``Psi`` the cgf),
    the aliased terms on each side stay below about ``1e-13 S0`` once
    ``(nu-1)P >= L + (T Psi(1))+`` and ``(lam-nu)P >= L + (T Psi(lam) -
    (lam-1)k)+``, with ``L = ln 1e13``; ``P`` is the least such period over
    31 heights ``lam``.  A grid of more than ``2^20`` nodes raises
    ``ConvergenceError`` before it is evaluated, and so do terms of the sum
    above ``1e6`` times spot (``K e^{-rT - nu k + T Psi(nu)} / (2 pi nu
    (nu-1))``, the largest one), whose cancellation error of about
    ``4e-16`` times that size would swamp the price.  Prices are
    independent of ``nu`` within (1, lambda+) to well below 1e-8 of spot.

    Only ``P`` depends on the strike.  The rest is kept in two LRU caches:
    the plan of ``(p_q, T, nu)`` (16 entries of about 2 KiB), and the
    read-only trapezoid-weighted transform on ``n + 1`` nodes over ``[0,
    U]``, ``n`` the least power of two at or above the node count, so
    that nearby strikes share a grid (4 entries of about ``16 n`` bytes:
    16 MiB each at the ``2^20`` cap, 64 MiB at most).  Each strike's sum
    ``Re sum c_j e^{i k u_j}`` is then one ``density._fourier_sum``; a
    price does not depend on what the caches hold.
    """
    if nu is None:
        nu = default_contour(p_q)
    lam_plus = p_q.plus.lam
    if not (1.0 < nu < lam_plus):
        raise DomainError(f"contour height must lie in (1, {lam_plus}), got {nu}")

    psi1 = cgf(p_q, 1.0)
    drift_gap = abs(psi1 - (market.r - market.q_div))
    if drift_gap > 1e-8:
        warnings.warn(
            f"pricing law is not a martingale law: |Psi(1) - (r - q)| = {drift_gap:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )

    mat = option.maturity
    k = math.log(option.strike) - math.log(market.s0)
    # ln of the sum's largest term, the one at u = 0, over spot
    log_term = (cgf(marginal(p_q, mat), nu) - (nu - 1.0) * k
                - market.r * mat - math.log(2.0 * math.pi * nu * (nu - 1.0)))
    if not log_term <= _LOG_CONDITION:
        raise ConvergenceError(f"pricing integrand terms reach 10^{log_term / math.log(10.0):.1f}"
                               f" of spot (cap 10^6) at contour height {nu} in (1, {lam_plus})")

    upper, lam, tail = _contour_plan(p_q, mat, nu)[2:]
    growth = tail - (lam - 1.0) * k
    period = max((_LOG_ALIAS + max(mat * psi1, 0.0)) / (nu - 1.0),
                 float(np.min((_LOG_ALIAS + np.maximum(growth, 0.0)) / (lam - nu))))
    nodes = upper * period / (2.0 * math.pi)
    if not nodes < _MAX_NODES:
        raise ConvergenceError(f"pricing grid needs {nodes:.3g} nodes (cap {_MAX_NODES}) "
                               f"at contour height {nu} in (1, {lam_plus})")
    blocks, du = _weighted_transform(p_q, mat, nu, 1 << (math.ceil(nodes) - 1).bit_length())
    integral = 2.0 * float(_fourier_sum(-k, blocks, du, _vector_product))
    prefactor = -math.exp(-market.r * mat) * option.strike * math.exp(-nu * k) / (2.0 * math.pi)
    return prefactor * integral


def _vector_product(e: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``e @ blocks`` on the calling thread.  BLAS splits a vector product
    of 4096 or more entries across threads, and the wake-up of the second
    one costs more than the product: 8 ms per call on a busy 2-CPU host."""
    return np.einsum("i,ij->j", e, blocks)


def _transform(p_nu: TemperedStableParams, psi_nu: float, nu: float, u: np.ndarray):
    """The call integrand without its strike factor e^{iuk}: on the contour
    z = u + i nu, log_cf(p_t, -z) = psi_nu + log_cf(p_nu, -u) for the
    nu-tilted law p_nu, whose transform is taken on the real axis."""
    z = u + 1j * nu
    return np.exp(psi_nu + log_cf(p_nu, -u)) / (z * (z - 1j))


@functools.lru_cache(maxsize=16)
def _contour_plan(p_q: TemperedStableParams, maturity: float, nu: float) -> tuple:
    """``(psi_nu, p_nu, U, lam, Re log_cf(p_t, -i lam))`` of one law, maturity
    and height: everything of a price's plan but the strike's period."""
    p_t = marginal(p_q, maturity)
    psi_nu = cgf(p_t, nu)
    p_nu = bilateral_esscher(p_t, EsscherPair(nu, -nu))
    h = np.abs(_transform(p_nu, psi_nu, nu, np.append(0.0, _EXTENTS)))
    decayed = np.flatnonzero(h[1:] < 1e-14 * h[0])
    if decayed.size == 0:
        raise ConvergenceError("pricing integrand does not decay; check parameters")
    lam = nu + (p_q.plus.lam - nu) * _BOUND_HEIGHTS
    tail = np.real(log_cf(p_t, -1j * lam))
    lam.flags.writeable = tail.flags.writeable = False
    return psi_nu, p_nu, float(_EXTENTS[decayed[0]]), lam, tail


@functools.lru_cache(maxsize=4)
def _weighted_transform(p_q: TemperedStableParams, maturity: float, nu: float,
                        n: int) -> tuple[np.ndarray, float]:
    """The trapezoid weights times ``_transform`` on ``n + 1`` nodes over
    ``[0, U]``, read-only, in ``density._factored_blocks``'s layout; and
    the step."""
    psi_nu, p_nu, upper = _contour_plan(p_q, maturity, nu)[:3]
    du = upper / n
    c = _transform(p_nu, psi_nu, nu, du * np.arange(n + 1)) * du
    c[[0, -1]] *= 0.5
    blocks = _factored_blocks(c)
    blocks.flags.writeable = False
    return blocks, du


def mc_call_price(p_q: TemperedStableParams, market: MarketConfig,
                  option: OptionSpec, n_paths: int, seed: int) -> tuple[float, float]:
    """Price estimate and standard error over exact terminal draws: the mean
    discounted put payoff plus ``e^{-rT}(S0 e^{T Psi(1)} - K)`` by parity.
    The put payoff is bounded by K, so its error bar holds even when the
    call payoff has infinite variance (lambda+ <= 2)."""
    if n_paths < 1000:
        raise DomainError("need at least 1000 paths for a meaningful estimate")
    if not seed >= 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    forward = market.s0 * math.exp(option.maturity * cgf(p_q, 1.0))
    x_plus, x_minus = (sample_one_sided(leg, option.maturity, rng, size=n_paths)
                       for leg, rng in zip((p_q.plus, p_q.minus), leg_generators(seed)))
    s_t = market.s0 * np.exp(x_plus - x_minus)
    disc = math.exp(-market.r * option.maturity)
    put = disc * np.maximum(option.strike - s_t, 0.0)
    price = float(np.mean(put)) + disc * (forward - option.strike)
    stderr = float(np.std(put, ddof=1) / math.sqrt(n_paths))
    return price, stderr


def put_price(p_q: TemperedStableParams, market: MarketConfig,
              option: OptionSpec, nu: float | None = None) -> float:
    """Put via parity against the forward of the martingale-measure law."""
    return parity_put(call_price_fourier(p_q, market, option, nu), market, option)


def parity_put(call: float, market: MarketConfig, option: OptionSpec) -> float:
    """Put price from the call price of the same option by put-call parity."""
    forward = market.s0 * math.exp(-market.q_div * option.maturity)
    return call - forward + option.strike * math.exp(-market.r * option.maturity)
