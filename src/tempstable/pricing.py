"""European option pricing in the exponential stock model.

The call price is a contour integral of the characteristic function
along a horizontal line inside the strip of analyticity, in one
trapezoid pass on a grid planned from the law; any contour height
between 1 and the upward tempering rate gives the same price, which
doubles as a built-in correctness check.  One grid serves every strike
the checks admit, so the plan of one law, maturity, height and rate holds
the weighted transform and is cached, and the strikes of one maturity
share it; each strike's sum is ``core._fourier_sum``, the density's too.  A
Monte-Carlo pricer over exact terminal draws serves as the independent
cross-check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (_factored_blocks, _fourier_sum, _integer_at_least, _scaled_exp, cgf, log_cf,
                   marginal)
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
    31 heights ``lam``.  A strike whose grid needs ``2^20`` nodes or more
    raises ``ConvergenceError``, and so do terms of the sum
    above ``1e6`` times spot (``K e^{-rT - nu k + T Psi(nu)} / (2 pi nu
    (nu-1))``, the largest one), whose cancellation error of about
    ``4e-16`` times that size would swamp the price.  Prices are
    independent of ``nu`` within (1, lambda+) to well below 1e-8 of spot.

    The plan of ``(p_q, T, nu, r)`` (``_contour_plan``, an LRU cache of 16)
    holds ``Psi(1)``, the largest term, the node count and the weighted
    transform on one grid that serves every strike the checks admit: 16 bytes
    a node, 16 MiB at the cap, 256 MiB for 16 plans at worst.  Each strike's
    sum is one ``core._fourier_sum``; no price depends on what the cache holds.
    """
    if nu is None:
        nu = default_contour(p_q)
    lam_plus = p_q.plus.lam
    if not (1.0 < nu < lam_plus):
        raise DomainError(f"contour height must lie in (1, {lam_plus}), got {nu}")

    mat = option.maturity
    psi1, log_term0, need, _, blocks, du = _contour_plan(p_q, mat, nu, market.r)
    drift_gap = abs(psi1 - (market.r - market.q_div))
    if drift_gap > 1e-8:
        warnings.warn(
            f"pricing law is not a martingale law: |Psi(1) - (r - q)| = {drift_gap:.2e}",
            RuntimeWarning,
            stacklevel=2,
        )

    k = math.log(option.strike) - math.log(market.s0)
    log_term = log_term0 - (nu - 1.0) * k  # ln of the sum's largest term over spot
    if not log_term <= _LOG_CONDITION:
        raise ConvergenceError(f"pricing integrand terms reach 10^{log_term / math.log(10.0):.1f}"
                               f" of spot (cap 10^6) at contour height {nu} in (1, {lam_plus})")
    nodes = need(k)
    if not nodes < _MAX_NODES:
        raise ConvergenceError(f"pricing grid needs {nodes:.3g} nodes (cap {_MAX_NODES}) "
                               f"at contour height {nu} in (1, {lam_plus})")
    return (-2.0 * market.s0 * nu * (nu - 1.0) * math.exp(log_term)
            * float(_fourier_sum(-k, blocks, du)))


@functools.lru_cache(maxsize=16)
def _contour_plan(p_q: TemperedStableParams, maturity: float, nu: float, r: float) -> tuple:
    """``(Psi(1), log_term0, need, n, blocks, du)``.  At the log-strike ``k``
    the sum's largest term over spot is ``e^{log_term0 - (nu - 1) k}``, and
    the grid needs ``need(k) = U P(k) / 2 pi`` nodes.  ``blocks`` is the
    trapezoid-weighted transform on ``n + 1`` nodes over ``[0, U]``,
    read-only, in ``core._factored_blocks``'s layout, ``du = U / n``, and
    ``n`` is ``need`` at the least ``k`` the conditioning check admits, rounded
    up and capped at ``2^20``; 0, with no grid, where ``need(inf)`` reaches it."""
    psi1, p_t = cgf(p_q, 1.0), marginal(p_q, maturity)
    log_term0 = cgf(p_t, nu) - r * maturity - math.log(2.0 * math.pi * nu * (nu - 1.0))
    p_nu = bilateral_esscher(p_t, EsscherPair(nu, -nu))

    def transform(u):
        # the integrand but e^{T Psi(nu)} and e^{iuk}, at most 1/(nu(nu-1)):
        # on z = u + i nu, log_cf(p_t, -z) = T Psi(nu) + log_cf(p_nu, -u)
        z = u + 1j * nu
        return np.exp(log_cf(p_nu, -u)) / (z * (z - 1j))

    h = np.abs(transform(np.append(0.0, _EXTENTS)))
    decayed = np.flatnonzero(h[1:] < 1e-14 * h[0])
    if decayed.size == 0:
        raise ConvergenceError("pricing integrand does not decay; check parameters")
    upper = float(_EXTENTS[decayed[0]])
    lam = nu + (p_q.plus.lam - nu) * _BOUND_HEIGHTS
    tail = np.real(log_cf(p_t, -1j * lam))
    floor = (_LOG_ALIAS + max(maturity * psi1, 0.0)) / (nu - 1.0)

    def need(k: float) -> float:
        growth = tail - (lam - 1.0) * k
        period = max(floor, float(np.min((_LOG_ALIAS + np.maximum(growth, 0.0)) / (lam - nu))))
        return upper * period / (2.0 * math.pi)

    if not need(math.inf) < _MAX_NODES:  # tail is finite: log_cf refuses past the float range
        return psi1, log_term0, need, 0, None, math.nan
    k_min = (log_term0 - _LOG_CONDITION) / (nu - 1.0)
    n = math.ceil(min(need(k_min), _MAX_NODES))  # need is inf where r T overflows
    du = upper / n
    c = transform(du * np.arange(n + 1)) * du
    c[[0, -1]] *= 0.5
    blocks = _factored_blocks(c)
    blocks.flags.writeable = False
    return psi1, log_term0, need, n, blocks, du


def mc_call_price(p_q: TemperedStableParams, market: MarketConfig,
                  option: OptionSpec, n_paths: int, seed: int) -> tuple[float, float]:
    """Price estimate and standard error over exact terminal draws: the mean
    discounted put payoff plus ``e^{-rT}(S0 e^{T Psi(1)} - K)`` by parity.
    The put payoff is bounded by K, so its error bar holds even when the
    call payoff has infinite variance (lambda+ <= 2)."""
    _integer_at_least("n_paths", n_paths, 1000)  # fewer give no meaningful estimate
    _integer_at_least("seed", seed, 0)
    forward = _scaled_exp("the forward", market.s0, option.maturity * cgf(p_q, 1.0))
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
