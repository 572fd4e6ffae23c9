"""Exact sampling of one-sided increments, path simulation with jump
records, and empirical path diagnostics.

The one-sided sampler is exact: a positive stable proposal (Kanter's
representation) is exponentially tilted by rejection, and draws with a
large normalization are split into independent sub-increments so the
per-proposal acceptance never falls below 1/e.  Paths are sums of
per-step increments; when a jump record is requested, jumps above the
floor come from an exact compound-Poisson layer and the sub-floor
remainder is folded into a moment-matched Gamma increment per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as _gamma, gammainc, gammaincc

from .core import cumulant_one_sided
from .errors import ConvergenceError, DomainError
from .params import OneSidedParams, TemperedStableParams

_MAX_REJECTION_ROUNDS = 1000
_CHUNK_SLOTS = 1 << 22


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

    @property
    def jumps(self):
        """Jump record as (time, signed size) pairs."""
        return list(zip(self.jump_times.tolist(), self.jump_sizes.tolist()))


def _kanter_stable(c: float, beta: float, n: int, rng) -> np.ndarray:
    """Positive stable draws with Laplace transform exp(-c s^beta)."""
    u = rng.uniform(0.0, 1.0, n)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    w = rng.exponential(1.0, n)
    a = (
        np.sin((1.0 - beta) * np.pi * u)
        * np.sin(beta * np.pi * u) ** (beta / (1.0 - beta))
        / np.sin(np.pi * u) ** (1.0 / (1.0 - beta))
    )
    return c ** (1.0 / beta) * (a / w) ** ((1.0 - beta) / beta)


def _tempered_stable_fill(c_sub: float, beta: float, lam: float, n: int, rng) -> np.ndarray:
    """n accepted draws of the lam-tilted stable law with scale c_sub."""
    out = np.empty(n)
    pending = np.arange(n)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            return out
        s = _kanter_stable(c_sub, beta, pending.size, rng)
        acc = rng.uniform(0.0, 1.0, pending.size) < np.exp(-lam * s)
        out[pending[acc]] = s[acc]
        pending = pending[~acc]
    raise ConvergenceError(
        f"tilting rejection did not terminate (beta={beta}, lambda={lam})"
    )


def sample_one_sided(p: OneSidedParams, t: float, rng, size=None):
    """Exact draw(s) of the one-sided law at time t.

    Gamma case beta = 0 delegates to the Gamma sampler; beta > 0 uses
    tilted-stable rejection with sub-increment splitting, and a draw of
    more sub-draws than one chunk holds is a ``DomainError`` before any
    allocation.  ``size=None`` returns a scalar.
    """
    if not (t > 0.0):
        raise DomainError("time must be positive")
    n = 1 if size is None else int(size)
    if n < 0:
        raise DomainError(f"size must be nonnegative, got {size}")
    a_eff = p.alpha * t
    if p.beta == 0.0:
        draws = rng.gamma(a_eff, 1.0 / p.lam, n)
        return float(draws[0]) if size is None else draws

    beta, lam = p.beta, p.lam
    c_total = a_eff * _gamma(1.0 - beta) / beta
    m_exact = c_total * lam**beta
    if not m_exact <= _CHUNK_SLOTS:
        raise DomainError(f"one draw needs {m_exact:.3g} sub-draws (cap {_CHUNK_SLOTS})")
    m = max(1, math.ceil(m_exact))
    c_sub = c_total / m
    out = np.zeros(n)
    samples_per_chunk = _CHUNK_SLOTS // m
    for i in range(0, n, samples_per_chunk):
        k = min(samples_per_chunk, n - i)
        sub = _tempered_stable_fill(c_sub, beta, lam, k * m, rng)
        out[i:i + k] = sub.reshape(k, m).sum(axis=1)
    return float(out[0]) if size is None else out


# -- jump layer ---------------------------------------------------------------


def _upper_gamma(a: float, x: float) -> float:
    """Unnormalized upper incomplete Gamma for a > -1 (a may be negative)."""
    if a > 0.0:
        return _gamma(a) * gammaincc(a, x)
    if a == 0.0:
        return float(exp1(x))
    return (_gamma(a + 1.0) * gammaincc(a + 1.0, x) - x**a * math.exp(-x)) / a


def jump_intensity_above(p: OneSidedParams, floor: float) -> float:
    """Total jump intensity of the leg above the floor (finite for floor > 0)."""
    if not (floor > 0.0):
        raise DomainError("floor must be positive")
    return p.alpha * p.lam**p.beta * _upper_gamma(-p.beta, p.lam * floor)


def _subfloor_moments(p: OneSidedParams, floor: float) -> tuple[float, float]:
    # first two moments of the jump measure restricted below the floor:
    # kappa_n times the regularized lower incomplete Gamma P(n - beta, lam h)
    return tuple(cumulant_one_sided(p, n) * gammainc(n - p.beta, p.lam * floor)
                 for n in (1, 2))


def _sample_jump_sizes(p: OneSidedParams, floor: float, n: int, rng) -> np.ndarray:
    """Exact draws from the normalized jump density above the floor.

    Two-piece rejection: a truncated power-law proposal near the floor
    (accept against the tempering factor) and a shifted exponential
    proposal in the tail (accept against the power factor).
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

    out = np.empty(n)
    pending = np.arange(n)
    for _ in range(_MAX_REJECTION_ROUNDS):
        if pending.size == 0:
            return out
        k = pending.size
        use1 = rng.uniform(0.0, 1.0, k) < p1
        x = np.empty(k)
        v = rng.uniform(0.0, 1.0, k)
        if b > 0.0:
            x[use1] = (floor**-b - v[use1] * (floor**-b - split**-b)) ** (-1.0 / b)
        else:
            x[use1] = floor * (split / floor) ** v[use1]
        x[~use1] = split + rng.exponential(1.0 / lam, int(np.sum(~use1)))
        ratio = np.empty(k)
        ratio[use1] = np.exp(-lam * (x[use1] - floor))
        ratio[~use1] = (x[~use1] / split) ** (-1.0 - b)
        acc = rng.uniform(0.0, 1.0, k) < ratio
        out[pending[acc]] = x[acc]
        pending = pending[~acc]
    raise ConvergenceError("jump-size rejection did not terminate")


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
    at which one leg expects more jumps than one chunk holds is a
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
        if not all(rate * cfg.horizon <= _CHUNK_SLOTS for rate in rates):
            raise DomainError(f"jump floor {cfg.jump_floor} expects {max(rates) * cfg.horizon:.3g}"
                              f" recorded jumps on one leg (cap {_CHUNK_SLOTS})")
        inc_plus, jt_p, sz_p = _leg_increments_with_jumps(p.plus, cfg, rates[0], rng_plus)
        inc_minus, jt_m, sz_m = _leg_increments_with_jumps(p.minus, cfg, rates[1], rng_minus)
        jt = np.concatenate([jt_p, jt_m])
        js = np.concatenate([sz_p, -sz_m])
        order = np.argsort(jt, kind="stable")
        jt, js = jt[order], js[order]

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
