"""Density and distribution-function evaluation by Fourier inversion,
mode location inside analytic brackets, and the small-x / large-x
asymptotics of the density.

The laws here have no closed-form densities, but the characteristic
function decays like a stretched exponential, so a single damped
frequency grid recovers the density everywhere on a window of +-12
population standard deviations.  The grid is planned adaptively: the
frequency extent grows until the characteristic function is below a
floor at the boundary, and the node count follows from the required
x-resolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .core import (
    cgf,
    cumulant_one_sided,
    gamma_neg,
    log_cf,
    mean,
    std,
)
from .errors import ConvergenceError, DomainError
from .measure import EsscherPair, bilateral_esscher
from .params import OneSidedParams, TemperedStableParams


@dataclass(frozen=True)
class InversionSettings:
    """Controls for the frequency-domain inversion.

    nodes      minimum number of frequency nodes (power of two)
    extent_sd  half-width of the x window, in population std units
    tilt       exponential damping parameter, inside (-lambda-, lambda+)
    cf_floor   required characteristic-function magnitude at the
               frequency boundary
    max_nodes  hard cap before the plan gives up
    """

    nodes: int = 2**14
    extent_sd: float = 12.0
    tilt: float = 0.0
    cf_floor: float = 1e-12
    max_nodes: int = 2**20

    def __post_init__(self):
        if not (math.isfinite(self.extent_sd) and self.extent_sd > 0.0):
            raise DomainError(f"extent_sd must be finite and positive, got {self.extent_sd}")
        if not self.nodes >= 1:
            raise DomainError(f"nodes must be at least 1, got {self.nodes}")
        if not (0.0 < self.cf_floor < 1.0):
            raise DomainError(f"cf_floor must lie in (0, 1), got {self.cf_floor}")
        if not self.max_nodes >= self.nodes:
            raise DomainError(
                f"max_nodes must be at least nodes = {self.nodes}, got {self.max_nodes}"
            )


@dataclass
class DensityGrid:
    x: np.ndarray
    pdf: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModeBracket:
    """Open interval known to contain the mode; ``xi0`` is the fixed point
    entering the one-sided lower bound (absent for two-sided laws)."""

    lower: float
    upper: float
    xi0: "float | None" = None


class DensityEvaluator:
    """Plans the inversion grid once and evaluates pdf/cdf repeatedly.

    Pointwise ``pdf`` sums only over the numerical support of the
    characteristic function, the first ``K`` nodes of the plan, so its
    cost follows how fast the transform decays rather than the grid size.
    Scalar ``cdf`` interpolates a cdf grid built on first use and kept.
    """

    def __init__(self, p: TemperedStableParams, settings: InversionSettings | None = None):
        self.params = p
        self.settings = settings or InversionSettings()
        s = self.settings
        if not (-p.minus.lam < s.tilt < p.plus.lam):
            raise DomainError(
                f"tilt must lie in ({-p.minus.lam}, {p.plus.lam}), got {s.tilt}"
            )
        self._tilted = (
            p if s.tilt == 0.0 else bilateral_esscher(p, EsscherPair(s.tilt, -s.tilt))
        )
        self._log_norm = 0.0 if s.tilt == 0.0 else cgf(p, s.tilt)
        self._mu = mean(p)
        self._sigma = std(p)
        self._cdf_table = None
        self._plan()

    # -- planning ---------------------------------------------------------

    def _boundary_ok(self, z: float) -> bool:
        return float(np.real(log_cf(self._tilted, z))) < math.log(self.settings.cf_floor)

    def _plan(self) -> None:
        s = self.settings
        x_lo = self._mu - s.extent_sd * self._sigma
        x_hi = self._mu + s.extent_sd * self._sigma
        if s.tilt != 0.0:
            # the window must also cover the tilted law, whose mass beyond
            # the window would otherwise alias back into the tails
            mu_t = mean(self._tilted)
            sigma_t = std(self._tilted)
            x_lo = min(x_lo, mu_t - s.extent_sd * sigma_t)
            x_hi = max(x_hi, mu_t + s.extent_sd * sigma_t)
        span = x_hi - x_lo
        dz = 2.0 * math.pi / span

        z_req = max(16.0 / self._sigma, 4.0 * (self.params.plus.lam + self.params.minus.lam))
        doublings = 0
        while not self._boundary_ok(z_req):
            z_req *= 2.0
            doublings += 1
            if doublings > 80:
                raise ConvergenceError(
                    "characteristic function does not reach the floor "
                    f"{s.cf_floor}; increase cf_floor or use a tilt"
                )
        n = max(s.nodes, 2 ** math.ceil(math.log2(z_req / dz)))
        if n > s.max_nodes:
            raise ConvergenceError(
                "characteristic function decays too slowly for the grid: "
                f"{n} nodes needed (cap {s.max_nodes}); raise max_nodes, "
                f"lower extent_sd from {s.extent_sd}, or relax cf_floor"
            )
        self._x_lo = x_lo
        self._dx = span / n
        self._n = n
        self._dz = dz
        self._z = dz * np.arange(n)
        phi = np.exp(log_cf(self._tilted, self._z))
        phi[0] *= 0.5  # half weight at the origin of the half-line rule
        self._phi = phi
        # |phi| decreases in |z| on every leg of the family (for beta in
        # (0, 1) the real part of (lam + iw)^beta grows with w; Gamma legs
        # decay as (lam^2 + w^2)^(-alpha/2)), so the nodes from k on add at
        # most (n - k)|phi_k|.  Past the first k where that is <= 1e-16
        # the pointwise sum gains nothing above its own roundoff.
        tail = (n - np.arange(n)) * np.abs(phi)
        negligible = np.flatnonzero(tail <= 1e-16)
        self._support = int(negligible[0]) if negligible.size else n

    # -- evaluation -------------------------------------------------------

    def _tilt_factor(self, x):
        s = self.settings
        if s.tilt == 0.0:
            return 1.0
        return np.exp(self._log_norm - s.tilt * np.asarray(x))

    def grid(self) -> DensityGrid:
        """Density on the planned uniform x grid, negatives clamped."""
        m = np.arange(self._n)
        x = self._x_lo + m * self._dx
        shifted = self._phi * np.exp(-1j * self._z * self._x_lo)
        raw = (self._dz / math.pi) * np.real(np.fft.fft(shifted))
        raw = raw * self._tilt_factor(x)
        clamped_mass = -float(np.sum(raw[raw < 0.0])) * self._dx
        pdf = np.maximum(raw, 0.0)
        if clamped_mass > 1e-3:
            warnings.warn(
                f"clamped {clamped_mass:.2e} of negative quadrature mass; "
                "increase nodes or extent_sd",
                RuntimeWarning,
            )
        return DensityGrid(
            x=x,
            pdf=pdf,
            meta={
                "nodes": self._n,
                "dz": self._dz,
                "extent": float(self._z[-1]),
                "tilt": self.settings.tilt,
                "clamped_mass": clamped_mass,
            },
        )

    def pdf(self, x):
        """Pointwise density at arbitrary x (vectorized), clamped at 0."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        k = self._support
        z, phi = self._z[:k], self._phi[:k]
        chunk = max(1, int(4e6) // k)
        for i in range(0, xs.size, chunk):
            block = xs[i:i + chunk]
            kern = np.exp(-1j * np.outer(block, z))
            out[i:i + chunk] = (self._dz / math.pi) * np.real(kern @ phi)
        out = out * self._tilt_factor(xs)
        out = np.maximum(out, 0.0)
        return float(out[0]) if np.ndim(x) == 0 else out

    def cdf_grid(self, g: DensityGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative trapezoid of the grid density, clipped to [0, 1].

        ``g`` is a grid this evaluator returned, to reuse instead of
        running the FFT again; by default a fresh grid is built.
        """
        if g is None:
            g = self.grid()
        inc = 0.5 * (g.pdf[1:] + g.pdf[:-1]) * self._dx
        c = np.concatenate(([0.0], np.cumsum(inc)))
        return g.x, np.clip(c, 0.0, 1.0)

    def cdf(self, x):
        if self._cdf_table is None:
            self._cdf_table = self.cdf_grid()
        xg, cg = self._cdf_table
        out = np.interp(np.asarray(x, dtype=float), xg, cg, left=0.0, right=1.0)
        return float(out) if np.ndim(x) == 0 else out


def pdf(p: TemperedStableParams, x, settings: InversionSettings | None = None):
    return DensityEvaluator(p, settings).pdf(x)


def cdf(p: TemperedStableParams, x, settings: InversionSettings | None = None):
    return DensityEvaluator(p, settings).cdf(x)


def density_grid(p: TemperedStableParams, settings: InversionSettings | None = None) -> DensityGrid:
    return DensityEvaluator(p, settings).grid()


# -- mode ------------------------------------------------------------------


def mode_fixed_point(p: OneSidedParams) -> float:
    """Unique solution of alpha^(1/beta) exp(-(lambda/beta) xi) = xi.

    The left side is strictly decreasing in xi, so bisection on
    (0, alpha^(1/beta)] is safe.
    """
    if not (0.0 < p.beta < 1.0):
        raise DomainError("fixed point defined for beta in (0, 1) only")
    a, b, lam = p.alpha, p.beta, p.lam
    hi = a ** (1.0 / b)

    def h(xi):
        return (math.log(a) / b - (lam / b) * xi) - math.log(xi)

    lo = 1e-12 * min(hi, 1.0)
    # expand the lower end until the decreasing map is above the diagonal
    while h(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise ConvergenceError("fixed-point bracket collapsed")
    from scipy.optimize import brentq

    return brentq(h, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _one_sided_bracket(p: OneSidedParams) -> ModeBracket:
    if not (0.0 < p.beta < 1.0):
        raise DomainError("mode bracket requires beta in (0, 1)")
    m1 = cumulant_one_sided(p, 1)
    v = cumulant_one_sided(p, 2)
    xi0 = mode_fixed_point(p)
    lower = max(m1 - math.sqrt(3.0 * v), xi0)
    upper = min(m1, (p.alpha / (1.0 - p.beta)) ** (1.0 / p.beta))
    return ModeBracket(lower=lower, upper=upper, xi0=xi0)


def mode_bracket(p) -> ModeBracket:
    """Analytic interval containing the mode.

    One-sided laws get the tight bracket with the fixed point xi0;
    two-sided laws get the interval spanned by the per-leg upper bounds.
    """
    if isinstance(p, OneSidedParams):
        return _one_sided_bracket(p)
    if not isinstance(p, TemperedStableParams):
        raise DomainError(f"unsupported parameter object {type(p).__name__}")
    up = _one_sided_bracket(p.plus)
    down = _one_sided_bracket(p.minus)
    return ModeBracket(lower=-down.upper, upper=up.upper, xi0=None)


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mode(p: TemperedStableParams, settings: InversionSettings | None = None) -> float:
    """Location of the unique maximum of the density.

    Uses the analytic bracket when both stability legs are positive
    (unimodality makes golden-section search valid); Gamma legs fall back
    to the window spanned by the per-leg means.
    """
    ev = DensityEvaluator(p, settings)
    if p.plus.beta > 0.0 and p.minus.beta > 0.0:
        br = mode_bracket(p)
        lo, hi = br.lower, br.upper
    else:
        lo = -cumulant_one_sided(p.minus, 1)
        hi = cumulant_one_sided(p.plus, 1)
    tol = 1e-8 * ev._sigma
    return _golden_section_max(lambda x: ev.pdf(x), lo, hi, tol)


# -- asymptotics -------------------------------------------------------------


def small_x_log_asymptote(p: OneSidedParams, x: float) -> float:
    """Leading term of ln g(x) as x decreases to 0 (one-sided, beta > 0)."""
    if not (0.0 < p.beta < 1.0):
        raise DomainError("small-x asymptote requires beta in (0, 1)")
    if not (x > 0.0):
        raise DomainError("x must be positive")
    a, b = p.alpha, p.beta
    coeff = ((1.0 - b) / b) * (a * _gamma(1.0 - b)) ** (1.0 / (1.0 - b))
    return -coeff * x ** (-b / (1.0 - b))


def tail_constant_one_sided(p: OneSidedParams) -> float:
    """Constant C in g(x) ~ C e^(-lambda x) / x^(1+beta) as x -> infinity."""
    if not (0.0 < p.beta < 1.0):
        raise DomainError("tail constant requires beta in (0, 1)")
    return p.alpha * math.exp(-p.alpha * gamma_neg(p.beta) * p.lam**p.beta)


def tail_constant(p: TemperedStableParams) -> float:
    """Constant C in the upper-tail law g(x) ~ C e^(-lambda+ x) / x^(1+beta+).

    Gamma legs are rejected: the boundary case has a polynomially
    corrected tail of a different shape.
    """
    if not (0.0 < p.plus.beta < 1.0 and 0.0 < p.minus.beta < 1.0):
        raise DomainError("tail constant requires both stability legs in (0, 1)")
    ap, bp, lp = p.plus.alpha, p.plus.beta, p.plus.lam
    am, bm, lm = p.minus.alpha, p.minus.beta, p.minus.lam
    return ap * math.exp(
        -ap * gamma_neg(bp) * lp**bp
        + am * gamma_neg(bm) * ((lp + lm) ** bm - lm**bm)
    )
