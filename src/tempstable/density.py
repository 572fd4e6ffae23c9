"""Density and distribution-function evaluation by Fourier inversion,
mode location from the inversion grid, analytic mode brackets, and the
small-x / large-x asymptotics of the density.

The laws here have no closed-form densities, but the characteristic
function decays like a stretched exponential, so a single frequency
grid recovers the density on a window of +-12 population standard
deviations, to an absolute error near 1e-16 of the peak in the bulk.
Near the window's ends the other tail folds back through the Fourier
sum's period: within +-11.9 sd the error reaches 3.2e-10 of the peak
on the README law and 2.4e-8 on TS(1,.5,1; 1,.5,1).  The grid is
planned adaptively: the frequency extent grows until the characteristic
function is below a floor at the boundary, and the node count follows
from the required x-resolution.  The same pass over the extents bounds
the transform's numerical support, the nodes before its tail falls below
the sum's roundoff, and the transform is evaluated once, on those nodes;
the grid zero-pads the rest, and the bulk error stays about 1e-16 of the
peak.  Pointwise pdf and the mode sum the support through
``core._fourier_sum``, the half-line sum that the call price uses too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma, wrightomega

from .core import (
    _factored_blocks,
    _fourier_sum,
    _increasing_root,
    _integer_at_least,
    _leg_kappas,
    _population_kappa,
    _require_positive_betas,
    _scaled_exp,
    cf,
    cgf_one_sided,
    leg_exponent,
    log_cf,
)
from .errors import ConvergenceError, DomainError
from .params import OneSidedParams, TemperedStableParams


@dataclass(frozen=True)
class InversionSettings:
    """Controls for the frequency-domain inversion.

    nodes      minimum node count, any n >= 1; the planner's own count is a power of two
    extent_sd  half-width of the x window, in population std units
    cf_floor   required characteristic-function magnitude at the
               frequency boundary
    max_nodes  hard cap before the plan gives up
    """

    nodes: int = 2**14
    extent_sd: float = 12.0
    cf_floor: float = 1e-12
    max_nodes: int = 2**20

    def __post_init__(self):
        if not (math.isfinite(self.extent_sd) and self.extent_sd > 0.0):
            raise DomainError(f"extent_sd must be finite and positive, got {self.extent_sd}")
        if not (0.0 < self.cf_floor < 1.0):
            raise DomainError(f"cf_floor must lie in (0, 1), got {self.cf_floor}")
        _integer_at_least("max_nodes", self.max_nodes, _integer_at_least("nodes", self.nodes, 1))


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

    The plan evaluates and keeps the characteristic function only on its
    numerical support, the first ``K`` nodes of the grid, so the cost of
    planning and of pointwise ``pdf`` follows how fast the transform
    decays rather than the grid size.  ``cdf_grid`` is built on first use
    and kept, and ``cdf`` interpolates it.
    """

    def __init__(self, p: TemperedStableParams, settings: InversionSettings | None = None):
        self.params = p
        self.settings = settings or InversionSettings()
        self._grid = None
        self._cdf = None
        self._plan()

    # -- planning ---------------------------------------------------------

    def _plan(self) -> None:
        s = self.settings
        mu, k2 = _population_kappa(self.params.as_tuple())[:2]
        sigma = math.sqrt(k2)
        with np.errstate(all="ignore"):  # a NaN or infinite window is refused below
            x_lo = mu - s.extent_sd * sigma
            span = (mu + s.extent_sd * sigma) - x_lo
        if not (math.isfinite(x_lo) and 0.0 < span < math.inf):
            raise DomainError(f"the window mean {mu:.6g} +- {s.extent_sd} sd ({sigma:.6g}) "
                              "leaves the float range")
        dz = 2.0 * math.pi / span

        # the first extent z_first 2^j < inf, j = 0..80, where |phi| is below the floor
        z_first = max(16.0 / sigma, 4.0 * (self.params.plus.lam + self.params.minus.lam))
        with np.errstate(over="ignore"):
            z_try = z_first * 2.0 ** np.arange(81)
        z_try = z_try[z_try < math.inf]
        log_abs = log_cf(self.params, z_try).real
        below = np.flatnonzero(log_abs < math.log(s.cf_floor))
        if not below.size:
            raise ConvergenceError(
                f"characteristic function does not reach the floor {s.cf_floor}; "
                "increase cf_floor"
            )
        need = float(z_try[below[0]]) / float(dz)  # on Python floats: inf, not a warning
        n = max(s.nodes, 2 ** math.ceil(math.log2(need))) if need < math.inf else need
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
        # |phi| decreases in |z| on every leg of the family (for beta in
        # (0, 1) the real part of (lam + iw)^beta grows with w; Gamma legs
        # decay as (lam^2 + w^2)^(-alpha/2)), so the nodes from k on add at
        # most (n - k)|phi_k|.  Past the first such K where that is <= 1e-16
        # the sum gains nothing above its own roundoff.  Any node past the first
        # extent where |phi| <= 1e-16/n is past K, so phi is evaluated to there.
        reach = np.flatnonzero(log_abs <= math.log(1e-16 / n))
        k = np.arange(min(n, math.ceil(z_try[reach[0]] / dz) + 1) if reach.size else n)
        phi = cf(self.params, dz * k)
        cut = np.flatnonzero((n - k) * np.abs(phi) <= 1e-16)
        phi = self._phi = phi[:cut[0]].copy() if cut.size else phi  # frees the nodes past K
        phi[0] *= 0.5  # half weight at the origin of the half-line rule
        self._support = phi.size
        self._blocks = _factored_blocks(phi)  # never empty: node 0 carries |phi| = 1/2

    # -- evaluation -------------------------------------------------------

    def grid(self) -> DensityGrid:
        """Density on the planned uniform x grid, negatives clamped.  Built
        by one FFT of the support's nodes, zero-padded to the grid size, on
        the first call and returned again after that, with its arrays
        read-only.  ``meta`` holds the grid size ``nodes`` and the
        ``support`` K."""
        if self._grid is not None:
            return self._grid
        x = self._x_lo + np.arange(self._n) * self._dx
        z = self._dz * np.arange(self._support)
        shifted = self._phi * np.exp(-1j * z * self._x_lo)  # zero past the support
        raw = (self._dz / math.pi) * np.real(np.fft.fft(shifted, n=self._n))
        clamped_mass = -float(np.sum(raw[raw < 0.0])) * self._dx
        pdf = np.maximum(raw, 0.0)
        if clamped_mass > 1e-3:
            warnings.warn(
                f"clamped {clamped_mass:.2e} of negative quadrature mass; "
                "increase nodes or extent_sd",
                RuntimeWarning,
            )
        x.flags.writeable = pdf.flags.writeable = False
        self._grid = DensityGrid(
            x=x,
            pdf=pdf,
            meta={
                "nodes": self._n,
                "support": self._support,
                "dz": self._dz,
                "extent": self._dz * (self._n - 1),
                "clamped_mass": clamped_mass,
            },
        )
        return self._grid

    def pdf(self, x):
        """Pointwise density at arbitrary x (vectorized), clamped at 0.

        0 outside the window [x_lo, x_lo + n dx), where the Fourier sum
        would repeat the density with period n dx; ``cdf`` is 0 or 1 there.
        """
        shape = np.shape(x)
        xs = np.asarray(x, dtype=float).ravel()
        if np.isnan(xs).any():
            raise DomainError("density evaluated at a NaN point")
        out = np.zeros_like(xs)
        inside = (xs >= self._x_lo) & (xs < self._x_lo + self._n * self._dx)
        out[inside] = (self._dz / math.pi) * _fourier_sum(xs[inside], self._blocks, self._dz)
        out = np.maximum(out, 0.0).reshape(shape)
        return float(out) if not shape else out

    def cdf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative trapezoid of ``grid()``'s density, clipped to [0, 1]; built
        once, and read-only like ``grid()``'s arrays."""
        if self._cdf is None:
            g = self.grid()
            inc = 0.5 * (g.pdf[1:] + g.pdf[:-1]) * self._dx
            c = np.clip(np.concatenate(([0.0], np.cumsum(inc))), 0.0, 1.0)
            c.flags.writeable = False
            self._cdf = g.x, c
        return self._cdf

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        if np.isnan(xs).any():
            raise DomainError("distribution function evaluated at a NaN point")
        out = np.interp(xs, *self.cdf_grid(), left=0.0, right=1.0)
        return float(out) if np.ndim(x) == 0 else out

    def mode(self) -> float:
        """Location of the maximum of the density: the root of pdf' (the
        factored sum of -i z_k phi_k) between the grid argmax's neighbours, to
        the adjacent floats; within 1e-12 std of the direct n-node sum's root.
        Where pdf' keeps one sign there, the neighbour the density rises to."""
        g = self.grid()
        i = int(np.argmax(g.pdf))
        lo, hi = g.x[max(i - 1, 0)], g.x[min(i + 1, self._n - 1)]
        slope = _factored_blocks(self._phi * (-1j * self._dz * np.arange(self._support)))
        return float(_increasing_root(lambda x: -_fourier_sum(x, slope, self._dz), lo, hi)[0])


def pdf(p: TemperedStableParams, x, settings: InversionSettings | None = None):
    return DensityEvaluator(p, settings).pdf(x)


def cdf(p: TemperedStableParams, x, settings: InversionSettings | None = None):
    return DensityEvaluator(p, settings).cdf(x)


def density_grid(p: TemperedStableParams, settings: InversionSettings | None = None) -> DensityGrid:
    return DensityEvaluator(p, settings).grid()


# -- mode ------------------------------------------------------------------


def mode_fixed_point(p: OneSidedParams) -> float:
    """Unique solution of alpha^(1/beta) exp(-(lambda/beta) xi) = xi.

    With u = (lambda/beta) xi the equation reads u + ln u = ln(lambda/beta)
    + ln(alpha)/beta, so u is the Wright omega function of the right side.
    """
    if not (0.0 < p.beta < 1.0):
        raise DomainError("fixed point defined for beta in (0, 1) only")
    a, b, lam = p.alpha, p.beta, p.lam
    z = math.log(lam) - math.log(b) + math.log(a) / b
    xi0 = (b / lam) * float(wrightomega(z))
    if not 0.0 < xi0 < math.inf:
        raise DomainError(f"the mode fixed point xi0 = {xi0} leaves the float range: "
                          f"lambda xi0 / beta is the Wright omega of {z:.6g}")
    return xi0


def _one_sided_bracket(p: OneSidedParams) -> ModeBracket:
    xi0 = mode_fixed_point(p)  # refuses beta outside (0, 1)
    m1, v = map(np.float64, _leg_kappas(p.alpha, p.beta, p.lam)[0][:2])
    if m1 == math.inf:
        raise DomainError("the mode bracket overflows for this law: its mean is not finite")
    lower = max(m1 - math.sqrt(3.0 * v), xi0)  # an infinite v only drops this bound
    # (alpha / (1 - beta))^(1/beta) overflows for small beta; compare logs
    log_cap = (math.log(p.alpha) - math.log1p(-p.beta)) / p.beta
    upper = m1 if math.log(m1) <= log_cap else math.exp(log_cap)
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


def mode(p: TemperedStableParams, settings: InversionSettings | None = None) -> float:
    """Location of the unique maximum of the density; see
    ``DensityEvaluator.mode``, which reuses a plan the caller holds."""
    return DensityEvaluator(p, settings).mode()


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
    return _scaled_exp("tail constant", p.alpha, cgf_one_sided(p, p.lam))


def tail_constant(p: TemperedStableParams) -> float:
    """Constant C = alpha+ e^Psi(lambda+) in the upper-tail law
    g(x) ~ C e^(-lambda+ x) / x^(1+beta+).  Where the legs' terms of
    Psi(lambda+) cancel to a rounding bound above 2^-26 it is a
    DomainError, unless C underflows whatever the rounding.  Gamma legs
    are rejected: that tail is polynomially corrected, of another shape.
    """
    _require_positive_betas(p, "tail constant")
    exponent, err = _tail_exponent(p)
    if err > 2.0**-26 and p.plus.alpha * math.exp(min(exponent + err, 709.0)) > 0.0:
        raise DomainError(f"tail constant is lost to rounding: Psi(lambda+) = {exponent:.6g}"
                          f" +- {err:.3g}")
    return _scaled_exp("tail constant", p.plus.alpha, exponent)


def _tail_exponent(p: TemperedStableParams) -> tuple[float, float]:
    """Psi(lambda+) and a bound on its rounding, in whichever form has the
    smaller bound.  With c = alpha Gamma(1-beta)/beta and a = c+ lambda+^beta+
    it is a - c- ((lambda- + lambda+)^beta- - lambda-^beta-), whose leading
    terms cancel as lambda+ outgrows lambda-, or c- lambda-^beta- - a
    expm1(g), g = ln(c- (lambda+ + lambda-)^beta- / a) summed from logs that
    are exact 0 where the legs share alpha and beta."""
    (ap, bp, lp), (am, bm, lm) = ((leg.alpha, leg.beta, leg.lam) for leg in (p.plus, p.minus))
    eps = 8.0 * 2.0**-52  # a few roundings per term, with a margin
    a, b = float(leg_exponent(ap, bp, lp, lp)), -float(leg_exponent(am, bm, lm, -lp))
    kp, km = float(_gamma(1.0 - bp)) / bp, float(_gamma(1.0 - bm)) / bm
    g = [math.log1p((am - ap) / ap) if ap <= 2.0 * am <= 4.0 * ap else math.log(am / ap),
         bm * math.log1p(lm / lp)]
    if bm != bp:
        g += [math.log(km / kp), (bm - bp) * math.log(lp)]
    with np.errstate(over="ignore"):
        e = float(np.expm1(sum(g)))
    head, spread = am * km * lm**bm, sum(map(abs, g)) + (bm != bp)  # + the Gamma ratio's rounding
    # b's exponential turns its argument's rounding, beta- ln(1 + lambda+/lambda-), relative
    return min((a - b, eps * (a + b * (1.0 + bm * math.log1p(lp / lm)))),
               (head - a * e, eps * (head + a * abs(e) + a * (1.0 + e) * spread)),
               key=lambda form: form[1])
