"""Transforms and exact parameter algebra of tempered stable laws.

Everything here is closed-form: cumulant generating functions, the
characteristic function (with its analytic extension into the strip used
by Fourier pricing), cumulants and moment statistics, and the three exact
operations on parameter records (convolution, scaling, time marginals).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expm1, gamma as _gamma, log1p

from .errors import DomainError
from .params import CumulantVector, MomentStats, OneSidedParams, TemperedStableParams


def leg_exponent(alpha: float, beta: float, lam: float, z):
    """One leg's exponent alpha Gamma(-beta) ((lam - z)^beta - lam^beta), or
    -alpha u at beta = 0, formed as alpha Gamma(-beta) lam^beta expm1(beta u)
    with u = ln(1 - z/lam) so that nothing cancels as beta -> 0 or z -> 0.
    Takes real or complex z and raw (possibly tilted) rates; the caller
    checks the domain.  u is scipy's log1p(-z/lam), which unlike numpy's
    keeps the real part for small complex arguments, or ln((lam - z)/lam)
    where Re(-z/lam) < -1/2, keeping the digits of lam - z near z = lam.

    A real float z (np.float64 included), as in the martingale solves,
    takes a scalar path without numpy's array machinery (about 0.7 us
    against 10 us), bit-identical to the array path and like it returning
    np.float64.  Its kernels are chosen for that: scipy's log1p, expm1
    and gamma give the same bits on a scalar as on an array, where
    math.log1p differs on 15-25% of inputs; np.log runs numpy's SIMD
    kernel on a scalar too, where math.log (libm) rounds about one input
    in 10^3 to 10^4 otherwise.  u = -inf at z = lam, without a warning."""
    if isinstance(z, float):
        w = z * (-1.0 / lam)
        if w < -0.5:
            x = (lam - z) * (1.0 / lam)
            u = np.log(x) if x != 0.0 else np.float64(-math.inf)
        else:
            u = log1p(w)
        if beta == 0.0:
            return -alpha * u
        return alpha * (_gamma(1.0 - beta) / -beta) * lam**beta * expm1(u * beta)
    w = np.asarray(z) * (-1.0 / lam)
    u = log1p(w, out=np.empty_like(w))  # an array even for scalar z, for np.log to fill
    with np.errstate(divide="ignore"):  # u = -inf at the closed end z = lam
        np.log((lam - z) * (1.0 / lam), out=u, where=w.real < -0.5)
    if beta == 0.0:
        return -alpha * u
    u *= beta  # in place: on a transform grid each temporary is a full array
    return alpha * (_gamma(1.0 - beta) / -beta) * lam**beta * expm1(u, out=u)


def _leg_on_real_axis(alpha: float, beta: float, lam: float, z: np.ndarray,
                      out: np.ndarray, conjugate: bool = False) -> None:
    """Add leg_exponent(alpha, beta, lam, iz) for real 1-d z, or its
    conjugate, into the complex array ``out``, in real arithmetic.  With
    y = z/lam, (1 - iy)^beta = e^(a + ib) for a = beta ln|1 - iy| and
    b = -beta arctan y, and the leg is alpha Gamma(-beta) lam^beta
    expm1(a + ib).  Its real part is scipy's cexpm1 form
    expm1(a) cos b - 2 sin^2(b/2), here through t = tan(b/2):
    (expm1(a)(1 - t^2) - 2t^2)/(1 + t^2); the imaginary part is
    e^a 2t/(1 + t^2).  ln|1 - iy| is log1p(y^2)/2.  Overflow guard: where
    max|y| > 1e150, so that y^2 could overflow, it is ln m + log1p(r^2)/2
    with m = max(|y|, 1) and r = |y|/m^2 instead.  The ufuncs write in
    place, into five real temporaries of z's size."""
    y = np.divide(z, lam, dtype=float)  # in double precision whatever z's real dtype
    phase = np.arctan(y)
    if max(y.max(initial=0.0), -y.min(initial=0.0)) > 1e150:
        r = np.abs(y)
        m = np.maximum(r, 1.0)
        r /= m
        r /= m
        mod = np.add(np.log(m, out=m), 0.5 * np.log1p(np.square(r, out=r), out=r), out=y)
    else:
        mod = np.log1p(np.square(y, out=y), out=y)
        mod *= 0.5
    if beta == 0.0:
        mod *= -alpha
        out.real += mod
        phase *= -alpha if conjugate else alpha
        out.imag += phase
        return
    mod *= beta
    e = np.expm1(mod, out=mod)
    phase *= -0.5 * beta
    t = np.tan(phase, out=phase)
    q = np.square(t)
    d = np.add(q, 1.0)
    np.divide(alpha * (_gamma(1.0 - beta) / -beta) * lam**beta, d, out=d)
    part = np.subtract(1.0, q)
    part *= e
    q *= 2.0
    part -= q
    part *= d
    out.real += part
    e += 1.0
    t *= 2.0
    e *= t
    if conjugate:
        np.negative(d, out=d)
    e *= d
    out.imag += e


def cgf_one_sided(p: OneSidedParams, z: float) -> float:
    """Cumulant generating function of a one-sided law at a real point.

    Defined for z <= lam when beta > 0 and z < lam in the Gamma case
    beta = 0.  Vanishes at z = 0.
    """
    if not (z < p.lam or (z == p.lam and p.beta > 0.0)):
        raise DomainError(f"cgf requires z {'<=' if p.beta > 0.0 else '<'} lambda = {p.lam}"
                          f" for beta = {p.beta}, got z = {z}")
    return leg_exponent(p.alpha, p.beta, p.lam, z)


def cgf(p: TemperedStableParams, z: float) -> float:
    """Two-sided cumulant generating function: plus leg at z, minus leg at -z."""
    return cgf_one_sided(p.plus, z) + cgf_one_sided(p.minus, -z)


def log_cf(p: TemperedStableParams, z):
    """Log of the characteristic function; accepts scalars or arrays,
    real or complex (inside the strip -lam_plus < Im z < lam_minus).
    Real z is evaluated in real arithmetic, where the minus leg is the
    conjugate of the plus leg's form."""
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise DomainError("characteristic function evaluated at a non-finite frequency")
    if not np.iscomplexobj(z):
        out = np.zeros(z.shape, dtype=complex)
        flat, zf = out.reshape(-1), z.reshape(-1)
        _leg_on_real_axis(p.plus.alpha, p.plus.beta, p.plus.lam, zf, flat)
        _leg_on_real_axis(p.minus.alpha, p.minus.beta, p.minus.lam, zf, flat, conjugate=True)
        return out[()]
    iz = 1j * z.astype(complex, copy=False)  # complex64 would stay single precision
    if np.any(iz.real >= p.plus.lam) or np.any(iz.real <= -p.minus.lam):
        raise DomainError("characteristic function evaluated outside its analytic strip")
    return (leg_exponent(p.plus.alpha, p.plus.beta, p.plus.lam, iz)
            + leg_exponent(p.minus.alpha, p.minus.beta, p.minus.lam, -iz))


def cf(p: TemperedStableParams, z):
    """Characteristic function, principal-branch complex powers throughout."""
    out = log_cf(p, z)
    if np.ndim(z) == 0:
        return complex(np.exp(out))
    return np.exp(out, out=out)


_LOG_MAX = math.log(np.finfo(float).max)


def _leg_term(g, alpha: float, e: float, lam: float):
    # g alpha / lam^e for g = Gamma(e), in logs where lam^e leaves the
    # float range; 0 or inf past it, without a warning or OverflowError
    try:
        d = lam**e
    except OverflowError:
        d = math.inf
    if 0.0 < d < math.inf:
        return g * alpha / d
    x = math.log(g) + math.log(alpha) - e * math.log(lam)
    return math.exp(x) if x < _LOG_MAX else math.inf


def leg_cumulant(alpha: float, beta: float, lam: float, n: int) -> np.float64:
    """One leg's n-th cumulant Gamma(n - beta) alpha / lam^(n - beta) for
    raw rates; the caller checks the domain.  Where lam^(n - beta) leaves
    the float range it is exp(ln Gamma + ln alpha - (n - beta) ln lam)."""
    e = n - beta
    return np.float64(_leg_term(_gamma(e), alpha, e, lam))


def cumulant_one_sided(p: OneSidedParams, n: int) -> float:
    return leg_cumulant(p.alpha, p.beta, p.lam, n)


def cumulant(p: TemperedStableParams, n: int) -> float:
    """n-th cumulant, n = 1..6.

    kappa_n = Gamma(n - b+) a+ / (l+)^(n-b+) + (-1)^n Gamma(n - b-) a- / (l-)^(n-b-)

    A leg term past the float range is inf; where the two are inf - inf
    (odd n) the cumulant has no value, and that is a DomainError.
    """
    if not (1 <= n <= 6):
        raise DomainError(f"cumulants are exposed for n = 1..6 only, got {n}")
    plus, minus = cumulant_one_sided(p.plus, n), (-1) ** n * cumulant_one_sided(p.minus, n)
    if math.isinf(plus) and plus == -minus:
        raise DomainError(f"the cumulants of this law leave the float range: kappa_{n} is inf - inf")
    return plus + minus


_ORDERS = np.arange(1, 7)
_SIGNS = (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)  # (-1)^n


def _leg_kappas(theta) -> tuple:
    """Both legs' first six cumulants, the minus leg's signed, as lists of
    Python floats, and the twelve orders n - b+, n - b-, from a raw vector
    (a+, b+, l+, a-, b-, l-) of Python floats; the caller checks the
    domain.  One gamma call on the orders (scipy gives a scalar call's
    bits), then ``leg_cumulant``'s formula with Python's pow, which numpy's
    array pow rounds apart from on about one input in 20: the legs' sum is
    ``cumulant(p, n)`` bit for bit."""
    ap, bp, lp, am, bm, lm = theta
    e = (1.0 - bp, 2.0 - bp, 3.0 - bp, 4.0 - bp, 5.0 - bp, 6.0 - bp,
         1.0 - bm, 2.0 - bm, 3.0 - bm, 4.0 - bm, 5.0 - bm, 6.0 - bm)
    g = _gamma(e).tolist()
    try:
        return ([x * ap / lp**y for x, y in zip(g[:6], e[:6])],
                [s * x * am / lm**y for s, x, y in zip(_SIGNS, g[6:], e[6:])], e)
    except (OverflowError, ZeroDivisionError):  # a power past the float range
        return ([_leg_term(x, ap, y, lp) for x, y in zip(g[:6], e[:6])],
                [s * _leg_term(x, am, y, lm) for s, x, y in zip(_SIGNS, g[6:], e[6:])], e)


def _population_kappa(theta) -> np.ndarray:
    """First six cumulants of the law with parameter vector ``theta``, which
    the caller keeps inside the parameter domain; ``cumulant`` bit for bit."""
    k_plus, k_minus, _ = _leg_kappas(list(map(float, theta)))
    return np.array([p + m for p, m in zip(k_plus, k_minus)])


def cumulant_vector(p: TemperedStableParams) -> CumulantVector:
    """The first six cumulants; a DomainError where one leaves the float range."""
    kappa = _population_kappa(p.as_tuple())
    if not np.isfinite(kappa).all():
        raise DomainError(f"the cumulants of this law leave the float range: {kappa.tolist()}")
    return CumulantVector(tuple(kappa))


def moment_stats(p: TemperedStableParams) -> MomentStats:
    """Mean, variance, Charliers skewness and kurtosis from the cumulants.

    Raises DomainError when a cumulant or a ratio of them overflows the
    float range, instead of passing inf or nan on, and where a leg's rate
    power lam^(n - beta), n <= 4, overflows it (lam from about 1e100).
    """
    if max((4.0 - leg.beta) * math.log(leg.lam) for leg in (p.plus, p.minus)) > _LOG_MAX:
        raise DomainError("moment statistics overflow for this law: a rate power "
                          "lambda^(n - beta), n <= 4, leaves the float range")
    with np.errstate(all="ignore"):
        k1, k2, k3, k4 = (cumulant(p, n) for n in range(1, 5))
        k2_sq = k2**2
        skewness, excess = k3 / k2**1.5, k4 / k2_sq
    if not all(math.isfinite(v) for v in (k1, k2, k3, k4, k2_sq, skewness, excess)):
        raise DomainError(
            "moment statistics overflow for this law: its first four "
            "cumulants, squared variance or their ratios are not finite"
        )
    return MomentStats(mean=k1, variance=k2, skewness=skewness, kurtosis=3.0 + excess)


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
    """Third raw moment of a one-sided law, k1^3 + 3 k1 k2 + k3; a
    DomainError where it leaves the float range."""
    with np.errstate(all="ignore"):
        k1, k2, k3 = (cumulant_one_sided(p, n) for n in (1, 2, 3))
        m3 = k1**3 + 3.0 * k1 * k2 + k3
    if not math.isfinite(m3):
        raise DomainError(f"the third moment overflows for this law: {m3}")
    return m3
