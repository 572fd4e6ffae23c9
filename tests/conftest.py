"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the library's closed forms: transforms
are checked against adaptive quadrature of the jump-measure integral,
moment identities against combinatorial moment/cumulant conversion, and
samplers against textbook distribution facts.
"""

import numpy as np
import pytest
from scipy.integrate import quad

import tempstable.pricing as pricing
from tempstable import OneSidedParams, TemperedStableParams


#: laws whose martingale curve domain came out empty at r = 0.03, q = 0,
#: (-1e6, -1e6) and (765.01..., 765.01...), before that was a DomainError
EMPTY_CURVE_LAWS = [
    (874204.6179464337, 1e-9, 0.001, 1e-6, 1e-9, 406.91509968373884),
    (752172.5427470368, 0.999, 766.0144946962084, 860691.4795350108, 0.999, 292.7048263797398),
]


def clear_pricing_caches():
    """Empty the Fourier pricer's plan and transform caches."""
    pricing._contour_plan.cache_clear()
    pricing._weighted_transform.cache_clear()


def levy_cgf_one_sided(alpha, beta, lam, z):
    """Quadrature of int (e^{zx} - 1) alpha x^{-1-beta} e^{-lam x} dx."""
    f = lambda x: alpha * x ** (-1.0 - beta) * (np.exp((z - lam) * x) - np.exp(-lam * x))
    v1, _ = quad(f, 0.0, 1.0, points=[0.0], limit=400)
    v2, _ = quad(f, 1.0, np.inf, limit=400)
    return v1 + v2


def levy_cgf(p: TemperedStableParams, z):
    return (levy_cgf_one_sided(p.plus.alpha, p.plus.beta, p.plus.lam, z)
            + levy_cgf_one_sided(p.minus.alpha, p.minus.beta, p.minus.lam, -z))


def levy_cf_one_sided(alpha, beta, lam, z):
    """Oscillatory quadrature of int (e^{izx} - 1) against the jump density."""
    re = lambda x: (np.cos(z * x) - 1.0) * alpha * x ** (-1.0 - beta) * np.exp(-lam * x)
    im = lambda x: np.sin(z * x) * alpha * x ** (-1.0 - beta) * np.exp(-lam * x)
    r1, _ = quad(re, 0.0, 1.0, points=[0.0], limit=400)
    r2, _ = quad(re, 1.0, np.inf, limit=400)
    i1, _ = quad(im, 0.0, 1.0, points=[0.0], limit=400)
    i2, _ = quad(im, 1.0, np.inf, limit=400)
    return complex(r1 + r2, i1 + i2)


def levy_cf(p: TemperedStableParams, z):
    plus = levy_cf_one_sided(p.plus.alpha, p.plus.beta, p.plus.lam, z)
    minus = levy_cf_one_sided(p.minus.alpha, p.minus.beta, p.minus.lam, -z)
    return np.exp(plus + minus)


def carr_madan_call(p, s0, r, strike, maturity, nu):
    """Call price by adaptive quadrature of Carr & Madan's damped transform.

    C(k) = S0 e^{-a k} / pi * int_0^inf Re[e^{-iuk} psi(u)] du with damping
    a = nu - 1, log-moneyness k = ln(K / S0) and
    psi(u) = e^{-rT} phi_T(u - i nu) / (a^2 + a - u^2 + i (2a + 1) u).
    Only the characteristic function comes from the library (``log_cf``,
    itself held to jump-integral quadrature); the contour formula and its
    quadrature (QUADPACK's Fourier-weighted rules) are independent of the
    library's pricer.
    """
    import tempstable as ts

    a = nu - 1.0
    k = np.log(strike / s0)

    def psi(u):
        log_phi = maturity * ts.log_cf(p, complex(u, -nu))
        return np.exp(-r * maturity + log_phi) / complex(a * a + a - u * u, (2 * a + 1) * u)

    # plain adaptive quadrature over the peak of width a at u = 0, then the
    # tail Re[e^{-iuk} psi] = cos(uk) Re psi + sin(uk) Im psi with
    # Fourier-weighted rules (plain again at the money, k = 0)
    total, _ = quad(lambda u: (np.exp(-1j * u * k) * psi(u)).real, 0.0, 8.0,
                    limit=2000, epsabs=1e-13)
    if k == 0.0:
        total += quad(lambda u: psi(u).real, 8.0, np.inf, limit=2000, epsabs=1e-13)[0]
    else:
        for part, weight in ((lambda u: psi(u).real, "cos"), (lambda u: psi(u).imag, "sin")):
            total += quad(part, 8.0, np.inf, weight=weight, wvar=k, limlst=200,
                          epsabs=1e-13)[0]
    return s0 * np.exp(-a * k) / np.pi * total


def csv_17g(header, *columns):
    """CSV text with each value formatted by "%.17g" one at a time."""
    return f"{header}\n" + "".join(",".join("%.17g" % v for v in row) + "\n"
                                   for row in zip(*columns))


def moments_from_cumulants(kappa):
    """Raw moments m1..m6 from cumulants k1..k6 (Bell-polynomial identities)."""
    k1, k2, k3, k4, k5, k6 = kappa
    m1 = k1
    m2 = k2 + k1**2
    m3 = k3 + 3 * k2 * k1 + k1**3
    m4 = k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4
    m5 = (k5 + 5 * k4 * k1 + 10 * k3 * k2 + 10 * k3 * k1**2
          + 15 * k2**2 * k1 + 10 * k2 * k1**3 + k1**5)
    m6 = (k6 + 6 * k5 * k1 + 15 * k4 * k2 + 15 * k4 * k1**2 + 10 * k3**2
          + 60 * k3 * k2 * k1 + 20 * k3 * k1**3 + 15 * k2**3
          + 45 * k2**2 * k1**2 + 15 * k2 * k1**4 + k1**6)
    return np.array([m1, m2, m3, m4, m5, m6])


_FD_STENCILS = {
    1: ([-0.5, 0.5], [-1, 1]),
    2: ([1.0, -2.0, 1.0], [-1, 0, 1]),
    3: ([-0.5, 1.0, -1.0, 0.5], [-2, -1, 1, 2]),
    4: ([1.0, -4.0, 6.0, -4.0, 1.0], [-2, -1, 0, 1, 2]),
}


def fd_cumulant(p, n, h0=0.04):
    """Finite-difference n-th derivative of the generating function at 0.

    Central stencils at steps h, h/2, h/4 with two Richardson levels,
    step scaled to the tighter tempering rate.
    """
    import tempstable as ts

    h = h0 * min(p.plus.lam, p.minus.lam)
    weights, offsets = _FD_STENCILS[n]

    def plain(step):
        return sum(w * ts.cgf(p, k * step) for w, k in zip(weights, offsets)) / step**n

    f1, f2, f3 = plain(h), plain(h / 2), plain(h / 4)
    r1 = (4 * f2 - f1) / 3
    r2 = (4 * f3 - f2) / 3
    return (16 * r2 - r1) / 15


def cumulant_scale(p, n):
    """Cancellation-free magnitude of the n-th cumulant (sum of leg sizes)."""
    from tempstable.core import cumulant_one_sided

    return cumulant_one_sided(p.plus, n) + cumulant_one_sided(p.minus, n)


def random_params(rng, beta_lo=0.05, beta_hi=0.95, alpha_lo=0.5, alpha_hi=3.0,
                  lam_lo=0.5, lam_hi=4.0) -> TemperedStableParams:
    return TemperedStableParams.create(
        rng.uniform(alpha_lo, alpha_hi), rng.uniform(beta_lo, beta_hi),
        rng.uniform(lam_lo, lam_hi),
        rng.uniform(alpha_lo, alpha_hi), rng.uniform(beta_lo, beta_hi),
        rng.uniform(lam_lo, lam_hi),
    )


def inversion_cost_ok(p: TemperedStableParams, extent_sd=12.0, cap=2**20) -> bool:
    """Whether the default-density plan fits the node cap for this law."""
    from tempstable import ConvergenceError, DensityEvaluator, InversionSettings

    try:
        DensityEvaluator(p, InversionSettings(extent_sd=extent_sd, max_nodes=cap))
    except ConvergenceError:
        return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def sym_half():
    """Symmetric law with beta = 0.5 on both legs."""
    return TemperedStableParams.create(1.0, 0.5, 1.0, 1.0, 0.5, 1.0)


@pytest.fixture
def skewed():
    return TemperedStableParams.create(1.0, 0.3, 3.0, 2.0, 0.6, 4.0)


@pytest.fixture
def one_sided_half():
    return OneSidedParams(1.0, 0.5, 1.0)


@pytest.fixture
def skewed_tight():
    """Skewed law with both tempering rates above 2 (pricing-friendly)."""
    return TemperedStableParams.create(0.6, 0.4, 4.0, 0.5, 0.5, 3.5)
