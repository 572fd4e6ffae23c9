"""One robustness sweep over the documented parameter box, and the
six-cumulant vector checked against single cumulants over the same box.

Each leg draws alpha log-uniform in [1e-6, 1e6], beta in {0} or
log-uniform in [1e-9, 0.999] and lambda log-uniform in [1e-3, 1e3].
Every public function that no module's own property test sweeps must
return finite values there or raise a TempStableError.  Warnings are
errors, except ``grid()``'s report of clamped quadrature mass, which is
a documented diagnostic: the sweep counts it, and each kind of refusal,
as a hypothesis event (``--hypothesis-show-statistics`` lists them).
"""

import math
import warnings
from dataclasses import astuple

import numpy as np
from hypothesis import event, given, settings, strategies as st
from scipy.special import gamma as G

import tempstable as ts
from tempstable import InversionSettings, TempStableError, TemperedStableParams
from tempstable.core import _population_kappa, cumulant_one_sided

CLAMPED = "clamped .* of negative quadrature mass"


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_LEG = st.tuples(_log_uniform(1e-6, 1e6),
                 st.one_of(st.just(0.0), _log_uniform(1e-9, 0.999)),
                 _log_uniform(1e-3, 1e3))


def _finite_or_typed(name, call):
    """Values from ``call`` must be finite; a TempStableError is an event."""
    try:
        values = call()
    except TempStableError as exc:
        event(f"{name}: {type(exc).__name__}")
        return
    assert all(math.isfinite(v) for v in values), (name, values)


def _density_values(p):
    ev = ts.DensityEvaluator(p, InversionSettings(max_nodes=2**16))
    x_mode = ev.mode()
    g = ev.grid()
    xs = np.array([g.x[0], g.x[g.x.size // 2], g.x[-1], x_mode])
    pdf, cdf = ev.pdf(xs), ev.cdf(xs)
    assert np.all(pdf >= 0.0) and np.all((cdf >= 0.0) & (cdf <= 1.0)), (pdf, cdf)
    return [x_mode, *pdf, *cdf, ev.pdf(x_mode), ev.cdf(x_mode)]


def _clt_values(mu, sigma2, legs):
    n0 = ts.clt_min_index(*legs, mu, sigma2)
    out = [n0]
    for n in (n0, 10**6 * n0):
        q = ts.clt_sequence(mu, sigma2, *legs, n)
        out += [*astuple(q.plus), *astuple(q.minus), ts.berry_esseen_bound(q).bound]
    return out


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(plus=_LEG, minus=_LEG)
def test_public_functions_are_finite_or_typed(plus, minus):
    p = TemperedStableParams.create(*plus, *minus)
    legs = (p.plus.beta, p.plus.lam, p.minus.beta, p.minus.lam)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", message=CLAMPED, category=RuntimeWarning)
        _finite_or_typed("moment_stats", lambda: astuple(ts.moment_stats(p)))
        _finite_or_typed("berry_esseen_bound", lambda: astuple(ts.berry_esseen_bound(p)))
        mu, sigma2 = ts.cumulant(p, 1), ts.cumulant(p, 2)
        # the law's own moments, and the mirrored mean, which some legs
        # cannot attain with positive intensities
        for target in (mu, -mu):
            _finite_or_typed("alpha_pair_for_moments",
                             lambda: ts.alpha_pair_for_moments(*legs, target, sigma2))
            _finite_or_typed("clt_sequence", lambda: _clt_values(target, sigma2, legs))
        for leg in (p.plus, p.minus):
            kappa = [cumulant_one_sided(leg, r) for r in (1, 2, 3)]
            _finite_or_typed("fit_one_sided", lambda: astuple(ts.fit_one_sided(kappa)))
        _finite_or_typed("DensityEvaluator", lambda: _density_values(p))
    for _ in caught:
        event("grid: clamped-mass warning")


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(plus=_LEG, minus=_LEG)
def test_cumulant_vector_is_single_cumulants_bit_for_bit(plus, minus):
    # the vector path (one gamma call, Python float powers) against the
    # record path and its plain closed form Gamma(n - b) a / l^(n - b)
    p = TemperedStableParams.create(*plus, *minus)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = ts.cumulant_vector(p).kappa
        population = _population_kappa(p.as_tuple())
        for n in range(1, 7):
            plain = [G(n - b) * a / lam ** (n - b) for a, b, lam in (plus, minus)]
            assert kappa[n - 1] == ts.cumulant(p, n) == plain[0] + (-1) ** n * plain[1]
            assert population[n - 1] == kappa[n - 1]
