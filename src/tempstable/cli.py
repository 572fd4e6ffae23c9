"""Command-line front door.

Exit codes: 0 success, 2 validation error (or an allocation the machine
refuses), 3 numerical non-convergence.
Errors print one machine-parsable line ``error CODE: message`` to stderr.
Structured results go to stdout as JSON, with floats in Python's shortest
round-trip form (each parses back to the identical double) and non-finite
values as null.  Series go to CSV, each value byte for byte as Python's
``"%.17g" % value`` prints it, in the bytes a vectorised numpy writer builds.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np

from . import density as _density
from . import estimate as _estimate
from . import limits as _limits
from . import measure as _measure
from . import pricing as _pricing
from . import simulate as _simulate
from .core import moment_stats
from .errors import ConvergenceError, DomainError, TempStableError
from .params import TemperedStableParams, load_params, params_to_dict
from .simulate import bg_index

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _plain(obj):
    """Copy of ``obj`` the stdlib encoder accepts: numpy scalars become
    Python values and non-finite floats become None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(obj) -> None:
    click.echo(json.dumps(_plain(obj), indent=2))


# -- CSV series: the bytes of "%.17g", written by numpy -----------------------
#
# A finite nonzero |v| prints as 17 significant digits N = round(|v|·10^(16-e))
# with e = floor(log10 |v|).  N comes from a double-double product: Dekker's
# error-free split (Numer. Math. 18, 1971) of frexp(|v|) times a 106-bit
# table of 10^s, exact to about 1e-14 of a unit of N's last digit.  Each value
# then fills a row of 48 byte slots: sign, "0.000", 17 digits each followed by
# a point slot, exponent, separator.  A mask keyed by (layout, last nonzero
# digit, sign) zeroes the slots "%.17g" leaves out, and bytes.translate drops
# the zeros.  Non-finite values, and the remainders within 1e-9 of one half
# that the product cannot round, print one at a time through "%.17g" itself.

_BLOCK = 6144  # values per block: the kernel's temporaries stay near 1 MB
_P10_MIN, _P10_MAX = -293, 341  # s = 16 - e for every double, one off either way
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into 26- and 27-bit halves


def _words(chunks) -> np.ndarray:
    """8-byte strings as uint64 words, so whole slot groups move at once."""
    return np.frombuffer(b"".join(chunks), np.uint64)


def _pow10_table():
    """10^s = (hi + lo)·2^k for s in [_P10_MIN, _P10_MAX], hi in [0.5, 1],
    from the leading 110 bits of exact integers; hi comes split in halves."""
    hi, lo, k = [], [], []
    for s in range(_P10_MIN, _P10_MAX + 1):
        shift = 0 if s >= 0 else 128 - 4 * s
        num = 10**s if s >= 0 else (1 << shift) // 10**-s
        bits = num.bit_length()
        top = num >> (bits - 110) if bits > 110 else num << (110 - bits)
        h = float(top)
        hi.append(h * 2.0**-110)
        lo.append(float(top - int(h)) * 2.0**-110)
        k.append(bits - shift)
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hh, hi - hh, hi, np.array(lo), np.array(k)


def _masks() -> np.ndarray:
    """Slot masks keyed by ((layout·17 + t)·2 + negative), then one for the
    marker of a value printed on its own.  Layouts 0..20 are fixed notation
    at e = layout - 4, layout 21 is scientific; t is the last nonzero digit."""
    layout, t, neg, j = np.ix_(np.arange(22), np.arange(17), np.arange(2), np.arange(48))
    e, fixed = layout - 4, layout < 21
    last = np.where(fixed & (e >= 0), np.maximum(e, t), t)
    point = np.where(fixed, e, 0)
    keep = ((j == 0) & (neg == 1)) | (j == 45)
    keep = keep | ((j >= 1) & (j < 2 - e) & (e < 0))  # "0.", then -e-1 zeros
    keep = keep | ((j >= 6) & (j < 40) & (j % 2 == 0) & ((j - 6) // 2 <= last))
    keep = keep | ((j >= 7) & (j < 40) & (j % 2 == 1) & ((j - 7) // 2 == point) & (t > point))
    keep = keep | ((j >= 40) & (j < 45) & ~fixed)
    marker = (np.arange(48) < 8) | (np.arange(48) == 45)
    return (np.vstack([keep.reshape(-1, 48), marker]).astype(np.uint8) * 255).view(np.uint64)


@functools.cache
def _tables() -> SimpleNamespace:
    """The writer's lookup tables, built on the first call (not at import:
    most processes print no series) and kept."""
    hh, hl, hi, lo, exp = _pow10_table()
    # slot words: sign "0.000" d0 point | 4 x (digit point) | "e" sign 3 digits separator pad
    groups = np.full((10000, 8), ord("."), np.uint8)
    groups[:, ::2] = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    return SimpleNamespace(
        p10_hh=hh, p10_hl=hl, p10_hi=hi, p10_lo=lo, p10_exp=exp,
        heads=_words(b"-0.000%d." % d for d in range(10)),
        groups=groups.view(np.uint64).ravel(),
        trailing_zeros=sum(np.arange(10000, dtype=np.int16) % 10**j == 0
                           for j in range(1, 5)).astype(np.uint8),
        exponents=_words(b"e" + (b"-" if e < 0 else b"+")
                         + (b"%03d" if abs(e) >= 100 else b"\0%02d") % abs(e) + b"\0\0\0"
                         for e in range(16 - _P10_MAX, 17 - _P10_MIN)),
        separators=_words([b"\0\0\0\0\0,\0\0", b"\0\0\0\0\0\n\0\0"]),
        marker=_words([b"\1\0\0\0\0\0\0\0"])[0],
        masks=_masks(),
    )


def _scaled(m, q, e):
    """floor and remainder of x = m·2^q·10^(16-e) from the double-double
    product; x is exact to about 1e-14."""
    t = _tables()
    i = 16 - e - _P10_MIN
    p = m * t.p10_hi[i]
    c = m * _SPLIT
    mh = c - (c - m)
    ml = m - mh
    hh, hl = t.p10_hh[i], t.p10_hl[i]
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl
    scale = np.ldexp(1.0, q + t.p10_exp[i])
    hi = p * scale
    whole = np.floor(hi)
    r = (hi - whole) + (err + m * t.p10_lo[i]) * scale
    fr = np.floor(r)
    return whole.astype(np.int64) + fr.astype(np.int64), r - fr


def _decimal(a):
    """(N, e, near_tie) for finite positive ``a``: the 17 significant digits
    N in [10^16, 10^17) and exponent e that "%.17g" prints, rounded to
    nearest, and where the remainder lies within 1e-9 of a tie, which the
    product cannot round."""
    m, q = np.frexp(a)
    e = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(m, q, e)
    # log10 can miss the decade by one: step e until 10^16 <= x < 10^17.  An
    # x within 0.01 below 10^16 stays, as it and 10x both round to 10^16.
    below = (n < 10**16 - 1) | ((n == 10**16 - 1) & (frac < 0.99))
    step = (n >= 10**17).astype(np.int64) - below
    fix = np.flatnonzero(step)
    if fix.size:
        e[fix] += step[fix]
        n[fix], frac[fix] = _scaled(m[fix], q[fix], e[fix])
    n += frac > 0.5
    top = n == 10**17
    return np.where(top, 10**16, n), e + top, np.abs(frac - 0.5) < 1e-9


def _g17(v, separators) -> bytes:
    """The "%.17g" text of each value of the block ``v``, each followed by
    its separator word."""
    t = _tables()
    a = np.abs(v)
    zero, odd = a == 0.0, ~np.isfinite(a)
    a[zero | odd] = 1.0
    n, e, slow = _decimal(a)
    n[zero], e[zero] = 0, 0
    slow |= odd
    q8, r8 = np.divmod(n, 10**8)
    rows = np.empty((v.size, 6), np.uint64)
    rows[:, 0] = t.heads[q8 // 10**8]
    trailing, run = np.zeros(v.size, np.int64), np.ones(v.size, bool)
    for j, g in ((4, r8 % 10**4), (3, r8 // 10**4), (2, q8 % 10**4), (1, q8 // 10**4 % 10**4)):
        rows[:, j] = t.groups[g]
        trailing += run * t.trailing_zeros[g]
        run &= g == 0
    rows[:, 5] = t.exponents[e + _P10_MAX - 16] | separators[:v.size]
    layout = np.where((e >= -4) & (e <= 16), e + 4, 21)
    key = (layout * 17 + 16 - trailing) * 2 + np.signbit(v)
    key[slow] = len(t.masks) - 1
    rows[slow, 0] = t.marker
    rows &= t.masks[key]
    text = rows.tobytes().translate(None, b"\0")
    if slow.any():
        parts = text.split(b"\1")
        text = parts[0] + b"".join(b"%.17g" % x + part
                                   for x, part in zip(v[slow].tolist(), parts[1:]))
    return text


def _csv(header: str, *columns) -> bytes:
    """CSV bytes of a header line and equal-length float columns; each value
    is exactly ``"%.17g" % value``, written in blocks by the kernel above."""
    if not columns:
        return f"{header}\n".encode()
    values = np.column_stack(columns).ravel()
    width = len(columns)
    step = _BLOCK - _BLOCK % width
    separators = np.tile(_tables().separators[[0] * (width - 1) + [1]], step // width)
    blocks = (_g17(values[i:i + step], separators) for i in range(0, values.size, step))
    return b"".join([f"{header}\n".encode(), *blocks])


def _progress(ctx, message: str) -> None:
    if not ctx.obj.get("quiet", False):
        click.echo(message, err=True)


def _load_two_sided(path) -> TemperedStableParams:
    p = load_params(path)
    if not isinstance(p, TemperedStableParams):
        raise DomainError("this command needs a two-sided parameter file")
    return p


class _ErrorBoundary(click.Group):
    """Runs every subcommand; a ConvergenceError exits 3, any other
    library error or an allocation the machine refuses (``OUT_OF_MEMORY``)
    exits 2, each after one ``error CODE: message`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (TempStableError, MemoryError) as exc:
            click.echo(f"error {getattr(exc, 'code', 'OUT_OF_MEMORY')}: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL if isinstance(exc, ConvergenceError) else EXIT_VALIDATION)


@click.group(cls=_ErrorBoundary)
@click.option("--quiet", is_flag=True, help="suppress progress output on stderr")
@click.pass_context
def main(ctx, quiet):
    """Tempered stable distributions and processes."""
    ctx.ensure_object(dict)
    ctx.obj["quiet"] = quiet


@main.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--nodes", default=2**14, show_default=True)
@click.option("--extent-sd", default=12.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV destination (stdout when omitted)")
@click.pass_context
def density(ctx, params_path, nodes, extent_sd, out_path):
    """Emit x,pdf,cdf on the inversion grid as CSV."""
    p = _load_two_sided(params_path)
    ev = _density.DensityEvaluator(p, _density.InversionSettings(nodes=nodes, extent_sd=extent_sd))
    x, cdf_vals = ev.cdf_grid()
    data = _csv("x,pdf,cdf", x, ev.grid().pdf, cdf_vals)
    if out_path is None:
        click.echo(data, nl=False)  # bytes go to the binary stream as they are
    else:
        Path(out_path).write_bytes(data)
        _progress(ctx, f"wrote {len(x)} rows to {out_path}")


@main.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--horizon", required=True, type=float)
@click.option("--step", required=True, type=float)
@click.option("--seed", required=True, type=click.IntRange(min=0))
@click.option("--paths", default=1, show_default=True, type=click.IntRange(min=0))
@click.option("--jump-floor", default=0.0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.pass_context
def simulate(ctx, params_path, horizon, step, seed, paths, jump_floor, out_dir):
    """Simulate paths; one CSV per path, plus a jump record when floored."""
    p = _load_two_sided(params_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ss = np.random.SeedSequence(seed)
    path_seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(paths)]
    for i, path_seed in enumerate(path_seeds):
        cfg = _simulate.PathConfig(horizon=horizon, step=step,
                                   seed=path_seed, jump_floor=jump_floor)
        path = _simulate.simulate_path(p, cfg)
        (out / f"path_{i:04d}.csv").write_bytes(_csv("t,x", path.times, path.values))
        if jump_floor > 0.0:
            (out / f"jumps_{i:04d}.csv").write_bytes(
                _csv("t,size", path.jump_times, path.jump_sizes))
        _progress(ctx, f"path {i}: {len(path.times)} points, "
                       f"{len(path.jump_times)} recorded jumps")


@main.command()
@click.argument("data_path", type=click.Path(exists=True))
@click.option("--init", "init_path", type=click.Path(exists=True), default=None)
@click.option("--multistart", is_flag=True)
@click.option("--tol", default=1e-12, show_default=True)
@click.option("--max-iter", default=200, show_default=True)
def fit(data_path, init_path, multistart, tol, max_iter):
    """Fit the six-parameter law to one-column CSV observations."""
    if (init_path is None) == (not multistart):
        raise DomainError("provide exactly one of --init FILE or --multistart")
    try:
        with warnings.catch_warnings():  # an empty file is refused below as TOO_FEW_OBS
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(data_path, dtype=float, ndmin=1)
    except ValueError as exc:
        raise DomainError(f"cannot parse observations: {exc}") from exc
    k = _estimate.sample_cumulants(data)
    if multistart:
        result = _estimate.multistart_fit_two_sided(k, tol=tol, max_iter=max_iter)
    else:
        init = _load_two_sided(init_path)
        result = _estimate.fit_two_sided(k, init, tol=tol, max_iter=max_iter)
    _emit({
        "params": params_to_dict(result.params),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "n_obs": k.n_obs,
    })
    if not result.converged:
        raise ConvergenceError(
            f"fit did not converge (residual {result.residual:.3e})"
        )


@main.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def diagnose(params_path, as_json):
    """Report moments, normal-approximation bound, mode bracket, tail
    constant (null for Gamma legs and past the float range) and the
    path-regularity index."""
    p = _load_two_sided(params_path)
    stats = moment_stats(p)
    be = _limits.berry_esseen_bound(p)
    report = {
        "params": params_to_dict(p),
        "mean": stats.mean,
        "variance": stats.variance,
        "skewness": stats.skewness,
        "kurtosis": stats.kurtosis,
        "berry_esseen_bound": be.bound,
        "berry_esseen_vacuous": be.vacuous,
        "bg_index": bg_index(p),
    }
    if p.plus.beta > 0.0 and p.minus.beta > 0.0:
        br = _density.mode_bracket(p)
        report["mode_bracket"] = {"lower": br.lower, "upper": br.upper}
        try:
            report["tail_constant"] = _density.tail_constant(p)
        except DomainError:  # past the float range: null, and the rest still reported
            report["tail_constant"] = None
    else:
        report["mode_bracket"] = None
        report["tail_constant"] = None
    if as_json:
        _emit(report)
    else:
        for key, value in _plain(report).items():
            click.echo(f"{key}: {value}")


@main.group()
def measure():
    """Equivalent martingale measures."""


@measure.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--r", "r_rate", required=True, type=float)
@click.option("--q", "q_div", default=0.0, show_default=True)
def esscher(params_path, r_rate, q_div):
    """Single-parameter tilt making the discounted stock a martingale."""
    p = _load_two_sided(params_path)
    sol = _measure.esscher_martingale(p, r_rate, q_div)
    out = {"exists": sol.exists, "theta": sol.theta,
           "residual": sol.residual, "message": sol.message}
    if sol.exists:
        out["params"] = params_to_dict(sol.new_params)
    _emit(out)


@measure.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--r", "r_rate", required=True, type=float)
@click.option("--q", "q_div", default=0.0, show_default=True)
@click.option("--theta-grid", required=True,
              help="comma-separated tilt values, e.g. '-0.5,0,0.5'")
def curve(params_path, r_rate, q_div, theta_grid):
    """Points of the bilateral martingale curve."""
    p = _load_two_sided(params_path)
    try:
        thetas = [float(tok) for tok in theta_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad --theta-grid: {exc}") from exc
    if not thetas:
        raise DomainError("--theta-grid is empty")
    t1, t2 = _measure.phi_domain(p, r_rate, q_div)
    points = []
    for theta in thetas:
        sol = _measure.curve_point(p, theta, r_rate, q_div)
        points.append({
            "theta": sol.theta[0],
            "theta_minus": sol.theta[1],
            "residual": sol.residual,
            "params": params_to_dict(sol.new_params),
        })
    _emit({"domain": [t1, t2], "points": points})


@measure.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--r", "r_rate", required=True, type=float)
@click.option("--q", "q_div", default=0.0, show_default=True)
def mmm(params_path, r_rate, q_div):
    """Minimal martingale measure constant and its convolution factors."""
    p = _load_two_sided(params_path)
    res = _measure.minimal_martingale(p, r_rate, q_div)
    out = {"c": res.c, "exists": res.exists, "message": res.message}
    if res.exists:
        base, tilted = res.factors
        out["factor_base"] = params_to_dict(base) if base else None
        out["factor_tilted"] = params_to_dict(tilted) if tilted else None
    _emit(out)


@main.command()
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--s0", required=True, type=float)
@click.option("--r", "r_rate", required=True, type=float)
@click.option("--q", "q_div", default=0.0, show_default=True)
@click.option("--strike", required=True, type=float)
@click.option("--maturity", required=True, type=float)
@click.option("--nu", default=None, type=float)
@click.option("--mc-check", default=0, type=int,
              help="also price by Monte Carlo with this many paths")
@click.option("--seed", default=20240801, type=click.IntRange(min=0))
def price(params_path, s0, r_rate, q_div, strike, maturity, nu, mc_check, seed):
    """Price a European call (and the parity put) under the given law."""
    p = _load_two_sided(params_path)
    market = _pricing.MarketConfig(s0=s0, r=r_rate, q_div=q_div)
    option = _pricing.OptionSpec(strike=strike, maturity=maturity)
    used_nu = nu if nu is not None else _pricing.default_contour(p)
    value = _pricing.call_price_fourier(p, market, option, used_nu)
    out = {"price": value, "nu": used_nu, "method": "fourier",
           "put": _pricing.parity_put(value, market, option)}
    if mc_check > 0:
        mc, se = _pricing.mc_call_price(p, market, option, mc_check, seed)
        out["mc_price"] = mc
        out["mc_se"] = se
    _emit(out)


if __name__ == "__main__":
    main()
