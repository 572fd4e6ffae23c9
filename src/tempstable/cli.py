"""Command-line front door.

Exit codes: 0 success, 2 validation error (or an allocation the machine
refuses), 3 numerical non-convergence.
Errors print one machine-parsable line ``error CODE: message`` to stderr.
Structured results go to stdout as JSON, with floats in Python's shortest
round-trip form (each parses back to the identical double) and non-finite
values as null; series go to CSV with 17 significant digits.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

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


def _csv(header: str, *columns) -> str:
    """CSV text of a header line and equal-length float columns, with 17
    significant digits, formatted in one % pass: Python floats format
    faster than numpy scalars."""
    rows = np.column_stack(columns).ravel().tolist()
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return f"{header}\n" + line * len(columns[0]) % tuple(rows)


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
    grid = ev.grid()
    x, cdf_vals = ev.cdf_grid()
    text = _csv("x,pdf,cdf", x, grid.pdf, cdf_vals)
    if out_path is None:
        click.echo(text, nl=False)
    else:
        Path(out_path).write_text(text)
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
        (out / f"path_{i:04d}.csv").write_text(_csv("t,x", path.times, path.values))
        if jump_floor > 0.0:
            (out / f"jumps_{i:04d}.csv").write_text(
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
    constant and the path-regularity index."""
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
        report["tail_constant"] = _density.tail_constant(p)
    else:
        report["mode_bracket"] = None
        report["tail_constant"] = None
    if as_json:
        _emit(report)
    else:
        for key, value in report.items():
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
