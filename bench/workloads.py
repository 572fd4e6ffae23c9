"""The benchmark's three workloads: seeded inputs, one task per input,
and the output checks of every task.

Every call into ``tempstable`` sits inside a span named
``<module>.<function>`` so that a traced run can attribute time to the
package's modules.  Input preparation and output checks run outside
those spans and show up as the task's own (``bench``) self time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from click.testing import CliRunner
from scipy.special import ndtr

import tempstable as ts
import tempstable.cli as ts_cli

README_LAW = (1.0, 0.3, 3.0, 2.0, 0.6, 4.0)
CRITERION_9_LAW = (0.6, 0.4, 4.0, 0.5, 0.5, 3.5)
# criterion-5 legs (m = 1 at t = 0.1) and the fifth criterion-6 law,
# whose legs need m = 13..15 sub-draws at t = 10 and m = 130..141 at t = 100
CRITERION_5_LEGS = ((0.8, 0.5, 1.2), (1.1, 0.3, 0.8))
CRITERION_6_LAW = (0.5, 0.4, 0.4, 0.4, 0.3, 0.5)

# a prime; the orthogonal array in _draws has columns for up to STRATA + 1 coordinates
STRATA = 7

S0, RATE, DIVIDEND = 100.0, 0.04, 0.01
STRIKES = tuple(float(k) for k in np.linspace(60.0, 150.0, 10))
REPEAT_STRIKE = 4  # the at-the-money strike, priced again at a second contour
MC_PATHS = 20_000

DRAWS = {"m1": (0.1, 4000), "m13": (10.0, 1000), "m130": (100.0, 5000)}
PATH_HORIZON, PATH_STEP, JUMP_FLOOR = 1000.0, 0.1, 1e-3
CLI_HORIZON = 10.0


class CheckFailed(Exception):
    """An output check of a task did not hold.

    A tolerance check compares a numerical result with its accuracy
    target (the acceptance tolerances, or a Monte-Carlo error bar); a miss
    is a failed task.  Any other check states something every correct
    output satisfies, such as the CLI agreeing with the library, so a
    miss means the output is wrong.
    """

    def __init__(self, what: str, tolerance: bool):
        super().__init__(what)
        self.tolerance = tolerance


def check(ok: bool, what: str, tolerance: bool = False) -> None:
    if not ok:
        raise CheckFailed(what, tolerance)


@dataclass
class Env:
    """Per-run scratch directory and the in-process CLI runner."""

    workdir: Path

    def __post_init__(self):
        self.runner = CliRunner()

    def law_file(self, name: str, p) -> str:
        path = self.workdir / f"{name}.json"
        ts.save_params(p, path)
        return str(path)

    def cli(self, tr, command: str, args: list[str], out_dir: Path | None = None):
        """Run one CLI command in-process; returns (exit code, stdout).

        The span counts the bytes written to stdout and into ``out_dir``.
        """
        with tr.span(f"cli.{command}") as attrs:
            res = self.runner.invoke(ts_cli.main, ["--quiet", *args], catch_exceptions=True)
            files = out_dir.iterdir() if out_dir is not None else ()
            attrs["bytes"] = len(res.stdout_bytes) + sum(f.stat().st_size for f in files)
        return res.exit_code, res.stdout


def _draws(seed: int, lo: tuple, hi: tuple, n: int) -> list[tuple]:
    """The first ``n`` of an endless list of seeded uniform draws from the
    box [lo, hi], made in blocks of STRATA**2 that each cover it evenly.

    A block is a Latin hypercube built on an orthogonal array (Tang, JASA
    88, 1993): every coordinate falls once into each of its STRATA**2
    equal slices, and every pair of coordinates falls once into each cell
    of a STRATA x STRATA grid.  Each draw is still uniform on the box,
    but the cost mix of a run's tasks, which hinges on pairs such as a
    small alpha with a short maturity, varies less between seeds than
    with independent draws.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(lo), np.asarray(hi)
    k, size = STRATA, STRATA**2
    i, j = np.divmod(np.arange(size), k)
    # strength-2 orthogonal array: any two columns hold every level pair once
    levels = np.stack([i, j] + [(i + m * j) % k for m in range(1, k)], axis=1)[:, :lo.size]
    out = []
    while len(out) < n:
        u = np.empty((size, lo.size))
        for c in range(lo.size):
            level = rng.permutation(k)[levels[:, c]]
            slices = np.empty(size, dtype=int)
            for a in range(k):
                rows = np.flatnonzero(level == a)
                slices[rows] = a * k + rng.permutation(k)
            u[:, c] = (slices + rng.random(size)) / size
        out.extend(tuple(map(float, row)) for row in lo + rng.permutation(u) * (hi - lo))
    return out[:n]


def _task_seeds(seed: int, n: int) -> list[int]:
    return [int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
            for index in range(n)]


# -- density_eval --------------------------------------------------------------


def density_inputs(seed: int, count: int) -> list:
    laws = [README_LAW] + _draws(seed, (0.5, 0.05, 0.5) * 2, (3.0, 0.95, 4.0) * 2, count - 1)
    return [ts.TemperedStableParams.create(*law) for law in laws]


def density_task(p, tr, env: Env) -> None:
    with tr.span("density.DensityEvaluator"):
        ev = ts.DensityEvaluator(p)
    with tr.span("density.grid") as attrs:
        grid = ev.grid()
        attrs["nodes"] = grid.meta["nodes"]
    with tr.span("density.cdf_grid"):
        x_cdf, cdf_vals = ev.cdf_grid()
    z = np.linspace(-grid.meta["extent"], grid.meta["extent"], 2**16)
    with tr.span("core.cf", points=z.size):
        phi = ts.cf(p, z)
    with tr.span("core.moment_stats"):
        stats = ts.moment_stats(p)
    sigma = math.sqrt(stats.variance)
    xs = stats.mean + sigma * np.linspace(-4.0, 4.0, 256)
    with tr.span("density.pdf", points=xs.size):
        pdf_vals = ev.pdf(xs)
    cdf_points = []
    for x in stats.mean + sigma * np.linspace(-3.0, 3.0, 16):
        with tr.span("density.cdf"):
            cdf_points.append(ev.cdf(float(x)))
    with tr.span("density.mode"):
        mode = ts.mode(p)
    with tr.span("density.mode_bracket"):
        bracket = ts.mode_bracket(p)
    law_path = env.law_file("law", p)
    code, csv_text = env.cli(tr, "density", ["density", "--params", law_path])
    code_diag, diag_text = env.cli(tr, "diagnose", ["diagnose", "--params", law_path, "--json"])

    x, f = grid.x, grid.pdf
    mass = np.trapezoid(f, x)
    mean_num = np.trapezoid(x * f, x)
    var_num = np.trapezoid((x - mean_num) ** 2 * f, x)
    check(abs(mass - 1.0) < 1e-4, f"grid mass {mass!r}", tolerance=True)
    check(abs(mean_num - stats.mean) < 1e-3 * sigma,
          f"grid mean {mean_num!r} vs {stats.mean!r}", tolerance=True)
    check(abs(var_num - stats.variance) < 1e-3 * stats.variance,
          f"grid variance {var_num!r} vs {stats.variance!r}", tolerance=True)
    x_hat = x[np.argmax(f)]
    check(bracket.lower - 1e-6 <= x_hat <= bracket.upper + 1e-6,
          f"grid argmax {x_hat!r} outside mode bracket", tolerance=True)
    check(bracket.lower <= mode <= bracket.upper, f"mode {mode!r} outside its bracket")
    check(x_cdf.size == x.size and np.all(np.diff(cdf_vals) >= 0.0), "cdf grid not monotone")
    check(bool(np.all(np.isfinite(phi))) and float(np.max(np.abs(phi))) <= 1.0 + 1e-12,
          "characteristic function not bounded by 1")
    check(bool(np.all(np.isfinite(pdf_vals)) and np.all(pdf_vals >= 0.0)), "pointwise pdf")
    check(all(0.0 <= c <= 1.0 for c in cdf_points)
          and all(b >= a for a, b in zip(cdf_points, cdf_points[1:])), "scalar cdf")
    check(code == 0, f"cli density exit {code}")
    rows = csv_text.count("\n") - 1
    check(rows == grid.meta["nodes"],
          f"cli density wrote {rows} rows, grid has {grid.meta['nodes']}")
    check(code_diag == 0, f"cli diagnose exit {code_diag}")
    check(json.loads(diag_text)["mean"] == stats.mean, "cli diagnose mean")


# -- price_calibrate -----------------------------------------------------------


@dataclass(frozen=True)
class PricingInput:
    law: ts.TemperedStableParams
    maturity: float
    mc_seed: int


def price_inputs(seed: int, count: int) -> list:
    rows = [CRITERION_9_LAW + (1.0,)] + _draws(
        seed, (0.3, 0.2, 3.0) * 2 + (0.25,), (1.0, 0.7, 6.0) * 2 + (3.0,), count - 1)
    return [PricingInput(ts.TemperedStableParams.create(*row[:6]), row[6], mc_seed)
            for row, mc_seed in zip(rows, _task_seeds(seed, count))]


def price_task(inp: PricingInput, tr, env: Env) -> None:
    p, mat = inp.law, inp.maturity
    market = ts.MarketConfig(s0=S0, r=RATE, q_div=DIVIDEND)
    with tr.span("measure.esscher_martingale"):
        sol = ts.esscher_martingale(p, RATE, DIVIDEND)
    if not sol.exists:
        # a correct answer for this law: confirm that r - q is out of reach
        lo, hi = -p.minus.lam, p.plus.lam - 1.0
        with tr.span("measure.esscher_f"):
            f_lo, f_hi = ts.esscher_f(p, lo), ts.esscher_f(p, hi)
        check(not f_lo < RATE - DIVIDEND <= f_hi, f"Esscher measure missed: {sol.message}")
        return
    check(sol.residual <= 1e-10, f"Esscher residual {sol.residual!r}", tolerance=True)
    with tr.span("measure.phi_domain"):
        t1, t2 = ts.phi_domain(p, RATE, DIVIDEND)
    for frac in (0.25, 0.75):
        with tr.span("measure.curve_point"):
            point = ts.curve_point(p, t1 + frac * (t2 - t1), RATE, DIVIDEND)
        check(point.residual <= 1e-10, f"curve residual {point.residual!r}", tolerance=True)
    with tr.span("measure.minimal_martingale"):
        mmm = ts.minimal_martingale(p, RATE, DIVIDEND)
    if mmm.exists:
        psi1 = 0.0
        for factor in mmm.factors:
            if factor is not None:
                with tr.span("core.cgf"):
                    psi1 += ts.cgf(factor, 1.0)
        check(abs(psi1 - (RATE - DIVIDEND)) <= 1e-10, f"minimal martingale residual {psi1!r}",
              tolerance=True)

    pq = sol.new_params
    prices = []
    with tr.span("pricing.strip", prices=len(STRIKES)):
        for strike in STRIKES:
            with tr.span("pricing.call_price_fourier"):
                prices.append(ts.call_price_fourier(pq, market, ts.OptionSpec(strike, mat)))
    atm = ts.OptionSpec(STRIKES[REPEAT_STRIKE], mat)
    nu2 = 1.0 + 0.25 * (pq.plus.lam - 1.0)
    with tr.span("pricing.call_price_fourier"):
        repeat = ts.call_price_fourier(pq, market, atm, nu2)
    with tr.span("pricing.mc_call_price", paths=MC_PATHS):
        mc, se = ts.mc_call_price(pq, market, atm, MC_PATHS, inp.mc_seed)
    cli_price = env.cli(tr, "price", [
        "price", "--params", env.law_file("law_q", pq), "--s0", repr(S0), "--r", repr(RATE),
        "--q", repr(DIVIDEND), "--strike", repr(atm.strike), "--maturity", repr(mat)])
    cli_esscher = env.cli(tr, "measure", [
        "measure", "esscher", "--params", env.law_file("law_p", p),
        "--r", repr(RATE), "--q", repr(DIVIDEND)])

    forward = S0 * math.exp(-DIVIDEND * mat)
    for strike, price in zip(STRIKES, prices):
        lower = max(0.0, forward - strike * math.exp(-RATE * mat))
        check(lower - 1e-8 <= price <= forward + 1e-8, f"price {price!r} at strike {strike}")
    atm_price = prices[REPEAT_STRIKE]
    check(abs(repeat - atm_price) <= 1e-8 * S0, f"contour prices {atm_price!r} vs {repeat!r}",
          tolerance=True)
    check(abs(mc - atm_price) <= 4.0 * se, f"MC {mc!r} +- {se!r} vs Fourier {atm_price!r}",
          tolerance=True)
    code, out = cli_price
    check(code == 0 and json.loads(out)["price"] == atm_price, f"cli price exit {code}")
    code, out = cli_esscher
    check(code == 0 and json.loads(out)["theta"] == sol.theta, f"cli measure esscher exit {code}")


# -- simulate_fit --------------------------------------------------------------


def simulate_inputs(seed: int, count: int) -> list:
    return _task_seeds(seed, count)


def _fit_exit_code(outcome) -> int:
    # the exit code the CLI must give for a library fit outcome
    if isinstance(outcome, ts.FitResult):
        return 0 if outcome.converged else 3
    return 3 if isinstance(outcome, ts.ConvergenceError) else 2


def simulate_task(task_seed: int, tr, env: Env) -> None:
    rng = np.random.default_rng(task_seed)
    law = ts.TemperedStableParams.create(*README_LAW)
    law6 = ts.TemperedStableParams.create(*CRITERION_6_LAW)
    legs = {"m1": [ts.OneSidedParams(*leg) for leg in CRITERION_5_LEGS],
            "m13": [law6.plus, law6.minus], "m130": [law6.plus, law6.minus]}
    draws = {}
    for bucket, (t, n) in DRAWS.items():
        draws[bucket] = []
        for leg in legs[bucket]:
            with tr.span("simulate.sample_one_sided", bucket=bucket, draws=n):
                draws[bucket].append(ts.sample_one_sided(leg, t, rng, size=n))
    with tr.span("core.marginal"):
        law6_t = ts.marginal(law6, DRAWS["m130"][0])
    with tr.span("limits.berry_esseen_bound"):
        be = ts.berry_esseen_bound(law6_t)

    path_seed, cli_seed = (int(s) for s in rng.integers(0, 2**31, 2))
    with tr.span("simulate.simulate_path", steps=round(PATH_HORIZON / PATH_STEP),
                 floored=False):
        path = ts.simulate_path(law, ts.PathConfig(PATH_HORIZON, PATH_STEP, path_seed))
    with tr.span("simulate.simulate_path", steps=round(PATH_HORIZON / PATH_STEP),
                 floored=True) as attrs:
        floored = ts.simulate_path(
            law, ts.PathConfig(PATH_HORIZON, PATH_STEP, path_seed, jump_floor=JUMP_FLOOR))
        attrs["jumps"] = floored.jump_times.size
    increments = np.diff(path.values)
    with tr.span("estimate.sample_cumulants", obs=increments.size):
        sample_k = ts.sample_cumulants(increments)
    with tr.span("core.cumulant_vector"):
        population_k = ts.cumulant_vector(law)
    init = np.array(README_LAW) * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 6))
    with tr.span("estimate.fit_two_sided") as attrs:
        fit = ts.fit_two_sided(population_k, ts.TemperedStableParams.create(*init))
        attrs["iterations"] = fit.iterations
    with tr.span("estimate.multistart_fit_two_sided") as attrs:
        try:
            multistart = ts.multistart_fit_two_sided(sample_k)
        except ts.TempStableError as exc:
            multistart = exc
        attrs["converged"] = isinstance(multistart, ts.FitResult) and multistart.converged

    obs_path = env.workdir / "increments.csv"
    np.savetxt(obs_path, increments)
    law_path = env.law_file("law", law)
    paths_dir = env.workdir / "paths"
    code_sim, _ = env.cli(tr, "simulate", [
        "simulate", "--params", law_path, "--horizon", repr(CLI_HORIZON),
        "--step", repr(PATH_STEP), "--seed", str(cli_seed), "--paths", "2",
        "--jump-floor", repr(JUMP_FLOOR), "--out", str(paths_dir)], out_dir=paths_dir)
    code_fit, fit_text = env.cli(tr, "fit", ["fit", str(obs_path), "--multistart"])

    x = np.sort(draws["m130"][0] - draws["m130"][1])
    gauss = ndtr((x - be.mu) / math.sqrt(be.sigma2))
    upper = np.arange(1, x.size + 1) / x.size
    ks = max(np.max(np.abs(gauss - upper)), np.max(np.abs(gauss - upper + 1.0 / x.size)))
    check(ks <= be.bound, f"KS distance {ks!r} above the Berry-Esseen bound {be.bound!r}",
          tolerance=True)
    check(all(np.all(np.isfinite(d)) and np.all(d >= 0.0) for ds in draws.values() for d in ds),
          "one-sided draws")
    if not fit.converged:
        # the outcome the CLI reports as exit 3: a failed task, not a wrong answer
        raise ts.ConvergenceError(f"fit from a perturbed start: residual {fit.residual!r}")
    error = float(np.max(np.abs(np.array(fit.params.as_tuple()) - README_LAW)))
    check(error <= 1e-8, f"fit round trip error {error!r}", tolerance=True)
    check(code_sim == 0, f"cli simulate exit {code_sim}")
    expected = _fit_exit_code(multistart)
    check(code_fit == expected, f"cli fit exit {code_fit}, library outcome gives {expected}")
    if expected == 0:
        check(json.loads(fit_text)["residual"] == multistart.residual, "cli fit residual")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object  # (seed, count) -> the run's ``count`` task inputs
    task: object


WORKLOADS = {
    "density_eval": Workload("density_eval", density_inputs, density_task),
    "price_calibrate": Workload("price_calibrate", price_inputs, price_task),
    "simulate_fit": Workload("simulate_fit", simulate_inputs, simulate_task),
}
