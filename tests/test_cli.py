import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import tempstable as ts
from conftest import EMPTY_CURVE_LAWS, clear_pricing_caches, csv_17g
from tempstable import ConvergenceError, TempStableError
from tempstable.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def params_file(tmp_path, skewed_tight):
    path = tmp_path / "params.json"
    ts.save_params(skewed_tight, path)
    return str(path)


def test_diagnose_valid_params(runner, params_file):
    result = runner.invoke(main, ["diagnose", "--params", params_file, "--json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["variance"] > 0.0
    assert report["kurtosis"] > 3.0
    assert report["mode_bracket"]["lower"] < report["mode_bracket"]["upper"]
    assert report["bg_index"] == 0.5


def test_invalid_params_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alpha_plus": 1.0, "beta_plus": 1.2, "lambda_plus": 1.0,
        "alpha_minus": 1.0, "beta_minus": 0.5, "lambda_minus": 1.0,
    }))
    result = runner.invoke(main, ["diagnose", "--params", str(bad)])
    assert result.exit_code == 2
    assert "PARAM_DOMAIN" in result.output or "PARAM_DOMAIN" in (result.stderr or "")


def test_fit_too_few_observations(runner, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("\n".join(str(v) for v in [0.1, -0.2, 0.3, 0.0, 0.5]) + "\n")
    result = runner.invoke(main, ["fit", str(data), "--multistart"])
    assert result.exit_code == 2
    assert "TOO_FEW_OBS" in result.output


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_fit_non_finite_observations_is_domain_error(runner, tmp_path, bad):
    data = tmp_path / "obs.csv"
    data.write_text("\n".join([*(str(v) for v in np.linspace(-1, 1, 20)), bad]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["fit", str(data), "--multistart"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error PARAM_DOMAIN: 1 of 21 observations are not finite"]
    assert caught == []


def test_fit_overflowing_cumulants_is_domain_error(runner, tmp_path):
    # finite observations whose sample cumulants pass the float range
    path = tmp_path / "obs.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal(50) * 1e60)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["fit", str(path), "--multistart"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert [line.split(":")[0] for line in result.stderr.splitlines()] == ["error PARAM_DOMAIN"]
    assert caught == []


@pytest.mark.parametrize("data", [np.full(50, 1.5), np.random.default_rng(0).uniform(size=1000)],
                         ids=["constant", "uniform"])
def test_fit_multistart_on_infeasible_data_exits_2(runner, tmp_path, data):
    # a constant column has k2 = 0 and uniform draws have k4 < 0: no law fits
    path = tmp_path / "obs.csv"
    np.savetxt(path, data)
    result = runner.invoke(main, ["fit", str(path), "--multistart"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error INFEASIBLE_CUMULANTS: ")


def test_diagnose_at_the_normal_limit_exits_0(runner, tmp_path):
    # far along the sequence the excess kurtosis rounds away to exactly 3
    path = tmp_path / "clt.json"
    ts.save_params(ts.clt_sequence(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 10**18), path)
    result = runner.invoke(main, ["diagnose", "--params", str(path), "--json"])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["kurtosis"] == 3.0
    assert 0.0 < report["berry_esseen_bound"] < 1e-7


def test_fit_requires_exactly_one_start_mode(runner, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("\n".join(str(v) for v in np.linspace(-1, 1, 20)) + "\n")
    result = runner.invoke(main, ["fit", str(data)])
    assert result.exit_code == 2


def test_density_csv(runner, params_file, tmp_path):
    out = tmp_path / "density.csv"
    result = runner.invoke(main, [
        "density", "--params", params_file, "--nodes", "4096", "--out", str(out),
    ])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,pdf,cdf"
    body = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert np.all(np.diff(body[:, 0]) > 0.0)
    assert np.all(body[:, 1] >= 0.0)
    assert np.all(np.diff(body[:, 2]) >= 0.0)


def test_density_csv_is_17g_of_library_grid(runner, params_file):
    result = runner.invoke(main, ["density", "--params", params_file, "--nodes", "4096"])
    assert result.exit_code == 0
    ev = ts.DensityEvaluator(ts.load_params(params_file), ts.InversionSettings(nodes=4096))
    grid = ev.grid()
    x, cdf_vals = ev.cdf_grid()
    rows = [f"{xi:.17g},{pi:.17g},{ci:.17g}" for xi, pi, ci in zip(x, grid.pdf, cdf_vals)]
    assert result.stdout == "x,pdf,cdf\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("flag, value", [
    ("--extent-sd", "0"), ("--extent-sd", "-1"), ("--extent-sd", "nan"), ("--nodes", "0"),
])
def test_density_rejects_invalid_settings(runner, params_file, flag, value):
    result = runner.invoke(main, ["density", "--params", params_file, flag, value])
    assert result.exit_code == 2
    assert result.stderr.startswith("error PARAM_DOMAIN:")


def test_diagnose_overflow_is_domain_error(runner, tmp_path):
    path = tmp_path / "huge.json"
    ts.save_params(ts.TemperedStableParams.create(1e308, 0.5, 1.0, 1.0, 0.5, 1.0), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["diagnose", "--params", str(path)])
    assert result.exit_code == 2
    assert "error PARAM_DOMAIN" in result.stderr and "overflow" in result.stderr
    assert "Warning" not in result.stderr
    assert caught == []


@pytest.mark.parametrize("max_iter", ["0", "-1"])
@pytest.mark.parametrize("start", ["--init", "--multistart"])
def test_fit_rejects_nonpositive_max_iter(runner, tmp_path, params_file, max_iter, start):
    data = tmp_path / "obs.csv"
    obs = ts.simulate_path(ts.load_params(params_file),
                           ts.PathConfig(horizon=200.0, step=1.0, seed=5)).values
    np.savetxt(data, np.diff(obs), fmt="%.17g")
    args = ["fit", str(data), "--max-iter", max_iter, start]
    result = runner.invoke(main, args + ([params_file] if start == "--init" else []))
    assert result.exit_code == 2
    assert "max_iter" in result.stderr


def test_simulate_deterministic(runner, params_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--params", params_file, "--horizon", "2.0", "--step", "0.1",
            "--seed", "99", "--paths", "2", "--jump-floor", "1e-3"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    for name in ("path_0000.csv", "path_0001.csv", "jumps_0000.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


@pytest.mark.parametrize("floor", [1e-3, 1e3], ids=["jumps", "header-only"])
def test_simulate_files_are_17g_of_library_path(runner, params_file, tmp_path, floor):
    # both files hold "%.17g" of the library's path at the seed the CLI
    # spawns; no jump of this law reaches 1e3, so that jump file is a header
    args = ["simulate", "--params", params_file, "--horizon", "2.0", "--step", "0.1",
            "--seed", "99", "--jump-floor", repr(floor), "--out", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    seed = int(np.random.SeedSequence(99).spawn(1)[0].generate_state(1)[0])
    cfg = ts.PathConfig(horizon=2.0, step=0.1, seed=seed, jump_floor=floor)
    path = ts.simulate_path(ts.load_params(params_file), cfg)
    assert (len(path.jump_times) > 0) == (floor < 1.0)
    assert (tmp_path / "path_0000.csv").read_text() == csv_17g("t,x", path.times, path.values)
    assert (tmp_path / "jumps_0000.csv").read_text() == csv_17g(
        "t,size", path.jump_times, path.jump_sizes)


def test_measure_esscher_json(runner, params_file):
    result = runner.invoke(main, [
        "measure", "esscher", "--params", params_file, "--r", "0.04", "--q", "0.01",
    ])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["exists"] is True
    assert out["residual"] <= 1e-10
    assert "params" in out


def test_measure_curve_json(runner, params_file):
    result = runner.invoke(main, [
        "measure", "curve", "--params", params_file, "--r", "0.04", "--q", "0.01",
        "--theta-grid", "0.0,0.5,1.0",
    ])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert len(out["points"]) == 3
    thetas_minus = [pt["theta_minus"] for pt in out["points"]]
    assert thetas_minus == sorted(thetas_minus)
    assert all(pt["residual"] <= 1e-10 for pt in out["points"])


def test_measure_mmm_json(runner, params_file):
    result = runner.invoke(main, [
        "measure", "mmm", "--params", params_file, "--r", "0.01", "--q", "0.0",
    ])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert "c" in out and "exists" in out


def test_price_json_with_mc_check(runner, tmp_path, skewed_tight):
    sol = ts.esscher_martingale(skewed_tight, 0.04, 0.01)
    pq_file = tmp_path / "pq.json"
    ts.save_params(sol.new_params, pq_file)
    result = runner.invoke(main, [
        "price", "--params", str(pq_file), "--s0", "100", "--r", "0.04",
        "--q", "0.01", "--strike", "105", "--maturity", "1.0",
        "--mc-check", "50000", "--seed", "4",
    ])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["method"] == "fourier"
    assert abs(out["price"] - out["mc_price"]) < 3.0 * out["mc_se"]
    assert out["put"] == pytest.approx(
        out["price"] - 100.0 * np.exp(-0.01) + 105.0 * np.exp(-0.04), abs=1e-10
    )


def test_floats_emitted_with_17_digits(runner, params_file):
    result = runner.invoke(main, ["diagnose", "--params", params_file, "--json"])
    report = json.loads(result.output)
    # round-tripping the printed JSON must be bit-stable
    exact = float(ts.moment_stats(ts.load_params(params_file)).variance)
    assert report["variance"] == exact


def test_simulate_fit_round_trip(runner, tmp_path):
    # `simulate` writes the library's path at the seed it derives, and `fit`
    # on its increments reports the library's fit of the same file; how
    # well the fit recovers the law is criterion 4's business
    theta_true = np.array([0.15, 0.4, 0.8, 0.1, 0.5, 1.0])
    p_true = ts.TemperedStableParams.create(*theta_true)
    params_path = tmp_path / "true.json"
    ts.save_params(p_true, params_path)
    out_dir = tmp_path / "paths"
    n = 1_000_000
    result = runner.invoke(main, [
        "--quiet", "simulate", "--params", str(params_path),
        "--horizon", str(float(n)), "--step", "1.0", "--seed", "3",
        "--out", str(out_dir),
    ])
    assert result.exit_code == 0
    data = np.loadtxt(out_dir / "path_0000.csv", delimiter=",", skiprows=1)
    path_seed = int(np.random.SeedSequence(3).spawn(1)[0].generate_state(1)[0])
    path = ts.simulate_path(p_true, ts.PathConfig(horizon=float(n), step=1.0, seed=path_seed))
    assert np.array_equal(data[:, 0], path.times) and np.array_equal(data[:, 1], path.values)

    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, np.diff(data[:, 1]), fmt="%.17g")
    init = ts.TemperedStableParams.create(*(theta_true * np.array([1.1, 0.9, 1.1, 0.9, 1.1, 0.9])))
    init_path = tmp_path / "init.json"
    ts.save_params(init, init_path)
    result = runner.invoke(main, ["fit", str(obs_path), "--init", str(init_path)])
    k = ts.sample_cumulants(np.loadtxt(obs_path, ndmin=1))
    fit = ts.fit_two_sided(k, init)
    assert result.exit_code == (0 if fit.converged else 3)
    assert _strict_loads(result.stdout) == {
        "params": ts.params_to_dict(fit.params), "residual": fit.residual,
        "iterations": fit.iterations, "converged": fit.converged, "n_obs": k.n_obs,
    }


def test_numerical_failure_exit_code(runner, tmp_path):
    # a Gamma-boundary law decays too slowly for the default grid plan
    gamma_like = ts.TemperedStableParams.create(2.0, 0.0, 1.0, 1e-12, 0.0, 1.0)
    path = tmp_path / "gamma.json"
    ts.save_params(gamma_like, path)
    result = runner.invoke(main, ["density", "--params", str(path)])
    assert result.exit_code == 3
    assert "NO_CONVERGENCE" in result.output


def _strict_loads(text):
    # NaN, Infinity and -Infinity are not JSON; refuse them
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def _invoke_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return _strict_loads(result.stdout)


def test_diagnose_json_round_trips_library_values(runner, tmp_path):
    law = ts.TemperedStableParams.create(1.0, 0.5, 2.0, 0.5, 0.4, 3.0)
    path = tmp_path / "law.json"
    ts.save_params(law, path)
    report = _invoke_json(runner, ["diagnose", "--params", str(path), "--json"])
    stats = ts.moment_stats(law)
    be = ts.berry_esseen_bound(law)
    br = ts.mode_bracket(law)
    assert report["params"] == ts.params_to_dict(law)
    assert type(report["params"]["alpha_plus"]) is float
    assert [report[k] for k in ("mean", "variance", "skewness", "kurtosis")] == [
        stats.mean, stats.variance, stats.skewness, stats.kurtosis]
    assert report["berry_esseen_bound"] == be.bound
    assert report["berry_esseen_vacuous"] is bool(be.vacuous)
    assert report["bg_index"] == ts.bg_index(law)
    assert report["mode_bracket"] == {"lower": br.lower, "upper": br.upper}
    assert report["tail_constant"] == ts.tail_constant(law)


def test_measure_json_round_trips_library_values(runner, params_file, skewed_tight):
    r, q = 0.04, 0.01
    base = ["--params", params_file, "--r", str(r), "--q", str(q)]
    sol = ts.esscher_martingale(skewed_tight, r, q)
    out = _invoke_json(runner, ["measure", "esscher", *base])
    assert (out["theta"], out["residual"]) == (sol.theta, sol.residual)
    assert out["params"] == ts.params_to_dict(sol.new_params)

    t1, t2 = ts.phi_domain(skewed_tight, r, q)
    theta = 0.5 * (t1 + t2)
    out = _invoke_json(runner, ["measure", "curve", *base, "--theta-grid", repr(theta)])
    point = ts.curve_point(skewed_tight, theta, r, q)
    assert out["domain"] == [t1, t2]
    assert out["points"] == [{
        "theta": theta, "theta_minus": point.theta[1], "residual": point.residual,
        "params": ts.params_to_dict(point.new_params),
    }]

    out = _invoke_json(runner, ["measure", "mmm", "--params", params_file, "--r", "0.01"])
    assert out["c"] == ts.minimal_martingale(skewed_tight, 0.01, 0.0).c


def test_esscher_without_measure_prints_null(runner, tmp_path):
    # lambda+ + lambda- <= 1: no Esscher measure, theta and residual are NaN
    law = ts.TemperedStableParams.create(0.5, 0.5, 0.6, 0.5, 0.5, 0.3)
    path = tmp_path / "law.json"
    ts.save_params(law, path)
    result = runner.invoke(main, ["measure", "esscher", "--params", str(path), "--r", "0.04"])
    assert result.exit_code == 0
    out = _strict_loads(result.stdout)
    assert out["exists"] is False
    assert out["theta"] is None and out["residual"] is None
    assert out["message"] == ts.esscher_martingale(law, 0.04, 0.0).message


def test_fit_json_round_trips_library_values(runner, tmp_path, params_file):
    # a short simulated path may give cumulants that no law fits; the CLI
    # must report whichever outcome the library gives on the same data
    law = ts.load_params(params_file)
    data = tmp_path / "obs.csv"
    obs = ts.simulate_path(law, ts.PathConfig(horizon=400.0, step=1.0, seed=11)).values
    np.savetxt(data, np.diff(obs), fmt="%.17g")
    result = runner.invoke(main, ["fit", str(data), "--init", params_file])
    try:
        k = ts.sample_cumulants(np.loadtxt(data, ndmin=1))
        fit = ts.fit_two_sided(k, law)
    except TempStableError as exc:
        assert result.exit_code == (3 if isinstance(exc, ConvergenceError) else 2)
        assert result.stdout == ""
        assert result.stderr == f"error {exc.code}: {exc}\n"
        return
    assert result.exit_code == (0 if fit.converged else 3)
    assert _strict_loads(result.stdout) == {
        "params": ts.params_to_dict(fit.params), "residual": fit.residual,
        "iterations": fit.iterations, "converged": fit.converged, "n_obs": k.n_obs,
    }


def test_price_runs_the_quadrature_once(runner, tmp_path, skewed_tight, monkeypatch):
    import tempstable.pricing as pricing

    pq = ts.esscher_martingale(skewed_tight, 0.04, 0.01).new_params
    path = tmp_path / "pq.json"
    ts.save_params(pq, path)
    calls = []
    real = pricing.call_price_fourier

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pricing, "call_price_fourier", counting)
    out = _invoke_json(runner, [
        "price", "--params", str(path), "--s0", "100", "--r", "0.04", "--q", "0.01",
        "--strike", "105", "--maturity", "1.0",
    ])
    assert len(calls) == 1
    monkeypatch.undo()
    market, option = ts.MarketConfig(100.0, 0.04, 0.01), ts.OptionSpec(105.0, 1.0)
    assert out["nu"] == ts.default_contour(pq)
    assert out["price"] == ts.call_price_fourier(pq, market, option, out["nu"])
    assert out["put"] == ts.put_price(pq, market, option, out["nu"])


def test_price_prints_the_library_bits_on_a_cache_hit_and_miss(runner, tmp_path, skewed_tight):
    import tempstable.pricing as pricing

    pq = ts.esscher_martingale(skewed_tight, 0.04, 0.01).new_params
    path = tmp_path / "pq.json"
    ts.save_params(pq, path)
    args = ["price", "--params", str(path), "--s0", "100", "--r", "0.04", "--q", "0.01",
            "--strike", "97", "--maturity", "0.5"]
    market, option = ts.MarketConfig(100.0, 0.04, 0.01), ts.OptionSpec(97.0, 0.5)
    clear_pricing_caches()
    cold_cli = _invoke_json(runner, args)["price"]  # a miss
    hit = ts.call_price_fourier(pq, market, option)
    clear_pricing_caches()
    cold = ts.call_price_fourier(pq, market, option)
    hit_cli = _invoke_json(runner, args)["price"]
    assert pricing._weighted_transform.cache_info().hits >= 1
    assert cold_cli == hit == cold == hit_cli


def test_simulate_huge_tilt_law_exits_0(runner, tmp_path):
    # upward leg at tilt c lam^beta = 2.7e10
    path = tmp_path / "law.json"
    ts.save_params(ts.TemperedStableParams.create(7444.0, 2.8e-7, 1.09e-3, 1.0, 0.5, 1.0), path)
    result = runner.invoke(main, ["simulate", "--params", str(path), "--horizon", "1",
                                  "--step", "1", "--seed", "0", "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "path_0000.csv").read_text().splitlines()
    assert rows[0] == "t,x" and len(rows) == 3
    assert all(np.isfinite(float(row.split(",")[1])) for row in rows[1:])


def test_price_plan_over_node_cap_exits_3(runner, tmp_path):
    law = ts.TemperedStableParams.create(0.30599, 0.36229, 1.00154, 0.68842, 0.68864, 7.26351)
    path = tmp_path / "law.json"
    ts.save_params(law, path)
    result = runner.invoke(main, ["price", "--params", str(path), "--s0", "100",
                                  "--r", repr(float(ts.cgf(law, 1.0))), "--strike", "100",
                                  "--maturity", "0.29"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error NO_CONVERGENCE: pricing grid needs")


def test_price_ill_conditioned_sum_exits_3(runner, tmp_path, skewed_tight):
    # extreme log-moneyness; the pricer once raised a raw OverflowError here
    path = tmp_path / "pq.json"
    ts.save_params(ts.esscher_martingale(skewed_tight, 0.04, 0.01).new_params, path)
    result = runner.invoke(main, ["price", "--params", str(path), "--s0", "1e200",
                                  "--r", "0.04", "--q", "0.01", "--strike", "1e-200",
                                  "--maturity", "1.0"])
    assert result.exit_code == 3
    assert result.stderr.startswith("error NO_CONVERGENCE:")


@pytest.mark.parametrize("law", [
    (1000.0, 0.5, 1000.0, 1.0, 0.5, 1.0),  # overflows the tail constant's exp
    (10000.0, 0.01, 1.0, 1.0, 0.5, 1.0),  # alpha^(1/beta) overflows in the mode bracket
])
def test_diagnose_extreme_law_reports_null_tail_constant(runner, tmp_path, law):
    path = tmp_path / "law.json"
    ts.save_params(ts.TemperedStableParams.create(*law), path)
    result = runner.invoke(main, ["diagnose", "--params", str(path), "--json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["tail_constant"] is None
    assert report["mode_bracket"]["lower"] < report["mode_bracket"]["upper"]
    assert all(np.isfinite(report[key]) for key in ("mean", "variance", "kurtosis"))


def test_diagnose_keeps_its_report_when_the_tail_constant_overflows(runner, tmp_path):
    # far along the sequence the tail constant is alpha e^(1.17e18), while
    # the moments and the normal-approximation bound stay finite
    path = tmp_path / "clt.json"
    ts.save_params(ts.clt_sequence(0.0, 1.0, 0.5, 1.0, 0.5, 1.0, 10**18), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["diagnose", "--params", str(path), "--json"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    assert report["tail_constant"] is None
    assert report["mean"] == 0.0
    assert report["variance"] == pytest.approx(1.0, rel=1e-12)
    assert report["kurtosis"] == 3.0
    assert report["berry_esseen_bound"] == pytest.approx(2.3e-8, rel=0.01)


def test_importing_the_cli_builds_no_csv_tables():
    # a fresh interpreter: this process may have written CSV already
    path = [str(Path(ts.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    probe = "import tempstable.cli as c; print(c._tables.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "0"



def test_diagnose_subnormal_fixed_point(runner, tmp_path):
    # the upward leg's mode fixed point is about 2e-311
    path = tmp_path / "law.json"
    ts.save_params(ts.TemperedStableParams.create(
        2.2163056666663525e-4, 0.011763846646541032, 147.68647095934816, 1.0, 0.5, 1.0), path)
    result = runner.invoke(main, ["diagnose", "--params", str(path), "--json"])
    assert result.exit_code == 0, result.output
    bracket = json.loads(result.output)["mode_bracket"]
    assert bracket["lower"] < bracket["upper"]


_PRICE = "price --params {law} --s0 100 --r 0.04 --strike 105 --maturity 1"
_SIMULATE = "simulate --params {law} --horizon 1 --step 0.25 --seed 1 --out {out}"


def test_simulate_too_many_jumps_exits_2(runner, tmp_path, skewed):
    # rng.poisson raised a raw "lam value too large" ValueError
    path = tmp_path / "law.json"
    ts.save_params(skewed, path)
    result = runner.invoke(main, ["simulate", "--params", str(path), "--horizon", "1",
                                  "--step", "1", "--seed", "0", "--jump-floor", "1e-300",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error PARAM_DOMAIN:")


def test_simulate_unallocatable_grid_exits_2(runner, tmp_path, skewed):
    # 10^15 steps: numpy refuses the 7 PiB time grid at once; that was a traceback, exit 1
    path = tmp_path / "law.json"
    ts.save_params(skewed, path)
    result = runner.invoke(main, ["simulate", "--params", str(path), "--horizon", "1e15",
                                  "--step", "1", "--seed", "1", "--out", str(tmp_path / "d")])
    assert result.exit_code == 2
    assert result.stderr.startswith("error OUT_OF_MEMORY: Unable to allocate")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("law", EMPTY_CURVE_LAWS)
def test_measure_curve_empty_domain_exits_2(runner, tmp_path, law):
    path = tmp_path / "law.json"
    ts.save_params(ts.TemperedStableParams.create(*law), path)
    result = runner.invoke(main, ["measure", "curve", "--params", str(path), "--r", "0.03",
                                  "--theta-grid", "0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error PARAM_DOMAIN: the bilateral martingale curve is empty")


# click keeps the last value of a repeated option, so each case overrides
# one valid value with a bad one
@pytest.mark.parametrize("command, law_override", [
    (_PRICE + " --s0 inf", {}),
    (_PRICE + " --strike inf", {}),
    (_PRICE + " --maturity inf", {}),
    (_PRICE + " --r inf", {}),
    (_PRICE + " --seed -1", {}),
    ("diagnose --params {law}", {"lambda_plus": float("inf")}),
    ("measure esscher --params {law} --r inf", {}),
    (_SIMULATE + " --seed -1", {}),
    (_SIMULATE + " --horizon inf", {}),
    (_SIMULATE + " --jump-floor inf", {}),
    (_SIMULATE + " --paths -1", {}),
], ids=["s0", "strike", "maturity", "r", "price-seed", "lambda-file", "esscher-r",
        "simulate-seed", "horizon", "jump-floor", "paths"])
def test_non_finite_or_negative_input_exits_2(runner, tmp_path, params_file,
                                              command, law_override):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({**json.loads(open(params_file).read()), **law_override}))
    args = command.format(law=law, out=tmp_path / "paths").split()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert caught == []
