import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import tempstable as ts
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


def test_density_tilt_flag_consistent_in_bulk(runner, params_file, tmp_path):
    # damping trades accuracy between the tails; in the bulk the tilted
    # and plain evaluations must agree
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["density", "--params", params_file, "--nodes", "4096"]
    assert runner.invoke(main, base + ["--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, base + ["--tilt", "0.4", "--out", str(out_b)]).exit_code == 0
    a = np.array([[float(t) for t in line.split(",")]
                  for line in out_a.read_text().splitlines()[1:]])
    b = np.array([[float(t) for t in line.split(",")]
                  for line in out_b.read_text().splitlines()[1:]])
    law = ts.load_params(params_file)
    stats = ts.moment_stats(law)
    bulk = np.abs(a[:, 0] - stats.mean) < 6.0 * np.sqrt(stats.variance)
    pdf_b = np.interp(a[bulk, 0], b[:, 0], b[:, 1])
    # the two files sit on different grids; linear interpolation across
    # the sharp peak limits the agreement here (direct evaluation on a
    # common grid agrees to 1e-9, see the density module tests)
    assert np.max(np.abs(a[bulk, 1] - pdf_b)) < 1e-4


def test_simulate_deterministic(runner, params_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--params", params_file, "--horizon", "2.0", "--step", "0.1",
            "--seed", "99", "--paths", "2", "--jump-floor", "1e-3"]
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    for name in ("path_0000.csv", "path_0001.csv", "jumps_0000.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


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
    # path increments written by `simulate` feed `fit` and recover the
    # generating parameters within the estimator's statistical noise
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
    increments = np.diff(data[:, 1])
    obs_path = tmp_path / "obs.csv"
    np.savetxt(obs_path, increments, fmt="%.17g")
    init_path = tmp_path / "init.json"
    ts.save_params(ts.TemperedStableParams.create(
        *(theta_true * np.array([1.1, 0.9, 1.1, 0.9, 1.1, 0.9]))
    ), init_path)
    result = runner.invoke(main, ["fit", str(obs_path), "--init", str(init_path)])
    assert result.exit_code == 0
    fitted = json.loads(result.output)
    assert fitted["converged"] is True
    hat = np.array([fitted["params"][k] for k in (
        "alpha_plus", "beta_plus", "lambda_plus",
        "alpha_minus", "beta_minus", "lambda_minus",
    )])
    assert np.max(np.abs(hat - theta_true) / theta_true) < 0.35


def test_numerical_failure_exit_code(runner, tmp_path):
    # a Gamma-boundary law decays too slowly for the default grid plan
    gamma_like = ts.TemperedStableParams.create(2.0, 0.0, 1.0, 1e-12, 0.0, 1.0)
    path = tmp_path / "gamma.json"
    ts.save_params(gamma_like, path)
    result = runner.invoke(main, ["density", "--params", str(path)])
    assert result.exit_code == 3
    assert "NO_CONVERGENCE" in result.output
