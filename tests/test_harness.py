import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from couette_gevrey import elliptic, harness, spectral
from couette_gevrey.coordinates import couette_state
from couette_gevrey.elliptic import decompose_phi, eval_elliptic_functionals
from couette_gevrey.harness import (
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _load_config,
    damping_suite,
    decompose_suite,
    identity_suite,
    main,
    run,
    run_single_nu,
)
from couette_gevrey.spectral import green_matrix


def small_config(**kw):
    # nu = 1e-2 keeps the localization weight mild, which is what a coarse
    # Ny = 64 / M = 2 configuration can support; the acceptance suite runs
    # the production configuration at Ny = 192
    # the cadence must resolve the initial dissipation transient
    # (~ 1/(2 nu lambda_grad) ~ 0.2 at nu = 1e-2) or the trapezoid rule
    # overestimates int(D) and fakes a surrogate rise
    base = dict(ny=64, kmax=2, nu=(1e-2,), truncation_m=2, cadence=0.05,
                output_dir="/tmp/cg_harness_test", noise_floor=1e-8)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(schema_version=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(nu=())
    with pytest.raises(ConfigError):
        ExperimentConfig(t_final_policy="absolute")
    with pytest.raises(ConfigError):
        ExperimentConfig(shear="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(truncation_m=13)
    with pytest.raises(ConfigError):
        ExperimentConfig(nu=(1e-3, 0.0))
    # run-control values that would loop forever, run backwards, be ignored
    # or write nothing
    for bad in (dict(dt=-0.01), dict(dt=0.0),
                dict(t_final_policy="absolute", t_final_value=-1.0),
                dict(t_final_policy="absolute", t_final_value=0.0),
                dict(cadence=0.0), dict(cadence=-0.25)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
    # values the run would only reject, or misread, once it had started
    for bad in (dict(shear="quartic", eps_u=0.5), dict(shear="sin_quartic", eps_u=0.5),
                dict(shear="quartic", eps_u=-1.0), dict(shear="quartic", eps_u=float("nan")),
                dict(noise_floor=-1.0), dict(noise_floor=2.0)):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
    # integer keys take integers: a fraction would fail inside the run, and
    # YAML's true would run as 1
    for key in ("schema_version", "ny", "kmax", "truncation_m"):
        for bad in (64.5, 2.5, 1.0, True, "64"):
            with pytest.raises(ConfigError, match=f"config.{key}"):
                ExperimentConfig(**{key: bad})
    assert ExperimentConfig(ny=np.int64(48)).ny == 48
    # real-valued keys take numbers: YAML's true would run as 1, and its 1e-2
    # (read as text) would fail without naming the key
    for key in ("t_final_value", "eps_u", "cadence", "noise_floor", "dt"):
        for bad in (True, False, "1e-2", "0.5"):
            with pytest.raises(ConfigError, match=f"config.{key}: must be a number"):
                ExperimentConfig(**{key: bad})
    for bad in (True, False, "1e-2", None):
        with pytest.raises(ConfigError, match="config.nu: must be a number"):
            ExperimentConfig(nu=(1e-3, bad))
    cfg = ExperimentConfig(nu=(np.float64(1e-3), 1), cadence=1, dt=np.float32(0.5), t_final_value=2)
    assert cfg.nu == (1e-3, 1.0) and all(type(v) is float for v in cfg.nu)
    # the zero profile has no amplitude to bound
    assert ExperimentConfig(shear="zero", eps_u=0.5).eps_u == 0.5
    cfg = ExperimentConfig(weights={"s": 1.5, "lambda0": 0.25})
    assert cfg.weight_params().s == 1.5
    with pytest.raises(ConfigError):
        ExperimentConfig(weights={"s": 0.5}).weight_params()


def test_config_shear_is_a_registered_profile():
    # the config accepts exactly the names the coordinate layer can build
    from couette_gevrey.coordinates import PROFILES, make_profile

    for name in PROFILES:
        cfg = ExperimentConfig(shear=name)
        assert make_profile(cfg.shear, cfg.eps_u).name == name
    for bad in ("bogus", "Quartic", ""):
        with pytest.raises(ConfigError):
            ExperimentConfig(shear=bad)


def test_config_yaml_roundtrip(tmp_path, capsys):
    keys = {
        "schema_version": 1,
        "ny": 48,
        "kmax": 1,
        "nu": [1e-2],
        "t_final_policy": "absolute",
        "t_final_value": 0.5,
        "cadence": 0.25,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(keys))
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.ny == 48 and cfg.nu == (1e-2,)
    # flags override file keys
    cfg2 = ExperimentConfig.from_yaml(path, {"ny": 32})
    assert cfg2.ny == 32
    bad = tmp_path / "bad.yaml"
    bad.write_text("unknown_key: 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(bad)
    # keys that are no longer settings are unknown too, and a run on them writes nothing
    for key, value in (("formats", ["csv", "json"]), ("data_power", 16), ("monotonicity_slack", 0.05)):
        bad.write_text(yaml.safe_dump({**keys, key: value}))
        with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
            ExperimentConfig.from_yaml(bad)
        assert main(["--config", str(bad), "run"]) == 2
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_run_produces_report_and_files(tmp_path):
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=1.0)
    report = run(cfg)
    assert report["all_monotone"] in (True, False)
    # one viscosity has no uniformity to judge
    assert "uniform" not in report and "uniformity_ratio" not in report
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "series_nu1e-02.csv").exists()
    header = (tmp_path / "series_nu1e-02.csv").read_text().splitlines()[0]
    assert "E_gamma" in header and "t" in header


def test_run_writes_timings_beside_summary(tmp_path):
    # a dt of 1/64 reaches t = 0.3125 in 20 steps without roundoff
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=0.3125, dt=1.0 / 64.0)
    (res,) = run(cfg)["_full"]
    timings = json.loads((tmp_path / "timings_nu1e-02.json").read_text())
    assert set(timings) == {"counters", "times"}
    assert set(timings["times"]) == {"stepping_s", "evaluation_s", "wall_clock_s"}
    counters = timings["counters"]
    assert counters["samples"] == len(res["series"])
    assert counters["steps"] == 20
    assert counters["restarts"] == 1
    # the bump is exactly zero outside (-1/4, 1/4), so every floor zeroes points
    assert counters["floored_points"] > 0
    times = timings["times"]
    assert 0.0 < times["stepping_s"] + times["evaluation_s"] <= times["wall_clock_s"]
    size = (tmp_path / "timings_nu1e-02.json").stat().st_size
    run(cfg)  # the file's length does not depend on the measured times
    assert (tmp_path / "timings_nu1e-02.json").stat().st_size == size
    summary = json.loads((tmp_path / "summary_nu1e-02.json").read_text())
    (summary_run,) = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert summary == summary_run and "timings" not in summary


def test_roundoff_shortened_last_step_is_no_restart(tmp_path):
    # t_final - t of the last step differs from dt = 0.01 by roundoff; that
    # is no restart, so the run takes only its first IMEX-SSP2 step
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=0.3, dt=0.01)
    run(cfg)
    counters = json.loads((tmp_path / "timings_nu1e-02.json").read_text())["counters"]
    assert counters["restarts"] == 1


def test_serial_runs_byte_identical(tmp_path):
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=0.6)
    run(cfg)
    first = (tmp_path / "summary.json").read_bytes()
    run(cfg)
    assert (tmp_path / "summary.json").read_bytes() == first


def test_surrogate_monotone_small():
    cfg = small_config(t_final_policy="absolute", t_final_value=2.0)
    res = run_single_nu(cfg, 1e-3)
    assert res["surrogate_monotone"]
    assert res["theta_series"][0] > 0


def test_run_reports_nu_uniformity(tmp_path):
    cfg = small_config(ny=96, nu=(1e-2, 3e-3), t_final_policy="absolute", t_final_value=2.0,
                       output_dir=str(tmp_path))
    report = run(cfg)
    assert report["uniform"]
    assert report["uniformity_ratio"] <= 2.0
    for res in report["_full"]:
        assert res["theta_ratio"] == res["theta_series"][-1] / res["theta_series"][0]
        assert res["truncation_check"]["within_tail_budget"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["uniform"] and summary["uniformity_ratio"] == report["uniformity_ratio"]
    assert [r["theta_ratio"] for r in summary["runs"]] == [r["theta_ratio"] for r in report["_full"]]
    assert all("truncation_check" in r for r in summary["runs"])


def test_run_truncation_check_matches_lower_m():
    # the last sample's shells at M hold a run at M - 2: the same E_gamma and
    # tail, bit for bit
    def last_sample(m):
        cfg = small_config(truncation_m=m, t_final_policy="absolute", t_final_value=1.0)
        return run_single_nu(cfg, 1e-2)

    for m in (3, 4, 6):
        res, lower = last_sample(m), last_sample(m - 2)
        check = res["truncation_check"]
        assert check["values"] == [m - 2, m]
        assert check["terminal_E_gamma"][str(m - 2)] == lower["series"][-1]["E_gamma"]
        assert check["tail_estimates"][str(m - 2)] == lower["series"][-1]["tail_E_gamma"]
        assert check["terminal_E_gamma"][str(m)] == res["series"][-1]["E_gamma"]
        assert check["tail_estimates"][str(m)] == res["series"][-1]["tail_E_gamma"]
        assert check["within_tail_budget"]
    # M = 0 has no lower truncation to compare with
    assert last_sample(0)["truncation_check"] is None


def test_cli_run_exit_rule(tmp_path, monkeypatch, capsys):
    def fake_runs(ratios, within):
        def fake(config, nu, out_dir=None):
            i = config.nu.index(nu)
            check = None if within[i] is None else {"within_tail_budget": within[i]}
            return {"nu": nu, "theta_ratio": ratios[i], "surrogate_monotone": True,
                    "truncation_check": check}
        return fake

    argv = ["--output-dir", str(tmp_path), "run", "--nu", "1e-2", "--nu", "3e-3"]
    for ratios, within, code in (((1.0, 0.8), (True, None), 0),
                                 ((1.0, 0.3), (True, True), 1),
                                 ((1.0, 0.8), (True, False), 1)):
        monkeypatch.setattr(harness, "run_single_nu", fake_runs(ratios, within))
        assert main(argv) == code
        printed = json.loads(capsys.readouterr().out)
        assert printed["uniformity_ratio"] == max(ratios) / min(ratios)


def test_identity_suite_quick():
    reports = identity_suite(ny=64, quick=True)
    assert all(r["pass"] for r in reports)
    names = {r["name"] for r in reports}
    assert any(name.startswith("commutator") for name in names)
    assert any(name.startswith("mode_equation") for name in names)


def test_decompose_suite_flat():
    cfg = small_config(kmax=2, ny=96)
    out = decompose_suite(cfg, nu=1e-3, t_stop=1.0)
    assert set(out["sum_residuals"]) == {1, 2}
    assert max(out["sum_residuals"].values()) < 1e-6
    assert out["functionals"]["E_ell_I_full"] >= 0.0


def test_decompose_suite_builds_green_matrices_once(monkeypatch):
    built = []

    def counted_green_matrix(grid, ks, *args, **kwargs):
        built.append(list(ks))
        return green_matrix(grid, ks, *args, **kwargs)

    monkeypatch.setattr(harness, "green_matrix", counted_green_matrix)
    monkeypatch.setattr(elliptic, "green_matrix", counted_green_matrix)
    cfg = small_config(ny=48, kmax=3, truncation_m=4, shear="quartic", eps_u=1.0 / 256.0)
    out = decompose_suite(cfg, nu=1e-4, t_stop=2.0)
    assert built == [[1, 2, 3]]
    monkeypatch.undo()

    # the shared tables change nothing against one decomposition per mode
    # that builds its own
    state, coord = out["_state"], out["_coord"]
    decomps = {k: decompose_phi(omega_k, k, coord, state.grid)
               for k, omega_k in zip(state.ks, state.omega) if k != 0}
    assert max(d.iterations for d in decomps.values()) > 1
    assert out["sum_residuals"] == {k: d.sum_residual for k, d in decomps.items()}
    assert out["iterations"] == {k: d.iterations for k, d in decomps.items()}
    ctx = harness._setup(cfg, 1e-4)[1]
    funcs = eval_elliptic_functionals(decomps, coord, ctx, M=4)
    for name in ("J_ell_1", "J_ell_2", "J_ell_3"):
        assert out["functionals"][name] == funcs[name]


def test_dirichlet_eigenbasis_built_once_per_grid(tmp_path, monkeypatch):
    # every scalar step of a run and every stream solve of a decomposition
    # share the one eigenbasis of their grid
    grids, eig_class = [], spectral.DirichletEig

    def counted(grid):
        grids.append(grid)
        return eig_class(grid)

    monkeypatch.setattr(spectral, "DirichletEig", counted)
    (res,) = run(small_config(output_dir=str(tmp_path), t_final_policy="absolute", t_final_value=0.3))["_full"]
    assert res["timings"]["counters"]["steps"] == 30 and len(grids) == 1
    out = decompose_suite(small_config(ny=48, kmax=3, shear="quartic", eps_u=1.0 / 256.0), nu=1e-4, t_stop=0.5)
    assert len(out["sum_residuals"]) == 3
    assert len(grids) == 2 and grids[1] is out["_state"].grid


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("shear: bogus\n")
    assert main(["--config", str(bad), "run"]) == 2
    # a shear amplitude the profile rejects exits 2 before any step, not 3
    bad.write_text(f"shear: quartic\neps_u: 0.5\noutput_dir: {tmp_path / 'out'}\n")
    assert main(["--config", str(bad), "run"]) == 2
    assert "config.eps_u" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # bad driver flags are config errors too, caught before any work
    assert main(["verify-identities", "--ny", "3"]) == 2
    assert "--ny" in capsys.readouterr().err
    assert main(["damping", "--k", "0"]) == 2
    assert "--k" in capsys.readouterr().err
    assert main(["--output-dir", str(tmp_path / "deco"), "decompose", "--nu", "1e-3", "--t", "-1"]) == 2
    assert "--t" in capsys.readouterr().err
    assert not (tmp_path / "deco").exists()
    # verify-identities quick -> 0 and one JSON line per report
    code = main(["verify-identities", "--ny", "48", "--quick"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    parsed = [json.loads(line) for line in out if line.startswith("{")]
    assert all("pass" in p for p in parsed)


def test_cli_zero_overrides_reach_config():
    args = _build_parser().parse_args(["run", "--kmax", "0", "--nu", "1e-3"])
    cfg = _load_config(args)
    assert cfg.kmax == 0 and cfg.nu == (1e-3,)


def test_cli_zero_viscosity_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "ny": 48, "kmax": 1, "nu": [0.0], "truncation_m": 2,
        "t_final_policy": "absolute", "t_final_value": 0.4,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(cfgfile), "run"]) == 2
    assert "config.nu" in capsys.readouterr().err


def test_cli_negative_dt_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "ny": 48, "kmax": 1, "nu": [1e-2], "truncation_m": 2, "dt": -0.01,
        "t_final_policy": "absolute", "t_final_value": 0.4,
        "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(cfgfile), "run"]) == 2
    assert "config.dt" in capsys.readouterr().err


def test_cli_fractional_integer_key_is_config_error(tmp_path, capsys):
    for key, value in (("ny", 64.5), ("kmax", 2.5), ("truncation_m", 2.5), ("kmax", True)):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "ny": 48, "kmax": 1, "nu": [1e-2], "truncation_m": 2, key: value,
            "t_final_policy": "absolute", "t_final_value": 0.4,
            "output_dir": str(tmp_path / "out"),
        }))
        assert main(["--config", str(cfgfile), "run"]) == 2
        assert f"config.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_non_number_real_key_is_config_error(tmp_path, capsys):
    # YAML reads true as a bool and 1e-2 (no dot) as text: neither is a number
    base = {"ny": "48", "kmax": "1", "nu": "[1.0e-2]", "truncation_m": "2", "t_final_policy": "absolute",
            "t_final_value": "0.4", "output_dir": str(tmp_path / "out")}
    for key, text in (("nu", "true"), ("nu", "1e-2"), ("nu", "[1.0e-2, 1e-3]"), ("cadence", "true"),
                      ("noise_floor", "false"), ("dt", "1e-2"),
                      ("t_final_value", "true"), ("eps_u", "1e-2")):
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text("".join(f"{k}: {v}\n" for k, v in {**base, key: text}.items()))
        assert main(["--config", str(cfgfile), "run"]) == 2
        assert f"config.{key}: must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_negative_seed_is_config_error(capsys):
    assert main(["--seed", "-1", "verify-identities", "--quick"]) == 2
    assert "--seed: must be nonnegative" in capsys.readouterr().err


def test_readme_config_block_matches_config(tmp_path):
    # the README's YAML block documents every config key with its default,
    # so a key that is added or deleted cannot drift out of the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert set(yaml.safe_load(block)) == set(ExperimentConfig.__dataclass_fields__)
    path = tmp_path / "readme.yaml"
    path.write_text(block)
    assert ExperimentConfig.from_yaml(path) == ExperimentConfig()


def test_zero_shear_runs_no_coordinate_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("zero shear needs no coordinate solve")

    built = []

    def counted_couette_state(grid, t=0.0):
        built.append(t)
        return couette_state(grid, t)

    monkeypatch.setattr(harness, "step_coordinates", no_solve)
    monkeypatch.setattr(harness, "couette_state", counted_couette_state)
    res = run_single_nu(small_config(t_final_policy="absolute", t_final_value=0.2), 1e-2)
    assert len(res["series"]) == 5
    # the flat coordinate is built at the samples after t = 0, not every step
    assert built == [row["t"] for row in res["series"][1:]]


def test_zero_shear_decompose_runs_no_coordinate_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("zero shear needs no coordinate solve")

    monkeypatch.setattr(harness, "step_coordinates", no_solve)
    out = decompose_suite(small_config(kmax=1, ny=48), nu=1e-2, t_stop=0.2)
    assert out["_coord"].t == out["t"]
    assert not np.any(out["_coord"].w)
    assert set(out["iterations"]) == {1}


def test_cli_run_and_report(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "ny": 48, "kmax": 1, "nu": [1e-2], "truncation_m": 2,
        "t_final_policy": "absolute", "t_final_value": 0.4,
        "cadence": 0.2, "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(cfgfile), "run"]) == 0
    capsys.readouterr()
    assert main(["--config", str(cfgfile), "report"]) == 0
    out = capsys.readouterr().out
    assert "all_monotone" in out


def test_cli_decompose(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(yaml.safe_dump({
        "ny": 96, "kmax": 1, "nu": [1e-3], "truncation_m": 2,
        "t_final_policy": "absolute", "t_final_value": 2.0,
        "cadence": 1.0, "output_dir": str(tmp_path / "out"),
    }))
    assert main(["--config", str(cfgfile), "decompose", "--t", "0.5"]) == 0
    files = list((tmp_path / "out").glob("decompose_k1_*.csv"))
    assert files


def test_import_loads_no_scipy():
    # the package and its CLI need NumPy only; SciPy is a test-time oracle
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, couette_gevrey, couette_gevrey.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
