import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from couette_gevrey import harness
from couette_gevrey.coordinates import couette_state
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
    sweep,
)


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
                dict(cadence=0.0), dict(cadence=-0.25),
                dict(formats=("xml",)), dict(formats=("csv", "xml"))):
        with pytest.raises(ConfigError):
            ExperimentConfig(**bad)
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


def test_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "schema_version": 1,
        "ny": 48,
        "kmax": 1,
        "nu": [1e-2],
        "t_final_policy": "absolute",
        "t_final_value": 0.5,
        "cadence": 0.25,
        "output_dir": str(tmp_path / "out"),
    }))
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.ny == 48 and cfg.nu == (1e-2,)
    # flags override file keys
    cfg2 = ExperimentConfig.from_yaml(path, {"ny": 32})
    assert cfg2.ny == 32
    bad = tmp_path / "bad.yaml"
    bad.write_text("unknown_key: 1\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(bad)


def test_run_produces_report_and_files(tmp_path):
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=1.0)
    report = run(cfg)
    assert report["all_monotone"] in (True, False)
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
    # three modes, each with one LU pair for the restart and one for SBDF2
    assert counters["lu_factor_pairs"] == 6
    times = timings["times"]
    assert 0.0 < times["stepping_s"] + times["evaluation_s"] <= times["wall_clock_s"]
    size = (tmp_path / "timings_nu1e-02.json").stat().st_size
    run(cfg)  # the file's length does not depend on the measured times
    assert (tmp_path / "timings_nu1e-02.json").stat().st_size == size
    summary = json.loads((tmp_path / "summary_nu1e-02.json").read_text())
    (summary_run,) = json.loads((tmp_path / "summary.json").read_text())["runs"]
    assert summary == summary_run and "timings" not in summary


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


def test_sweep_nu_uniformity():
    cfg = small_config(ny=96, nu=(1e-2, 3e-3), t_final_policy="absolute", t_final_value=2.0)
    out = sweep(cfg, over="nu")
    assert out["uniform"]
    assert out["uniformity_ratio"] <= 2.0
    assert set(out["monotone_flags"]) == {"0.01", "0.003"}
    with pytest.raises(ConfigError):
        sweep(small_config(nu=(1e-3,)), over="nu")


def test_sweep_m_consistency():
    cfg = small_config(truncation_m=4, t_final_policy="absolute", t_final_value=1.0)
    out = sweep(cfg, over="M")
    assert out["within_tail_budget"]


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


def test_cli_exit_codes(tmp_path, capsys):
    # config error -> 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("shear: bogus\n")
    assert main(["--config", str(bad), "run"]) == 2
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

