import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from couette_gevrey import harness
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
    cfg = ExperimentConfig(weights={"s": 1.5, "lambda0": 0.25})
    assert cfg.weight_params().s == 1.5
    with pytest.raises(ConfigError):
        ExperimentConfig(weights={"s": 0.5}).weight_params()


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
                       t_final_value=1.0, checkpoints=True)
    report = run(cfg)
    assert report["all_monotone"] in (True, False)
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "series_nu1e-02.csv").exists()
    assert (tmp_path / "checkpoint_nu1e-02.bin").exists()
    header = (tmp_path / "series_nu1e-02.csv").read_text().splitlines()[0]
    assert "E_gamma" in header and "t" in header


def test_serial_runs_byte_identical(tmp_path):
    cfg = small_config(output_dir=str(tmp_path), t_final_policy="absolute",
                       t_final_value=0.6, serial=True)
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


def test_zero_shear_runs_no_coordinate_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("zero shear needs no coordinate solve")

    monkeypatch.setattr(harness, "step_coordinates", no_solve)
    res = run_single_nu(small_config(t_final_policy="absolute", t_final_value=0.2), 1e-2)
    assert len(res["series"]) == 5


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


def test_parallel_stack_evaluation(monkeypatch):
    monkeypatch.setenv("COUETTE_GEVREY_THREADS", "4")
    cfg_serial = small_config(t_final_policy="absolute", t_final_value=0.3, serial=True)
    cfg_par = small_config(t_final_policy="absolute", t_final_value=0.3, serial=False)
    a = run_single_nu(cfg_serial, 1e-2)
    b = run_single_nu(cfg_par, 1e-2)
    assert a["theta_series"] == b["theta_series"]
