"""Experiment configuration, orchestration and the command line interface.

Subcommands: run, verify-identities, damping, decompose, report.
Exit codes: 0 all checks pass, 1 an acceptance-tagged check failed,
2 configuration error, 3 runtime solver error.  ``run`` exits 1 when a run
is not monotone or outside its tail budget, or the Theta ratios are not uniform.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import identities as idn
from .coordinates import (
    PROFILES,
    build_gamma_stack,
    couette_state,
    init_coordinates,
    make_profile,
    monitor_assumptions,
    step_coordinates,
)
from .elliptic import (
    damping_diagnostic,
    decompose_phi,
    eval_elliptic_functionals,
    interior_geometry,
    interior_greens_response,
)
from .functionals import EvalContext, full_report, truncation_tail
from .scalar import (
    StabilityError,
    default_dt,
    default_initial_data,
    gevrey_bump,
    initial_state,
    spline_bump,
    step_scalar,
)
from .spectral import ChannelGrid, green_matrix
from .weights import WeightParams, build_cascade


# criterion c08: the largest Theta(T)/Theta(0) over the smallest, across nu
UNIFORMITY_LIMIT = 2.0
# the largest rise of Theta = E + int(D + CK) a monotone run may show, relative to Theta(0)
MONOTONICITY_SLACK = 0.05
# `damping` exits 0 when the smooth bump's decay slope lies in this range
DAMPING_SLOPE_RANGE = (-2.3, -1.7)
# `decompose` exits 0 when every mode's sum residual is below this
DECOMPOSE_RESIDUAL_LIMIT = 1e-6


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    schema_version: int = 1
    ny: int = 64
    kmax: int = 8
    nu: tuple[float, ...] = (1e-3,)
    t_final_policy: str = "nu_cube_root"  # or "absolute"
    t_final_value: float | None = None
    shear: str = "zero"
    eps_u: float = 1.0 / 64.0
    weights: dict = field(default_factory=dict)
    truncation_m: int = 6
    output_dir: str = "out"
    cadence: float = 0.25
    noise_floor: float = 1e-8
    dt: float | None = None

    def __post_init__(self):
        for key in ("schema_version", "ny", "kmax", "truncation_m"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"config.{key}: must be an integer, not {value!r}")
        reals = [("nu", v) for v in self.nu] + [(key, getattr(self, key)) for key in (
            "t_final_value", "eps_u", "cadence", "noise_floor", "dt")]
        for key, value in reals:
            if value is None and key in ("t_final_value", "dt"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"config.{key}: must be a number, not {value!r}")
        self.nu = tuple(float(v) for v in self.nu)
        if self.schema_version != 1:
            raise ConfigError("config.schema_version: only version 1 is understood")
        if self.ny < 8:
            raise ConfigError("config.ny: need at least 8")
        if self.kmax < 0:
            raise ConfigError("config.kmax: must be nonnegative")
        if not self.nu:
            raise ConfigError("config.nu: empty viscosity list")
        for v in self.nu:
            if not v > 0.0:
                raise ConfigError("config.nu: entries must be > 0")
        if self.t_final_policy not in ("nu_cube_root", "absolute"):
            raise ConfigError("config.t_final_policy: unknown policy")
        if self.t_final_policy == "absolute" and self.t_final_value is None:
            raise ConfigError("config.t_final_value: required for absolute policy")
        if self.t_final_value is not None and not self.t_final_value > 0.0:
            raise ConfigError("config.t_final_value: must be > 0")
        if self.dt is not None and not self.dt > 0.0:
            raise ConfigError("config.dt: must be > 0")
        if not self.cadence > 0.0:
            raise ConfigError("config.cadence: must be > 0")
        try:
            make_profile(self.shear, self.eps_u)
        except ValueError as exc:
            raise ConfigError(f"config.{'eps_u' if self.shear in PROFILES else 'shear'}: {exc}") from exc
        if not 0.0 <= self.noise_floor < 1.0:
            raise ConfigError("config.noise_floor: must lie in [0, 1)")
        if self.truncation_m < 0 or self.truncation_m > 12:
            raise ConfigError("config.truncation_m: hard cap is 12")

    def weight_params(self) -> WeightParams:
        try:
            return WeightParams(**self.weights)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.weights: {exc}") from exc

    def t_final(self, nu: float) -> float:
        if self.t_final_policy == "absolute":
            return float(self.t_final_value)
        if nu <= 0.0:
            raise ConfigError("config.t_final_policy: nu_cube_root needs nu > 0")
        return float(nu ** (-1.0 / 3.0))

    @classmethod
    def from_yaml(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a key/value tree")
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        if "nu" in raw:
            raw["nu"] = tuple(raw["nu"]) if isinstance(raw["nu"], (list, tuple)) else (raw["nu"],)
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self) -> dict:
        d = asdict(self)
        d["nu"] = list(self.nu)
        return d


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _timings_json(timings: dict) -> str:
    """``_json_dump``'s layout of the timings, with every time written as
    %.6e: only digits change from run to run, never the file's length."""
    groups = []
    for group, fmt in (("counters", "{}"), ("times", "{:.6e}")):
        rows = ",\n".join(f'  "{key}": {fmt.format(value)}'
                          for key, value in sorted(timings[group].items()))
        groups.append(f' "{group}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(groups) + "\n}\n"


def _stable(x):
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


# ---------------------------------------------------------------------------
# single run


def _setup(config: ExperimentConfig, nu: float):
    """Grid, context, profile, scalar and coordinate state at t = 0, and the step dt."""
    params = config.weight_params()
    grid = ChannelGrid(config.ny, kmax=config.kmax)
    cascade = build_cascade(params, max(config.truncation_m + 2, 8))
    ctx = EvalContext(grid, params, cascade, nu=nu, floor_rel=config.noise_floor)
    profile = make_profile(config.shear, config.eps_u)
    state = initial_state(grid, nu, default_initial_data(grid, config.kmax))
    coord = init_coordinates(profile, grid, nu)
    dt = config.dt if config.dt is not None else default_dt(config.kmax)
    return grid, ctx, profile, state, coord, dt


def _advance(config: ExperimentConfig, state, coord, step: float, profile):
    """One scalar step, and one coordinate step unless the shear is zero.

    The zero profile keeps w = 0 exactly, so its coordinate is never
    stepped: ``_coord_at`` builds it where it is read.
    """
    state = step_scalar(state, step, profile)
    if config.shear == "zero":
        return state, coord
    return state, step_coordinates(coord, step, state.nu, profile, state.grid)


def _coord_at(config: ExperimentConfig, state, coord):
    """The coordinate at the scalar's time, from what ``_advance`` returned."""
    return couette_state(state.grid, state.t) if config.shear == "zero" else coord


def _truncation_check(shells, M: int) -> dict | None:
    """E_gamma and its tail at max(M - 2, 0) and at M, read off one sample's
    shells (shell j sums the terms with m + n = j); None at M = 0."""
    if M == 0:
        return None
    lo, hi = max(M - 2, 0), M
    shells = np.asarray(shells)
    e = {m: float(shells[: m + 1].sum()) for m in (lo, hi)}
    tail = {m: truncation_tail(shells[: m + 1]) for m in (lo, hi)}
    budget = (tail[lo] + tail[hi]) * max(e.values()) + 1e-14 * max(e[hi], 1.0)
    return {
        "values": [lo, hi],
        "terminal_E_gamma": {str(m): v for m, v in e.items()},
        "tail_estimates": {str(m): v for m, v in tail.items()},
        "within_tail_budget": bool(abs(e[hi] - e[lo]) <= budget),
    }


def run_single_nu(config: ExperimentConfig, nu: float, out_dir: Path | None = None) -> dict:
    """Evolve one viscosity, evaluating functionals on the stated cadence."""
    start = time.perf_counter()
    grid, ctx, profile, state, coord, dt = _setup(config, nu)
    t_final = config.t_final(nu)

    def evaluate(scalar_state, coord_state):
        stacks = {
            k: build_gamma_stack(omega_k, k, coord_state, config.truncation_m, grid, t=scalar_state.t)
            for k, omega_k in zip(scalar_state.ks, scalar_state.omega)
        }
        rep = full_report(stacks, ctx, coord_state, coord_M=config.truncation_m)
        rep["l2_total"] = scalar_state.total_l2()
        for k, norm in scalar_state.l2_norms().items():
            rep[f"l2_k{k}"] = norm
        return rep

    series, monitors = [], []
    steps, stepping, evaluation = 0, 0.0, 0.0

    def sample(scalar_state, coord_state):
        nonlocal evaluation
        tick = time.perf_counter()
        series.append(evaluate(scalar_state, coord_state))
        monitors.append(monitor_assumptions(coord_state, profile, grid))
        evaluation += time.perf_counter() - tick

    sample(state, coord)
    next_sample = config.cadence
    while state.t < t_final - 1e-12:
        tick = time.perf_counter()
        state, coord = _advance(config, state, coord, min(dt, t_final - state.t), profile)
        stepping += time.perf_counter() - tick
        steps += 1
        if state.t >= next_sample - 1e-12 or state.t >= t_final - 1e-12:
            coord = _coord_at(config, state, coord)
            sample(state, coord)
            next_sample += config.cadence

    ts = np.array([row["t"] for row in series])
    e_gamma = np.array([row["E_gamma"] for row in series])
    decay_rate = np.array(
        [row["D_gamma"] + row["CK_gamma_phi"] + row["CK_gamma_W"] for row in series]
    )
    integral = np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (decay_rate[1:] + decay_rate[:-1]))])
    theta_series = e_gamma + integral
    slack = MONOTONICITY_SLACK * theta_series[0] if theta_series[0] > 0 else 0.0
    running_min = np.minimum.accumulate(theta_series)
    worst_rise = float(np.max(theta_series - running_min)) if len(theta_series) else 0.0
    result = {
        "nu": nu,
        "dt": dt,
        "t_final": t_final,
        "series": series,
        "theta_series": [float(v) for v in theta_series],
        "theta_ratio": float(theta_series[-1] / theta_series[0]) if theta_series[0] > 0 else 0.0,
        "truncation_check": _truncation_check(series[-1]["shells_E_gamma"], config.truncation_m),
        "surrogate_monotone": bool(worst_rise <= slack + 1e-300),
        "surrogate_worst_rise_rel": float(worst_rise / theta_series[0]) if theta_series[0] > 0 else 0.0,
        "terminal_e_gamma_ratio": float(e_gamma[-1] / e_gamma[0]) if e_gamma[0] > 0 else 0.0,
        "assumption_violations": [
            {k: v for k, v in mon.items() if not v["ok"]} for mon in monitors
        ],
        "timings": {
            "counters": {
                "steps": steps,
                "samples": len(series),
                "restarts": state.restarts,
                "floored_points": ctx.floored_points,
            },
            "times": {
                "stepping_s": stepping,
                "evaluation_s": evaluation,
                "wall_clock_s": time.perf_counter() - start,
            },
        },
    }
    if out_dir is not None:
        _write_run_files(grid, coord, result, out_dir)
    return result


# result keys kept out of summary_nu*.json and summary.json
_UNSUMMARIZED = ("series", "timings")


def _write_run_files(grid, coord, result, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"nu{result['nu']:.0e}"
    keys = sorted(
        k for k, v in result["series"][0].items() if not isinstance(v, list)
    )
    lines = [",".join(keys)]
    for row in result["series"]:
        lines.append(",".join(repr(_stable(row[k])) for k in keys))
    (out_dir / f"series_{tag}.csv").write_text("\n".join(lines) + "\n")
    (out_dir / f"coordinates_{tag}.csv").write_text(coord.export_csv(grid))
    summary = {k: v for k, v in result.items() if k not in _UNSUMMARIZED}
    _json_dump(summary, out_dir / f"summary_{tag}.json")
    # timings change from run to run: they stay out of the summaries
    (out_dir / f"timings_{tag}.json").write_text(_timings_json(result["timings"]))


def run(config: ExperimentConfig) -> dict:
    out_dir = Path(config.output_dir)
    results = [run_single_nu(config, nu, out_dir) for nu in config.nu]
    report = {
        "config": config.to_json(),
        "runs": [
            {k: v for k, v in r.items() if k not in _UNSUMMARIZED}
            for r in results
        ],
        "all_monotone": all(r["surrogate_monotone"] for r in results),
    }
    if len(results) > 1:
        # Theta(T)/Theta(0), not the bare energy ratio with its phi(T)^2
        # factor, is the theorem's nu-uniform quantity
        ratios = [r["theta_ratio"] for r in results if r["theta_ratio"] > 0]
        report["uniformity_ratio"] = max(ratios) / min(ratios) if ratios else float("inf")
        report["uniform"] = bool(report["uniformity_ratio"] <= UNIFORMITY_LIMIT)
    _json_dump(report, out_dir / "summary.json")
    report["_full"] = results
    return report


# ---------------------------------------------------------------------------
# identity suite


def identity_suite(ny: int = 96, seed: int = 0, quick: bool = False) -> list[dict]:
    """The exact-algebra and identity battery; returns JSON-able reports."""
    reports = []
    grid = ChannelGrid(ny)
    setup = idn.ManufacturedSetup(grid, k=2, nu=1e-2, eps=1.0 / 64.0)
    coord = setup.coord(1.0)
    reports.append(idn.check_ad_expansion(trials=20 if quick else 100, seed=seed))
    n_range = (1, 2) if quick else (1, 2, 3)
    for which in idn.COMMUTATOR_RELATIONS:
        for n in n_range:
            if which == "cm_pvv_q" and n != 1:
                continue
            reports.append(idn.check_commutator_relations(which, n, 2, coord, grid, t=1.0))
    for n in (2, 3, 4):
        reports.append(idn.check_upsilon_identity(n, grid))
    for m, n in ((0, 0), (1, 1), (0, 2)):
        reports.append(idn.check_mode_equation(setup, m, n, t=1.0, dt=1e-3))
    for n, j in ((4, 1), (8, 2), (16, 3), (12, 4)):
        reports.append(idn.check_faa_di_bruno(n, j, coord, grid))
    for n, j in ((4, 1), (6, 2), (8, 3)):
        reports.append(idn.check_faa_commutator(n, j, coord, grid))
    n_comb = 200 if quick else 2000
    for zeta in (0.5, 1.0, 2.0):
        reports.append(idn.check_combinatorics("prod", n_max=n_comb, zeta=zeta))
        reports.append(idn.check_combinatorics("prod2", n_max=n_comb, zeta=zeta))
    for frak_c in (1.0, 2.0, 4.0):
        reports.append(idn.check_combinatorics("sum_comb", n_max=100 if quick else 500, frak_c=frak_c))
    reports.append(idn.check_combinatorics("comb_boun", n_max=60 if quick else 200))
    return [r.to_json() for r in reports]


# ---------------------------------------------------------------------------
# damping and decomposition drivers


def damping_suite(k: int = 1, ny: int = 96) -> dict:
    grid = ChannelGrid(ny)
    times = np.geomspace(5.0, 50.0, 16)
    out = {"k": k}
    smooth = lambda v: gevrey_bump(v, 0.24)
    hist = list(zip(times, interior_greens_response(grid, k, times, smooth, support=(-0.24, 0.24))))
    out["smooth_bump"] = damping_diagnostic(hist, grid, k, 0)
    for level in (1, 2, 3):
        data = lambda v, m=level: spline_bump(v, m)
        hist = list(zip(times, interior_greens_response(grid, k, times, data, support=(-0.25, 0.25))))
        out[f"spline_level_{level}"] = damping_diagnostic(hist, grid, k, level)
    return out


def decompose_suite(config: ExperimentConfig, nu: float | None = None, t_stop: float | None = None) -> dict:
    nu = nu if nu is not None else config.nu[0]
    t_stop = t_stop if t_stop is not None else config.t_final(nu) / 2.0
    if t_stop < 0.0:
        raise ConfigError("decompose --t: must be >= 0")
    grid, ctx, profile, state, coord, dt = _setup(config, nu)
    while state.t < t_stop - 1e-12:
        state, coord = _advance(config, state, coord, min(dt, t_stop - state.t), profile)
    # the steps' per-run tables and coordinate inverses (0.8 MB at ny = 192,
    # kmax = 8) are not read again; freeing them makes room for the Green table below
    state._tables.clear()
    coord._inverses.clear()
    coord = _coord_at(config, state, coord)
    # every mode shares the time, hence the interior geometry and the
    # interpolation rows of its Green matrix
    geometry = interior_geometry(grid, coord)
    modes = [(k, omega_k) for k, omega_k in zip(state.ks, state.omega) if k != 0]
    greens = green_matrix(grid, [k for k, _ in modes], geometry.domain)
    decomps = {k: decompose_phi(omega_k, k, coord, grid, geometry=geometry, green=green)
               for (k, omega_k), green in zip(modes, greens)}
    funcs = eval_elliptic_functionals(decomps, coord, ctx, M=min(config.truncation_m, 4))
    return {
        "nu": nu,
        "t": state.t,
        "sum_residuals": {k: d.sum_residual for k, d in decomps.items()},
        "iterations": {k: d.iterations for k, d in decomps.items()},
        "functionals": funcs,
        "_decomps": decomps,
        "_state": state,
        "_coord": coord,
    }


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="couette-gevrey",
                                description="passive scalar / stream function verification harness")
    p.add_argument("--config", help="YAML config file (flags override file keys)")
    p.add_argument("--output-dir")
    p.add_argument("--seed", type=int, help="seed of the identity battery's random trials")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="evolve and evaluate functionals")
    runp.add_argument("--nu", type=float, action="append")
    runp.add_argument("--ny", type=int)
    runp.add_argument("--kmax", type=int)
    veri = sub.add_parser("verify-identities", help="run the identity battery")
    veri.add_argument("--ny", type=int, default=96)
    veri.add_argument("--quick", action="store_true")
    damp = sub.add_parser("damping", help="inviscid damping fits on the transport oracle")
    damp.add_argument("--k", type=int, default=1)
    damp.add_argument("--ny", type=int, default=96)
    deco = sub.add_parser("decompose", help="interior/exterior stream decomposition")
    deco.add_argument("--nu", type=float)
    deco.add_argument("--t", type=float)
    sub.add_parser("report", help="summarize an existing output directory")
    return p


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    for key in ("output_dir", "ny", "kmax"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    nu = getattr(args, "nu", None)
    if nu is not None:
        overrides["nu"] = tuple(nu) if isinstance(nu, list) else (nu,)
    if args.config:
        return ExperimentConfig.from_yaml(args.config, overrides)
    return ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        if args.command in ("verify-identities", "damping") and args.ny < 8:
            raise ConfigError(f"{args.command} --ny: need at least 8")
        if args.command == "damping" and args.k == 0:
            raise ConfigError("damping --k: must be nonzero")
        if args.command == "verify-identities":
            reports = identity_suite(ny=args.ny, seed=args.seed or 0, quick=args.quick)
            for rep in reports:
                print(json.dumps(rep, sort_keys=True))
            failed = [r for r in reports if not r["pass"]]
            print(f"# {len(reports) - len(failed)}/{len(reports)} identity checks passed")
            return 1 if failed else 0
        config = _load_config(args)
        if args.command == "run":
            report = run(config)
            print(json.dumps({k: v for k, v in report.items() if k != "_full"}, sort_keys=True, default=_stable))
            truncated = all(r["truncation_check"] is None or r["truncation_check"]["within_tail_budget"]
                            for r in report["runs"])
            return 0 if report["all_monotone"] and truncated and report.get("uniform", True) else 1
        if args.command == "damping":
            out = damping_suite(k=args.k, ny=args.ny)
            print(json.dumps(out, sort_keys=True))
            lo, hi = DAMPING_SLOPE_RANGE
            return 0 if lo <= out["smooth_bump"]["slope"] <= hi else 1
        if args.command == "decompose":
            out = decompose_suite(config, nu=args.nu, t_stop=args.t)
            printable = {k: v for k, v in out.items() if not k.startswith("_")}
            out_dir = Path(config.output_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            state = out["_state"]
            rows = dict(zip(state.ks, state.omega))
            for k, dec in out["_decomps"].items():
                csv = dec.export_csv(state.grid, out["_coord"], rows[k])
                (out_dir / f"decompose_k{k}_t{out['t']:.3f}.csv").write_text(csv)
            print(json.dumps(printable, sort_keys=True, default=_stable))
            worst = max(out["sum_residuals"].values()) if out["sum_residuals"] else 0.0
            return 0 if worst < DECOMPOSE_RESIDUAL_LIMIT else 1
        if args.command == "report":
            summary = Path(config.output_dir) / "summary.json"
            if not summary.exists():
                raise ConfigError(f"no summary.json under {config.output_dir!r}")
            print(summary.read_text())
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime solver failures surface as exit 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
