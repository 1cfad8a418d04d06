"""The benchmark's workloads: driver calls, correctness checks and counts.

Each workload is a list of operations.  An operation is one driver call of
``couette_gevrey.harness`` (or ``identities.find_theta_params``), looked up
on its module at call time so that a traced run can wrap it.  Its output is
reduced to a JSON summary, which is compared with the summary recorded at
the reference commit in ``reference.json`` under the tolerances below.

``surrogate`` and the ``decompose_suite`` call are fixed configurations;
the workload seed feeds only ``identity_suite`` and ``find_theta_params``.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from pathlib import Path

from couette_gevrey import elliptic, harness, identities
from couette_gevrey.coordinates import make_profile, monitor_assumptions
from couette_gevrey.functionals import EvalContext
from couette_gevrey.spectral import ChannelGrid
from couette_gevrey.weights import build_cascade

# relative tolerance for every float in a summary; ints, bools and strings
# must match exactly.  Serial runs repeat bit for bit, so this only leaves
# room for reordered floating-point sums in later versions.
RTOL = 1e-6
# summary keys reported but not compared with the reference: seeded
# residuals (checked by rule), trust flags (reported as known defects) and
# output size (a later version may write more files)
UNCOMPARED_KEYS = {"max_abs_residuals", "untrusted_samples", "first_untrusted_t", "output_bytes"}
DAMPING_SLOPE_RANGE = (-2.3, -1.7)  # the `couette-gevrey damping` exit rule
DECOMPOSE_CLI_RESIDUAL = 1e-6  # the `couette-gevrey decompose` exit rule
UNIFORMITY_LIMIT = 2.0  # criterion c08


def surrogate_config(nu: float, output_dir: str = "out") -> harness.ExperimentConfig:
    """The c08 acceptance configuration for one viscosity."""
    return harness.ExperimentConfig(
        ny=192, kmax=8, nu=(nu,), truncation_m=6,
        cadence=max(0.5, nu ** (-1 / 3) / 40.0), noise_floor=1e-8,
        output_dir=output_dir,
    )


SURROGATE_NUS = (1e-3, 1e-4)
# eps_u = 1/256: at t_stop the harness default 1/64 breaks two assumption
# monitors, v_minus_y_inf (0.0156 > 1/160) and vy_minus_one_h3 (2.27 > 1)
DECOMPOSE_CONFIG = dict(ny=192, kmax=8, nu=(1e-4,), truncation_m=4,
                        shear="quartic", eps_u=1.0 / 256.0, noise_floor=1e-8)
VERIFY_NY = 96
THETA_TARGET = 256.0


def decompose_config() -> harness.ExperimentConfig:
    return harness.ExperimentConfig(**DECOMPOSE_CONFIG)


def _eval_setup(config: harness.ExperimentConfig, nu: float):
    params = config.weight_params()
    grid = ChannelGrid(config.ny, kmax=config.kmax)
    cascade = build_cascade(params, max(config.truncation_m + 2, 8))
    return EvalContext(grid, params, cascade, nu=nu, floor_rel=config.noise_floor)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Op:
    """One driver call, the reduction of its output to a summary, and the
    rule the summary must meet beside matching the reference."""

    def __init__(self, label: str, call, summarize, rule=lambda summary: []):
        self.label = label
        self.call = call
        self.summarize = summarize
        self.rule = rule


class Workload:
    name = ""

    def __init__(self, work_dir: Path, seed: int):
        self.work_dir = work_dir
        self.seed = seed

    def ops(self) -> list[Op]:
        raise NotImplementedError

    @staticmethod
    def setup_objects():
        """Build what the workload's drivers build before their first step."""
        raise NotImplementedError

    def rules(self, summaries: dict) -> dict[str, list[str]]:
        """Problems that involve more than one operation, by label."""
        return {}

    def counts(self, summaries: dict) -> dict:
        return {}

    def verdicts(self, summaries: dict) -> list[str]:
        return []


class Surrogate(Workload):
    name = "surrogate"

    @staticmethod
    def setup_objects():
        return _eval_setup(surrogate_config(SURROGATE_NUS[0]), SURROGATE_NUS[0])

    def ops(self) -> list[Op]:
        return [Op(f"run nu={nu:g}", lambda nu=nu: self._run(nu), self._summary,
                   lambda s: [] if s["monotone"] else ["surrogate not monotone"])
                for nu in SURROGATE_NUS]

    def _run(self, nu):
        out = Path(tempfile.mkdtemp(prefix="run", dir=self.work_dir))
        try:
            # a relative output_dir of fixed length keeps summary.json's
            # bytes identical from run to run
            report = harness.run(surrogate_config(nu, os.path.relpath(out)))
            report["_output_bytes"] = _dir_bytes(out)
            return report
        finally:
            shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _summary(report) -> dict:
        (run,) = report["_full"]
        theta = run["theta_series"]
        untrusted = [row["t"] for row in run["series"] if row["untrusted_levels"]]
        return {
            "monotone": bool(run["surrogate_monotone"]),
            "all_monotone": bool(report["all_monotone"]),
            "theta_ratio": theta[-1] / theta[0],
            "terminal_e_gamma_ratio": run["terminal_e_gamma_ratio"],
            "samples": len(run["series"]),
            "untrusted_samples": len(untrusted),
            "first_untrusted_t": untrusted[0] if untrusted else None,
            "output_bytes": report["_output_bytes"],
        }

    def rules(self, summaries: dict) -> dict[str, list[str]]:
        ratios = [s["theta_ratio"] for s in summaries.values()]
        if len(ratios) == len(SURROGATE_NUS) and not max(ratios) / min(ratios) <= UNIFORMITY_LIMIT:
            return {list(summaries)[-1]: [f"uniformity {max(ratios) / min(ratios):.3f}"
                                          f" > {UNIFORMITY_LIMIT}"]}
        return {}

    def counts(self, summaries: dict) -> dict:
        samples = sum(s["samples"] for s in summaries.values())
        return {
            "samples": samples,
            "stacks": samples * (surrogate_config(SURROGATE_NUS[0]).kmax + 1),
            "output_bytes": sum(s["output_bytes"] for s in summaries.values()),
        }

    def verdicts(self, summaries: dict) -> list[str]:
        lines = []
        for label, s in summaries.items():
            lines.append(
                f"{label}: harness exit rule {'0 (all monotone)' if s['all_monotone'] else '1'};"
                f" Theta(T)/Theta(0)={s['theta_ratio']:.6g}; {s['untrusted_samples']} of"
                f" {s['samples']} samples have untrusted_levels"
                + (f" (first at t={s['first_untrusted_t']:.4g})" if s["untrusted_samples"] else "")
            )
        ratios = [s["theta_ratio"] for s in summaries.values()]
        if len(ratios) > 1:
            lines.append(f"uniformity across nu = {max(ratios) / min(ratios):.4f}"
                         f" (c08 limit {UNIFORMITY_LIMIT})")
        return lines


def _slope_ok(slope: float) -> bool:
    return DAMPING_SLOPE_RANGE[0] <= slope <= DAMPING_SLOPE_RANGE[1]


class DecomposeSheared(Workload):
    name = "decompose_sheared"

    @staticmethod
    def setup_objects():
        return _eval_setup(decompose_config(), DECOMPOSE_CONFIG["nu"][0])

    def ops(self) -> list[Op]:
        cfg = decompose_config()
        nu = cfg.nu[0]
        return [Op("decompose_suite",
                   lambda: harness.decompose_suite(cfg, nu=nu, t_stop=nu ** (-1 / 3) / 2.0),
                   self._summary,
                   lambda s: [] if s["monitors_ok"] else ["assumption monitor violated"])]

    @staticmethod
    def _summary(out) -> dict:
        cfg = decompose_config()
        grid = ChannelGrid(cfg.ny)
        monitors = monitor_assumptions(out["_coord"], make_profile(cfg.shear, cfg.eps_u), grid)
        return {
            "t": out["t"],
            "iterations": {str(k): v for k, v in out["iterations"].items()},
            "sum_residuals": {str(k): v for k, v in out["sum_residuals"].items()},
            **{f"J_ell_{ell}": out["functionals"][f"J_ell_{ell}"] for ell in (1, 2, 3)},
            "v_minus_y_inf": monitors["v_minus_y_inf"]["value"],
            "monitors_ok": all(m["ok"] for m in monitors.values()),
        }

    def counts(self, summaries: dict) -> dict:
        iterations = summaries.get("decompose_suite", {}).get("iterations", {})
        return {"decompositions": len(iterations), "picard_iterations": sum(iterations.values())}

    def verdicts(self, summaries: dict) -> list[str]:
        if "decompose_suite" not in summaries:
            return []
        s = summaries["decompose_suite"]
        worst = max(s["sum_residuals"].values())
        return [
            f"decompose CLI exit rule (worst sum residual < {DECOMPOSE_CLI_RESIDUAL:g}):"
            f" {'PASS' if worst < DECOMPOSE_CLI_RESIDUAL else 'FAIL'}, worst = {worst:.3e}"
            " (known defect, reported and not gated)",
            f"eps_u = 1/256: v_minus_y_inf = {s['v_minus_y_inf']:.3e} (threshold 1/160);"
            " the harness default 1/64 breaks it (0.0156) and vy_minus_one_h3 (2.27 > 1)",
            "Picard iterations per k: " + " ".join(f"{k}:{n}" for k, n in s["iterations"].items()),
        ]


class Verify(Workload):
    name = "verify"

    @staticmethod
    def setup_objects():
        return ChannelGrid(VERIFY_NY)

    def ops(self) -> list[Op]:
        return [
            Op("identity_suite", lambda: harness.identity_suite(ny=VERIFY_NY, seed=self.seed),
               lambda reports: {
                   "checks": len(reports),
                   "failed": sorted(r["name"] for r in reports if not r["pass"]),
                   "max_abs_residuals": [r["max_abs_residual"] for r in reports],
               },
               lambda s: [f"identity checks failed: {s['failed']}"] if s["failed"] else []),
            Op("damping_suite", lambda: harness.damping_suite(k=1, ny=VERIFY_NY),
               lambda out: {"slope": out["smooth_bump"]["slope"],
                            **{f"spline_level_{m}_slope": out[f"spline_level_{m}"]["slope"]
                               for m in (1, 2, 3)}},
               lambda s: [] if _slope_ok(s["slope"])
               else [f"damping slope {s['slope']:.3f} outside {DAMPING_SLOPE_RANGE}"]),
            Op("find_theta_params",
               lambda: identities.find_theta_params(THETA_TARGET, seed=self.seed),
               lambda out: {key: out[key] for key in
                            ("delta_drop", "n_star", "verified", "coefficient_ratio")},
               lambda s: [] if s["verified"] else ["theta parameters not verified"]),
        ]

    def counts(self, summaries: dict) -> dict:
        return {"identity_checks": summaries.get("identity_suite", {}).get("checks", 0)}

    def verdicts(self, summaries: dict) -> list[str]:
        lines = []
        if "identity_suite" in summaries:
            s = summaries["identity_suite"]
            lines.append(f"verify-identities: {s['checks'] - len(s['failed'])}/{s['checks']}"
                         " checks passed")
        if "damping_suite" in summaries:
            slope = summaries["damping_suite"]["slope"]
            lines.append(f"damping exit rule: {'PASS' if _slope_ok(slope) else 'FAIL'},"
                         f" slope = {slope:.4f}")
        if "find_theta_params" in summaries:
            s = summaries["find_theta_params"]
            lines.append(f"theta: (delta_drop, n_star) = ({s['delta_drop']}, {s['n_star']}),"
                         f" verified = {s['verified']}")
        return lines


class DecomposeVerify(Workload):
    """``DecomposeSheared``'s driver call, then ``Verify``'s battery, as one
    pass: two short workloads in one, so that every run of the benchmark
    can be long enough to average over the machine's swings in speed."""

    name = "decompose_verify"
    PARTS = (DecomposeSheared, Verify)

    def __init__(self, work_dir: Path, seed: int):
        super().__init__(work_dir, seed)
        self.parts = [part(work_dir, seed) for part in self.PARTS]

    @classmethod
    def setup_objects(cls):
        return [part.setup_objects() for part in cls.PARTS]

    def ops(self) -> list[Op]:
        return [op for part in self.parts for op in part.ops()]

    def rules(self, summaries: dict) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for part in self.parts:
            for label, msgs in part.rules(summaries).items():
                problems.setdefault(label, []).extend(msgs)
        return problems

    def counts(self, summaries: dict) -> dict:
        return {key: value for part in self.parts for key, value in part.counts(summaries).items()}

    def verdicts(self, summaries: dict) -> list[str]:
        return [line for part in self.parts for line in part.verdicts(summaries)]


WORKLOADS = {w.name: w for w in (Surrogate, DecomposeVerify)}


def compare(summary, reference, path: str = "") -> list[str]:
    """Differences between a summary and its reference beyond ``RTOL``."""
    if isinstance(reference, dict):
        if not isinstance(summary, dict) or set(summary) != set(reference):
            return [f"{path}: keys differ from the reference"]
        return [msg for key in reference if key not in UNCOMPARED_KEYS
                for msg in compare(summary[key], reference[key], f"{path}.{key}" if path else key)]
    if isinstance(reference, float) and not isinstance(summary, bool):
        if isinstance(summary, (int, float)) and math.isclose(summary, reference, rel_tol=RTOL):
            return []
        return [f"{path}: {summary!r} differs from the reference {reference!r} beyond rtol {RTOL:g}"]
    if summary != reference:
        return [f"{path}: {summary!r} differs from the reference {reference!r}"]
    return []


# spans recorded in a traced run: (module, attribute); the name of each span
# is <defining module>.<function>
TRACED = [
    (harness, name) for name in (
        "run", "run_single_nu", "_write_run_files", "decompose_suite", "identity_suite",
        "damping_suite", "ChannelGrid", "build_cascade", "EvalContext", "step_scalar",
        "step_coordinates", "build_gamma_stack", "full_report", "monitor_assumptions",
        "decompose_phi", "eval_elliptic_functionals", "interior_greens_response",
        "damping_diagnostic",
    )
] + [(elliptic, "green_solve")] + [
    (identities, name) for name in (
        "check_ad_expansion", "check_commutator_relations", "check_upsilon_identity",
        "check_mode_equation", "check_faa_di_bruno", "check_faa_commutator",
        "check_combinatorics", "find_theta_params",
    )
]
