"""Weighted Gevrey energy, dissipation and Cauchy-Kovalevskaya functionals.

Every functional is a truncated double sum over (m, n) with m + n <= M of
nonnegative weighted L^2 norms of stack entries |k|^m q^n Gamma_k^n omega_k.
Only the level n and the shell m + n enter a norm, so each stack is reduced
once to a table of weighted norms (rows: level and y-derivative order,
columns: shell weight) and every family is a contraction of that table
with coefficient arrays.
Sign conventions: the decaying factors phi and lambda enter the CK families
through |phi'|/phi and |lambda'|/lambda so that every CK value is >= 0, and
the W family uses sqrt(-d_t W) which is real since W decays in time.

Gevrey coefficients are combined in log space (a factorial power at m+n=12
is far below the double-precision floor) and only multiplied into norms at
the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coordinates import CoordinateState, GammaStack, gamma_ladder
from .spectral import ChannelGrid, ModeField
from .weights import (
    CutoffCascade,
    GevreyCoeffTable,
    WeightParams,
    eval_q,
    eval_W,
    eval_W_derivatives,
)

FAMILIES = ("gamma", "alpha", "mu")
CK_KINDS = ("phi", "lam", "W")


@dataclass
class EvalContext:
    """Shared grid, parameters and weight evaluators for functional sums."""

    grid: ChannelGrid
    params: WeightParams
    cascade: CutoffCascade
    nu: float
    floor_rel: float = 0.0
    tail_multiplier: float = 10.0
    table: GevreyCoeffTable = field(init=False)
    q: np.ndarray = field(init=False, repr=False)  # the co-normal weight on the nodes
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.table = GevreyCoeffTable(self.params)
        self.q = eval_q(self.grid.nodes)

    def exp_w(self, t: float) -> np.ndarray:
        key = ("eW", round(t, 12))
        if key not in self._cache:
            self._cache[key] = np.exp(eval_W(t, self.grid.nodes, self.nu, self.params))
        return self._cache[key]

    def sqrt_neg_wt(self, t: float) -> np.ndarray:
        key = ("swt", round(t, 12))
        if key not in self._cache:
            wt, _, _ = eval_W_derivatives(t, self.grid.nodes, self.nu, self.params)
            self._cache[key] = np.sqrt(np.maximum(-wt, 0.0))
        return self._cache[key]

    def chi(self, n: int) -> np.ndarray:
        key = ("chi", n)
        if key not in self._cache:
            self._cache[key] = self.cascade.chi(min(n, self.cascade.n_max), self.grid.nodes)
        return self._cache[key]

    def norm_columns(self, t: float, M: int) -> np.ndarray:
        """(ny+1, 2(M+1)) quadrature weights rho_j = e^{2W} chi_j^2, then (-d_t W) rho_j."""
        key = ("cols", round(t, 12), M)
        if key not in self._cache:
            chi2 = np.array([self.chi(j) for j in range(M + 1)]) ** 2
            rho = self.grid.quad_weights * self.exp_w(t) ** 2 * chi2
            self._cache[key] = np.concatenate([rho, self.sqrt_neg_wt(t) ** 2 * rho]).T
        return self._cache[key]

    def floored(self, values: np.ndarray, tail: float = 0.0) -> np.ndarray:
        """Zero the sub-resolution part of a field before weighting.

        The exponential localization weight reaches e^100 near the walls at
        early times, so any numeric leakage there must be removed before it
        is weighted.  The threshold is relative to the field's peak and is
        calibrated by the field's own measured spectral tail (the trust
        score): genuinely resolved content sits far above it.
        """
        thresh = max(self.floor_rel, self.tail_multiplier * tail)
        if thresh <= 0.0:
            return values
        peak = float(np.max(np.abs(values)))
        if peak == 0.0:
            return values
        out = values.copy()
        out[np.abs(out) < thresh * peak] = 0.0
        return out

    def wsq(self, values: np.ndarray, weight: np.ndarray) -> float:
        """Quadrature of |values|^2 weight^2."""
        integ = self.grid.integrate(np.abs(self.floored(values)) ** 2 * weight**2)
        return float(np.real(integ))


def _dy_columns(grid: ChannelGrid, cols: np.ndarray) -> np.ndarray:
    """d_y of every column of a complex (ny+1, j) array in one real product."""
    return (grid.d1 @ np.ascontiguousarray(cols).view(float)).view(complex)


def _level_columns(stack: GammaStack) -> np.ndarray:
    """(ny+1, M+1) columns q^n Gamma^n omega, n = 0..M."""
    return (stack.q_pows * np.asarray(stack.gamma_pows, dtype=complex)).T


def norm_table(stack: GammaStack, ctx: EvalContext) -> np.ndarray:
    """Weighted norms of one stack, indexed [order, weight, n, j].

    With F_n = q^n Gamma^n omega, entry [d, 0, n, j] is the quadrature of
    |d_y^d F_n|^2 e^{2W} chi_j^2 and entry [d, 1, n, j] carries the extra
    factor -d_t W.  Each row d_y^d F_n is floored once against its own
    peak, so the |k|^m of a stack entry factors out of every norm as
    |k|^{2m}.
    """
    M = stack.M
    f0 = _level_columns(stack)
    f1 = _dy_columns(ctx.grid, f0)
    f2 = _dy_columns(ctx.grid, f1)
    rows = [np.abs(ctx.floored(f0[:, n], stack.noise(n))) ** 2 for n in range(M + 1)]
    for fd in (f1, f2):
        rows += [np.abs(ctx.floored(fd[:, n], stack.noise_dy(n))) ** 2 for n in range(M + 1)]
    table = np.array(rows) @ ctx.norm_columns(stack.t, M)
    return table.reshape(3, M + 1, 2, M + 1).transpose(0, 2, 1, 3)


def _family_norms(table: np.ndarray, nu: float, k2: float) -> dict:
    """Per family: (energy, energy under -d_t W, dissipation) norms [n, j]."""
    (e0, w0), (e1, w1), (e2, _) = table
    return {
        "gamma": (e0, w0, nu * (e1 + k2 * e0)),
        "alpha": (nu * e1, nu * w1, nu**2 * (e2 + k2 * e1)),
        "mu": (nu * k2 * e0, nu * k2 * w0, nu**2 * k2 * (e1 + k2 * e0)),
    }


def _shell_coefficients(stack: GammaStack, tab: GevreyCoeffTable) -> np.ndarray:
    """theta_n^2 a_{m,n}(t)^2 |k|^{2m} on the (n, j = m + n) grid, zero where n > j."""
    n, j = np.indices((stack.M + 1, stack.M + 1))
    m = np.maximum(j - n, 0)
    k_pow = float(abs(stack.k)) ** (2 * m)  # 0.0 ** 0 == 1: k = 0 keeps m = 0 only
    return tab.theta(n) ** 2 * np.where(n <= j, tab.a(m, n, stack.t) ** 2 * k_pow, 0.0)


def stack_values(stack: GammaStack, ctx: EvalContext) -> dict:
    """Energy shells, dissipation and CK values of every family, one stack."""
    t, tab = stack.t, ctx.table
    n, j = np.indices((stack.M + 1, stack.M + 1))
    coef = _shell_coefficients(stack, tab)
    phi_rate = abs(tab.phi_dot(t)) / tab.phi(t)
    lam_rate = abs(tab.lam_dot(t)) / tab.lam(t)
    out = {}
    norms = _family_norms(norm_table(stack, ctx), ctx.nu, float(stack.k**2))
    for fam, (e, e_w, d) in norms.items():
        terms = coef * e
        out[f"shells_E_{fam}"] = terms.sum(axis=0)
        out[f"shells_D_{fam}"] = (coef * d).sum(axis=0)
        out[f"CK_{fam}_phi"] = phi_rate * float(((1 + n) * terms).sum())
        out[f"CK_{fam}_lam"] = lam_rate * float((j * terms).sum())
        out[f"CK_{fam}_W"] = float((coef * e_w).sum())
    return out


def _shell_sum(stack: GammaStack, key: str, family: str, ctx: EvalContext) -> float:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return float(stack_values(stack, ctx)[f"shells_{key}_{family}"].sum())


def eval_energy(stack: GammaStack, family: str, ctx: EvalContext) -> float:
    """E^{(family)} truncated at the stack's M, single mode."""
    return _shell_sum(stack, "E", family, ctx)


def eval_dissipation(stack: GammaStack, family: str, ctx: EvalContext) -> float:
    """D^{(family)}: same sums with sqrt(nu) grad_k applied once more."""
    return _shell_sum(stack, "D", family, ctx)


def eval_ck(stack: GammaStack, family: str, kind: str, ctx: EvalContext) -> float:
    """CK^{(family; kind)} with the nonnegative-orientation convention."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if kind not in CK_KINDS:
        raise ValueError(f"unknown CK kind {kind!r}")
    return stack_values(stack, ctx)[f"CK_{family}_{kind}"]


def hermitian_mode_weight(k: int) -> float:
    return 1.0 if k == 0 else 2.0


def truncation_tail(shells: np.ndarray) -> float:
    total = float(shells.sum())
    if total <= 0.0:
        return 0.0
    return float(shells[-1] / total)


# ---------------------------------------------------------------------------
# coordinate system functionals


def _bracket(t: float) -> float:
    return math.sqrt(1.0 + t * t)


def eval_coord_functionals(
    state: CoordinateState,
    ctx: EvalContext,
    family: str = "gamma",
    M: int = 6,
) -> dict[str, float]:
    """E/D/CK for the coordinate fields G, H, Hbar at the state's time.

    The n-index stacks are dv-bar^n applications (these are k = 0
    quantities); i_iota picks up one extra d_y for the alpha family.
    Flat coordinates (G = H = Hbar = 0) give exactly zero for every value.
    """
    if family not in ("gamma", "alpha"):
        raise ValueError("coordinate functionals exist for gamma and alpha only")
    if not (np.any(state.G) or np.any(state.H) or np.any(state.Hbar)):
        return {f"{q}_{f}": 0.0 for f in ("Hbar", "G", "H") for q in ("E", "D", "CK")}
    return _coord_functionals(state, ctx, 1 if family == "alpha" else 0, M)


def _coord_functionals(state: CoordinateState, ctx: EvalContext, i_io: int, M: int) -> dict[str, float]:
    t = state.t
    tab, p = ctx.table, ctx.params
    grid = ctx.grid
    ew_half = np.sqrt(ctx.exp_w(t))
    swt = ctx.sqrt_neg_wt(t)
    br = _bracket(t)
    pow_t = br ** (3.0 + 2.0 / p.s)
    g_stack, h_stack, hb_stack = (
        gamma_ladder(grid.d1, np.asarray(f, dtype=float), state.v_y, M)
        for f in (state.G, state.H, state.Hbar)
    )

    def d_y(vals, j):
        out = vals
        for _ in range(j):
            out = grid.d1 @ out
        return out

    out: dict[str, float] = {}
    # Hbar family
    e = d = ck = 0.0
    for n in range(M + 1):
        th2 = tab.theta(n) ** 2
        an1 = float(tab.a(0, n + 1, t))
        an1_dot = float(tab.a_dot(0, n + 1, t))
        fac = ctx.nu ** (i_io / 2.0) * th2 * (n + 1) ** (2.0 * p.s - 2.0) * pow_t
        base = d_y(hb_stack[n], i_io)
        w = ew_half * ctx.chi(n)
        e += fac * an1**2 * ctx.wsq(base, w)
        d += ctx.nu * fac * an1**2 * ctx.wsq(d_y(hb_stack[n], 1 + i_io), w)
        ck += fac * an1**2 * ctx.wsq(base, swt * w)
        ck += fac * (-an1 * an1_dot) * ctx.wsq(base, w)
    out["E_Hbar"], out["D_Hbar"], out["CK_Hbar"] = float(e), float(d), float(ck)

    # G family; the n = 0 shell carries the <t>^(4 - 2 K_eps) weight
    th0 = tab.theta(0) ** 2
    pow0 = br ** (4.0 - 2.0 * p.K_eps)
    ones = np.ones_like(grid.nodes)
    e = th0 * pow0 * ctx.wsq(d_y(g_stack[0], i_io), ones)
    d = ctx.nu * th0 * pow0 * ctx.wsq(d_y(g_stack[0], 1 + i_io), ones)
    ck = th0 * abs(4.0 - 2.0 * p.K_eps) * abs(t) * br ** (2.0 - 2.0 * p.K_eps) * ctx.wsq(
        d_y(g_stack[0], i_io), ones
    )
    for n in range(1, M + 1):
        th2 = tab.theta(n) ** 2
        an = float(tab.a(0, n, t))
        an_dot = float(tab.a_dot(0, n, t))
        base = d_y(g_stack[n], i_io)
        w = ew_half * ctx.chi(n - 1 + i_io)
        e += th2 * an**2 * pow_t * ctx.wsq(base, w)
        d += ctx.nu * th2 * an**2 * pow_t * ctx.wsq(d_y(g_stack[n], 1 + i_io), w)
        ck += th2 * an**2 * pow_t * ctx.wsq(base, swt * w)
        ck += th2 * (-an * an_dot) * pow_t * ctx.wsq(base, ctx.chi(n - 1 + i_io))
    out["E_G"], out["D_G"], out["CK_G"] = float(e), float(d), float(ck)

    # H family
    e = d = ck = 0.0
    for n in range(M + 1):
        th2 = tab.theta(n) ** 2
        an = float(tab.a(0, n, t))
        an_dot = float(tab.a_dot(0, n, t))
        fac = th2 * ctx.nu ** (i_io / 2.0)
        base = d_y(h_stack[n], i_io)
        w = ew_half * ctx.chi(n)
        e += fac * an**2 * ctx.wsq(base, w)
        d += ctx.nu * fac * an**2 * ctx.wsq(d_y(h_stack[n], 1 + i_io), w)
        ck += fac * (-an * an_dot) * ctx.wsq(base, w)
        ck += fac * an**2 * ctx.wsq(base, swt * w)
    out["E_H"], out["D_H"], out["CK_H"] = float(e), float(d), float(ck)
    return out


# ---------------------------------------------------------------------------
# ICC operators


def in_index_set(a: int, b: int, c: int, n: int) -> bool:
    """(a,b,c) admissible for level n: a + b + c <= n, or no boundary weight."""
    return a == 0 or a + b + c <= n


def _divide_by_q_power(ctx: EvalContext, values: np.ndarray, a: int) -> np.ndarray:
    """values / q^a with the wall limits taken from the linear branch of q.

    Near y = +-1 the weight is exactly 99(1 -+ y), so the endpoint limit is
    the a-th Taylor coefficient of the numerator: N/q^a -> (-+1)^a
    N^{(a)}(+-1) / (a! 99^a).
    """
    if a == 0:
        return values
    out = np.empty_like(values, dtype=complex)
    out[1:-1] = values[1:-1] / ctx.q[1:-1] ** a
    deriv = values
    for _ in range(a):
        deriv = ctx.grid.d1 @ deriv
    fact = math.factorial(a) * 99.0**a
    out[0] = deriv[0] / fact
    out[-1] = (-1.0) ** a * deriv[-1] / fact
    return out


def _icc_ladder(gam_n: np.ndarray, k: int, m: int, n: int, variant: str,
                coord: CoordinateState, ctx: EvalContext, b: int) -> list[np.ndarray]:
    """Orders 0..b of d_y (S) or of dv-bar after chi_{m+n} (J) on |k|^m q^n Gamma^n f."""
    grid = ctx.grid
    base = abs(k) ** m * ctx.q ** n * gam_n
    if variant == "S":
        return gamma_ladder(grid.d1, base, 1.0, b)
    if variant == "J":
        return gamma_ladder(grid.d1, ctx.chi(m + n) * base, coord.v_y, b)
    raise ValueError(f"unknown ICC variant {variant!r}")


def _icc_finish(ctx: EvalContext, values: np.ndarray, a: int, c: int, m: int, n: int,
                k: int) -> np.ndarray:
    """The boundary weight ((m+n)/q)^a and |k|^c applied to a ladder entry."""
    return _divide_by_q_power(ctx, values, a) * float(m + n) ** a * abs(k) ** c


def eval_icc(
    f_k: ModeField,
    a: int,
    b: int,
    c: int,
    m: int,
    n: int,
    variant: str,
    coord: CoordinateState,
    ctx: EvalContext,
    t: float | None = None,
) -> tuple[ModeField, bool]:
    """S/J operator applied to f_k; returns (field, in_index_set).

    Outside the index set the boundary weight (m+n)/q is not defined and the
    paper's indicator makes the operator zero; the flag reports that case.
    """
    if min(a, b, c, m, n) < 0:
        raise ValueError("indices must be nonnegative")
    if t is None:
        t = coord.t
    grid = ctx.grid
    k = f_k.k
    if not in_index_set(a, b, c, n):
        return ModeField(k, np.zeros(grid.ny + 1, dtype=complex)), False
    gam = gamma_ladder(grid.d1, f_k.values.astype(complex), coord.v_y, n, k, t)[-1]
    out = _icc_ladder(gam, k, m, n, variant, coord, ctx, b)[-1]
    return ModeField(k, _icc_finish(ctx, out, a, c, m, n, k)), True


# ---------------------------------------------------------------------------
# source pairings


def eval_sources(stack_f: GammaStack, stack_omega: GammaStack, family: str, ctx: EvalContext) -> float:
    """Re pairings of a forcing stack against the solution stack: the pair
    table Re(F_n conj(O_n)) contracted like the energy's norm table."""
    if stack_f.M != stack_omega.M or stack_f.k != stack_omega.k:
        raise ValueError("stacks must share the truncation and mode")
    if abs(stack_f.t - stack_omega.t) > 1e-12:
        raise ValueError("stacks must share the evaluation time")
    nu, k2 = ctx.nu, float(stack_omega.k**2)
    scale = {"gamma": 1.0, "alpha": nu, "mu": nu * k2}.get(family)
    if scale is None:
        raise ValueError(f"unknown family {family!r}")
    f, o = _level_columns(stack_f), _level_columns(stack_omega)
    if family == "alpha":
        f, o = _dy_columns(ctx.grid, f), _dy_columns(ctx.grid, o)
    M = stack_omega.M
    pairs = np.real(f * np.conj(o)).T @ ctx.norm_columns(stack_omega.t, M)[:, : M + 1]
    return scale * float((_shell_coefficients(stack_omega, ctx.table) * pairs).sum())


def full_report(
    stacks: dict[int, GammaStack],
    ctx: EvalContext,
    coord: CoordinateState | None = None,
    coord_M: int = 6,
) -> dict:
    """All omega families plus coordinate functionals, JSON-friendly."""
    report: dict = {"t": next(iter(stacks.values())).t if stacks else 0.0}
    report["untrusted_levels"] = sorted(
        {n for st in stacks.values() for n in range(st.M + 1) if not st.trusted(n)}
    )
    values = [(hermitian_mode_weight(k), stack_values(st, ctx)) for k, st in stacks.items()]

    def total(key):
        return sum(wk * v[key] for wk, v in values)

    for fam in FAMILIES:
        e_shells = np.atleast_1d(total(f"shells_E_{fam}"))
        report[f"E_{fam}"] = float(e_shells.sum())
        report[f"tail_E_{fam}"] = truncation_tail(e_shells)
        if fam == "gamma" and values:
            report["shells_E_gamma"] = [float(v) for v in e_shells]
        report[f"D_{fam}"] = float(np.sum(total(f"shells_D_{fam}")))
        for kind in CK_KINDS:
            report[f"CK_{fam}_{kind}"] = float(total(f"CK_{fam}_{kind}"))
    if coord is not None:
        for fam in ("gamma", "alpha"):
            vals = eval_coord_functionals(coord, ctx, fam, M=coord_M)
            for key, val in vals.items():
                report[f"coord_{key}_{fam}"] = val
    return report
