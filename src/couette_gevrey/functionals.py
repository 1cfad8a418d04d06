"""Weighted Gevrey energy, dissipation and Cauchy-Kovalevskaya functionals.

Every functional is a truncated double sum over (m, n) with m + n <= M of
nonnegative weighted L^2 norms of stack entries |k|^m q^n Gamma_k^n omega_k.
Only the level n and the shell m + n enter a norm, so each stack is reduced
once to a table of weighted norms (rows: level and y-derivative order,
columns: shell weight) and every family is a contraction of that table
with coefficient arrays.  The coordinate fields Hbar, G and H are reduced
the same way: one floored table of d_y orders 0-2 per dv-bar level, which
the gamma and alpha families both read.  The elliptic J operators give one
row ((m+n)/q)^a |k|^c dv-bar^b per (a, b, c) (``_icc_rows``), which
``elliptic`` floors in one call with that (m, n)'s F_ell row.
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
from .spectral import ChannelGrid, hermitian_mode_weight
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
    floored_points: int = 0  # points zeroed by ``floor_rows`` so far
    table: GevreyCoeffTable = field(init=False)
    q: np.ndarray = field(init=False, repr=False)  # the co-normal weight on the nodes
    _cache: dict = field(default_factory=dict, repr=False)  # chi_n per n
    _timed: tuple = field(default=(None, None), repr=False)  # (rounded t, that time's weight tables)

    def __post_init__(self):
        self.table = GevreyCoeffTable(self.params)
        self.q = eval_q(self.grid.nodes)

    def _at(self, t: float) -> dict:
        """The weight tables of time t.  A sample reads only its own time's, so
        those of any other time are dropped rather than kept for the run."""
        if self._timed[0] != round(t, 12):
            self._timed = (round(t, 12), {})
        return self._timed[1]

    def exp_w(self, t: float) -> np.ndarray:
        cache = self._at(t)
        if "eW" not in cache:
            cache["eW"] = np.exp(eval_W(t, self.grid.nodes, self.nu, self.params))
        return cache["eW"]

    def sqrt_neg_wt(self, t: float) -> np.ndarray:
        cache = self._at(t)
        if "swt" not in cache:
            wt, _, _ = eval_W_derivatives(t, self.grid.nodes, self.nu, self.params)
            cache["swt"] = np.sqrt(np.maximum(-wt, 0.0))
        return cache["swt"]

    def chi(self, n: int) -> np.ndarray:
        key = ("chi", n)
        if key not in self._cache:
            self._cache[key] = self.cascade.chi(min(n, self.cascade.n_max), self.grid.nodes)
        return self._cache[key]

    def norm_columns(self, t: float, M: int) -> np.ndarray:
        """(ny+1, 2(M+1)) quadrature weights rho_j = e^{2W} chi_j^2, then (-d_t W) rho_j."""
        cache, key = self._at(t), ("cols", M)
        if key not in cache:
            chi2 = np.array([self.chi(j) for j in range(M + 1)]) ** 2
            rho = self.grid.quad_weights * self.exp_w(t) ** 2 * chi2
            cache[key] = np.concatenate([rho, self.sqrt_neg_wt(t) ** 2 * rho]).T
        return cache[key]

    def shell_factors(self, t: float, M: int) -> tuple[np.ndarray, np.ndarray]:
        """theta_n^2 and a_{m,n}(t)^2 (zero where n > j) on the (n, j = m + n) grid."""
        cache, key = self._at(t), ("shell", M)
        if key not in cache:
            n, j = np.indices((M + 1, M + 1))
            a2 = np.where(n <= j, self.table.a(np.maximum(j - n, 0), n, t) ** 2, 0.0)
            cache[key] = (self.table.theta(n) ** 2, a2)
        return cache[key]

    def floor_rows(self, rows: np.ndarray, tails=0.0) -> np.ndarray:
        """Zero, in place, the sub-resolution part of each row of magnitudes.

        The exponential localization weight reaches e^100 near the walls at
        early times, so any numeric leakage there must be removed before it
        is weighted.  Row r's threshold, max(floor_rel, tail_multiplier *
        tails[r]) times its own peak, is calibrated by its measured spectral
        tail (the trust score); ``floored_points`` counts the zeroed points.
        """
        thresh = np.maximum(self.floor_rel, self.tail_multiplier * np.asarray(tails))
        mask = rows < thresh[..., None] * rows.max(axis=-1, keepdims=True)
        rows[mask] = 0.0
        self.floored_points += int(np.count_nonzero(mask))
        return rows


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
    rows = np.empty((3, M + 1, ctx.grid.ny + 1))
    for fd, out in zip((f0, f1, f2), rows):
        np.abs(fd.T, out=out)
    # a row's floor reads its level's tail; after d_y, the worse of n and n + 1
    tails = np.asarray(stack.tails, dtype=float)
    dy_tails = np.maximum(tails, np.append(tails[1:], tails[-1]))
    rows = ctx.floor_rows(rows.reshape(3 * (M + 1), -1), np.concatenate([tails, dy_tails, dy_tails]))
    table = (rows**2) @ ctx.norm_columns(stack.t, M)
    return table.reshape(3, M + 1, 2, M + 1).transpose(0, 2, 1, 3)


def _family_norms(table: np.ndarray, nu: float, k2: float) -> dict:
    """Per family: (energy, energy under -d_t W, dissipation) norms [n, j]."""
    (e0, w0), (e1, w1), (e2, _) = table
    return {
        "gamma": (e0, w0, nu * (e1 + k2 * e0)),
        "alpha": (nu * e1, nu * w1, nu**2 * (e2 + k2 * e1)),
        "mu": (nu * k2 * e0, nu * k2 * w0, nu**2 * k2 * (e1 + k2 * e0)),
    }


def _shell_coefficients(stack: GammaStack, ctx: EvalContext) -> np.ndarray:
    """theta_n^2 a_{m,n}(t)^2 |k|^{2m} on the (n, j = m + n) grid, zero where n > j."""
    theta2, a2 = ctx.shell_factors(stack.t, stack.M)
    m = np.maximum(np.arange(stack.M + 1) - np.arange(stack.M + 1)[:, None], 0)
    k_pow = float(abs(stack.k)) ** (2 * m)  # 0.0 ** 0 == 1: k = 0 keeps m = 0 only
    return theta2 * (a2 * k_pow)


def stack_values(stack: GammaStack, ctx: EvalContext) -> dict:
    """Energy shells, dissipation and CK values of every family, one stack."""
    t, tab = stack.t, ctx.table
    n, j = np.indices((stack.M + 1, stack.M + 1))
    coef = _shell_coefficients(stack, ctx)
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


def truncation_tail(shells: np.ndarray) -> float:
    total = float(shells.sum())
    if total <= 0.0:
        return 0.0
    return float(shells[-1] / total)


# ---------------------------------------------------------------------------
# coordinate system functionals


def _bracket(t: float) -> float:
    return math.sqrt(1.0 + t * t)


def eval_coord_functionals(state: CoordinateState, ctx: EvalContext, M: int = 6) -> dict[str, float]:
    """E/D/CK of the coordinate fields Hbar, G and H, gamma and alpha families.

    Each field's dv-bar ladder F_n, n = 0..M (k = 0 quantities), is taken
    once; the rows |d_y^d F_n|, d = 0, 1, 2, are floored once and reduced
    against weight columns in one product.  Gamma reads the orders (0, 1),
    alpha the orders (1, 2) with nu^{1/2} on Hbar and H.  Flat coordinates
    (G = H = Hbar = 0) give exactly zero for every value.
    """
    fields = {"Hbar": state.Hbar, "G": state.G, "H": state.H}
    keys = [f"{q}_{f}_{fam}" for fam in ("gamma", "alpha") for f in fields for q in ("E", "D", "CK")]
    if not any(np.any(f) for f in fields.values()):
        return dict.fromkeys(keys, 0.0)
    t, tab, p, grid = state.t, ctx.table, ctx.params, ctx.grid
    rows = np.empty((3, M + 1, 3, grid.ny + 1))  # [field, n, d, node]
    for f, out in zip(fields.values(), rows):
        for level, r in zip(gamma_ladder(grid.d1, np.asarray(f, dtype=float), state.v_y, M), out):
            r[0], r[1] = level, grid.d1 @ level
            r[2] = grid.d1 @ r[1]
    sq = ctx.floor_rows(np.abs(rows).reshape(-1, grid.ny + 1)) ** 2
    ew, chi2 = ctx.exp_w(t), np.array([ctx.chi(j) for j in range(M + 1)]) ** 2
    # columns [kind, j]: chi_j^2 times e^W, e^W (-d_t W) and 1 (chi_0 = 1), under the quadrature
    cols = grid.quad_weights * np.stack([ew * chi2, ew * ctx.sqrt_neg_wt(t) ** 2 * chi2, chi2])
    table = (sq @ cols.reshape(-1, grid.ny + 1).T).reshape(3, M + 1, 3, 3, M + 1)  # [field, n, d, kind, j]
    n, br = np.arange(M + 1), _bracket(t)
    th2, pow_t = tab.theta(n) ** 2, br ** (3.0 + 2.0 / p.s)
    a, a1 = tab.a(0, n, t), tab.a(0, n + 1, t)
    aa, aa1 = -a * tab.a_dot(0, n, t), -a1 * tab.a_dot(0, n + 1, t)
    hb = th2 * (n + 1) ** (2.0 * p.s - 2.0) * pow_t
    g = th2 * pow_t * (n > 0)
    # G's n = 0 term: the <t>^(4 - 2 K_eps) weight without cutoff or e^W, its CK from that bracket's rate
    g0, e0 = table[1, 0, :, 2, 0], th2[0] * br ** (4.0 - 2.0 * p.K_eps)
    ck0 = th2[0] * abs(4.0 - 2.0 * p.K_eps) * abs(t) * br ** (2.0 - 2.0 * p.K_eps)
    vals = []
    for i in (0, 1):
        nu_i = ctx.nu ** (i / 2.0)
        # per field: the a^2 and -a a_dot coefficients over n, the cutoff index j(n) and the kind
        # of the a a_dot column
        spec = ((nu_i * hb * a1**2, nu_i * hb * aa1, n, 0),
                (g * a**2, g * aa, np.maximum(n - 1 + i, 0), 2),  # G's a a_dot: chi alone, no e^W
                (nu_i * th2 * a**2, nu_i * th2 * aa, n, 0))
        for f, (c, c_dot, j, kind) in enumerate(spec):
            tf = table[f, n, :, :, j]  # [n, d, kind]
            e, d, ck = c @ tf[:, i, 0], ctx.nu * (c @ tf[:, i + 1, 0]), c @ tf[:, i, 1] + c_dot @ tf[:, i, kind]
            if f == 1:
                e, d, ck = e + e0 * g0[i], d + ctx.nu * e0 * g0[i + 1], ck + ck0 * g0[i]
            vals += [e, d, ck]
    return {key: float(v) for key, v in zip(keys, vals)}


# ---------------------------------------------------------------------------
# ICC operators


def in_index_set(a: int, b: int, c: int, n: int) -> bool:
    """(a,b,c) admissible for level n: a + b + c <= n, or no boundary weight."""
    return a == 0 or a + b + c <= n


def _icc_ladder(gam_n: np.ndarray, k: int, m: int, n: int, variant: str,
                coord: CoordinateState, ctx: EvalContext, b: int) -> list[np.ndarray]:
    """Orders 0..b of d_y (S) or of dv-bar after chi_{m+n} (J) on |k|^m q^n Gamma^n f."""
    grid = ctx.grid
    base = abs(k) ** m * ctx.q ** n * gam_n
    if variant == "S":
        return gamma_ladder(grid.d1, base, 1.0, b)
    return gamma_ladder(grid.d1, ctx.chi(m + n) * base, coord.v_y, b)


def _icc_rows(ctx: EvalContext, ladder: list[np.ndarray], terms: list[tuple[int, int, int]],
              m: int, n: int, k: int) -> np.ndarray:
    """One row ((m+n)/q)^a |k|^c ladder[b] per (a, b, c) of ``terms``.

    Near y = +-1 the weight is exactly 99(1 -+ y), so the wall limit of
    N/q^a is the a-th Taylor coefficient of the numerator:
    (-+1)^a N^{(a)}(+-1) / (a! 99^a).  Each ladder entry's d1 chain is taken
    once, as deep as the largest a that any term asks of it.
    """
    # one complex copy of d1 for every chain, not one cast per product
    d1 = ctx.grid.d1.astype(complex) if any(a for a, _, _ in terms) else None
    chains = {}
    for a, b, _ in terms:
        chain = chains.setdefault(b, [ladder[b]])
        while len(chain) <= a:
            chain.append(d1 @ chain[-1])
    rows = np.array([ladder[b] for _, b, _ in terms], dtype=complex)
    for row, (a, b, _) in zip(rows, terms):
        if a > 0:
            fact = math.factorial(a) * 99.0**a
            row[1:-1] /= ctx.q[1:-1] ** a
            row[0] = chains[b][a][0] / fact
            row[-1] = (-1.0) ** a * chains[b][a][-1] / fact
    rows *= np.array([[float(m + n) ** a] for a, _, _ in terms])
    rows *= np.array([[abs(k) ** c] for _, _, c in terms])
    return rows


def eval_icc(
    f_k: np.ndarray,
    k: int,
    a: int,
    b: int,
    c: int,
    m: int,
    n: int,
    variant: str,
    coord: CoordinateState,
    ctx: EvalContext,
    t: float | None = None,
) -> tuple[np.ndarray, bool]:
    """S/J operator applied to mode k's values f_k; returns (field, in_index_set).

    Outside the index set the boundary weight (m+n)/q is not defined and the
    paper's indicator makes the operator zero; the flag reports that case.
    """
    if min(a, b, c, m, n) < 0:
        raise ValueError("indices must be nonnegative")
    if variant not in ("S", "J"):
        raise ValueError(f"unknown ICC variant {variant!r}")
    if t is None:
        t = coord.t
    grid = ctx.grid
    if not in_index_set(a, b, c, n):
        return np.zeros(grid.ny + 1, dtype=complex), False
    gam = gamma_ladder(grid.d1, np.array(f_k, dtype=complex), coord.v_y, n, k, t)[-1]
    ladder = _icc_ladder(gam, k, m, n, variant, coord, ctx, b)
    return _icc_rows(ctx, ladder, [(a, b, c)], m, n, k)[0], True


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
    return scale * float((_shell_coefficients(stack_omega, ctx) * pairs).sum())


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
        for key, val in eval_coord_functionals(coord, ctx, coord_M).items():
            report[f"coord_{key}"] = val
    return report
