"""Interior/exterior stream function decomposition and damping diagnostics.

The stream function of one mode solves (d_y^2 - k^2) psi = w with Dirichlet
walls.  It splits as psi = phi_I(v(y)) + phi_E(y): the interior part is
driven by forcing supported away from the walls and solved through the
explicit sinh kernel on the moving interval [v(t,-1), v(t,1)], the exterior
part absorbs the rest by one collocation solve.  The interior equation
contains its own solution on the right through the coordinate defect
v_y^2 - 1, which is assumption-small, so a Picard iteration converges
geometrically (in flat coordinates it terminates after one pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coordinates import CoordinateState, gamma_ladder, shell_pairs
from .functionals import (EvalContext, _icc_finish, _icc_ladder, hermitian_mode_weight,
                          in_index_set)
from .spectral import (
    ChannelGrid,
    ModeField,
    _gauss_legendre,
    green_eval,
    green_matrix,
    green_solve,
    l2_norm,
    poisson_mode_solve,
)
from .weights import smoothstep


class NonContractionError(RuntimeError):
    """The coordinate defect is too large for the interior fixed point."""


@dataclass(frozen=True)
class EllipticCutoffs:
    """The fattened cutoff chi~_1 and the buffer cutoff chi_*.

    chi_* rises strictly between supp(chi~_1^c) (|xi| < 3/8 - 1/80) and
    the region where the cascade cutoffs live (|xi| >= 3/8 shifted by at
    most the coordinate distortion 1/160); the realized support gap is
    reported by ``chi_star_gap``.
    """

    star_lo: float = 0.364
    star_hi: float = 0.3685

    def chi_tilde1(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        lo = 3.0 / 8.0 - 1.0 / 40.0
        hi = 3.0 / 8.0 - 1.0 / 80.0
        return smoothstep((np.abs(xi) - lo) / (hi - lo))

    def chi_tilde1_c(self, xi) -> np.ndarray:
        return 1.0 - self.chi_tilde1(xi)

    def chi_star(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return smoothstep((np.abs(xi) - self.star_lo) / (self.star_hi - self.star_lo))

    @property
    def chi_star_gap(self) -> float:
        # supp chi~_1^c ends at |xi| = 3/8 - 1/80, chi_star starts at star_lo
        return self.star_lo - (3.0 / 8.0 - 1.0 / 80.0)


@dataclass
class PhiDecomposition:
    k: int
    t: float
    domain: tuple[float, float]
    v_nodes: np.ndarray
    phi_i: np.ndarray  # interior solution on the v-grid
    phi_e: ModeField  # exterior solution on the y-grid
    iterations: int
    interior_residual: float
    sum_residual: float

    def export_csv(self, grid: ChannelGrid, coord: CoordinateState, omega_k: ModeField) -> str:
        psi = poisson_mode_solve(grid, omega_k, self.k)
        interior = grid.interpolate(self.phi_i, _to_reference(coord.v, self.domain))
        res = psi.values - (interior + self.phi_e.values)
        lines = ["y,psi_re,psi_im,phiI_of_v_re,phiI_of_v_im,phiE_re,phiE_im,residual_abs"]
        for i, y in enumerate(grid.nodes):
            lines.append(
                f"{float(y)!r},{float(psi.values[i].real)!r},{float(psi.values[i].imag)!r},"
                f"{float(interior[i].real)!r},{float(interior[i].imag)!r},"
                f"{float(self.phi_e.values[i].real)!r},{float(self.phi_e.values[i].imag)!r},"
                f"{float(abs(res[i]))!r}"
            )
        return "\n".join(lines) + "\n"


def _to_reference(v, domain):
    mid = 0.5 * (domain[0] + domain[1])
    half = 0.5 * (domain[1] - domain[0])
    return (np.asarray(v) - mid) / half


def _y_of_v(grid: ChannelGrid, coord: CoordinateState, v_targets: np.ndarray) -> np.ndarray:
    """Invert the monotone map v(y) = y + w(y) by Newton on the interpolant."""
    y = v_targets.copy()
    np.clip(y, -1.0, 1.0, out=y)
    for _ in range(50):
        f = y + grid.interpolate(coord.w, y).real - v_targets
        if np.max(np.abs(f)) < 1e-14:
            break
        slope = grid.interpolate(coord.v_y, y).real
        y = np.clip(y - f / slope, -1.0, 1.0)
    return y


def decompose_phi(
    omega_k: ModeField,
    coord: CoordinateState,
    grid: ChannelGrid,
    cutoffs: EllipticCutoffs | None = None,
    tol: float = 1e-10,
) -> PhiDecomposition:
    """Split the stream function into interior and exterior parts.

    Interior: (d_v^2 - k^2) phi_I = chi~_1^c w(y(v)) + chi~_1^c (-Z d_v^2
    - (d_v Z)/2 d_v) phi_I with Z = v_y^2 - 1, solved by Picard iteration
    with the Green kernel.  Exterior: one Dirichlet Helmholtz solve for the
    remaining forcing.  The sum reproduces the direct stream solve.
    """
    if omega_k.k == 0:
        raise ValueError("k = 0 is outside the elliptic layer")
    if cutoffs is None:
        cutoffs = EllipticCutoffs()
    k = omega_k.k
    domain = (float(coord.v[0]), float(coord.v[-1]))
    mid = 0.5 * (domain[0] + domain[1])
    half = 0.5 * (domain[1] - domain[0])
    v_nodes = mid + half * grid.nodes
    dv = grid.d1 / half

    y_at_v = _y_of_v(grid, coord, v_nodes)
    w_at_v = grid.interpolate(omega_k.values, y_at_v)
    vy_at_v = grid.interpolate(coord.v_y, y_at_v).real
    z_at_v = vy_at_v**2 - 1.0
    chic = cutoffs.chi_tilde1_c(v_nodes)
    coupling = float(np.max(np.abs(chic * z_at_v)))
    if coupling >= 0.5:
        raise NonContractionError(
            f"|chi~_1^c (v_y^2 - 1)| reaches {coupling:.3f} >= 1/2; the interior "
            "fixed point is not a contraction (closeness assumption violated)"
        )
    dz = dv @ z_at_v
    base = chic * w_at_v
    flat = coupling < 1e-14

    green = green_matrix(grid, k, domain)
    phi = np.zeros(grid.ny + 1, dtype=complex)
    iterations = 0
    rhs = base.astype(complex)
    while True:
        iterations += 1
        phi_new = green_solve(grid, ModeField(k, rhs), k=k, matrix=green).values
        delta = np.max(np.abs(phi_new - phi))
        scale = max(np.max(np.abs(phi_new)), 1e-300)
        phi = phi_new
        # coupling correction -Z d_v^2 phi - (d_v Z)/2 d_v phi; the last one
        # also enters the exterior forcing
        dphi = dv @ phi
        d2phi = dv @ dphi
        corr_v = -z_at_v * d2phi - 0.5 * dz * dphi
        rhs = base + chic * corr_v
        if flat or delta <= tol * scale or iterations >= 50:
            break

    int_res = d2phi - k * k * phi - rhs
    int_res_norm = float(np.max(np.abs(int_res)) / max(np.max(np.abs(rhs)), 1e-300))

    # exterior forcing on the y-grid, including the interior defect
    chi1_y = cutoffs.chi_tilde1(coord.v)
    corr_y = grid.interpolate(corr_v, _to_reference(coord.v, domain))
    rhs_e = chi1_y * omega_k.values + chi1_y * corr_y
    phi_e = poisson_mode_solve(grid, ModeField(k, rhs_e), k)

    dec = PhiDecomposition(
        k=k,
        t=coord.t,
        domain=domain,
        v_nodes=v_nodes,
        phi_i=phi,
        phi_e=phi_e,
        iterations=iterations,
        interior_residual=int_res_norm,
        sum_residual=0.0,
    )
    comp = composite_values(dec, grid, coord)
    lap = grid.d2 @ comp - k * k * comp
    dec.sum_residual = float(
        l2_norm(grid, lap - omega_k.values) / max(l2_norm(grid, omega_k), 1e-300)
    )
    return dec


def composite_values(decomp: PhiDecomposition, grid: ChannelGrid, coord: CoordinateState) -> np.ndarray:
    interior = grid.interpolate(decomp.phi_i, _to_reference(coord.v, decomp.domain))
    return interior + decomp.phi_e.values


# ---------------------------------------------------------------------------
# free transport responses and the damping fit


def spline_bump(y: np.ndarray, smoothness: int, half_width: float = 0.25) -> np.ndarray:
    """(h^2 - y^2)_+^m, a C^{m-1} bump: finite vector-field budget data."""
    y = np.asarray(y, dtype=float)
    core = np.maximum(half_width**2 - y * y, 0.0)
    out = core**smoothness
    peak = half_width ** (2 * smoothness)
    return out / peak


def interior_greens_response(
    grid: ChannelGrid,
    k: int,
    t: float,
    data_fn,
    support: tuple[float, float] = (-0.25, 0.25),
) -> ModeField:
    """phi_I(t) for free-transport forcing e^{-ikvt} g(v), flat coordinates
    on the whole channel (-1, 1), with 96 Gauss points per panel.

    Quadrature panels are split at the evaluation point (kernel kink) and at
    the support edges (data kinks for spline bumps), so each panel has an
    analytic integrand.  Every node has the two panels [lo, c] and [c, hi]
    with c = clip(v, lo, hi); all nodes are evaluated at once, and a panel
    of zero width gets weight 0.
    """
    gl_x, gl_w = _gauss_legendre(96)
    lo, hi = support
    v = grid.nodes[:, None]
    c = np.clip(v, lo, hi)
    out = np.zeros(grid.ny + 1, dtype=complex)
    for a, b in ((lo, c), (c, hi)):
        pts = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
        wts = 0.5 * (b - a) * gl_w
        integrand = (
            green_eval(k, v, pts, (-1.0, 1.0))
            * np.exp(-1j * k * pts * t)
            * data_fn(pts)
        )
        out += np.sum(wts * integrand, axis=1)
    return ModeField(k, out)


def damping_diagnostic(
    history: list[tuple[float, ModeField]],
    grid: ChannelGrid,
    k: int,
    n_gamma: int = 0,
    cutoffs: EllipticCutoffs | None = None,
) -> dict:
    """Least-squares decay exponent of the interior stream function.

    n_gamma = 0 fits the plain L^2 norm (expected slope -2 for interior
    data).  For n_gamma >= 1 the measured quantity is the sup norm on the
    chi_* region, the regime where paying n_gamma vector-field derivatives
    of the data buys (kt)^{-n_gamma}; pair it with data of matching
    smoothness to see the slope saturate at -(n_gamma).
    """
    if len(history) < 8:
        raise ValueError("need at least 8 time samples to fit a decay exponent")
    if cutoffs is None:
        cutoffs = EllipticCutoffs()
    ts, amps = [], []
    star = cutoffs.chi_star(grid.nodes)
    for t, phi in history:
        if t <= 0:
            continue
        if n_gamma == 0:
            val = l2_norm(grid, phi)
        else:
            val = float(np.max(np.abs(star * phi.values)))
        if val > 0.0:
            ts.append(t)
            amps.append(val)
    ts = np.asarray(ts)
    amps = np.asarray(amps)
    slope, intercept = np.polyfit(np.log(ts), np.log(amps), 1)
    return {
        "slope": float(slope),
        "amplitude": float(math.exp(intercept)),
        "samples": int(len(ts)),
        "k": k,
        "n_gamma": n_gamma,
    }


# ---------------------------------------------------------------------------
# elliptic functionals


def eval_elliptic_functionals(
    decomps: dict[int, PhiDecomposition],
    coord: CoordinateState,
    ctx: EvalContext,
    M: int = 4,
) -> dict:
    """J_ell^(1..3), E_ell^(I,out), E_ell^(I,full) and F_ell^(E), truncated.

    F_ell is reported for the phi_E parts, with the coefficient
    (2 lambda0)^(m+n) / (m+n)!.  Every value is read off ladders built once:
    per mode those of phi_I, its levels and phi_E, per (m, n) the J ladder.
    """
    tab, grid = ctx.table, ctx.grid
    keys = ("J_ell_1", "J_ell_2", "J_ell_3", "E_ell_I_out", "E_ell_I_full", "F_ell_E")
    out = dict.fromkeys(keys, 0.0)
    q = ctx.q
    ones = np.ones_like(q)
    for k, dec in decomps.items():
        wk = hermitian_mode_weight(k)
        t = dec.t
        # interior functionals on the v-grid, where the coordinate is flat;
        # the factor half maps the quadrature to the physical interval
        half = 0.5 * (dec.domain[1] - dec.domain[0])
        dv = grid.d1 / half
        chi1_v = ctx.cascade.chi(1, dec.v_nodes)
        gam_i = gamma_ladder(dv, dec.phi_i, 1.0, M, k, t)
        dv_i = [gamma_ladder(dv, level, 1.0, 2) for level in gam_i]
        # exterior functionals on the y-grid
        gam_e = gamma_ladder(grid.d1, dec.phi_e.values.astype(complex), coord.v_y, M, k, t)
        for m, n in shell_pairs(M):
            km = float(abs(k)) ** m
            a_hat2 = float(tab.a_hat(m, n, t)) ** 2
            for fldv in dv_i[n]:
                val = half * float(np.real(grid.integrate(np.abs(chi1_v * km * fldv) ** 2)))
                out["E_ell_I_out"] += wk * a_hat2 * val
            val_full = half * float(np.real(grid.integrate(np.abs(km * gam_i[n]) ** 2)))
            out["E_ell_I_full"] += wk * float(tab.B_hat(m, n, t)) ** 2 * val_full

            # ||J^(ell)||^2: the J fields with a + b + c = ell in the index set
            a2 = float(tab.a(m, n, t)) ** 2
            ladder = _icc_ladder(gam_e[n], k, m, n, "J", coord, ctx, 3)
            for ell in (1, 2, 3):
                norm = 0.0
                for a in range(ell + 1):
                    for b in range(ell - a + 1):
                        c = ell - a - b
                        if in_index_set(a, b, c, n):
                            norm += ctx.wsq(_icc_finish(ctx, ladder[b], a, c, m, n, k), ones)
                out[f"J_ell_{ell}"] += wk * a2 * norm

            log_coef = (m + n) * math.log(2.0 * ctx.params.lambda0) - math.lgamma(m + n + 1.0)
            fld = ctx.chi(m + n) * km * q**n * gam_e[n]
            out["F_ell_E"] += wk * math.exp(log_coef) * ctx.wsq(fld, ones)
    return out
