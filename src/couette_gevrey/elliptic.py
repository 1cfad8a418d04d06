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
from .functionals import EvalContext, _icc_finish, _icc_ladder, in_index_set
from .spectral import (
    ChannelGrid,
    _gauss_legendre,
    green_eval,
    green_matrix,
    green_solve,
    hermitian_mode_weight,
    l2_norm,
    poisson_mode_solve,
)
from .weights import cutoff_transition


class NonContractionError(RuntimeError):
    """The coordinate defect is too large for the interior fixed point."""


# The fattened cutoff chi~_1 = 1 - chi~_1^c and the buffer cutoff chi_*, as
# (lo, hi) of their transitions in |xi|.  chi_* rises strictly between
# supp(chi~_1^c) (|xi| < 3/8 - 1/80) and the region where the cascade
# cutoffs live (|xi| >= 3/8 shifted by at most the coordinate distortion
# 1/160); CHI_STAR_GAP is the realized support gap.
CHI_TILDE1 = (3.0 / 8.0 - 1.0 / 40.0, 3.0 / 8.0 - 1.0 / 80.0)
CHI_STAR = (0.364, 0.3685)
CHI_STAR_GAP = CHI_STAR[0] - CHI_TILDE1[1]


@dataclass
class PhiDecomposition:
    k: int
    t: float
    domain: tuple[float, float]
    v_nodes: np.ndarray
    phi_i: np.ndarray  # interior solution on the v-grid
    phi_e: np.ndarray  # exterior solution on the y-grid
    iterations: int
    interior_residual: float
    sum_residual: float

    def export_csv(self, grid: ChannelGrid, coord: CoordinateState, omega_k: np.ndarray) -> str:
        """Stream function, both parts and the residual of mode ``self.k`` per node."""
        psi = poisson_mode_solve(grid, omega_k, self.k)
        interior = grid.interpolate(self.phi_i, _to_reference(coord.v, self.domain))
        res = psi - (interior + self.phi_e)
        lines = ["y,psi_re,psi_im,phiI_of_v_re,phiI_of_v_im,phiE_re,phiE_im,residual_abs"]
        for i, y in enumerate(grid.nodes):
            lines.append(
                f"{float(y)!r},{float(psi[i].real)!r},{float(psi[i].imag)!r},"
                f"{float(interior[i].real)!r},{float(interior[i].imag)!r},"
                f"{float(self.phi_e[i].real)!r},{float(self.phi_e[i].imag)!r},"
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


@dataclass
class InteriorGeometry:
    """The k-independent part of a decomposition at one time: the interior
    interval [v(t,-1), v(t,1)] and its nodes, the coordinate coefficients
    Z = v_y^2 - 1 and d_v Z there, the cutoffs chi~_1^c (v-grid) and chi~_1
    (y-grid), and the interpolation rows between the two grids."""

    domain: tuple[float, float]
    v_nodes: np.ndarray
    dv: np.ndarray  # d_v on the v-grid
    at_v: np.ndarray  # rows: y-grid values -> values at y(v_nodes)
    to_y: np.ndarray  # rows: v-grid values -> values at v(y_nodes)
    z_at_v: np.ndarray
    dz: np.ndarray
    chic: np.ndarray
    chi1_y: np.ndarray
    coupling: float


def interior_geometry(grid: ChannelGrid, coord: CoordinateState) -> InteriorGeometry:
    """The geometry every mode's decomposition at ``coord.t`` shares.

    Raises NonContractionError when the coordinate defect is too large for
    the interior fixed point.
    """
    domain = (float(coord.v[0]), float(coord.v[-1]))
    mid = 0.5 * (domain[0] + domain[1])
    half = 0.5 * (domain[1] - domain[0])
    v_nodes = mid + half * grid.nodes
    dv = grid.d1 / half
    at_v = grid.interpolation_matrix(_y_of_v(grid, coord, v_nodes))
    z_at_v = (at_v @ coord.v_y).real ** 2 - 1.0
    chic = 1.0 - cutoff_transition(v_nodes, *CHI_TILDE1)
    coupling = float(np.max(np.abs(chic * z_at_v)))
    if coupling >= 0.5:
        raise NonContractionError(
            f"|chi~_1^c (v_y^2 - 1)| reaches {coupling:.3f} >= 1/2; the interior "
            "fixed point is not a contraction (closeness assumption violated)"
        )
    return InteriorGeometry(
        domain=domain,
        v_nodes=v_nodes,
        dv=dv,
        at_v=at_v,
        to_y=grid.interpolation_matrix(_to_reference(coord.v, domain)),
        z_at_v=z_at_v,
        dz=dv @ z_at_v,
        chic=chic,
        chi1_y=cutoff_transition(coord.v, *CHI_TILDE1),
        coupling=coupling,
    )


def decompose_phi(
    omega_k: np.ndarray,
    k: int,
    coord: CoordinateState,
    grid: ChannelGrid,
    tol: float = 1e-10,
    geometry: InteriorGeometry | None = None,
    green: np.ndarray | None = None,
) -> PhiDecomposition:
    """Split the stream function of mode k into interior and exterior parts.

    Interior: (d_v^2 - k^2) phi_I = chi~_1^c w(y(v)) + chi~_1^c (-Z d_v^2
    - (d_v Z)/2 d_v) phi_I with Z = v_y^2 - 1, solved by Picard iteration
    with the Green kernel.  Exterior: one Dirichlet Helmholtz solve for the
    remaining forcing.  The sum reproduces the direct stream solve.

    ``geometry`` is ``interior_geometry(grid, coord)`` and ``green`` this
    mode's slice of ``green_matrix(grid, ks, geometry.domain)``; both are
    built here when not given, so a caller decomposing every mode at one
    time builds them once and passes them in.
    """
    if k == 0:
        raise ValueError("k = 0 is outside the elliptic layer")
    geo = interior_geometry(grid, coord) if geometry is None else geometry
    if green is None:
        green = green_matrix(grid, [k], geo.domain)[0]
    dv, z_at_v, dz, chic = geo.dv, geo.z_at_v, geo.dz, geo.chic
    base = chic * (geo.at_v @ omega_k)
    flat = geo.coupling < 1e-14

    phi = np.zeros(grid.ny + 1, dtype=complex)
    iterations = 0
    rhs = base.astype(complex)
    while True:
        iterations += 1
        phi_new = green_solve(grid, rhs, k, matrix=green)
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
    rhs_e = geo.chi1_y * omega_k + geo.chi1_y * (geo.to_y @ corr_v)
    phi_e = poisson_mode_solve(grid, rhs_e, k)

    dec = PhiDecomposition(
        k=k,
        t=coord.t,
        domain=geo.domain,
        v_nodes=geo.v_nodes,
        phi_i=phi,
        phi_e=phi_e,
        iterations=iterations,
        interior_residual=int_res_norm,
        sum_residual=0.0,
    )
    comp = geo.to_y @ phi + phi_e  # phi_I(v(y)) + phi_E, on the shared rows
    lap = grid.d2 @ comp - k * k * comp
    dec.sum_residual = float(
        l2_norm(grid, lap - omega_k) / max(l2_norm(grid, omega_k), 1e-300)
    )
    return dec


# ---------------------------------------------------------------------------
# free transport responses and the damping fit


def interior_greens_response(
    grid: ChannelGrid,
    k: int,
    times,
    data_fn,
    support: tuple[float, float] = (-0.25, 0.25),
) -> np.ndarray:
    """phi_I(t) of mode k for free-transport forcing e^{-ikvt} g(v), flat coordinates
    on the whole channel (-1, 1), with 96 Gauss points per panel; one row of
    the returned (len(times), ny+1) array per t in times.

    Quadrature panels are split at the evaluation point (kernel kink) and at
    the support edges (data kinks for spline bumps), so each panel has an
    analytic integrand.  Every node has the two panels [lo, c] and [c, hi]
    with c = clip(v, lo, hi); all nodes are evaluated at once, and a panel
    of zero width gets weight 0.  The panels do not depend on t, so the
    kernel and the data are evaluated once per panel; each t forms its
    integrand as (G e^{-ikpt}) g, as a single-time evaluation does.
    """
    gl_x, gl_w = _gauss_legendre()
    lo, hi = support
    v = grid.nodes[:, None]
    c = np.clip(v, lo, hi)
    out = np.zeros((len(times), grid.ny + 1), dtype=complex)
    for a, b in ((lo, c), (c, hi)):
        pts = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
        wts = 0.5 * (b - a) * gl_w
        green = green_eval(k, v, pts, (-1.0, 1.0))
        data = data_fn(pts)
        for row, t in zip(out, times):
            row += np.sum(wts * (green * np.exp(-1j * k * pts * t) * data), axis=1)
    return out


def damping_diagnostic(
    history: list[tuple[float, np.ndarray]],
    grid: ChannelGrid,
    k: int,
    n_gamma: int = 0,
) -> dict:
    """Least-squares decay exponent of mode k's interior stream function,
    sampled as (t, phi_I(t)) pairs.

    n_gamma = 0 fits the plain L^2 norm (expected slope -2 for interior
    data).  For n_gamma >= 1 the measured quantity is the sup norm on the
    chi_* region, the regime where paying n_gamma vector-field derivatives
    of the data buys (kt)^{-n_gamma}; pair it with data of matching
    smoothness to see the slope saturate at -(n_gamma).
    """
    if len(history) < 8:
        raise ValueError("need at least 8 time samples to fit a decay exponent")
    ts, amps = [], []
    star = cutoff_transition(grid.nodes, *CHI_STAR)
    for t, phi in history:
        if t <= 0:
            continue
        if n_gamma == 0:
            val = l2_norm(grid, phi)
        else:
            val = float(np.max(np.abs(star * phi)))
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
        gam_e = gamma_ladder(grid.d1, dec.phi_e.astype(complex), coord.v_y, M, k, t)
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
