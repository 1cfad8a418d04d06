"""Adapted coordinate v(t,y), the fields G, H, Hbar, and Gamma stacks.

The coordinate solves  d_t(t(v-y)) = U0 + nu t d_y^2 v  with d_y v = 1 at
the walls.  Written in w = v - y the singular factor integrates exactly:

    (t_{j+1} w_{j+1} - t_j w_j)/dt = U0(t_{j+1/2}) + nu t_{j+1} d_y^2 w_{j+1}

which needs no regularization at t = 0 and reproduces stationary profiles
exactly when nu = 0.  Dividing the step by t_{j+1} leaves the operator
(I - nu dt d_y^2) with Neumann rows d_y w = 0 at the walls, independent of
t, so each run builds it and its inverse once per (nu, dt)
(``coordinate_inverse``), carried forward on ``CoordinateState``.  Every
step corrects the previous w once against the right-hand side b over
t_{j+1}, w_{j+1} = w_j + A^{-1}(b - A w_j), so the inverse's rounding
scales with the update, not with w (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sec. 12.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .spectral import ChannelGrid
from .weights import eval_q


class CoordinateDegeneracyError(RuntimeError):
    """v_y lost positivity somewhere on the grid."""


@dataclass
class ShearProfile:
    """Background shear perturbation U0(t, y) and its y-derivative."""

    name: str
    u0: Callable[[float, np.ndarray], np.ndarray]
    dy_u0: Callable[[float, np.ndarray], np.ndarray]

    def dt_u0(self, t: float, y: np.ndarray, h: float = 1e-6) -> np.ndarray:
        return (self.u0(t + h, y) - self.u0(max(t - h, 0.0), y)) / (
            (t + h) - max(t - h, 0.0)
        )


def zero_profile() -> ShearProfile:
    return ShearProfile(
        "zero", lambda t, y: np.zeros_like(y), lambda t, y: np.zeros_like(y)
    )


def quartic_profile(eps_u: float = 1.0 / 64.0) -> ShearProfile:
    if not abs(eps_u) <= 1.0 / 32.0:
        raise ValueError("|eps_u| above 1/32 violates the closeness assumption")
    return ShearProfile(
        "quartic",
        lambda t, y: eps_u * (1.0 - y * y) ** 2,
        lambda t, y: eps_u * 2.0 * (1.0 - y * y) * (-2.0 * y),
    )


def sin_quartic_profile(eps_u: float = 1.0 / 64.0) -> ShearProfile:
    if not abs(eps_u) <= 1.0 / 32.0:
        raise ValueError("|eps_u| above 1/32 violates the closeness assumption")

    def u0(t, y):
        return eps_u * np.sin(np.pi * y) * (1.0 - y * y) ** 2

    def dy(t, y):
        return eps_u * (
            np.pi * np.cos(np.pi * y) * (1.0 - y * y) ** 2
            - 4.0 * y * np.sin(np.pi * y) * (1.0 - y * y)
        )

    return ShearProfile("sin_quartic", u0, dy)


PROFILES = {
    "zero": zero_profile,
    "quartic": quartic_profile,
    "sin_quartic": sin_quartic_profile,
}


def make_profile(name: str, eps_u: float = 1.0 / 64.0) -> ShearProfile:
    if name not in PROFILES:
        raise ValueError(f"unknown shear profile {name!r}")
    if name == "zero":
        return zero_profile()
    return PROFILES[name](eps_u)


@dataclass
class CoordinateState:
    t: float
    w: np.ndarray  # v - y on the nodes
    v: np.ndarray
    v_y: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Hbar: np.ndarray
    _inverses: dict = field(default_factory=dict, repr=False, compare=False)  # (A, A^-1) per (nu, dt)

    def export_csv(self, grid: ChannelGrid) -> str:
        lines = ["y,v,v_y,G,H,Hbar"]
        for i, y in enumerate(grid.nodes):
            lines.append(
                f"{float(y)!r},{float(self.v[i])!r},{float(self.v_y[i])!r},"
                f"{float(self.G[i])!r},{float(self.H[i])!r},{float(self.Hbar[i])!r}"
            )
        return "\n".join(lines) + "\n"


def _derived_state(grid: ChannelGrid, t: float, w: np.ndarray, g: np.ndarray,
                   inverses: dict | None = None) -> CoordinateState:
    v = grid.nodes + w
    v_y = 1.0 + grid.d1 @ w
    if np.any(v_y <= 0.0):
        raise CoordinateDegeneracyError(f"v_y <= 0 at t={t}")
    return CoordinateState(
        t=t, w=w, v=v, v_y=v_y, G=g, H=v_y - 1.0, Hbar=grid.d1 @ g,
        _inverses={} if inverses is None else inverses,
    )


def couette_state(grid: ChannelGrid, t: float = 0.0) -> CoordinateState:
    z = np.zeros(grid.ny + 1)
    return _derived_state(grid, t, z.copy(), z.copy())


def init_coordinates(profile: ShearProfile, grid: ChannelGrid, nu: float = 0.0) -> CoordinateState:
    """State at t = 0+, where integrating the evolution forces w(0) = U0(0)."""
    y = grid.nodes
    w0 = profile.u0(0.0, y)
    bc = profile.dy_u0(0.0, np.array([-1.0, 1.0]))
    if np.max(np.abs(bc)) > 1e-10:
        raise ValueError("profile violates d_y U0(0, +-1) = 0 (wall compatibility)")
    # small-t expansion of the integrated equation gives the t=0 limit of G
    u01 = profile.dt_u0(0.0, y)
    g0 = 0.5 * (u01 - nu * (grid.d2 @ w0))
    return _derived_state(grid, 0.0, w0, g0)


def coordinate_inverse(grid: ChannelGrid, nu: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """A = (I - nu dt d_yy) with Neumann rows d_y w = 0, and its inverse."""
    a = np.eye(grid.ny + 1) - nu * dt * grid.d2
    a[[0, -1]] = grid.d1[[0, -1]]
    return a, np.linalg.inv(a)


def step_coordinates(
    state: CoordinateState,
    dt: float,
    nu: float,
    profile: ShearProfile,
    grid: ChannelGrid,
) -> CoordinateState:
    """One integrating-factor IMEX step of t d_t w + w = U0 + nu t d_yy w.

    G is read off (U0 - w) / t once t passes ten steps, and from the
    difference quotient before that, where dividing the small U0 - w by t
    would amplify its roundoff.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    t0, t1 = state.t, state.t + dt
    y = grid.nodes
    rhs = (t0 * state.w + dt * profile.u0(t0 + 0.5 * dt, y)) / t1
    rhs[0] = rhs[-1] = 0.0  # the Neumann rows
    key = (nu, dt)
    if key not in state._inverses:  # one inverse per (nu, dt) and run
        state._inverses[key] = coordinate_inverse(grid, nu, dt)
    a, inverse = state._inverses[key]
    w1 = state.w + inverse @ (rhs - a @ state.w)
    if t1 >= 10.0 * dt:
        g = (profile.u0(t1, y) - w1) / t1
    else:
        g = (w1 - state.w) / dt - nu * (grid.d2 @ w1)
    return _derived_state(grid, t1, w1, g, state._inverses)


def monitor_assumptions(state: CoordinateState, profile: ShearProfile, grid: ChannelGrid) -> dict:
    """Closeness quantities with their configured thresholds."""
    y = grid.nodes
    dyu0 = np.max(np.abs(profile.dy_u0(state.t, y)))
    w_inf = np.max(np.abs(state.w))
    vy_inv = np.max(np.abs(1.0 / state.v_y))
    h3 = sum(float(np.real(grid.integrate(np.abs(d) ** 2)))
             for d in gamma_ladder(grid.d1, state.v_y - 1.0, 1.0, 3))
    h3 = float(np.sqrt(h3))
    checks = {
        "dy_u0_inf": (dyu0, 1.0 / 16.0),
        "v_minus_y_inf": (w_inf, 1.0 / 160.0),
        "vy_inverse_inf": (vy_inv, 2.0),
        "vy_minus_one_h3": (h3, 1.0),
    }
    return {k: {"value": v, "threshold": thr, "ok": bool(v <= thr)} for k, (v, thr) in checks.items()}


# ---------------------------------------------------------------------------
# Gamma stacks


def gamma_ladder(d1: np.ndarray, values: np.ndarray, v_y, n: int,
                 k: int | None = None, t: float = 0.0) -> list[np.ndarray]:
    """[f, X f, ..., X^n f] for X = v_y^{-1} d1 + i k t, the vector field Gamma_k.

    With k = None, X is dv-bar = v_y^{-1} d1 (k = 0 keeps the i k t term,
    which then only adds zeros).  Each level is (d1 @ f) / v_y + 1j k t f,
    evaluated in that order, and ``values`` is used as given, so the dtype
    and the rounding are the caller's.  A real d1 meets complex values as
    its complex copy, made once here rather than by every product.
    """
    d1 = np.asarray(d1, dtype=np.result_type(d1, values))
    out = [values]
    for _ in range(n):
        nxt = (d1 @ out[-1]) / v_y
        if k is not None:
            nxt = nxt + 1j * k * t * out[-1]
        out.append(nxt)
    return out


@dataclass
class GammaStack:
    """Table of |k|^m q^n Gamma_k^n omega_k for m + n <= M."""

    k: int
    t: float
    M: int
    grid: ChannelGrid
    gamma_pows: np.ndarray  # Gamma^n omega, n = 0..M, shape (M+1, ny+1)
    q_pows: np.ndarray  # q(y)^n, n = 0..M, shape (M+1, ny+1)
    tails: np.ndarray  # spectral tail per n
    tail_tol: float = 1e-4

    def entry(self, m: int, n: int) -> np.ndarray:
        if m < 0 or n < 0 or m + n > self.M:
            raise KeyError((m, n))
        return abs(self.k) ** m * self.q_pows[n] * self.gamma_pows[n]

    def trusted(self, n: int) -> bool:
        return bool(self.tails[n] <= self.tail_tol)


def shell_pairs(M: int) -> list[tuple[int, int]]:
    """(m, n) with m + n <= M, by shell m + n and then by m: every sum's order."""
    return [(m, j - m) for j in range(M + 1) for m in range(j + 1)]


def build_gamma_stack(
    omega_k: np.ndarray,
    k: int,
    state: CoordinateState,
    M: int,
    grid: ChannelGrid,
    t: float | None = None,
    tail_tol: float = 1e-4,
) -> GammaStack:
    """n-fold Gamma_k application to mode k's values, then scaling with q^n |k|^m."""
    if M < 0:
        raise ValueError("M must be nonnegative")
    if t is None:
        t = state.t
    gamma_pows = np.array(gamma_ladder(grid.d1, np.array(omega_k, dtype=complex), state.v_y, M, k, t))
    q_pows = grid.cache.get(("q_pows", M))
    if q_pows is None:  # one read-only table per (grid, M), shared by its stacks
        q = eval_q(grid.nodes)
        q_pows = grid.cache[("q_pows", M)] = np.array([q**n for n in range(M + 1)])
        q_pows.flags.writeable = False
    tails = grid.spectral_tail(gamma_pows)
    return GammaStack(
        k=k,
        t=t,
        M=M,
        grid=grid,
        gamma_pows=gamma_pows,
        q_pows=q_pows,
        tails=tails,
        tail_tol=tail_tol,
    )
