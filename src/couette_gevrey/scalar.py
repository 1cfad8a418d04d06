"""Time integration of the passive scalar equation, all modes at once.

Each Fourier mode solves  d_t w_k + ik(y + U0) w_k = nu Dlt_k w_k + f_k
with Dirichlet walls; steps carry all modes as the real even/odd halves of
``spectral._fold``, folded once, and ``ScalarState.omega`` unfolds them where
they are read.  Diffusion is implicit, so nu > 0 (``initial_state`` rejects
any other value): every stage corrects a guess g once,
x = g + A^{-1}(b - A g) with A = alpha + nu k^2 - nu D2, its residual formed
directly and A^{-1} applied through the grid's Dirichlet eigenbasis
(``spectral.dirichlet_eig``), so a new alpha or dt costs one diagonal, not
an inversion.  The advection multiplier and forcing are explicit: SBDF2
after an IMEX-SSP2(2,2,2) startup step.  SBDF2's residual is (u - prev)/(2 dt)
- nu k^2 u + nu D2 u + 2 ex - prev_ex, free of the O(u/dt) terms of b and A
that cancel.  The advection factors are rebuilt only when the nodal U0
changes.  The multiplier is pointwise, so every step checks that
|k (y+U0)| dt stays below the scheme's imaginary-axis limit, the bound
:func:`admissible_dt` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coordinates import ShearProfile, zero_profile
from .spectral import (ChannelGrid, _apply_blocks, _fold, _folded_d2_t, _unfold, dirichlet_eig,
                       hermitian_mode_weight, l2_norm)

# measured imaginary-axis stability margin of the SBDF2 extrapolation
THETA_ADV = 0.09
_SSP_GAMMA = 1.0 - 1.0 / np.sqrt(2.0)


class StabilityError(RuntimeError):
    pass


def admissible_dt(kmax: int, shear_bound: float = 1.0 + 1.0 / 16.0) -> float:
    """Largest stable dt for the explicit advection multiplier."""
    return THETA_ADV / (max(kmax, 1) * shear_bound)


def default_dt(kmax: int) -> float:
    return min(1e-2, admissible_dt(kmax))


def gevrey_bump(y: np.ndarray, half_width: float = 0.125) -> np.ndarray:
    """Compactly supported bump exp(-1/(1-(y/h)^2)) on |y| < h."""
    u = np.asarray(y, dtype=float) / half_width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def spline_bump(y: np.ndarray, power: int = 16, half_width: float = 0.25) -> np.ndarray:
    """(1 - (y/h)^2)_+^p: exactly supported in (-h, h), C^{p-1} smooth, peak 1.

    With p = 16 the default initial datum.  A compactly supported C-infinity
    bump of this width is never spectrally resolved at practical grids (its
    Chebyshev coefficients decay only root-exponentially), which poisons
    the high vector-field stack entries; a finite-smoothness bump of high
    order keeps every Gamma-stack level through M = 6 representable while
    satisfying the support condition exactly.  With p = 1..3 it is the
    finite vector-field budget data of the damping fits.
    """
    u = np.asarray(y, dtype=float) / half_width
    return np.maximum(1.0 - u * u, 0.0) ** power


@dataclass
class InitialData:
    """The initial scalar: ascending wavenumbers ``ks`` and the complex
    (K, ny+1) array ``omega`` of their modes, supported inside (-1/4, 1/4)."""

    ks: tuple[int, ...]
    omega: np.ndarray

    def __post_init__(self):
        self.ks = tuple(int(k) for k in self.ks)
        self.omega = np.ascontiguousarray(self.omega, dtype=complex)
        if list(self.ks) != sorted(set(self.ks)) or min(self.ks, default=0) < 0:
            raise ValueError("ks must be distinct nonnegative wavenumbers in ascending order")
        if self.omega.ndim != 2 or self.omega.shape[0] != len(self.ks):
            raise ValueError("omega must hold one row per wavenumber")

    def validate(self, grid: ChannelGrid, tol: float = 1e-14):
        outside = np.abs(grid.nodes) >= 0.25
        for k, f in zip(self.ks, self.omega):
            scale = float(np.max(np.abs(f))) or 1.0
            if np.any(np.abs(f[outside]) > tol * scale):
                raise ValueError(f"mode {k} has support outside (-1/4, 1/4)")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"mode {k} is not square integrable")
        return self


def default_initial_data(grid: ChannelGrid, kmax: int) -> InitialData:
    """The degree-16 ``spline_bump`` over (1 + k^2), k = 0..kmax."""
    bump = spline_bump(grid.nodes)
    ks = range(0, kmax + 1)
    return InitialData(ks, [bump / (1.0 + k * k) for k in ks]).validate(grid)


@dataclass
class ScalarState:
    grid: ChannelGrid
    t: float
    nu: float
    ks: tuple[int, ...]  # ascending wavenumbers, one per row of omega
    halves: np.ndarray  # real (2, K, 2, ny//2 + 1) ``_fold`` of the modes; no step writes into it
    restarts: int = 0  # IMEX-SSP2 (re)start steps taken to reach this state
    _prev: np.ndarray | None = None  # the previous state's halves, SBDF2 history
    _prev_ex: np.ndarray | None = None
    _prev_dt: float | None = None
    _tables: dict = field(default_factory=dict, repr=False)  # nu D2, nu k^2 and the advection factors, per run

    @cached_property
    def omega(self) -> np.ndarray:
        """The complex (K, ny+1) modes, unfolded on the first read; read-only."""
        omega = _unfold(self.halves, self.grid.ny)
        omega.flags.writeable = False
        return omega

    def l2_norms(self) -> dict[int, float]:
        return {k: l2_norm(self.grid, f) for k, f in zip(self.ks, self.omega)}

    def total_l2(self) -> float:
        return float(np.sqrt(sum(hermitian_mode_weight(k) * norm**2 for k, norm in self.l2_norms().items())))


def initial_state(grid: ChannelGrid, nu: float, data: InitialData) -> ScalarState:
    """The state at t = 0; diffusion is implicit in every step, so nu > 0."""
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, not {nu!r}")
    halves, k = _fold(data.omega), np.asarray(data.ks, dtype=float)[:, None, None]
    nu_k2 = np.broadcast_to(nu * (k * k), halves.shape[1:]).copy()  # full width: faster than a (K, 1, 1) factor
    tables = {"nu_d2": nu * _folded_d2_t(grid), "nu_k2": nu_k2, "signed_k": k * [[1.0], [-1.0]]}
    return ScalarState(grid, 0.0, nu, data.ks, halves, _tables=tables)


def _advection(state: ScalarState, u0: np.ndarray) -> tuple:
    """The run's advection factors, rebuilt only when the nodal U0 differs from the last one seen."""
    if "u0" not in state._tables or not np.array_equal(u0, state._tables["u0"]):
        state._tables.update(u0=np.array(u0), advection=_advection_factors(state, state.grid.nodes + u0))
    return state._tables["advection"]


def _advection_factors(state: ScalarState, shear: np.ndarray) -> tuple:
    """(+-k s_o, +-k s_e or None when s_e = 0) per half entry for y + U0 = s_e + s_o, and kmax max|y + U0|."""
    shape = state.halves.shape
    lower, upper = shear[: shape[-1]], shear[::-1][: shape[-1]]
    odd, even = (np.broadcast_to(state._tables["signed_k"] * (0.5 * p), shape).copy()  # full width, like nu_k2
                 for p in (lower - upper, lower + upper))
    return odd, even if even.any() else None, (max(state.ks) or 1) * float(np.max(np.abs(shear)))


def step_scalar(state: ScalarState, dt: float, profile: ShearProfile | None = None, forcing=None) -> ScalarState:
    """Advance every mode by one IMEX step; walls are exactly zero after.

    All modes move together as the ``_fold`` halves in ascending k order: the
    step reads ``state.halves`` and returns a state holding new halves.
    ``forcing(t)``, if given, is the complex (K, ny+1) forcing at time t,
    folded as it enters.
    """
    profile = profile or zero_profile()
    grid, nu, t0, t1 = state.grid, state.nu, state.t, state.t + dt
    adv0 = _advection(state, profile.u0(t0, grid.nodes))
    if (theta := dt * adv0[2]) > THETA_ADV * (1.0 + 1e-9):
        raise StabilityError(f"advection multiplier dt*k*max|y+U0| = {theta:.3f} exceeds the stability margin "
                             f"{THETA_ADV}; admissible dt <= {THETA_ADV / adv0[2]:.3e}")
    u = state.halves
    restart = state._prev is None or abs(state._prev_dt - dt) > 1e-14

    def explicit(values, t, factors):
        # -ik (s_e + s_o) w: the odd part s_o swaps parity, -i swaps re and im
        ex = factors[0] * values[::-1, :, ::-1]
        if factors[1] is not None:
            ex += factors[1] * values[:, :, ::-1]
        return ex if forcing is None else ex + _fold(np.ascontiguousarray(forcing(t), dtype=complex))

    def diffusion(values):
        return _apply_blocks(values, state._tables["nu_d2"]) - state._tables["nu_k2"] * values

    def correct(guess, residual, alpha):
        # guess + A^{-1} residual, A = alpha + nu k^2 - nu D2; the residual's walls are ignored
        x = dirichlet_eig(grid).solve(residual, alpha + state._tables["nu_k2"][:, 0, 0], nu)
        x += guess
        return x

    ex0 = explicit(u, t0, adv0)
    if restart:
        # the stages solve (alpha - nu Dlt) u_s = b_s, alpha = 1/(g dt), whose residuals at the guesses
        # u and u1 are nu Dlt u and alpha (u - u1) + ((1 - g) im1 + ex1)/g
        alpha = 1.0 / (_SSP_GAMMA * dt)
        u1 = correct(u, diffusion(u), alpha)
        im1 = diffusion(u1)
        ex1 = explicit(u1, t0, adv0)
        r = np.subtract(u, u1)
        r *= alpha
        r += ((1.0 - _SSP_GAMMA) / _SSP_GAMMA) * im1
        r += ex1 / _SSP_GAMMA
        u2 = correct(u1, r, alpha)
        im2 = diffusion(u2)
        ex2 = explicit(u2, t1, _advection(state, profile.u0(t1, grid.nodes)))
        un = u + 0.5 * dt * (im1 + im2) + 0.5 * dt * (ex1 + ex2)
    else:
        # r = b - A u of b = (2u - prev/2)/dt + 2 ex0 - prev_ex, A = 1.5/dt + nu (k^2 - D2); un = u + A^{-1} r
        r = np.subtract(u, state._prev)
        r *= 0.5 / dt
        r += ex0
        r += ex0 - state._prev_ex
        r += diffusion(u)
        un = correct(u, r, 1.5 / dt)
    un[..., 0] = 0.0
    return ScalarState(grid, t1, nu, state.ks, un, restarts=state.restarts + restart, _prev=u, _prev_ex=ex0,
                       _prev_dt=dt, _tables=state._tables)


def exact_transport(omega_k: np.ndarray, k: int, t: float, grid: ChannelGrid) -> np.ndarray:
    """Closed-form nu = 0, U0 = 0 solution e^{-ikyt} omega_k(0) of mode k."""
    return np.exp(-1j * k * grid.nodes * t) * omega_k
