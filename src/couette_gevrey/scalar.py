"""Time integration of the passive scalar equation, all modes at once.

Each Fourier mode solves  d_t w_k + ik(y + U0) w_k = nu Dlt_k w_k + f_k
with Dirichlet walls; one step advances every mode as a single complex
(K, ny+1) array.  Diffusion is implicit (cached real LU Helmholtz solves,
split into even and odd blocks), the advection multiplier and forcing are
explicit: SBDF2 after an IMEX-SSP2(2,2,2) startup step.  The explicit multiplier is pointwise, so the
stability constraint is |k (y+U0)| dt below the scheme's imaginary-axis
limit; the admissible dt is reported by :func:`admissible_dt`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coordinates import ShearProfile, zero_profile
from .spectral import ChannelGrid, ModeField, helmholtz_lu, helmholtz_lu_solve, l2_norm

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


def spline_initial_bump(y: np.ndarray, power: int = 16, half_width: float = 0.25) -> np.ndarray:
    """(1 - (y/h)^2)_+^p: exactly supported in (-h, h), C^{p-1} smooth.

    The default initial datum.  A compactly supported C-infinity bump of
    this width is never spectrally resolved at practical grids (its
    Chebyshev coefficients decay only root-exponentially), which poisons
    the high vector-field stack entries; a finite-smoothness bump of high
    order keeps every Gamma-stack level through M = 6 representable while
    satisfying the support condition exactly.
    """
    u = np.asarray(y, dtype=float) / half_width
    return np.maximum(1.0 - u * u, 0.0) ** power


@dataclass
class InitialData:
    """Mode map of the initial scalar; must be supported inside (-1/4, 1/4)."""

    omega_in: dict[int, ModeField]

    def validate(self, grid: ChannelGrid, tol: float = 1e-14):
        outside = np.abs(grid.nodes) >= 0.25
        for k, f in self.omega_in.items():
            scale = float(np.max(np.abs(f.values))) or 1.0
            if np.any(np.abs(f.values[outside]) > tol * scale):
                raise ValueError(f"mode {k} has support outside (-1/4, 1/4)")
            if not np.all(np.isfinite(f.values)):
                raise ValueError(f"mode {k} is not square integrable")
        return self


def default_initial_data(grid: ChannelGrid, kmax: int | None = None, power: int = 16) -> InitialData:
    """The spline bump (see ``spline_initial_bump``) over (1 + k^2), k = 0..kmax."""
    if kmax is None:
        kmax = grid.kmax
    bump = spline_initial_bump(grid.nodes, power)
    data = {
        k: ModeField(k, bump / (1.0 + k * k)) for k in range(0, kmax + 1)
    }
    return InitialData(data).validate(grid)


@dataclass
class ScalarState:
    grid: ChannelGrid
    t: float
    nu: float
    omega: dict[int, ModeField]
    _prev: np.ndarray | None = None  # (K, ny+1) SBDF2 history, sorted k
    _prev_ex: np.ndarray | None = None
    _prev_dt: float | None = None
    _facts: dict = field(default_factory=dict, repr=False)

    def modes(self) -> list[int]:
        return sorted(self.omega.keys())

    def l2_norms(self) -> dict[int, float]:
        return {k: l2_norm(self.grid, f) for k, f in self.omega.items()}

    def total_l2(self) -> float:
        # Hermitian partner modes -k are implicit: double the k > 0 weights
        s = 0.0
        for k, f in self.omega.items():
            w = 1.0 if k == 0 else 2.0
            s += w * l2_norm(self.grid, f) ** 2
        return float(np.sqrt(s))


def initial_state(grid: ChannelGrid, nu: float, data: InitialData) -> ScalarState:
    return ScalarState(
        grid=grid,
        t=0.0,
        nu=nu,
        omega={k: f.copy() for k, f in data.omega_in.items()},
    )


def _forcing_rows(forcing, t: float, ks: list[int], shape: tuple[int, int]):
    """Forcing of every mode at time t as a (K, ny+1) array (0.0 if none)."""
    if forcing is None:
        return 0.0
    table = forcing(t) if callable(forcing) else forcing
    out = np.zeros(shape, dtype=complex)
    for i, k in enumerate(ks):
        f = table.get(k)
        if f is not None:
            out[i] = f.values if isinstance(f, ModeField) else f
    return out


def _check_stability(state: ScalarState, dt: float, shear: np.ndarray):
    """Raise if dt exceeds the advection margin for the shear y + U0(t) on the nodes."""
    kmax = max(abs(k) for k in state.omega) or 1
    bound = float(np.max(np.abs(shear)))
    theta = dt * kmax * bound
    if theta > THETA_ADV * (1.0 + 1e-9):
        raise StabilityError(
            f"advection multiplier dt*k*max|y+U0| = {theta:.3f} exceeds the "
            f"stability margin {THETA_ADV}; admissible dt <= "
            f"{THETA_ADV / (kmax * bound):.3e}"
        )


def _solve(state: ScalarState, ks: list[int], alpha: float, rhs: np.ndarray) -> np.ndarray:
    """Dirichlet Helmholtz solves of the rows of rhs, re/im as two real columns."""
    key = (round(alpha, 12), state.nu, tuple(ks))
    factors = state._facts.get(key)
    if factors is None:  # one LU pair per mode, per (alpha, nu) and run
        factors = state._facts[key] = [helmholtz_lu(state.grid, k, alpha, state.nu) for k in ks]
    parts = np.stack([rhs.real, rhs.imag], axis=1)  # (K, 2, ny+1)
    parts[:, :, [0, -1]] = 0.0
    parts = helmholtz_lu_solve(factors, parts)
    return parts[:, 0] + 1j * parts[:, 1]


def step_scalar(state: ScalarState, dt: float, profile: ShearProfile | None = None, forcing=None) -> ScalarState:
    """Advance every mode by one IMEX step; walls are exactly zero after.

    All modes move together as one complex (K, ny+1) array in sorted k order.
    """
    if profile is None:
        profile = zero_profile()
    grid, nu = state.grid, state.nu
    t0, t1 = state.t, state.t + dt

    def shear_at(t):
        return grid.nodes + profile.u0(t, grid.nodes)

    shear0 = shear_at(t0)
    _check_stability(state, dt, shear0)
    ks = state.modes()
    k_col = np.array(ks, dtype=float)[:, None]
    u = np.array([state.omega[k].values for k in ks], dtype=complex)
    restart = state._prev is None or state._prev_dt is None or abs(state._prev_dt - dt) > 1e-14

    def explicit(values, t, shear):
        return -1j * k_col * shear * values + _forcing_rows(forcing, t, ks, u.shape)

    def diffusion(values):
        # d2 acts on the real (ny+1, 2K) view of the modes as columns
        d2u = (grid.d2 @ np.ascontiguousarray(values.T).view(float)).view(complex).T
        return nu * (d2u - k_col * k_col * values)

    ex0 = explicit(u, t0, shear0)
    if restart:
        if nu > 0.0:
            alpha = 1.0 / (_SSP_GAMMA * dt)
            u1 = _solve(state, ks, alpha, u / (_SSP_GAMMA * dt))
            im1 = diffusion(u1)
            ex1 = explicit(u1, t0, shear0)
            rhs2 = u + dt * (1.0 - 2.0 * _SSP_GAMMA) * im1 + dt * ex1
            u2 = _solve(state, ks, alpha, rhs2 / (_SSP_GAMMA * dt))
            im2 = diffusion(u2)
            ex2 = explicit(u2, t1, shear_at(t1))
            un = u + 0.5 * dt * (im1 + im2) + 0.5 * dt * (ex1 + ex2)
        else:
            # Heun step of the pure multiplier problem
            mid = u + dt * ex0
            mid[:, 0] = mid[:, -1] = 0.0
            un = u + 0.5 * dt * (ex0 + explicit(mid, t1, shear_at(t1)))
    else:
        rhs = (2.0 * u - 0.5 * state._prev) / dt + 2.0 * ex0 - state._prev_ex
        un = _solve(state, ks, 1.5 / dt, rhs) if nu > 0.0 else rhs * dt / 1.5
    un[:, [0, -1]] = 0.0
    omega = {k: ModeField(k, row) for k, row in zip(ks, un)}
    return ScalarState(grid, t1, nu, omega, _prev=u, _prev_ex=ex0, _prev_dt=dt, _facts=state._facts)


def exact_transport(omega_in_k: ModeField, k: int, t: float, grid: ChannelGrid) -> ModeField:
    """Closed-form nu = 0, U0 = 0 solution e^{-ikyt} omega_in."""
    return ModeField(k, np.exp(-1j * k * grid.nodes * t) * omega_in_k.values)
