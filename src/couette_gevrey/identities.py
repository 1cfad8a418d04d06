"""Numeric verification of the algebraic backbone: commutators, the
commuted mode equation, Faa di Bruno coefficients, boundary and
combinatorial lemmas.

These are instance checks, not proofs: each operator identity is evaluated
on concrete analytic fields and grids and the residual is reported.  Where
the source derivation carries ambiguous signs or indices, the implemented
orientation is the one that closes the residual (a flipped sign would show
as an O(1) failure); those resolutions are noted in the docstrings.

Each q-power relation keeps its one printed right side for every n >= 1.
Where that side carries a negative power of q (q^{n-2} at n = 1 against
d_yy or dv-bar^2, q^{n-3} in the Upsilon expansion at n = 2), its terms are
infinite on the walls, where q = 0, while their sum stays finite: such a
relation is compared on interior nodes only, and every other on all nodes.
The finite collected form is used wherever a globally defined field is
required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coordinates import CoordinateState, _derived_state, gamma_ladder, shell_pairs
from .spectral import ChannelGrid
from .weights import (
    GevreyCoeffTable,
    WeightParams,
    eval_q,
    jet_div,
    jet_mul,
    jet_pow,
    log_factorial,
    q_jet,
    theta_weights,
)


@dataclass
class IdentityReport:
    name: str
    max_abs_residual: float
    samples: int
    tolerance: float
    pass_: bool = field(init=False)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        self.pass_ = bool(self.max_abs_residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_abs_residual": float(self.max_abs_residual),
            "samples": int(self.samples),
            "tolerance": float(self.tolerance),
            "pass": self.pass_,
            "details": {k: _jsonable(v) for k, v in self.details.items()},
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


# ---------------------------------------------------------------------------
# operator expansion on matrices


def _ad(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    out = b
    for _ in range(order):
        out = a @ out - out @ a
    return out


def check_ad_expansion(dim: int = 4, n: int = 5, trials: int = 100, seed: int = 0) -> IdentityReport:
    """[A^n, B] = sum_l binom(n,l) ad_A^{n-l}(B) A^l on random matrices."""
    if dim < 2 or n > 6:
        raise ValueError("need dim >= 2 and n <= 6")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = rng.normal(size=(dim, dim))
        b = rng.normal(size=(dim, dim))
        an = np.linalg.matrix_power(a, n)
        lhs = an @ b - b @ an
        rhs = np.zeros_like(lhs)
        for ell in range(n):
            rhs += math.comb(n, ell) * _ad(a, b, n - ell) @ np.linalg.matrix_power(a, ell)
        scale = max(np.linalg.norm(lhs), 1.0)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / scale))
    return IdentityReport("ad_expansion", worst, trials, 1e-12)


# ---------------------------------------------------------------------------
# commutator relations


def wall_flat_test_field(grid: ChannelGrid, power: int = 10, phase: float = 0.4) -> np.ndarray:
    """Analytic test function vanishing to high order at the walls.

    The co-normal weight q turns over inside a layer of width 2e-4 next to
    the walls (forced by its exact linear branches); fields flat to order
    ``power`` push that unresolvable feature below the spectral noise floor
    of products q^n f.
    """
    y = grid.nodes
    return np.sin(2.3 * y + phase) * (1.0 - y * y) ** power


def analytic_test_jet(y: np.ndarray, order: int, freq: float = 2.3, phase: float = 0.4) -> list[np.ndarray]:
    """sin(freq y + phase) with exact derivatives up to ``order``.

    O(1) at the walls on purpose: the q-relation content lives in the
    near-wall zones where q varies, so the test data must not vanish there.
    """
    y = np.asarray(y, dtype=float)
    return [freq**j * np.sin(freq * y + phase + 0.5 * j * np.pi) for j in range(order + 1)]


COMMUTATOR_RELATIONS = (
    "cm_py_Gn",
    "cm_pyy_Gn",
    "cm_py_qn",
    "cm_pyy_qn",
    "cm_pv_qn",
    "cm_pvv_qn",
    "cm_pvv_q",
)


def commutator_cases(ns) -> list[tuple[str, int]]:
    """The (relation, n) pairs with n in ``ns`` that the commutator checks are
    stated for, relation by relation: n = 0..4, and n = 1 only for cm_pvv_q,
    the relation of q itself."""
    return [(which, n) for which in COMMUTATOR_RELATIONS for n in ns
            if 0 <= n <= 4 and (which != "cm_pvv_q" or n == 1)]


def check_commutator_relations(
    which: str,
    n: int,
    k: int,
    coord: CoordinateState,
    grid: ChannelGrid,
    t: float | None = None,
) -> IdentityReport:
    """One commutator relation on ``wall_flat_test_field``, both sides
    evaluated spectrally.

    All relations are oriented as [d, X] = d X - X d.  For the d_y versus
    Gamma^n relation the binomial of the re-indexed sum is binom(n, l-1),
    not the printed binom(n, l); the residual confirms the corrected form.

    For the Gamma relations at n >= 2 the raw difference d Gamma^n f -
    Gamma^n d f loses all significant digits to cancellation (the
    commutator is smaller than the operands by the coordinate distortion),
    so the left side is assembled by the stable recursion [d, Gamma^n] =
    [d, Gamma] Gamma^{n-1} + Gamma [d, Gamma^{n-1}] from the closed
    single-commutator forms, which are themselves checked directly at
    n = 1.
    """
    if which not in COMMUTATOR_RELATIONS:
        raise ValueError(f"unknown relation {which!r}")
    if (which, n) not in commutator_cases([n]):
        raise ValueError(f"{which} is not stated for n = {n} (n = 0..4; cm_pvv_q at n = 1 only)")
    if np.any(coord.v_y <= 0):
        raise ValueError("degenerate coordinate")
    if t is None:
        t = coord.t
    f = wall_flat_test_field(grid).astype(complex)
    d1, d2 = grid.d1, grid.d2
    vy = coord.v_y
    vyy = d1 @ vy
    q, qp, qpp = q_jet(grid.nodes, 2)
    mask = np.ones(grid.ny + 1, dtype=bool)
    h = vy - 1.0
    zero = np.zeros_like(f)
    gam = gamma_ladder(d1, f, vy, n, k, t)

    def dvb(g):
        return (d1 @ g) / vy

    def comm_dy(g):  # [d_y, Gamma] g, closed form
        return -dvb(h) * dvb(g)

    def comm_dyy(g):  # [d_yy, Gamma] g, closed form
        return -2.0 * vyy * dvb(dvb(g)) - dvb(vyy) * dvb(g)

    def recursive_comm(base_comm, count):
        # unrolled recursion: [d, Gamma^count] = sum_j Gamma^j [d, Gamma] Gamma^{count-1-j}
        out = base_comm(gam[count - 1])
        for j in range(1, count):
            out = out + gamma_ladder(d1, base_comm(gam[count - 1 - j]), vy, j, k, t)[-1]
        return out

    if which == "cm_py_Gn":
        if n <= 1:
            lhs = d1 @ gam[n] - gamma_ladder(d1, d1 @ f, vy, n, k, t)[-1]
        else:
            lhs = recursive_comm(comm_dy, n)
        dvh = gamma_ladder(d1, h.astype(complex), vy, n)
        rhs = zero.copy()
        for ell in range(n):
            rhs += 1j * k * t * math.comb(n, ell) * dvh[n - ell] * gam[ell]
        for ell in range(1, n + 1):
            rhs -= math.comb(n, ell - 1) * dvh[n - ell + 1] * gam[ell]
    elif which == "cm_pyy_Gn":
        if n <= 1:
            lhs = d2 @ gam[n] - gamma_ladder(d1, d2 @ f, vy, n, k, t)[-1]
        else:
            lhs = recursive_comm(comm_dyy, n)
        dvvyy = gamma_ladder(d1, vyy.astype(complex), vy, n)
        rhs = zero.copy()
        for ell in range(n):
            rhs -= math.comb(n, ell) * (
                2.0 * dvvyy[n - ell - 1] * dvb(dvb(gam[ell]))
                + dvvyy[n - ell] * dvb(gam[ell])
            )
    else:
        # Products with q^n carry the unresolvable q-layer next to the
        # walls, so both sides are evaluated by exact jet differentiation
        # with closed-form test data instead of spectral collocation.
        fj = analytic_test_jet(grid.nodes, 2)
        f, fp = fj[0], fj[1]
        vyj = gamma_ladder(d1, vy, 1.0, 2)
        qnj = jet_pow([q, qp, qpp], n)
        dv = lambda g: dvbar_jet(g, vyj)
        op = {"py": lambda g: g[1], "pyy": lambda g: g[2],
              "pv": lambda g: dv(g)[0], "pvv": lambda g: dv(dv(g))[0]}[which.split("_")[1]]
        lhs = op(jet_mul(qnj, fj)) - qnj[0] * op(fj)
        # the printed right sides, one for every n >= 1
        with np.errstate(divide="ignore", invalid="ignore"):
            q1, q2 = q ** (n - 1.0), q ** (n - 2.0)
            if n == 0:
                rhs = zero
            elif which == "cm_py_qn":
                rhs = n * qp * q1 * f
            elif which == "cm_pyy_qn":
                rhs = (
                    -(qp**2) * (n * n + n) * q2 * f
                    + 2.0 * qp * (n * n * q2 * qp * f + n * q1 * fp)
                    + qpp * n * q1 * f
                )
            elif which == "cm_pv_qn":
                rhs = (qp / vy) * n * q1 * f
            elif which == "cm_pvv_qn":
                rhs = (
                    2.0 * (qp / vy**2) * (n * n * q2 * qp * f + n * q1 * fp)
                    + (qpp / vy**2) * n * q1 * f
                    - (qp / vy**2) * (vyy / vy) * n * q1 * f
                    - (qp**2 / vy**2) * (n * n + n) * q2 * f
                )
            else:  # cm_pvv_q
                rhs = 2.0 * (qp / vy**2) * fp + (qpp / vy**2) * f - (qp / vy**3) * vyy * f
        if n == 1 and which in ("cm_pyy_qn", "cm_pvv_qn"):  # q^{n-2} is 1/q: interior only
            mask[[0, -1]] = False
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(f))), 1e-300)
    res = float(np.max(np.abs((lhs - rhs)[mask])) / scale)
    return IdentityReport(f"commutator_{which}_n{n}", res, int(mask.sum()), 1e-8)


# ---------------------------------------------------------------------------
# manufactured coordinate/scalar pairs and the commuted mode equation


@dataclass
class ManufacturedSetup:
    """Closed-form coordinate + scalar pair for residual checks.

    w(t,y) = eps rho(t) (1-y^2)^2 fixes the coordinate; U0 is read off the
    coordinate evolution equation so the pair is exactly consistent, and
    the forcing f is defined as the defect of the mode equation for an
    explicit oscillatory omega.  Every time derivative is closed-form, so
    only the centered difference of the assembled stack entry and spectral
    differentiation enter the residual.
    """

    grid: ChannelGrid
    k: int
    nu: float
    eps: float = 1.0 / 64.0

    def rho(self, t: float) -> float:
        return 1.0 + 0.5 * math.sin(t) / (1.0 + 0.25 * t * t)

    def rho_dot(self, t: float) -> float:
        den = 1.0 + 0.25 * t * t
        return 0.5 * (math.cos(t) * den - math.sin(t) * 0.5 * t) / den**2

    def _shape(self):
        y = self.grid.nodes
        return (1.0 - y * y) ** 2, 12.0 * y * y - 4.0

    def w(self, t: float) -> np.ndarray:
        return self.eps * self.rho(t) * self._shape()[0]

    def u0(self, t: float) -> np.ndarray:
        xi, xi_pp = self._shape()
        return self.eps * (
            (t * self.rho_dot(t) + self.rho(t)) * xi - self.nu * t * self.rho(t) * xi_pp
        )

    def coord(self, t: float) -> CoordinateState:
        xi, xi_pp = self._shape()
        g = self.eps * (self.rho_dot(t) * xi - self.nu * self.rho(t) * xi_pp)
        return _derived_state(self.grid, t, self.w(t), g)

    def _omega_profile(self, t: float):
        """eta(t), exp(-i k y t) and mu(y), whose product is omega."""
        y = self.grid.nodes
        mu = np.sin(2.0 * y + 0.3) * (1.0 - y * y) ** 12
        return 1.0 / (1.0 + 0.3 * t * t), np.exp(-1j * self.k * y * t), mu

    def omega(self, t: float) -> np.ndarray:
        eta, wave, mu = self._omega_profile(t)
        return eta * wave * mu

    def omega_t(self, t: float) -> np.ndarray:
        eta, wave, mu = self._omega_profile(t)
        return (-0.6 * t * eta * eta - 1j * self.k * self.grid.nodes * eta) * wave * mu

    def forcing(self, t: float) -> np.ndarray:
        om = self.omega(t)
        lap = self.grid.d2 @ om - self.k**2 * om
        return self.omega_t(t) + 1j * self.k * (self.grid.nodes + self.u0(t)) * om - self.nu * lap

    def omega_ring(self, m: int, n: int, t: float) -> np.ndarray:
        gam = gamma_ladder(self.grid.d1, self.omega(t), self.coord(t).v_y, n, self.k, t)[-1]
        return abs(self.k) ** m * eval_q(self.grid.nodes) ** n * gam


def c_q_collected(grid: ChannelGrid, nu: float, n: int, gam_n: np.ndarray) -> np.ndarray:
    """C_q acting on q^n G with the singular 1/q pieces cancelled exactly:

        C_q = -nu n (n-1) (q')^2 q^{n-2} G - 2 nu n q' q^{n-1} d_y G
              - nu n q'' q^{n-1} G,

    which equals -nu [d_yy, q^n] G, the printed three-term form.
    """
    if n == 0:
        return np.zeros_like(gam_n)
    q, qp, qpp = q_jet(grid.nodes, 2)
    out = -2.0 * nu * n * qp * q ** (n - 1) * (grid.d1 @ gam_n)
    out -= nu * n * qpp * q ** (n - 1) * gam_n
    if n >= 2:
        out -= nu * n * (n - 1) * qp**2 * q ** (n - 2) * gam_n
    return out


def mode_equation_rhs(setup: ManufacturedSetup, m: int, n: int, t: float) -> dict[str, np.ndarray]:
    """F + C_trans + C_visc + C_q of the commuted mode equation."""
    grid, k, nu = setup.grid, setup.k, setup.nu
    coord = setup.coord(t)
    q = eval_q(grid.nodes)
    vy = coord.v_y
    gam = gamma_ladder(grid.d1, setup.omega(t), vy, n, k, t)
    dv_g = gamma_ladder(grid.d1, coord.G.astype(complex), vy, n)
    dv_vy2 = gamma_ladder(grid.d1, (vy**2).astype(complex), vy, n)
    km = float(abs(k)) ** m
    f_term = km * q**n * gamma_ladder(grid.d1, setup.forcing(t), vy, n, k, t)[-1]
    c_trans = np.zeros_like(f_term)
    c_visc = np.zeros_like(f_term)
    for ell in range(1, n + 1):
        c_trans -= km * q**n * math.comb(n, ell) * dv_g[ell] * gam[n - ell + 1]
        c_visc += (
            nu * km * q**n * math.comb(n, ell)
            * dv_vy2[ell]
            * gamma_ladder(grid.d1, gam[n - ell], vy, 2)[-1]
        )
    gam_n = km * gam[n]
    c_q = c_q_collected(grid, nu, n, gam_n)
    return {"F": f_term, "C_trans": c_trans, "C_visc": c_visc, "C_q": c_q}


def check_mode_equation(
    setup: ManufacturedSetup,
    m: int,
    n: int,
    t: float,
    dt: float,
) -> IdentityReport:
    """Residual of the commuted equation with a centered time difference.

    d_t omega-ring comes from the assembled stack entries at t -+ dt; all
    other terms are evaluated at t, so the residual is O(dt^2) plus
    spectral roundoff.
    """
    grid, k, nu = setup.grid, setup.k, setup.nu
    ddt = (setup.omega_ring(m, n, t + dt) - setup.omega_ring(m, n, t - dt)) / (2.0 * dt)
    ring = setup.omega_ring(m, n, t)
    lap = grid.d2 @ ring - k * k * ring
    lhs = ddt + 1j * k * (grid.nodes + setup.u0(t)) * ring - nu * lap
    rhs = sum(mode_equation_rhs(setup, m, n, t).values())
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(ring))), 1e-300)
    res = float(np.max(np.abs(lhs - rhs)) / scale)
    return IdentityReport(
        f"mode_equation_m{m}_n{n}",
        res,
        grid.ny + 1,
        1e-4,
        details={"dt": dt, "t": t, "k": k, "nu": nu},
    )


# ---------------------------------------------------------------------------
# the Upsilon expansion of d_y C_q


def upsilon_coefficients(grid: ChannelGrid, n: int):
    """(Ups1, Ups2, Ups3): the collected coefficients of d_y C_q."""
    q, qp, qpp, qppp = q_jet(grid.nodes, 3)
    ups1 = -2.0 * qp
    ups2 = (n + 3.0) / n * qp**2 - 3.0 / n * qpp * q
    ups3 = (
        (2.0 * n + 3.0) / n**2 * qpp * qp * q
        - 2.0 * (n + 1.0) / n**2 * qp**3
        - qppp * q**2 / n**2
    )
    return ups1, ups2, ups3


def check_upsilon_identity(
    n: int,
    grid: ChannelGrid,
    nu: float = 1e-2,
) -> IdentityReport:
    """d_y C_q = nu [Ups1 (n/q) d_y^2 + Ups2 (n^2/q^2) d_y + Ups3 (n^3/q^3)] g.

    g = q^n h with wall-flat analytic h stands in for a stack entry; the
    left side is the spectral derivative of the collected C_q values, the
    right side the printed three-term expansion.
    """
    if n < 2:
        raise ValueError("the expansion is stated for n >= 2")
    y = grid.nodes
    hj = analytic_test_jet(y, 3, freq=1.7, phase=0.9)
    h, hp, hpp = hj[0], hj[1], hj[2]
    q, qp, qpp, qppp = q_jet(y, 3)
    # d_y C_q by jet differentiation of the collected three-term form
    qj, qpj, qppj = [q, qp], [qp, qpp], [qpp, qppp]
    hj1 = hj[:2]
    hpj = hj[1:3]
    term1 = jet_mul(jet_mul(qpj, qpj), jet_mul(jet_pow(qj, n - 2), hj1))
    term2 = jet_mul(qpj, jet_mul(jet_pow(qj, n - 1), hpj))
    term3 = jet_mul(qppj, jet_mul(jet_pow(qj, n - 1), hj1))
    lhs = -nu * (n * (n - 1) * term1[1] + 2.0 * n * term2[1] + n * term3[1])
    ups1, ups2, ups3 = upsilon_coefficients(grid, n)
    # expand each bracket against g = q^n h so only q^{n-3} appears:
    #   (n/q) d_yy g, (n^2/q^2) d_y g, (n^3/q^3) g
    with np.errstate(divide="ignore", invalid="ignore"):
        q3 = q ** (n - 3.0)
        b1 = (
            n * n * (n - 1) * q3 * qp**2 * h
            + n * n * q ** (n - 2) * qpp * h
            + 2.0 * n * n * q ** (n - 2) * qp * hp
            + n * q ** (n - 1) * hpp
        )
        b2 = n**3 * q3 * qp * h + n * n * q ** (n - 2) * hp
        b3 = n**3 * q3 * h
        rhs = nu * (ups1 * b1 + ups2 * b2 + ups3 * b3)
    mask = np.ones(grid.ny + 1, dtype=bool)
    mask[[0, -1]] = n != 2  # q^{n-3} is 1/q at n = 2: interior only
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    res = float(np.max(np.abs((lhs - rhs)[mask])) / scale)
    report = IdentityReport(f"upsilon_n{n}", res, int(mask.sum()), 1e-8)
    report.details["ups1_check"] = float(np.max(np.abs(ups1 + 2.0 * qp)))
    return report


# ---------------------------------------------------------------------------
# Faa di Bruno representation of dv-bar^j(q^n), via the Taylor jets of weights


def dvbar_jet(f_jet: list[np.ndarray], vy_jet: list[np.ndarray]) -> list[np.ndarray]:
    """dv-bar f as a jet one order lower: f' / v_y."""
    return jet_div(f_jet[1:], vy_jet)


def dvbar_pow_pointwise(f_jet, vy_jet, count: int) -> np.ndarray:
    cur = f_jet
    for _ in range(count):
        cur = dvbar_jet(cur, vy_jet)
    return cur[0]


_PARTITIONS = {
    1: [(1,)],
    2: [(2, 0), (0, 1)],
    3: [(3, 0, 0), (1, 1, 0), (0, 0, 1)],
    4: [(4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)],
}


def dvbar_q_powers(j: int, y: np.ndarray, vy_jet: list[np.ndarray]) -> list[np.ndarray]:
    """[q, dv-bar q, ..., dv-bar^j q] at y by jet arithmetic, for ``q_tilde``."""
    qj = q_jet(y, j)
    return [qj[0]] + [dvbar_pow_pointwise(qj, vy_jet[: j + 1], ell) for ell in range(1, j + 1)]


def q_tilde(n: int, j: int, dvq: list[np.ndarray]) -> np.ndarray:
    """The bounded coefficient in dv-bar^j(q^n) = q~_{n,j} n^j q^{(n-j)_+}.

    Built from the multivariate chain rule over the partitions of j from
    ``dvq = dvbar_q_powers(j, y, vy_jet)``, shared by every n; bounded in n.
    """
    if not 1 <= j <= 4:
        raise ValueError("1 <= j <= 4")
    q0 = dvq[0]
    out = np.zeros_like(q0)
    for part in _PARTITIONS[j]:
        msum = sum(part)
        if msum > n:
            continue
        coef = math.factorial(j)
        for m_ell in part:
            coef //= math.factorial(m_ell)
        falling = 1.0
        for r in range(msum):
            falling *= n - r
        term = coef * falling / float(n) ** j * q0 ** (n - max(n - j, 0) - msum)
        for ell, m_ell in enumerate(part, start=1):
            if m_ell:
                term = term * (dvq[ell] / math.factorial(ell)) ** m_ell
        out = out + term
    return out


def check_faa_di_bruno(
    n: int,
    j: int,
    coord: CoordinateState,
    grid: ChannelGrid,
    n_sup_sweep: tuple[int, ...] = (8, 16, 32, 64),
) -> IdentityReport:
    """dv-bar^j (q^n) = q~_{n,j} n^j q^{(n-j)_+}, pointwise via jets.

    Both sides are exact jet computations; the identity content is the
    combinatorial assembly of derivatives of the base q.  Also reports the
    sup of |q~_{n,2}| over the sweep, which must stabilize in n.
    """
    if not 1 <= j <= 4:
        raise ValueError("1 <= j <= 4")
    y = grid.nodes[1:-1]
    vy_jet = [d[1:-1] for d in gamma_ladder(grid.d1, coord.v_y, 1.0, 4)]
    lhs = dvbar_pow_pointwise(jet_pow(q_jet(y, 4), n), vy_jet, j)
    qt = q_tilde(n, j, dvbar_q_powers(j, y, vy_jet))
    rhs = qt * float(n) ** j * eval_q(y) ** max(n - j, 0)
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    res = float(np.max(np.abs(lhs - rhs)) / scale)
    dvq2 = dvbar_q_powers(2, y, vy_jet)
    sup_sweep = {nn: float(np.max(np.abs(q_tilde(nn, 2, dvq2)))) for nn in n_sup_sweep}
    return IdentityReport(
        f"faa_di_bruno_n{n}_j{j}",
        res,
        len(y),
        1e-8,
        details={"sup_q_tilde_sweep": sup_sweep},
    )


def check_faa_commutator(
    n: int,
    j: int,
    coord: CoordinateState,
    grid: ChannelGrid,
) -> IdentityReport:
    """[dv-bar^j, q^n] f = sum_l binom(j,l) q~_{n,l} n^l q^{(n-l)_+} dv-bar^{j-l} f.

    Jet evaluation with closed-form data, so the near-wall zones where the
    commutator actually lives contribute at full strength.
    """
    if not 1 <= j <= 3:
        raise ValueError("1 <= j <= 3")
    y = grid.nodes
    vy_jet = gamma_ladder(grid.d1, coord.v_y, 1.0, j + 1)
    fj = analytic_test_jet(y, j, freq=1.9, phase=1.3)
    qj = q_jet(y, j)
    qnj = jet_pow(qj, n)
    prod = jet_mul(qnj, fj)
    lhs = dvbar_pow_pointwise(prod, vy_jet, j) - qnj[0] * dvbar_pow_pointwise(fj, vy_jet, j)
    rhs = np.zeros_like(lhs)
    q = qj[0]
    for ell in range(1, j + 1):
        qt = q_tilde(n, ell, dvbar_q_powers(ell, y, vy_jet))
        rhs += (
            math.comb(j, ell)
            * qt
            * float(n) ** ell
            * q ** max(n - ell, 0)
            * dvbar_pow_pointwise(fj, vy_jet, j - ell)
        )
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(fj[0]))), 1e-300)
    res = float(np.max(np.abs(lhs - rhs)) / scale)
    return IdentityReport(f"faa_commutator_n{n}_j{j}", res, grid.ny + 1, 1e-8)


# ---------------------------------------------------------------------------
# boundary lemma


def check_boundary_lemma(stack, grid: ChannelGrid) -> IdentityReport:
    """Wall values of Re[d_y ring * conj(d_yy ring)] vanish except n = 1.

    The wall derivatives are the Leibniz products of the analytic jet of
    q^n with G_n and its spectral derivatives, so the exact vanishing forced
    by q(+-1) = 0 is realized exactly for n >= 2.  For n = 0 the vanishing
    relies on the trace d_yy omega_k(+-1) = 0 that the equation enforces
    with wall-compatible forcing, so the residual there reflects the
    solver's boundary compatibility.  The n = 1 value is finite and
    reported against the |d_y ring_{m,0}|^2 wall bound shape.
    """
    qj = q_jet(grid.nodes, 2)
    worst = 0.0
    details = {}
    scale = 1e-300
    for m, n in shell_pairs(stack.M):
        g_n = abs(stack.k) ** m * stack.gamma_pows[n]
        _, dy, dyy = jet_mul(jet_pow(qj, n), gamma_ladder(grid.d1, g_n, 1.0, 2))
        prod = np.real(dy * np.conj(dyy))
        scale = max(scale, float(np.max(np.abs(prod[1:-1]))))
        wall = max(abs(prod[0]), abs(prod[-1]))
        if n == 1:
            dy0 = grid.d1 @ (abs(stack.k) ** m * stack.gamma_pows[0])
            bound = max(abs(dy0[0]) ** 2, abs(dy0[-1]) ** 2)
            details[f"n1_wall_value_m{m}"] = float(wall)
            details[f"n1_bound_m{m}"] = float(bound)
        else:
            worst = max(worst, wall)
    return IdentityReport(
        "boundary_lemma", worst / scale, stack.M + 1, 1e-8, details=details
    )


# ---------------------------------------------------------------------------
# combinatorial lemmas


_STRIP = 64       # terms a long row's rough sum reads at each end
_FLOOR = -60.0    # rough sums skip terms below e^_FLOOR times their row's largest
_BAND = 1e-12     # rows within this of the rough maximum are summed exactly
_BLOCK = 128      # rows per rough-sum block
_FACE_BLOCK = 32  # n per comb_boun block


def _exact_max(rough, ns, exact):
    """max of exact(n) over ns, given rough[i] within 2.5e-13 relative of
    exact(ns[i]) > 0: only the rows within _BAND of max(rough) are summed."""
    return max(exact(int(n)) for n in ns[rough >= rough.max() * (1.0 - _BAND)])


def _screened_maxima(ns, lo, off, log_term, power=0.0):
    """(max, last-decade max) over n in ns of n^power sum_l exp(log_term(n, l)),
    l = lo..n-off, each bit-identical to a loop over n summing 1-D rows.

    Rough row sums are taken _BLOCK rows at a time. A row longer than
    2 _STRIP reads its first and last _STRIP terms only: its terms are
    log-convex in l (log binom(n, l) is concave, log l! convex), so those
    between the strips lie below the two next to them, and the row is
    summed in full unless both are below e^_FLOOR of its largest term.
    Terms below that floor are skipped, so np.exp never sees an argument
    below _FLOOR (it is 14-96x slower on denormal results).
    The band holds: the loop's sum of <= 2001 positive terms is within
    2000u < 2.3e-13 relative of the exact sum of its terms, a rough sum
    (<= 128 kept terms, each within 4e-15 of the loop's; skipped terms
    < 2001 e^-60 together) within 127u + 4e-15 < 2e-14. So each rough sum
    is within d < 2.5e-13 of its loop sum, and the row attaining the loop
    maximum lies within 2d < _BAND of the rough maximum.
    """
    exact = lambda n: n**power * np.exp(log_term(n, np.arange(lo, n - off + 1))).sum()
    rough = np.empty(len(ns))
    j = np.arange(2 * _STRIP)
    for b in range(0, len(ns), _BLOCK):
        n = ns[b:b + _BLOCK, None]
        hi = n - off
        long = hi - lo >= 2 * _STRIP
        valid = j <= hi - lo
        l = np.where(long & (j >= _STRIP), hi - 2 * _STRIP + 1 + j, lo + j)
        x = log_term(n, np.where(valid, l, lo))
        top = x.max(axis=1, keepdims=True)
        d = x - top
        kept = (np.exp(np.maximum(d, _FLOOR)) * (valid & (d > _FLOOR))).sum(axis=1)
        rough[b:b + len(n)] = n[:, 0]**power * np.exp(top[:, 0]) * kept
        inner = np.clip(np.hstack([np.full_like(n, lo + _STRIP), hi - _STRIP]), lo, hi)
        for i in np.flatnonzero(long[:, 0] & ((log_term(n, inner) - top).max(axis=1) >= _FLOOR)):
            rough[b + i] = exact(int(n[i, 0]))
    head = int(0.9 * len(ns))
    return _exact_max(rough, ns, exact), _exact_max(rough[head:], ns[head:], exact)


def check_combinatorics(which: str, n_max: int = 2000, zeta: float = 1.0,
                        params: WeightParams | None = None,
                        frak_c: float = 2.0,
                        t_samples: tuple[float, ...] = (0.0, 0.3, 0.7, 1.5, 3.0, 7.0, 15.0, 40.0, 120.0, 400.0)) -> IdentityReport:
    """Brute-force maxima for the combinatorial lemmas.

    prod / prod2: bounded (resp. n^-zeta decaying) inverse-binomial sums;
    sum_comb: the factorial-ratio geometric sum; comb_boun: the binomial
    splitting bound <t>^{-1} a_{m,n} binom(n,l) / (a_{m,l} a_{0,n-l})
    <= 2^{-l(s-1)}, swept over the index triangle and ten times.

    Every kind reads log j! from one table lg[j] = log_factorial(j),
    j = 0..n_max+1, gathered once per call; log binom(n, l) is
    lg[n] - lg[l] - lg[n-l].
    prod, prod2 and sum_comb take their maxima over n (and its last
    decade) from `_screened_maxima`, bit-identical to a loop over n.
    comb_boun reads s (j log lambda(t) - log j!) from one (T, n_max+1)
    table s_lam; only log phi(t), log lambda(t) and log(1+t^2) depend on
    t. Its maximum over the index triangle lies on the face m = 0: since
    s_lam[j+1] - s_lam[j] = s (log lambda - log(j+1)), the margin at
    (t, m, n, l) exceeds the one at m+1 by s log((m+n+1)/(m+l+1)), and
    as n - l >= 3 (5 <= n, l <= n/2) and m+n+1 <= n_max+1, that gap is
    at least s log((n_max+1)/(n_max-2)) > 3s/(n_max+1) (2.3e-2 at
    s = 1.5, n_max = 200). Each margin is formed in fewer than 40
    roundings of values below 2^13 (2.7e3 at n_max = 200, 4.3e3 at
    s = 3), each within 2^-40, so it errs by < 4e-11, far below the gap:
    the floating-point maximum over m sits at m = 0 too. Only that face is
    evaluated, _FACE_BLOCK values of n at a time, each element in the
    full sweep's operation order, so the margin is bit-identical to the
    sweep's; samples still counts the whole triangle.
    """
    if params is None:
        params = WeightParams()
    lg = log_factorial(np.arange(n_max + 2))
    inv_binom = lambda n, l: -zeta * (lg[n] - lg[l] - lg[n - l])
    expo = params.sigma + params.sigma_star
    rows = {  # report name, first n, first l, n - last l, log of term l, power of n
        "prod": ("comb_prod", 1, 0, 0, inv_binom, 0.0),
        "prod2": ("comb_prod2", 2, 1, 1, inv_binom, zeta),
        "sum_comb": ("comb_sum", 1, 0, 1, lambda n, l: (n - l) * math.log(frak_c) - expo * (lg[n] - lg[l]), 0.0),
    }
    if which in rows:
        name, first, lo, off, log_term, power = rows[which]
        peak, late = _screened_maxima(np.arange(first, n_max + 1), lo, off, log_term, power)
        extra = {"frak_c": frak_c} if which == "sum_comb" else {"zeta": zeta}
        report = IdentityReport(name, max(float(late - peak), 0.0), n_max, 1e-12,
                                details={"empirical_constant": float(peak), **extra})
        if which == "prod" and abs(zeta - 1.0) < 1e-14 and n_max >= 3:
            exact = sum(Fraction(1, math.comb(3, j)) for j in range(4))
            report.details["exact_n3"] = float(exact)
            report.details["exact_n3_is_8_3"] = exact == Fraction(8, 3)
        return report
    if which == "comb_boun":
        tab = GevreyCoeffTable(params)
        s = params.s
        # log <t>^{-1}, log phi(t), log lambda(t) as (T, 1, 1): every t at once
        log_jap, log_phi, log_lam = np.array(
            [(-0.5 * math.log1p(t * t), math.log(tab.phi(t)), math.log(tab.lam(t))) for t in t_samples]
        ).T[:, :, None, None]
        # s (j log lambda - log j!) for j = 0..n_max, as (T, n_max+1)
        s_lam = s * (np.arange(n_max + 1) * log_lam[:, :, 0] - lg[: n_max + 1])
        worst_margin = -np.inf
        for b in range(5, n_max + 1, _FACE_BLOCK):
            n = np.arange(b, min(b + _FACE_BLOCK, n_max + 1))[:, None]
            ll = np.arange(0, n[-1, 0] // 2 + 1)
            valid = ll <= n // 2
            nl = np.where(valid, n - ll, n)
            log_binom = lg[n] - lg[ll] - lg[nl]
            log_rhs = ll * (s - 1.0) * math.log(0.5)
            log_a_mn = s_lam[:, n] + (1 + n) * log_phi
            log_a_ml = s_lam[:, None, ll] + (1 + ll) * log_phi
            log_a_0nl = s_lam[:, nl] + (1 + nl) * log_phi
            log_lhs = log_jap + log_a_mn + log_binom - log_a_ml - log_a_0nl
            worst_margin = max(worst_margin, float(np.max(np.where(valid, log_lhs - log_rhs, -np.inf))))
        count = len(t_samples) * sum((n_max - n + 1) * (n // 2 + 1) for n in range(5, n_max + 1))
        return IdentityReport("comb_boun", max(worst_margin, 0.0), count, 1e-12,
                              details={"worst_log_margin": worst_margin})
    raise ValueError(f"unknown combinatorial check {which!r}")


# ---------------------------------------------------------------------------
# theta sequence search


def theta_coefficient_table(
    delta_drop: float,
    n_star: int,
    sigma: float,
    lambda_s: float,
    frak_c: float = 1.0,
    n_max: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """The theta inequality's coefficients and right-hand weights theta_l^2.

    coef[m, l] = sum_{n=l+1}^{n_max-m} theta_n^2 a^{n-l}
    e^{-2 sigma (log (m+n)! - log (m+l)!)} with a = (frak_c lambda_s)^2 is
    the weight of entry (m, l) on the left side.  The inner sum is a suffix
    sum over n, taken in log space; entries with l >= n_max - m are 0.
    """
    log_a = 2.0 * np.log(frak_c * lambda_s)
    ns = np.arange(0, n_max + 1)
    th2 = theta_weights(ns, delta_drop, n_star) ** 2
    mn = np.add.outer(ns, ns)
    lg = log_factorial(mn)
    terms = np.log(th2) + ns * log_a - 2.0 * sigma * lg
    terms[mn > n_max] = -np.inf
    suffix = np.full_like(terms, -np.inf)
    suffix[:, :-1] = np.logaddexp.accumulate(terms[:, :0:-1], axis=1)[:, ::-1]
    return np.exp(suffix - ns * log_a + 2.0 * sigma * lg), th2


def theta_inequality_worst_ratio(
    delta_drop: float,
    n_star: int,
    sigma: float,
    lambda_s: float,
    frak_c: float = 1.0,
    n_max: int = 200,
) -> float:
    """Exact sup over nonnegative arrays of LHS/RHS of the theta inequality.

    Both sides are linear in the array entries with nonnegative weights, so
    the supremum is the largest coefficient ratio max_{m,l} coef(m,l) /
    theta_l^2, computable without sampling.
    """
    coef, th2 = theta_coefficient_table(delta_drop, n_star, sigma, lambda_s, frak_c, n_max)
    return float(np.max(coef / th2))


def find_theta_params(
    b_target: float,
    sigma: float = 0.04,
    lambda_s: float = 0.125**1.5,
    frak_c: float = 1.0,
    trials: int = 100,
    n_max: int = 120,
    seed: int = 0,
) -> dict:
    """Search (delta_drop, n_star) so the theta double-sum inequality holds
    with margin 1/b_target; verified against the exact coefficient ratio
    and on random nonnegative test arrays.
    """
    if b_target <= 1.0:
        raise ValueError("b_target must exceed 1")
    if lambda_s >= 0.5:
        raise ValueError("outside the smallness regime lambda^s < 1/2")
    target = 1.0 / b_target
    best = None
    for n_star in range(0, 41):
        for delta in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            ratio = theta_inequality_worst_ratio(delta, n_star, sigma, lambda_s, frak_c, n_max)
            if ratio <= target:
                best = (delta, n_star, ratio)
                break
        if best:
            break
    if best is None:
        tight = theta_inequality_worst_ratio(0.03125, 40, sigma, lambda_s, frak_c, n_max)
        return {
            "delta_drop": None,
            "n_star": None,
            "verified": False,
            "tightest_ratio": tight,
            "target": target,
        }
    delta, n_star, ratio = best
    # randomized confirmation on nonnegative arrays: the left side is the
    # contraction of the coefficient table with the array
    rng = np.random.default_rng(seed)
    coef, th2 = theta_coefficient_table(delta, n_star, sigma, lambda_s, frak_c, n_max)
    tri = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)) <= n_max
    measured = 0.0
    for _ in range(trials):
        g = np.abs(rng.normal(size=(n_max + 1, n_max + 1))) * tri
        measured = max(measured, float(np.sum(coef * g) / np.sum(th2 * g)))
    return {
        "delta_drop": delta,
        "n_star": n_star,
        "verified": bool(ratio <= target and measured <= target),
        "coefficient_ratio": ratio,
        "measured_ratio": measured,
        "target": target,
    }
