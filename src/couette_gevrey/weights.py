"""Scalar weights, cutoffs and coefficient families.

Everything here is immutable after construction and cheap to evaluate on
grids: the cutoff cascade chi_n, the co-normal weight q, the localization
weight W, the Gevrey radius/coefficients B, a, theta, and the ratio
inequality that couples cutoff losses to Gevrey weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

# ---------------------------------------------------------------------------
# Taylor jets: [f, f', ..., f^(d)] as lists of arrays, any degree d.  Every
# exact derivative the package takes (the cutoff transitions, q, the Faa di
# Bruno checks) is built from these four recurrences (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 13).


def jet_mul(a, b):
    """Leibniz rule for a b, to the lower degree of the two."""
    out = []
    for i in range(min(len(a), len(b))):
        acc = a[i] * b[0]
        for r in range(i - 1, -1, -1):
            acc = acc + math.comb(i, r) * a[r] * b[i - r]
        out.append(acc)
    return out


def jet_div(a, b):
    """a / b, solving b out = a order by order, to the lower degree of the two."""
    out = []
    for i in range(min(len(a), len(b))):
        acc = a[i]
        for r in range(i):
            acc = acc - math.comb(i, r) * out[r] * b[i - r]
        out.append(acc / b[0])
    return out


def jet_exp(a):
    """exp(a) from (e^a)' = a' e^a."""
    out = [np.exp(a[0])]
    for i in range(1, len(a)):
        acc = out[0] * a[i]
        for r in range(1, i):
            acc = acc + math.comb(i - 1, r) * out[r] * a[i - r]
        out.append(acc)
    return out


def jet_pow(a, n: int):
    """a^n for an integer n >= 0, by repeated squaring."""
    out = [np.ones_like(a[0])] + [np.zeros_like(a[0]) for _ in a[1:]]
    while n > 0:
        if n & 1:
            out = jet_mul(out, a)
        n >>= 1
        if n:
            a = jet_mul(a, a)
    return out


def _bump_jet(tau):
    """exp(-1/tau) for tau > 0 (0 otherwise), with tau-derivatives 1..3."""
    tau = np.asarray(tau, dtype=float)
    safe = tau > 1e-2  # below this exp(-1/tau) is under 1e-43
    t = np.where(safe, tau, 1.0)
    z = np.zeros_like(t)
    inv = jet_div([-np.ones_like(t), z, z, z], [t, np.ones_like(t), z, z])
    out = jet_exp(inv)
    mask = safe.astype(float)
    return [c * mask for c in out]


def smoothstep_jet(tau):
    """S(tau) = Phi(tau) / (Phi(tau) + Phi(1-tau)) and derivatives 1..3.

    S is exactly 0 for tau <= 0 and exactly 1 for tau >= 1, monotone and
    C-infinity in between.
    """
    tau = np.asarray(tau, dtype=float)
    a = _bump_jet(tau)
    b = _bump_jet(1.0 - tau)
    # chain rule for the reflected argument: odd derivatives flip sign
    b = [b[0], -b[1], b[2], -b[3]]
    den = [a[i] + b[i] for i in range(4)]
    hi = tau >= 0.99
    lo = tau <= 0.01
    mid = ~(hi | lo)
    out = [np.where(hi, 1.0, 0.0), *[np.zeros_like(tau) for _ in range(3)]]
    if np.any(mid):
        den_safe = [np.where(mid, c, 1.0) for c in den]
        a_safe = [np.where(mid, c, 0.0) for c in a]
        s = jet_div(a_safe, den_safe)
        out = [np.where(mid, s[i], out[i]) for i in range(4)]
    return out


def smoothstep(tau):
    return smoothstep_jet(tau)[0]


def cutoff_transition(y, lo: float, hi: float, order: int = 0):
    """S((|y| - lo) / (hi - lo)), 0 for |y| <= lo and 1 for |y| >= hi, or its
    y-derivative of the given order (up to 3)."""
    if order not in (0, 1, 2, 3):
        raise ValueError("derivatives only up to order 3")
    y = np.asarray(y, dtype=float)
    width = hi - lo
    jets = smoothstep_jet((np.abs(y) - lo) / width)
    if order == 0:
        return jets[0]
    # |y| has zero higher derivatives away from y=0, where S' vanishes
    return jets[order] * (np.sign(y) / width) ** order


# ---------------------------------------------------------------------------
# log-factorials and zeta: the two special functions the weights need

_LOG_FACTORIAL = np.zeros(1)  # log(j!) for j = 0..len - 1, grown on demand


def log_factorial(n):
    """log(n!) of a nonnegative integer or integer array, read by index from
    one module-level table that is regrown with math.lgamma when a larger n
    is asked for."""
    global _LOG_FACTORIAL
    n = np.asarray(n)
    if n.min(initial=0) < 0:
        raise ValueError("log_factorial needs n >= 0")
    top = int(n.max(initial=0))
    if top >= len(_LOG_FACTORIAL):
        size = max(top + 1, 2 * len(_LOG_FACTORIAL))
        _LOG_FACTORIAL = np.array([math.lgamma(j + 1.0) for j in range(size)])
    return _LOG_FACTORIAL[n]


# B_2, B_4, ..., B_20 over (2j)!, the Euler-Maclaurin tail coefficients
_EM_COEFFS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                           -3617 / 510, 43867 / 798, -174611 / 330), start=1)
)


def zeta(s: float) -> float:
    """Riemann zeta of a real s > 1: the first nine terms plus the
    Euler-Maclaurin tail at N = 10,

        N^{1-s}/(s-1) + N^{-s}/2 + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) N^{1-s-2j},

    through B_20; the first omitted term is below 1e-19 relative for s <= 6."""
    if not s > 1.0:
        raise ValueError("zeta needs s > 1")
    n = 10.0
    rise = s * n ** (-s - 1.0)  # s (s+1) ... (s+2j-2) N^{1-s-2j} at j = 1
    tail = 0.0
    for j, c in enumerate(_EM_COEFFS, start=1):
        tail += c * rise
        rise *= (s + 2 * j - 1) * (s + 2 * j) / (n * n)
    head = sum(k ** -s for k in range(9, 0, -1))  # smallest first
    return head + (n ** (1.0 - s) / (s - 1.0) + (0.5 * n ** -s + tail))


# ---------------------------------------------------------------------------
# parameters


def is_finite(value) -> bool:
    """``math.isfinite``, with an integer beyond the float range not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class WeightParams:
    """All scalar parameters of the weight machinery.

    sigma_star is tied to (s, sigma) through sigma_star = (s-1) - sigma and
    is stored for reference; pass sigma_star=None to derive it.
    """

    s: float = 1.5
    sigma: float = 0.04
    sigma_star: float | None = None
    lambda0: float = 0.25
    c_sigma: float | None = None
    K: float = 100.0
    L_eps: float = 0.0
    n_star: int = 8
    delta_drop: float = 0.5
    K_eps: float = 0.1  # exponent knob in the n=0 coordinate functional

    def __post_init__(self):
        if isinstance(self.n_star, bool) or not isinstance(self.n_star, numbers.Integral):
            raise ValueError(f"n_star must be an integer, not {self.n_star!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not is_finite(value):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
        if not self.s > 1.0:
            raise ValueError("Gevrey index s must exceed 1")
        if not (0.0 < self.sigma < self.s - 1.0):
            raise ValueError("need 0 < sigma < s - 1")
        derived = (self.s - 1.0) - self.sigma
        if self.sigma_star is None:
            object.__setattr__(self, "sigma_star", derived)
        elif abs(self.sigma_star - derived) > 1e-12:
            raise ValueError("sigma_star must equal (s-1) - sigma")
        if self.sigma_star < 10.0 * self.sigma:
            raise ValueError("need sigma_star >= 10 sigma")
        if not (0.0 < self.lambda0 <= 1.0):
            raise ValueError("lambda0 must lie in (0, 1]")
        if self.c_sigma is None:
            object.__setattr__(self, "c_sigma", 1.0 / (9.0 * zeta(1.0 + self.sigma)))
        if self.c_sigma * zeta(1.0 + self.sigma) >= 0.125:
            raise ValueError("need c_sigma * zeta(1+sigma) < 1/8")
        if self.K < 1.0:
            raise ValueError("K must be at least 1")
        if self.L_eps < 0.0:
            raise ValueError("L_eps must be nonnegative")
        if self.n_star < 0:
            raise ValueError("n_star must be nonnegative")
        if not (0.0 < self.delta_drop <= 1.0):
            raise ValueError("delta_drop must lie in (0, 1]")

    def theta(self, n) -> np.ndarray | float:
        val = theta_weights(np.asarray(n), self.delta_drop, self.n_star)
        return float(val) if val.shape == () else val


def theta_weights(n, delta_drop: float, n_star: int):
    """Nonincreasing shell weights theta_n: ratio delta_drop below n_star, 1 after."""
    return delta_drop ** (np.minimum(n, n_star) - n_star)


# ---------------------------------------------------------------------------
# cutoff cascade


@dataclass
class CutoffCascade:
    """Family chi_n, n >= 1: zero on (-x_n, x_n), one beyond |y| = y_n."""

    params: WeightParams
    n_max: int
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        p = self.params
        if p.c_sigma * zeta(1.0 + p.sigma) >= 0.125:
            raise ValueError("cascade would leave (-1/2, 1/2)")
        n = np.arange(1, self.n_max + 2)
        steps = p.c_sigma / n ** (1.0 + p.sigma)
        x = np.empty(self.n_max + 2)
        x[0] = 0.375
        x[1:] = 0.375 + np.cumsum(steps)
        self.x = x  # x[i] = x_{i+1} in 1-based labels
        self.y = x[:-1] + steps / 100.0

    def x_n(self, n: int) -> float:
        return float(self.x[n - 1])

    def y_n(self, n: int) -> float:
        return float(self.y[n - 1])

    def chi(self, n: int, y, order: int = 0):
        """chi_n and its y-derivatives up to order 3; chi_0 is identically 1."""
        y = np.asarray(y, dtype=float)
        if order not in (0, 1, 2, 3):
            raise ValueError("derivatives only up to order 3")
        if n == 0:
            return np.ones_like(y) if order == 0 else np.zeros_like(y)
        if n < 0 or n > self.n_max:
            raise ValueError(f"chi_{n} outside built range 0..{self.n_max}")
        return cutoff_transition(y, self.x[n - 1], self.y[n - 1], order)


def build_cascade(params: WeightParams, n_max: int) -> CutoffCascade:
    return CutoffCascade(params, n_max)


# ---------------------------------------------------------------------------
# co-normal weight q

_Q_EDGE = -1.0 + 0.01  # end of the linear branch
_Q_BETA = 2.0 / 99.0  # fraction of the connecting zone that actually moves
_Q_SCALE = 1.0 / (0.01 * _Q_BETA)  # d tau / dy inside the moving layer

_GL64 = np.polynomial.legendre.leggauss(64)


def _q_profile_integral(w):
    """I(w) = int_0^min(w,1) (1 - S(u)) du, so that I(w>=1) = 1/2."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    full = w >= 1.0
    out[full] = 0.5
    rest = ~full
    if np.any(rest):
        wr = w[rest]
        x, wt = _GL64
        pts = 0.5 * wr[:, None] * (x[None, :] + 1.0)
        vals = 1.0 - smoothstep(pts)
        out[rest] = np.minimum(0.5 * wr * (vals @ wt), 0.5)
    return out


def eval_q(y):
    """Co-normal weight: 99(y+1) / 1 / 99(1-y) with smooth monotone joins.

    The exact branches force the connecting profile to turn over inside a
    thin layer of width 0.01 * 2/99 next to y = +-(1 - 1/100); q is
    analytic there and its derivatives come from ``q_jet``.
    """
    y = np.asarray(y, dtype=float)
    a = -np.abs(y)  # reduce to the left half by evenness
    out = np.zeros_like(a)
    lin = a <= _Q_EDGE
    flat = a >= _Q_EDGE + 0.01 * _Q_BETA
    zone = ~(lin | flat)
    out[lin] = 99.0 * (a[lin] + 1.0)
    out[flat] = 1.0
    if np.any(zone):
        out[zone] = 0.99 + 0.02 * _q_profile_integral((a[zone] - _Q_EDGE) * _Q_SCALE)
    return out if out.shape else float(out)


def q_jet(y, order: int) -> list[np.ndarray]:
    """[q, q', ..., q^(order)] for order <= 4, every derivative from one
    ``smoothstep_jet`` call; consistent to machine precision in the layer."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError("derivatives only up to order 4")
    y = np.asarray(y, dtype=float)
    a = -np.abs(y)
    lin = a <= _Q_EDGE
    zone = ~lin & (a < _Q_EDGE + 0.01 * _Q_BETA)
    sgn = np.where(y > 0, -1.0, 1.0)  # d a / d y
    s = smoothstep_jet(np.clip((a - _Q_EDGE) * _Q_SCALE, -1.0, 2.0))
    out = [eval_q(y)]
    for j in range(1, order + 1):
        d = np.zeros_like(a)
        if j == 1:
            d[lin] = 99.0
            d[zone] = 99.0 * (1.0 - s[0][zone])
        else:
            d[zone] = -99.0 * s[j - 1][zone] * _Q_SCALE ** (j - 1)
        out.append(d * sgn**j)
    return out


# ---------------------------------------------------------------------------
# vorticity localization weight W


def _w_plus_part(t, y, params: WeightParams):
    return np.maximum(np.abs(np.asarray(y, dtype=float)) - 0.25 - params.L_eps * np.arctan(t), 0.0)


def eval_W(t: float, y, nu: float, params: WeightParams):
    """W = (|y| - 1/4 - L eps arctan t)_+^2 / (K nu (1+t))."""
    if nu <= 0.0:
        raise ValueError("W requires nu > 0")
    p = _w_plus_part(t, y, params)
    val = p**2 / (params.K * nu * (1.0 + t))
    return val if val.shape else float(val)


def eval_W_derivatives(t: float, y, nu: float, params: WeightParams):
    """(d_t W, d_y W, d_yy W); one-sided values from the active side of (.)_+."""
    if nu <= 0.0:
        raise ValueError("W requires nu > 0")
    y = np.asarray(y, dtype=float)
    p = _w_plus_part(t, y, params)
    denom = params.K * nu * (1.0 + t)
    wt = -p**2 / (denom * (1.0 + t)) - 2.0 * params.L_eps * p / (denom * (1.0 + t**2))
    wy = 2.0 * p * np.sign(y) / denom
    wyy = np.where(p > 0.0, 2.0 / denom, 0.0)
    return wt, wy, wyy


# ---------------------------------------------------------------------------
# Gevrey coefficient tables


@dataclass(frozen=True)
class GevreyCoeffTable:
    """Time-dependent radius lambda(t) and the derived coefficient families."""

    params: WeightParams

    def lam(self, t: float) -> float:
        return self.params.lambda0 * (1.0 + (1.0 + t) ** (-0.01))

    def lam_dot(self, t: float) -> float:
        return -self.params.lambda0 * 0.01 * (1.0 + t) ** (-1.01)

    @staticmethod
    def phi(t: float) -> float:
        return 1.0 / math.sqrt(1.0 + t * t)

    @staticmethod
    def phi_dot(t: float) -> float:
        return -t * (1.0 + t * t) ** (-1.5)

    def log_B(self, m, n, t: float):
        tot = np.asarray(m) + np.asarray(n)
        return self.params.s * (tot * math.log(self.lam(t)) - log_factorial(tot))

    def log_a(self, m, n, t: float):
        return self.log_B(m, n, t) + (1.0 + np.asarray(n)) * math.log(self.phi(t))

    def a(self, m, n, t: float):
        return np.exp(self.log_a(m, n, t))

    def a_dot(self, m, n, t: float):
        """d/dt of a_{m,n}; negative since both lambda and phi decay."""
        lam, phi = self.lam(t), self.phi(t)
        rate = self.params.s * (np.asarray(m) + np.asarray(n)) * self.lam_dot(t) / lam
        rate = rate + (1.0 + np.asarray(n)) * self.phi_dot(t) / phi
        return self.a(m, n, t) * rate

    def log_B_hat(self, m, n, t: float):
        tot = np.asarray(m) + np.asarray(n)
        return self.params.s * (tot * math.log(2.0 * self.lam(t)) - log_factorial(tot))

    def B_hat(self, m, n, t: float):
        return np.exp(self.log_B_hat(m, n, t))

    def a_hat(self, m, n, t: float):
        return np.exp(self.log_B_hat(m, n, t) + (1.0 + np.asarray(n)) * math.log(self.phi(t)))

    def theta(self, n):
        return self.params.theta(n)


def check_gevrey_ratio(
    m: int, n: int, ell: int, t: float, table: GevreyCoeffTable, constant: float = 4.0
):
    """Cutoff-loss versus Gevrey-weight inequality at one index.

    Returns (lhs, rhs, holds) with
      lhs = (m+n)^(ell(1+sigma)) B_{m,n}
      rhs = constant * lambda^(ell*s) (m+n)^(-ell*sigma_star) B_{m-l1, n-l2}
    for an admissible split l1+l2 = ell.  The comparison is done in log
    space so large m+n never underflows.
    """
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    if m + n < ell:
        raise ValueError("need m + n >= ell")
    l2 = min(n, ell)
    l1 = ell - l2
    if l1 > m:
        raise ValueError("no admissible split")
    p = table.params
    tot = m + n
    log_lhs = ell * (1.0 + p.sigma) * math.log(tot) + table.log_B(m, n, t)
    log_rhs = (
        math.log(constant)
        + ell * p.s * math.log(table.lam(t))
        - ell * p.sigma_star * math.log(tot)
        + table.log_B(m - l1, n - l2, t)
    )
    return math.exp(log_lhs), math.exp(log_rhs), bool(log_lhs <= log_rhs + 1e-12)
