"""Independent naive evaluators used as oracles against the package's
functional implementations.  Everything here is a direct transcription of
the definitions with explicit loops and direct coefficient arithmetic (no
log-space tricks), valid for small truncations."""

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetrs

from couette_gevrey.coordinates import gamma_ladder
from couette_gevrey.identities import IdentityReport
from couette_gevrey.spectral import SingularSolveError, _parity_sizes, green_eval
from couette_gevrey.weights import GevreyCoeffTable, WeightParams, eval_q, eval_W, eval_W_derivatives, log_factorial


def direct_a(params, m, n, t, lam=None):
    lam = params.lambda0 * (1.0 + (1.0 + t) ** (-0.01)) if lam is None else lam
    B = (lam ** (m + n) / math.factorial(m + n)) ** params.s
    phi = 1.0 / math.sqrt(1.0 + t * t)
    return B * phi ** (1 + n)


def direct_theta(params, n):
    return params.delta_drop ** (min(n, params.n_star) - params.n_star)


def quad(grid, values):
    return float(np.real(sum(w * v for w, v in zip(grid.quad_weights, values))))


def wsq(ctx, values, weight):
    """Quadrature of |values|^2 weight^2, the values floored by ``ctx``:
    one norm per call, the way the per-term loops take them."""
    integ = ctx.grid.integrate(ctx.floor_rows(np.abs(values)) ** 2 * weight**2)
    return float(np.real(integ))


def floor_entry(values, tail, floor):
    """Zero |values| below max(floor_rel, multiplier * tail) times its peak.

    floor is None (no flooring) or (floor_rel, tail_multiplier).
    """
    if floor is None:
        return values
    thresh = max(floor[0], floor[1] * tail)
    peak = max(abs(v) for v in values)
    if thresh <= 0.0 or peak == 0.0:
        return values
    return np.array([0.0 if abs(v) < thresh * peak else v for v in values], dtype=values.dtype)


def level_tails(stack):
    """Tail of level n, and of its y-derivative (the worse of n and n + 1)."""
    tails = [float(x) for x in stack.tails]
    dy_tails = [max(tails[n], tails[min(n + 1, stack.M)]) for n in range(stack.M + 1)]
    return tails, dy_tails


def naive_energy(stack, family, params, cascade, nu, floor=None):
    grid = stack.grid
    t = stack.t
    ew = np.exp(eval_W(t, grid.nodes, nu, params))
    tails, dy_tails = level_tails(stack)
    total = 0.0
    for m in range(stack.M + 1):
        for n in range(stack.M + 1 - m):
            chi = cascade.chi(min(m + n, cascade.n_max), grid.nodes)
            coef = direct_theta(params, n) ** 2 * direct_a(params, m, n, t) ** 2
            entry = abs(stack.k) ** m * eval_q(grid.nodes) ** n * stack.gamma_pows[n]
            dy = floor_entry(grid.d1 @ entry, dy_tails[n], floor)
            entry = floor_entry(entry, tails[n], floor)
            if family == "gamma":
                core = quad(grid, np.abs(entry * ew * chi) ** 2)
            elif family == "alpha":
                core = nu * quad(grid, np.abs(dy * ew * chi) ** 2)
            else:
                core = nu * stack.k**2 * quad(grid, np.abs(entry * ew * chi) ** 2)
            total += coef * core
    return total


def naive_dissipation(stack, family, params, cascade, nu, floor=None):
    grid = stack.grid
    t = stack.t
    ew = np.exp(eval_W(t, grid.nodes, nu, params))
    k2 = stack.k**2
    tails, dy_tails = level_tails(stack)
    total = 0.0
    for m in range(stack.M + 1):
        for n in range(stack.M + 1 - m):
            chi = cascade.chi(min(m + n, cascade.n_max), grid.nodes)
            coef = direct_theta(params, n) ** 2 * direct_a(params, m, n, t) ** 2
            entry = abs(stack.k) ** m * eval_q(grid.nodes) ** n * stack.gamma_pows[n]
            dy = grid.d1 @ entry
            dyy = floor_entry(grid.d1 @ dy, dy_tails[n], floor)
            dy = floor_entry(dy, dy_tails[n], floor)
            entry = floor_entry(entry, tails[n], floor)
            if family == "gamma":
                core = nu * (quad(grid, np.abs(dy * ew * chi) ** 2) + k2 * quad(grid, np.abs(entry * ew * chi) ** 2))
            elif family == "alpha":
                core = nu**2 * (quad(grid, np.abs(dyy * ew * chi) ** 2) + k2 * quad(grid, np.abs(dy * ew * chi) ** 2))
            else:
                core = nu**2 * k2 * (quad(grid, np.abs(dy * ew * chi) ** 2) + k2 * quad(grid, np.abs(entry * ew * chi) ** 2))
            total += coef * core
    return total


def naive_ck(stack, family, kind, params, cascade, nu, floor=None):
    grid = stack.grid
    t = stack.t
    ew = np.exp(eval_W(t, grid.nodes, nu, params))
    lam = params.lambda0 * (1.0 + (1.0 + t) ** (-0.01))
    lam_dot = -params.lambda0 * 0.01 * (1.0 + t) ** (-1.01)
    phi = 1.0 / math.sqrt(1.0 + t * t)
    phi_dot = -t * (1.0 + t * t) ** (-1.5)
    wt, _, _ = eval_W_derivatives(t, grid.nodes, nu, params)
    swt = np.sqrt(np.maximum(-wt, 0.0))
    tails, dy_tails = level_tails(stack)
    total = 0.0
    for m in range(stack.M + 1):
        for n in range(stack.M + 1 - m):
            chi = cascade.chi(min(m + n, cascade.n_max), grid.nodes)
            coef = direct_theta(params, n) ** 2 * direct_a(params, m, n, t) ** 2
            entry = abs(stack.k) ** m * eval_q(grid.nodes) ** n * stack.gamma_pows[n]
            if family == "gamma":
                base = floor_entry(entry, tails[n], floor)
                fac = 1.0
            elif family == "alpha":
                base = floor_entry(grid.d1 @ entry, dy_tails[n], floor)
                fac = nu
            else:
                base = floor_entry(entry, tails[n], floor)
                fac = nu * stack.k**2
            if kind == "phi":
                total += coef * (1 + n) * abs(phi_dot) / phi * fac * quad(grid, np.abs(base * ew * chi) ** 2)
            elif kind == "lam":
                total += coef * (m + n) * abs(lam_dot) / lam * fac * quad(grid, np.abs(base * ew * chi) ** 2)
            else:
                total += coef * fac * quad(grid, np.abs(base * swt * ew * chi) ** 2)
    return total


def naive_sources(stack_f, stack_om, family, params, cascade, nu):
    grid = stack_om.grid
    t = stack_om.t
    ew2 = np.exp(2.0 * eval_W(t, grid.nodes, nu, params))
    k2 = stack_om.k**2
    total = 0.0
    for m in range(stack_om.M + 1):
        for n in range(stack_om.M + 1 - m):
            chi2 = cascade.chi(min(m + n, cascade.n_max), grid.nodes) ** 2
            coef = direct_theta(params, n) ** 2 * direct_a(params, m, n, t) ** 2
            q_n = eval_q(grid.nodes) ** n
            ef = abs(stack_f.k) ** m * q_n * stack_f.gamma_pows[n]
            eo = abs(stack_om.k) ** m * q_n * stack_om.gamma_pows[n]
            if family == "gamma":
                pair = ef * np.conj(eo)
            elif family == "alpha":
                pair = nu * (grid.d1 @ ef) * np.conj(grid.d1 @ eo)
            else:
                pair = nu * k2 * ef * np.conj(eo)
            total += coef * float(np.real(sum(w * v for w, v in zip(grid.quad_weights, pair * chi2 * ew2))))
    return total


def naive_icc(f_k, k, a, b, c, m, n, variant, coord, grid, cascade, t):
    """Direct ICC evaluation; wall limits via the linear branch Taylor rule."""
    if not (a == 0 or a + b + c <= n):
        return np.zeros(grid.ny + 1, dtype=complex), False
    gam = np.array(f_k, dtype=complex)
    for _ in range(n):
        gam = (grid.d1 @ gam) / coord.v_y + 1j * k * t * gam
    q = eval_q(grid.nodes)
    base = abs(k) ** m * q**n * gam
    if variant == "J":
        base = cascade.chi(min(m + n, cascade.n_max), grid.nodes) * base
        out = base
        for _ in range(b):
            out = (grid.d1 @ out) / coord.v_y
    else:
        out = base
        for _ in range(b):
            out = grid.d1 @ out
    weight_count = m + n
    if a > 0:
        res = np.empty_like(out)
        res[1:-1] = out[1:-1] / q[1:-1] ** a
        deriv = out
        for _ in range(a):
            deriv = grid.d1 @ deriv
        res[0] = deriv[0] / (math.factorial(a) * 99.0**a)
        res[-1] = (-1.0) ** a * deriv[-1] / (math.factorial(a) * 99.0**a)
        out = res * float(weight_count) ** a
    return out * float(abs(k)) ** c, True


class LoopScalarStepper:
    """The per-mode scalar stepper the batched ``step_scalar`` replaced.

    One Python iteration per mode: SBDF2 after an IMEX-SSP2(2,2,2) restart
    step, complex LU solves of the Dirichlet Helmholtz matrix, and the real
    d2 cast to complex in every product.
    """

    SSP_GAMMA = 1.0 - 1.0 / np.sqrt(2.0)

    def __init__(self, grid, nu, ks, omega):
        self.grid, self.nu, self.t = grid, nu, 0.0
        self.ks = list(ks)
        self.omega = {k: np.array(f, dtype=complex) for k, f in zip(ks, omega)}
        self.prev = self.prev_ex = self.prev_dt = None
        self.facts = {}

    def _solve(self, k, alpha, rhs):
        key = (k, alpha)
        if key not in self.facts:
            n = self.grid.ny
            a = alpha * np.eye(n + 1) - self.nu * (self.grid.d2 - float(k * k) * np.eye(n + 1))
            a[0, :] = 0.0
            a[0, 0] = 1.0
            a[-1, :] = 0.0
            a[-1, -1] = 1.0
            self.facts[key] = lu_factor(a)
        b = rhs.astype(complex).copy()
        b[0] = b[-1] = 0.0
        return lu_solve(self.facts[key], b)

    def _explicit(self, k, values, t, profile, forcing):
        shear = self.grid.nodes + profile.u0(t, self.grid.nodes)
        ex = -1j * k * shear * values
        if forcing is not None:
            ex = ex + forcing(t)[self.ks.index(k)]
        return ex

    def _diffusion(self, k, values):
        return self.nu * (self.grid.d2 @ values - float(k * k) * values)

    def step(self, dt, profile, forcing=None):
        g, nu = self.SSP_GAMMA, self.nu
        restart = self.prev is None or abs(self.prev_dt - dt) > 1e-14
        t0, t1 = self.t, self.t + dt
        new, prev, prev_ex = {}, {}, {}
        for k, u in self.omega.items():
            ex0 = self._explicit(k, u, t0, profile, forcing)
            if restart:
                alpha = 1.0 / (g * dt)
                u1 = self._solve(k, alpha, u / (g * dt))
                im1 = self._diffusion(k, u1)
                ex1 = self._explicit(k, u1, t0, profile, forcing)
                u2 = self._solve(k, alpha, (u + dt * (1.0 - 2.0 * g) * im1 + dt * ex1) / (g * dt))
                im2 = self._diffusion(k, u2)
                ex2 = self._explicit(k, u2, t1, profile, forcing)
                un = u + 0.5 * dt * (im1 + im2) + 0.5 * dt * (ex1 + ex2)
            else:
                rhs = (2.0 * u - 0.5 * self.prev[k]) / dt + 2.0 * ex0 - self.prev_ex[k]
                un = self._solve(k, 1.5 / dt, rhs)
            un[0] = un[-1] = 0.0
            new[k], prev[k], prev_ex[k] = un, u, ex0
        self.omega, self.prev, self.prev_ex, self.prev_dt, self.t = new, prev, prev_ex, dt, t1


def parity_lu(grid, k, alpha, nu):
    """Real LU factors of the even and odd blocks of the symmetrised
    (A + JAJ)/2, A = alpha*I - nu*(d_yy - k^2) with Dirichlet rows: the
    per-mode factorization the scalar step used before its blocks were
    inverted.  Column j of the even block is A[:, j] + A[:, ny - j] (A[:, j]
    alone for the centre node), of the odd block A[:, j] - A[:, ny - j]."""
    n = grid.ny
    a = alpha * np.eye(n + 1) - nu * (grid.d2 - float(k * k) * np.eye(n + 1))
    a[[0, -1], :] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    a = 0.5 * (a + a[::-1, ::-1])
    ne, no = _parity_sizes(n)
    top, mirror = a[:ne], a[:ne, ::-1]
    even = top[:, :ne] + mirror[:, :ne]
    if n % 2 == 0:
        even[:, -1] = top[:, ne - 1]
    odd = top[:no, :no] - mirror[:no, :no]
    return lu_factor(even), lu_factor(odd)


def stacked_parity_solve(factors, rhs):
    """The parity-split Dirichlet solve of the rows of a complex (K, ny+1)
    array with ``parity_lu`` pairs, staged one copy at a time: the real and
    imaginary parts stacked into a real (K, 2, ny+1) array, its walls zeroed
    by a fancy index, the even and odd halves formed from that copy, each
    half solved by one ``dgetrs`` call with the two parts as columns, and the
    joined real solution turned back into complex as re + 1j * im."""
    parts = np.stack([rhs.real, rhs.imag], axis=1)
    parts[:, :, [0, -1]] = 0.0
    n = parts.shape[-1] - 1
    ne, no = _parity_sizes(n)
    rev = parts[..., ::-1]
    even = 0.5 * (parts[..., :ne] + rev[..., :ne])
    odd = 0.5 * (parts[..., :no] - rev[..., :no])
    for i, pair in enumerate(factors):
        for half, (lu, piv) in zip((even[i], odd[i]), pair):
            assert dgetrs(lu, piv, half.T, overwrite_b=1)[1] == 0
    out = np.empty_like(parts)
    out[..., :no] = even[..., :no] + odd
    out[..., ::-1][..., :no] = even[..., :no] - odd
    if n % 2 == 0:
        out[..., no] = even[..., no]
    return out[:, 0] + 1j * out[:, 1]


def row_floored(values, tail, floor_rel, tail_multiplier):
    """One row zeroed below max(floor_rel, tail_multiplier * tail) times
    its peak, the way every row was floored before rows were batched."""
    thresh = max(floor_rel, tail_multiplier * tail)
    if thresh <= 0.0:
        return values
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return values
    out = values.copy()
    out[np.abs(out) < thresh * peak] = 0.0
    return out


def per_row_norm_table(stack, ctx):
    """``functionals.norm_table`` with one ``row_floored`` call per row:
    level n reads tail n, its y-derivatives the worse of n and n + 1."""
    M = stack.M
    f0 = (stack.q_pows * np.asarray(stack.gamma_pows, dtype=complex)).T
    f1 = (ctx.grid.d1 @ np.ascontiguousarray(f0).view(float)).view(complex)
    f2 = (ctx.grid.d1 @ np.ascontiguousarray(f1).view(float)).view(complex)
    tails, dy_tails = level_tails(stack)
    rows = []
    for fd, tl in ((f0, tails), (f1, dy_tails), (f2, dy_tails)):
        rows += [np.abs(row_floored(fd[:, n], tl[n], ctx.floor_rel, ctx.tail_multiplier)) ** 2
                 for n in range(M + 1)]
    table = np.array(rows) @ ctx.norm_columns(stack.t, M)
    return table.reshape(3, M + 1, 2, M + 1).transpose(0, 2, 1, 3)


def cast_per_level_ladder(d1, values, v_y, n, k=None, t=0.0):
    """[f, X f, ..., X^n f] for X = v_y^{-1} d1 + i k t, with the real d1
    cast to the values' dtype by every product."""
    out = [values]
    for _ in range(n):
        nxt = (d1 @ out[-1]) / v_y
        out.append(nxt if k is None else nxt + 1j * k * t * out[-1])
    return out


def loop_clenshaw_curtis_weights(n):
    """Clenshaw-Curtis weights on n+1 Lobatto nodes, one node at a time."""
    if n == 1:
        return np.array([1.0, 1.0])
    w = np.zeros(n + 1)
    v = np.zeros(n + 1)
    for k in range(0, n + 1, 2):
        v[k] = 2.0 / (1.0 - k * k)
    for j in np.arange(n + 1):
        acc = 0.5 * v[0] + 0.5 * v[n] * np.cos(np.pi * j)
        for k in range(1, n):
            acc += v[k] * np.cos(np.pi * k * j / n)
        w[j] = 2.0 * acc / n
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def loop_spectral_tail(grid, values):
    """Top-quarter Chebyshev energy fraction of one field, its DCT-I one
    1-D FFT of the even extension."""
    rev = np.asarray(values)[::-1]
    coef = np.fft.fft(np.concatenate([rev, rev[-2:0:-1]]))[: grid.ny + 1] / grid.ny
    coef[0] *= 0.5
    coef[-1] *= 0.5
    coef = np.abs(coef)
    total = coef.sum()
    if total == 0.0:
        return 0.0
    q = max(1, (grid.ny + 1) // 4)
    return float(coef[-q:].sum() / total)


def loop_theta_worst_ratio(delta_drop, n_star, sigma, lambda_s, frak_c=1.0, n_max=200):
    """max_{m,l} coef(m,l) / theta_l^2 of the theta inequality, one (m, l) at a time."""
    a = (frak_c * lambda_s) ** 2
    ns = np.arange(0, n_max + 1)
    th2 = (delta_drop ** (np.minimum(ns, n_star) - n_star)) ** 2
    worst = 0.0
    for m in range(0, n_max + 1):
        lg = log_factorial(m + ns)
        for ell in range(0, n_max - m):
            n_range = np.arange(ell + 1, n_max - m + 1)
            coef = np.sum(
                th2[n_range]
                * a ** (n_range - ell)
                * np.exp(-2.0 * sigma * (lg[n_range] - lg[ell]))
            )
            worst = max(worst, float(coef / th2[ell]))
    return worst


def loop_theta_measured_ratio(delta_drop, n_star, sigma, lambda_s, frak_c=1.0, n_max=200,
                              trials=100, seed=0):
    """Largest LHS/RHS of the theta inequality on random nonnegative arrays,
    the left side summed over (m, n, l) directly."""
    rng = np.random.default_rng(seed)
    a = (frak_c * lambda_s) ** 2
    ns = np.arange(0, n_max + 1)
    th2 = (delta_drop ** (np.minimum(ns, n_star) - n_star)) ** 2
    measured = 0.0
    for _ in range(trials):
        g = np.abs(rng.normal(size=(n_max + 1, n_max + 1)))
        tri = np.add.outer(np.arange(n_max + 1), np.arange(n_max + 1)) <= n_max
        g = g * tri
        lhs = 0.0
        rhs = float(np.sum(th2[None, :] * g * tri))
        for m in range(n_max + 1):
            lg = log_factorial(m + ns)
            for n in range(1, n_max + 1 - m):
                ells = np.arange(0, n)
                lhs += th2[n] * float(
                    np.sum(
                        a ** (n - ells)
                        * np.exp(-2.0 * sigma * (lg[n] - lg[ells]))
                        * g[m, ells]
                    )
                )
        measured = max(measured, lhs / rhs)
    return measured


def loop_find_theta_params(b_target, sigma=0.04, lambda_s=0.125**1.5, frak_c=1.0,
                           trials=100, n_max=120, seed=0):
    """``find_theta_params`` on the loop oracles: same search order and keys."""
    target = 1.0 / b_target
    for n_star in range(0, 41):
        for delta in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            ratio = loop_theta_worst_ratio(delta, n_star, sigma, lambda_s, frak_c, n_max)
            if ratio <= target:
                measured = loop_theta_measured_ratio(
                    delta, n_star, sigma, lambda_s, frak_c, n_max, trials, seed
                )
                return {
                    "delta_drop": delta,
                    "n_star": n_star,
                    "verified": bool(measured <= target),
                    "coefficient_ratio": ratio,
                    "measured_ratio": measured,
                    "target": target,
                }
    return {
        "delta_drop": None,
        "n_star": None,
        "verified": False,
        "tightest_ratio": loop_theta_worst_ratio(0.03125, 40, sigma, lambda_s, frak_c, n_max),
        "target": target,
    }


def loop_interpolate(grid, values, targets):
    """Barycentric interpolation at ``targets``, dividing after the product."""
    n = grid.ny
    bary = np.ones(n + 1)
    bary[0] = bary[-1] = 0.5
    bary *= (-1.0) ** np.arange(n + 1)
    diff = np.asarray(targets, dtype=float).reshape(-1, 1) - grid.nodes.reshape(1, -1)
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff[exact] = 1.0
    ratio = bary / diff
    out = (ratio @ values) / ratio.sum(axis=1)
    hit_row, hit_col = np.nonzero(exact)
    out[hit_row] = values[hit_col]
    return out


def helmholtz_solve(grid, rhs, k, bc="dirichlet"):
    """Solve -psi'' + k^2 psi = F with homogeneous Dirichlet or Neumann data by
    one dense collocation solve, the boundary conditions replacing the wall
    rows.  The k = 0 Neumann problem is singular and raises SingularSolveError."""
    if k == 0 and bc == "neumann":
        raise SingularSolveError("k=0 Neumann problem is singular")
    a = -grid.d2 + float(k * k) * np.eye(grid.ny + 1)
    if bc == "dirichlet":
        a[[0, -1]] = 0.0
        a[0, 0] = a[-1, -1] = 1.0
    elif bc == "neumann":
        a[[0, -1]] = grid.d1[[0, -1]]
    else:
        raise ValueError(f"unknown bc kind {bc!r}")
    b = np.array(rhs, dtype=complex)
    b[0] = b[-1] = 0.0
    return np.linalg.solve(a, b)


def loop_green_solve(grid, values, k, domain=(-1.0, 1.0), npts=96):
    """Green-kernel solve of (d_v^2 - k^2) phi = f, one node at a time,
    interpolating the data afresh at both panels' Gauss points."""
    vm, vp = domain
    mid, half = 0.5 * (vm + vp), 0.5 * (vp - vm)
    gl_x, gl_w = np.polynomial.legendre.leggauss(npts)
    values = np.asarray(values, dtype=complex)
    out = np.zeros(grid.ny + 1, dtype=complex)
    for i, v in enumerate(mid + half * grid.nodes):
        for lo, hi in ((vm, v), (v, vp)):
            if hi - lo <= 0.0:
                continue
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_x
            wts = 0.5 * (hi - lo) * gl_w
            rvals = loop_interpolate(grid, values, (pts - mid) / half)
            out[i] += np.sum(wts * green_eval(k, v, pts, domain) * rvals)
    return out


def loop_green_matrix(grid, k, domain=(-1.0, 1.0), npts=96):
    """Kernel-quadrature matrix Q of (d_v^2 - k^2)^{-1} on ``domain``, for one
    k, one node at a time: each panel builds its interpolation rows afresh."""
    vm, vp = float(domain[0]), float(domain[1])
    mid = 0.5 * (vm + vp)
    half = 0.5 * (vp - vm)
    gl_x, gl_w = np.polynomial.legendre.leggauss(npts)
    q = np.zeros((grid.ny + 1, grid.ny + 1))
    for i, v in enumerate(mid + half * grid.nodes):
        for lo, hi in ((vm, v), (v, vp)):
            if hi - lo <= 0.0:
                continue
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * gl_x
            wts = 0.5 * (hi - lo) * gl_w
            kernel = wts * green_eval(k, v, pts, domain)
            q[i] += kernel @ grid.interpolation_matrix((pts - mid) / half)
    return q


def _loop_log_binom(n, ell):
    return log_factorial(n) - log_factorial(ell) - log_factorial(n - ell)


def loop_check_combinatorics(which, n_max=2000, zeta=1.0, params=None, frak_c=2.0,
                             t_samples=(0.0, 0.3, 0.7, 1.5, 3.0, 7.0, 15.0, 40.0, 120.0, 400.0)):
    """``check_combinatorics`` calling log_factorial afresh for every n and, in
    comb_boun, rebuilding the (m, l) meshgrid for every (t, n)."""
    if params is None:
        params = WeightParams()
    if which == "prod":
        sups = []
        for n in range(1, n_max + 1):
            ell = np.arange(0, n + 1)
            sups.append(np.exp(-zeta * _loop_log_binom(n, ell)).sum())
        sups = np.asarray(sups)
        last_decade = sups[int(0.9 * len(sups)):]
        growth = float(last_decade.max() - sups.max())
        report = IdentityReport("comb_prod", max(growth, 0.0), n_max, 1e-12,
                                details={"empirical_constant": float(sups.max()), "zeta": zeta})
        if abs(zeta - 1.0) < 1e-14 and n_max >= 3:
            exact = sum(Fraction(1, math.comb(3, j)) for j in range(4))
            report.details["exact_n3"] = float(exact)
            report.details["exact_n3_is_8_3"] = exact == Fraction(8, 3)
        return report
    if which == "prod2":
        vals = []
        for n in range(2, n_max + 1):
            ell = np.arange(1, n)
            vals.append(n**zeta * np.exp(-zeta * _loop_log_binom(n, ell)).sum())
        vals = np.asarray(vals)
        last = vals[int(0.9 * len(vals)):]
        growth = float(last.max() - vals.max())
        return IdentityReport("comb_prod2", max(growth, 0.0), n_max, 1e-12,
                              details={"empirical_constant": float(vals.max()), "zeta": zeta})
    if which == "sum_comb":
        expo = params.sigma + params.sigma_star
        sups = []
        for n in range(1, n_max + 1):
            ell = np.arange(0, n)
            log_term = (n - ell) * math.log(frak_c) - expo * (
                log_factorial(n) - log_factorial(ell)
            )
            sups.append(np.exp(log_term).sum())
        sups = np.asarray(sups)
        last = sups[int(0.9 * len(sups)):]
        growth = float(last.max() - sups.max())
        return IdentityReport("comb_sum", max(growth, 0.0), n_max, 1e-12,
                              details={"empirical_constant": float(sups.max()), "frak_c": frak_c})
    if which == "comb_boun":
        tab = GevreyCoeffTable(params)
        s = params.s
        worst_margin = -np.inf
        count = 0
        for t in t_samples:
            log_phi = math.log(tab.phi(t))
            log_lam = math.log(tab.lam(t))
            for n in range(5, n_max + 1):
                ells = np.arange(0, n // 2 + 1)
                ms = np.arange(0, n_max - n + 1)
                mm, ll = np.meshgrid(ms, ells, indexing="ij")
                log_a_mn = s * ((mm + n) * log_lam - log_factorial(mm + n)) + (1 + n) * log_phi
                log_a_ml = s * ((mm + ll) * log_lam - log_factorial(mm + ll)) + (1 + ll) * log_phi
                log_a_0nl = s * ((n - ll) * log_lam - log_factorial(n - ll)) + (1 + n - ll) * log_phi
                log_lhs = (
                    0.5 * math.log1p(t * t) * -1.0
                    + log_a_mn
                    + _loop_log_binom(n, ll)
                    - log_a_ml
                    - log_a_0nl
                )
                log_rhs = ll * (s - 1.0) * math.log(0.5)
                worst_margin = max(worst_margin, float(np.max(log_lhs - log_rhs)))
                count += mm.size
        return IdentityReport("comb_boun", max(worst_margin, 0.0), count, 1e-12,
                              details={"worst_log_margin": worst_margin})
    raise ValueError(f"unknown combinatorial check {which!r}")


def loop_step_coordinates(t0, w0, dt, nu, profile, grid, t_switch=None):
    """``step_coordinates`` from (t0, w0) assembling t1 (I - nu dt D2) with
    Neumann rows and LU-solving it on every step; returns (w1, G)."""
    if t_switch is None:
        t_switch = 10.0 * dt
    t1 = t0 + dt
    y = grid.nodes
    rhs = t0 * w0 + dt * profile.u0(t0 + 0.5 * dt, y)
    n = grid.ny
    a = t1 * np.eye(n + 1) - nu * t1 * dt * grid.d2
    a[0, :] = grid.d1[0, :]
    rhs = rhs.astype(float).copy()
    rhs[0] = 0.0
    a[-1, :] = grid.d1[-1, :]
    rhs[-1] = 0.0
    w1 = lu_solve(lu_factor(a), rhs)
    if t1 >= t_switch:
        g = (profile.u0(t1, y) - w1) / t1
    else:
        g = (w1 - w0) / dt - nu * (grid.d2 @ w1)
    return w1, g


def loop_interior_greens_response(grid, k, t, data_fn, support=(-0.25, 0.25),
                                  domain=(-1.0, 1.0), npts=96):
    """phi_I(t) one node at a time, panels split at the node and the support edges."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(npts)
    lo, hi = support
    out = np.zeros(grid.ny + 1, dtype=complex)
    for i, v in enumerate(grid.nodes):
        edges = sorted({lo, hi, float(np.clip(v, lo, hi))})
        acc = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            if b - a <= 0:
                continue
            pts = 0.5 * (a + b) + 0.5 * (b - a) * gl_x
            wts = 0.5 * (b - a) * gl_w
            integrand = (
                green_eval(k, v, pts, domain)
                * np.exp(-1j * k * pts * t)
                * data_fn(pts)
            )
            acc += np.sum(wts * integrand)
        out[i] = acc
    return out


def composite_values(decomp, grid, coord):
    """The decomposition's stream function phi_I(v(y)) + phi_E on the y-grid:
    phi_I is interpolated at v mapped affinely from its domain onto [-1, 1]."""
    mid = 0.5 * (decomp.domain[0] + decomp.domain[1])
    half = 0.5 * (decomp.domain[1] - decomp.domain[0])
    return grid.interpolate(decomp.phi_i, (coord.v - mid) / half) + decomp.phi_e


def loop_elliptic_functionals(decomps, coord, ctx, M=4):
    """``eval_elliptic_functionals`` with every Gamma^n and dv-bar^b written
    as its own loop, the J terms through ``naive_icc``; F_ell on phi_E with
    the coefficient (2 lambda0)^(m+n) / (m+n)!."""
    grid, cascade, tab = ctx.grid, ctx.cascade, ctx.table
    out = {f"J_ell_{ell}": 0.0 for ell in (1, 2, 3)}
    out["E_ell_I_out"] = 0.0
    out["E_ell_I_full"] = 0.0
    out["F_ell_E"] = 0.0
    q = eval_q(grid.nodes)
    ones = np.ones_like(q)
    for k, dec in decomps.items():
        wk = 2.0
        t = dec.t
        half = 0.5 * (dec.domain[1] - dec.domain[0])
        dv = grid.d1 / half
        chi1_v = cascade.chi(1, dec.v_nodes)
        gam_i = [dec.phi_i]
        gam_e = [dec.phi_e.astype(complex)]
        for _ in range(M):
            gam_i.append(dv @ gam_i[-1] + 1j * k * t * gam_i[-1])
            gam_e.append((grid.d1 @ gam_e[-1]) / coord.v_y + 1j * k * t * gam_e[-1])
        for total_mn in range(M + 1):
            for m in range(total_mn + 1):
                n = total_mn - m
                km = float(abs(k)) ** m
                a_hat2 = float(tab.a_hat(m, n, t)) ** 2
                for ell in (0, 1, 2):
                    fldv = gam_i[n]
                    for _ in range(ell):
                        fldv = dv @ fldv
                    val = half * float(np.real(grid.integrate(np.abs(chi1_v * km * fldv) ** 2)))
                    out["E_ell_I_out"] += wk * a_hat2 * val
                val_full = half * float(np.real(grid.integrate(np.abs(km * gam_i[n]) ** 2)))
                out["E_ell_I_full"] += wk * float(tab.B_hat(m, n, t)) ** 2 * val_full
        for total_mn in range(M + 1):
            for m in range(total_mn + 1):
                n = total_mn - m
                a2 = float(tab.a(m, n, t)) ** 2
                for ell in (1, 2, 3):
                    norm = 0.0
                    for a in range(ell + 1):
                        for b in range(ell - a + 1):
                            vals, ok = naive_icc(dec.phi_e, k, a, b, ell - a - b, m, n, "J",
                                                 coord, grid, cascade, t)
                            if ok:
                                norm += wsq(ctx, vals, ones)
                    out[f"J_ell_{ell}"] += wk * a2 * norm
        for total_mn in range(M + 1):
            for m in range(total_mn + 1):
                n = total_mn - m
                coef = math.exp((m + n) * math.log(2.0 * ctx.params.lambda0) - math.lgamma(m + n + 1.0))
                fld = ctx.chi(m + n) * float(abs(k)) ** m * q**n * gam_e[n]
                out["F_ell_E"] += wk * coef * wsq(ctx, fld, ones)
    return out


def loop_coord_functionals(state, ctx, i_io, M):
    """The coordinate fields' E/D/CK for one family (i_io = 0 gamma, 1 alpha),
    every Hbar, G and H term its own ``wsq`` quadrature in three loops."""
    t = state.t
    tab, p = ctx.table, ctx.params
    grid = ctx.grid
    ew_half = np.sqrt(ctx.exp_w(t))
    swt = ctx.sqrt_neg_wt(t)
    br = math.sqrt(1.0 + t * t)
    pow_t = br ** (3.0 + 2.0 / p.s)
    g_stack, h_stack, hb_stack = (
        gamma_ladder(grid.d1, np.asarray(f, dtype=float), state.v_y, M)
        for f in (state.G, state.H, state.Hbar)
    )

    def d_y(vals, j):
        return gamma_ladder(grid.d1, vals, 1.0, j)[-1]

    out = {}
    # Hbar family
    e = d = ck = 0.0
    for n in range(M + 1):
        th2 = tab.theta(n) ** 2
        an1 = float(tab.a(0, n + 1, t))
        an1_dot = float(tab.a_dot(0, n + 1, t))
        fac = ctx.nu ** (i_io / 2.0) * th2 * (n + 1) ** (2.0 * p.s - 2.0) * pow_t
        base = d_y(hb_stack[n], i_io)
        w = ew_half * ctx.chi(n)
        e += fac * an1**2 * wsq(ctx, base, w)
        d += ctx.nu * fac * an1**2 * wsq(ctx, d_y(hb_stack[n], 1 + i_io), w)
        ck += fac * an1**2 * wsq(ctx, base, swt * w)
        ck += fac * (-an1 * an1_dot) * wsq(ctx, base, w)
    out["E_Hbar"], out["D_Hbar"], out["CK_Hbar"] = float(e), float(d), float(ck)

    # G family; the n = 0 shell carries the <t>^(4 - 2 K_eps) weight
    th0 = tab.theta(0) ** 2
    pow0 = br ** (4.0 - 2.0 * p.K_eps)
    ones = np.ones_like(grid.nodes)
    e = th0 * pow0 * wsq(ctx, d_y(g_stack[0], i_io), ones)
    d = ctx.nu * th0 * pow0 * wsq(ctx, d_y(g_stack[0], 1 + i_io), ones)
    ck = th0 * abs(4.0 - 2.0 * p.K_eps) * abs(t) * br ** (2.0 - 2.0 * p.K_eps) * wsq(
        ctx, d_y(g_stack[0], i_io), ones
    )
    for n in range(1, M + 1):
        th2 = tab.theta(n) ** 2
        an = float(tab.a(0, n, t))
        an_dot = float(tab.a_dot(0, n, t))
        base = d_y(g_stack[n], i_io)
        w = ew_half * ctx.chi(n - 1 + i_io)
        e += th2 * an**2 * pow_t * wsq(ctx, base, w)
        d += ctx.nu * th2 * an**2 * pow_t * wsq(ctx, d_y(g_stack[n], 1 + i_io), w)
        ck += th2 * an**2 * pow_t * wsq(ctx, base, swt * w)
        ck += th2 * (-an * an_dot) * pow_t * wsq(ctx, base, ctx.chi(n - 1 + i_io))
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
        e += fac * an**2 * wsq(ctx, base, w)
        d += ctx.nu * fac * an**2 * wsq(ctx, d_y(h_stack[n], 1 + i_io), w)
        ck += fac * (-an * an_dot) * wsq(ctx, base, w)
        ck += fac * an**2 * wsq(ctx, base, swt * w)
    out["E_H"], out["D_H"], out["CK_H"] = float(e), float(d), float(ck)
    return out
