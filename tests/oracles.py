"""Independent naive evaluators used as oracles against the package's
functional implementations.  Everything here is a direct transcription of
the definitions with explicit loops and direct coefficient arithmetic (no
log-space tricks), valid for small truncations."""

import math

import numpy as np

from couette_gevrey.weights import eval_q, eval_W, eval_W_derivatives


def direct_a(params, m, n, t, lam=None):
    lam = params.lambda0 * (1.0 + (1.0 + t) ** (-0.01)) if lam is None else lam
    B = (lam ** (m + n) / math.factorial(m + n)) ** params.s
    phi = 1.0 / math.sqrt(1.0 + t * t)
    return B * phi ** (1 + n)


def direct_theta(params, n):
    return params.delta_drop ** (min(n, params.n_star) - params.n_star)


def quad(grid, values):
    return float(np.real(sum(w * v for w, v in zip(grid.quad_weights, values))))


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


def naive_icc(f_k, a, b, c, m, n, variant, coord, grid, cascade, t):
    """Direct ICC evaluation; wall limits via the linear branch Taylor rule."""
    if not (a == 0 or a + b + c <= n):
        return np.zeros(grid.ny + 1, dtype=complex), False
    k = f_k.k
    gam = f_k.values.astype(complex)
    for _ in range(n):
        gam = (grid.d1 @ gam) / coord.v_y + 1j * k * t * gam
    q = eval_q(grid.nodes)
    base = abs(k) ** m * q**n * gam
    if variant == "J":
        base = cascade.chi(min(m + n, cascade.n_max), grid.nodes) * base
        out = base
        for _ in range(b):
            out = (grid.d1 @ out) / coord.v_y
    elif variant == "J0":
        base = cascade.chi(min(n, cascade.n_max), grid.nodes) * base
        out = base
        for _ in range(b):
            out = (grid.d1 @ out) / coord.v_y
    else:
        out = base
        for _ in range(b):
            out = grid.d1 @ out
    weight_count = n if variant == "J0" else m + n
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
