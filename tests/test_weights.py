import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couette_gevrey import weights
from couette_gevrey.weights import (
    GevreyCoeffTable,
    WeightParams,
    build_cascade,
    check_gevrey_ratio,
    eval_q,
    eval_W,
    eval_W_derivatives,
    jet_div,
    jet_exp,
    jet_mul,
    jet_pow,
    log_factorial,
    q_jet,
    smoothstep,
    zeta,
)

YS = np.linspace(-1.0, 1.0, 10001)


def test_params_invariants():
    p = WeightParams()
    assert 0 < p.sigma < p.s - 1
    assert abs(p.sigma_star - (p.s - 1 - p.sigma)) < 1e-15
    assert p.sigma_star >= 10 * p.sigma
    from scipy.special import zeta

    assert p.c_sigma * zeta(1 + p.sigma) < 0.125


def test_log_factorial_matches_gammaln():
    from scipy.special import gammaln

    n = np.arange(4003)
    want = gammaln(n + 1.0)
    got = log_factorial(n)
    assert got[0] == got[1] == 0.0
    assert np.max(np.abs(got[2:] - want[2:]) / want[2:]) <= 1e-15
    log_factorial(3 * len(weights._LOG_FACTORIAL))  # regrow the table
    assert np.array_equal(log_factorial(n), got)
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)
    with pytest.raises(ValueError):
        log_factorial([3, -1])


@pytest.mark.parametrize("s", [1.001, 1.01, 1.0 + WeightParams().sigma, 1.5, 2.0, 6.0])
def test_zeta_matches_scipy(s):
    from scipy.special import zeta as scipy_zeta

    assert abs(zeta(s) - scipy_zeta(s)) <= 1e-15 * scipy_zeta(s)


def test_zeta_needs_s_above_one():
    with pytest.raises(ValueError):
        zeta(1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": 1.0},
        {"sigma": 0.2},  # violates sigma_star >= 10 sigma
        {"lambda0": 1.5},
        {"c_sigma": 1.0},
        {"delta_drop": 0.0},
    ],
)
def test_params_rejections(kwargs):
    with pytest.raises(ValueError):
        WeightParams(**kwargs)


def test_theta_sequence(params):
    n = np.arange(0, 20)
    th = params.theta(n)
    assert np.all(np.diff(th) <= 0)
    ratios = th[1: params.n_star + 1] / th[: params.n_star]
    assert np.allclose(ratios, params.delta_drop)
    assert np.all(th[params.n_star:] == 1.0)


def test_cascade_nodes(params, cascade):
    assert cascade.x_n(1) == 0.375
    for n in range(1, cascade.n_max):
        assert cascade.x_n(n) < cascade.y_n(n) < cascade.x_n(n + 1)
    assert cascade.x[-1] < 0.5


def test_cascade_pointwise(cascade):
    c1 = cascade.chi(1, YS)
    assert np.all((0.0 <= c1) & (c1 <= 1.0))
    assert cascade.chi(1, 0.0) == 0.0
    # supports shrink pointwise
    prev = c1
    for n in range(2, 8):
        cur = cascade.chi(n, YS)
        assert np.all(cur <= prev + 1e-15)
        prev = cur
    # chi == 1 identically past 1/2, every n
    far = YS[np.abs(YS) > 0.5]
    for n in (1, 5, 14):
        assert np.all(cascade.chi(n, far) == 1.0)


def test_cascade_derivative_support(cascade):
    for n in range(1, 8):
        dn = cascade.chi(n + 1, YS, 1)
        lower = cascade.chi(n, YS)
        assert np.all(lower[np.abs(dn) > 0] == 1.0)


def test_cascade_derivative_bound_constant(cascade, params):
    # |d^j chi_n| <= C n^{j(1+sigma)} chi_{n-1}: the measured constant is
    # n-independent for the scaled smoothstep profile.  The transitions are
    # c_sigma/(100 n^{1+sigma}) wide so each must be sampled adaptively.
    for j in (1, 2, 3):
        consts = []
        for n in (4, 8, 16, 32):
            zone = np.linspace(cascade.x_n(n), cascade.y_n(n), 4001)
            dj = np.abs(cascade.chi(n, zone, j))
            consts.append(dj.max() / n ** (j * (1 + params.sigma)))
        consts = np.array(consts)
        assert consts.max() / consts.min() < 1.0 + 1e-6


def test_chi_derivatives_match_fd(cascade):
    ys = np.linspace(cascade.x_n(3), cascade.y_n(3), 41)[1:-1]
    h = 1e-9  # the transition is ~1e-5 wide, so the step must sit well inside
    fd = (cascade.chi(3, ys + h) - cascade.chi(3, ys - h)) / (2 * h)
    scale = np.max(np.abs(cascade.chi(3, ys, 1)))
    assert np.max(np.abs(fd - cascade.chi(3, ys, 1))) < 1e-4 * scale


def test_q_values():
    assert eval_q(0.0) == 1.0
    assert eval_q(-1.0 + 1.0 / 200.0) == pytest.approx(0.495)
    assert eval_q(1.0) == 0.0
    assert eval_q(-1.0) == 0.0
    q = eval_q(YS)
    assert q.max() <= 1.0
    assert np.all(q >= 0.0)
    # even symmetry
    assert np.allclose(q, eval_q(-YS))


def test_q_monotone_and_smooth():
    left = np.linspace(-1.0, -0.9, 200001)
    q = eval_q(left)
    assert np.all(np.diff(q) >= -1e-13)
    # C^4 consistency against finite differences away from machine limits
    pts = np.array([-0.995, -0.99 + 1e-4, -0.5, 0.2, 0.985])
    qj = q_jet(pts, 4)
    h = 1e-7
    fd1 = (eval_q(pts + h) - eval_q(pts - h)) / (2 * h)
    scale = np.maximum(np.abs(qj[1]), 1.0)
    assert np.max(np.abs(fd1 - qj[1]) / scale) < 1e-4
    h = 1e-9
    for j in (3, 4):
        fd = (q_jet(pts + h, j - 1)[-1] - q_jet(pts - h, j - 1)[-1]) / (2 * h)
        scale = np.maximum(np.abs(qj[j]), 1.0)
        assert np.max(np.abs(fd - qj[j]) / scale) < 1e-4


def test_jets_match_closed_forms_at_degree_6():
    deg = 6
    y = np.linspace(0.3, 2.5, 23)
    zero = np.zeros_like(y)
    var = [y, np.ones_like(y)] + [zero] * (deg - 1)
    one = [np.ones_like(y)] + [zero] * deg

    def close(jet, exact):
        assert len(jet) == deg + 1
        for got, want in zip(jet, exact):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1.0)

    for n in range(9):  # d^i y^n = n (n-1) ... (n-i+1) y^(n-i)
        falling = [math.perm(n, i) for i in range(deg + 1)]
        close(jet_pow(var, n), [f * y ** max(n - i, 0) for i, f in enumerate(falling)])
    close(jet_div(one, var), [(-1) ** i * math.factorial(i) / y ** (i + 1) for i in range(deg + 1)])
    for c in (-1.7, 0.5, 2.0):
        close(jet_exp([c * y, np.full_like(y, c)] + [zero] * (deg - 1)),
              [c**i * np.exp(c * y) for i in range(deg + 1)])
    rng = np.random.default_rng(7)
    a = [2.0 + np.abs(rng.normal(size=y.size))] + [rng.normal(size=y.size) for _ in range(deg)]
    b = [rng.normal(size=y.size) for _ in range(deg + 1)]
    close(jet_mul(a, jet_div(b, a)), b)


def test_w_values(params):
    assert eval_W(0.0, 0.2, 1e-3, params) == 0.0
    assert eval_W(0.0, 0.5, 1e-3, params) == pytest.approx(0.625)


def test_w_derivatives_consistency(params):
    ys = np.array([0.3, 0.5, -0.7, 0.9])
    t, nu = 1.3, 1e-3
    wt, wy, wyy = eval_W_derivatives(t, ys, nu, params)
    h = 1e-6
    fd_t = (eval_W(t + h, ys, nu, params) - eval_W(t - h, ys, nu, params)) / (2 * h)
    fd_y = (eval_W(t, ys + h, nu, params) - eval_W(t, ys - h, nu, params)) / (2 * h)
    assert np.max(np.abs(fd_t - wt)) < 1e-5
    assert np.max(np.abs(fd_y - wy)) < 1e-5
    assert np.all(wyy[np.abs(ys) > 0.26] > 0)


def test_w_prop_inequality(params):
    ts = np.linspace(0.0, 30.0, 200)
    ys = np.linspace(-1.0, 1.0, 200)
    for nu in (1e-2, 1e-3, 1e-4):
        for t in ts:
            wt, wy, _ = eval_W_derivatives(t, ys, nu, params)
            assert np.max(wt + params.K / 8.0 * nu * np.abs(wy) ** 2) <= 1e-12


def test_w_strong_bounds():
    # the two-term variants with their measured constants
    p = WeightParams(L_eps=0.05)
    ys = np.linspace(-1, 1, 400)
    for nu in (1e-2, 1e-4):
        for t in (0.0, 0.5, 3.0, 20.0):
            wt, wy, _ = eval_W_derivatives(t, ys, nu, p)
            neg = -wt
            mask = neg > 0
            # nu |W_y|^2 <= (C/K)(-W_t): C = 4 exactly when L_eps = 0
            assert np.all(nu * np.abs(wy[mask]) ** 2 <= (4.0 / p.K) * neg[mask] * (1 + 1e-12))
            # eps/(1+t)^2 |W_y| <= (C/L)(-W_t) with C = 1, L eps bundled
            lhs = 0.05 / (1 + t) ** 2 * np.abs(wy[mask])
            assert np.all(lhs <= neg[mask] * (1 + 1e-12))


def test_coeff_values(params):
    tab = GevreyCoeffTable(params)
    lam0 = tab.lam(0.0)
    assert lam0 == pytest.approx(2 * params.lambda0)
    assert params.lambda0 <= tab.lam(1e9) <= 2 * params.lambda0
    ts = np.linspace(0, 50, 200)
    lam = np.array([tab.lam(t) for t in ts])
    assert np.all(np.diff(lam) < 0)
    assert float(tab.a(0, 0, 0.0)) == pytest.approx(1.0)
    # (lambda^2/2)^s at lambda(0) = 1/2, s = 3/2
    assert np.exp(tab.log_B(0, 2, 0.0)) == pytest.approx((0.5**2 / 2.0) ** 1.5)


def test_phi_bracket(params):
    tab = GevreyCoeffTable(params)
    ts = np.linspace(0, 100, 500)
    assert np.max([tab.phi(t) * abs(t) for t in ts]) <= 1.0


def test_b_log_convex_decreasing(params):
    tab = GevreyCoeffTable(params)
    logb = np.array([tab.log_B(0, n, 1.0) for n in range(30)])
    assert np.all(np.diff(logb) < 0)
    assert np.all(np.diff(logb, 2) < 0)  # log-concave in m+n: ratios shrink


def test_gevrey_ratio_examples(params):
    tab = GevreyCoeffTable(params)

    class Fixed(GevreyCoeffTable):
        def lam(self, t):
            return 0.5

        def lam_dot(self, t):
            return 0.0

    fixed = Fixed(params)
    lhs, rhs, holds = check_gevrey_ratio(0, 1, 1, 0.0, fixed, constant=1.0)
    assert lhs == pytest.approx(0.5**1.5)
    assert holds
    _, _, holds2 = check_gevrey_ratio(1, 1, 2, 0.0, fixed)
    assert holds2
    for m in range(0, 40, 7):
        for n in range(0, 40, 7):
            for ell in (1, 2):
                if m + n < ell or min(n, ell) + m < ell:
                    continue
                assert check_gevrey_ratio(m, n, ell, 2.5, tab)[2]


def test_gevrey_ratio_rejects(params):
    tab = GevreyCoeffTable(params)
    with pytest.raises(ValueError):
        check_gevrey_ratio(0, 0, 1, 0.0, tab)


@given(st.floats(-3.0, 4.0))
@settings(max_examples=200, deadline=None)
def test_smoothstep_range(tau):
    s = float(smoothstep(tau))
    assert 0.0 <= s <= 1.0
    if tau <= 0:
        assert s == 0.0
    if tau >= 1:
        assert s == 1.0


@given(st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_theta_ratio_property(n1, n2):
    p = WeightParams()
    if n1 <= n2:
        assert p.theta(n1) >= p.theta(n2)
