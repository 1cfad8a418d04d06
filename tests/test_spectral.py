import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_clenshaw_curtis_weights, loop_green_solve, loop_interpolate

from couette_gevrey.spectral import (
    ChannelGrid,
    ModeField,
    SingularSolveError,
    clenshaw_curtis_weights,
    green_eval,
    green_solve,
    helmholtz_lu,
    helmholtz_lu_solve,
    helmholtz_solve,
    l2_norm,
    poisson_mode_solve,
)


def test_diff_exactness(grid64):
    y = grid64.nodes
    for p in range(0, grid64.ny, 7):
        expected = p * y ** (p - 1) if p else np.zeros_like(y)
        assert np.max(np.abs(grid64.d1 @ y**p - expected)) < 1e-10 * max(1.0, p**2)


def test_quadrature_exactness(grid64):
    y = grid64.nodes
    for p in range(0, grid64.ny + 1, 5):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert grid64.integrate(y**p) == pytest.approx(exact, abs=1e-12)


def test_clenshaw_curtis_weights_match_loop():
    # all nodes at once, summed over k in the loop's order: bitwise equal
    for n in (1, 2, 7, 8, 9, 64, 96, 128, 192, 255, 256):
        assert np.array_equal(clenshaw_curtis_weights(n), loop_clenshaw_curtis_weights(n))


def test_norms(grid64):
    assert l2_norm(grid64, np.ones(grid64.ny + 1)) == pytest.approx(np.sqrt(2.0))


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneity(re, im):
    grid = ChannelGrid(32)
    c = re + 1j * im
    f = np.exp(-3 * grid.nodes**2) * (1 + 0.5j)
    assert l2_norm(grid, c * f) == pytest.approx(abs(c) * l2_norm(grid, f), rel=1e-12, abs=1e-12)


def test_helmholtz_manufactured(grid64):
    k = 1
    rhs = ModeField(k, (np.pi**2 + k**2) * np.sin(np.pi * grid64.nodes))
    psi = helmholtz_solve(grid64, rhs)
    assert np.max(np.abs(psi.values - np.sin(np.pi * grid64.nodes))) < 1e-12
    zero = helmholtz_solve(grid64, ModeField(1, np.zeros(grid64.ny + 1)))
    assert np.max(np.abs(zero.values)) == 0.0


@pytest.mark.parametrize("ny", [64, 65])
@pytest.mark.parametrize("k", [0, 3])
def test_helmholtz_parity_solve_matches_dense(ny, k, rng):
    # the even/odd block solves against one dense solve of the full
    # Dirichlet matrix; ny = 64 has a centre node, ny = 65 has none
    grid = ChannelGrid(ny)
    alpha, nu = 150.0, 1e-3
    a = alpha * np.eye(ny + 1) - nu * (grid.d2 - float(k * k) * np.eye(ny + 1))
    a[[0, -1], :] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    rhs = rng.normal(size=(3, 2, ny + 1))
    rhs[..., [0, -1]] = 0.0
    factors = [helmholtz_lu(grid, k, alpha, nu)] * 3
    out = helmholtz_lu_solve(factors, rhs.copy())
    for got, b in zip(out, rhs):
        dense = np.linalg.solve(a, b.T).T
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_helmholtz_spectral_convergence():
    errs = []
    for ny in (16, 32, 64):
        g = ChannelGrid(ny)
        rhs = ModeField(2, (16 * np.pi**2 + 4.0) * np.sin(4 * np.pi * g.nodes))
        psi = helmholtz_solve(g, rhs)
        errs.append(np.max(np.abs(psi.values - np.sin(4 * np.pi * g.nodes))))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 1e-10


def test_helmholtz_neumann(grid64):
    # -psi'' + k^2 psi = (pi^2 + k^2) cos(pi y) has Neumann-compatible rhs
    k = 2
    rhs = ModeField(k, (np.pi**2 + k**2) * np.cos(np.pi * grid64.nodes))
    psi = helmholtz_solve(grid64, rhs, bc="neumann")
    assert np.max(np.abs(psi.values - np.cos(np.pi * grid64.nodes))) < 1e-10


def test_helmholtz_k0_neumann_compatibility(grid64):
    # the k = 0 Neumann problem is singular: rejected whether or not the
    # data satisfy the compatibility condition
    with pytest.raises(SingularSolveError):
        helmholtz_solve(grid64, ModeField(0, np.ones(grid64.ny + 1)), bc="neumann")
    compatible = ModeField(0, np.pi**2 * np.cos(np.pi * grid64.nodes))
    with pytest.raises(SingularSolveError):
        helmholtz_solve(grid64, compatible, bc="neumann")
    # k = 0 with Dirichlet walls is regular
    psi = helmholtz_solve(grid64, ModeField(0, np.pi**2 * np.sin(np.pi * grid64.nodes)))
    assert np.max(np.abs(psi.values - np.sin(np.pi * grid64.nodes))) < 1e-10


def test_maximal_regularity_constant(grid64, rng):
    # ||psi``|| + ||k psi`|| + ||k^2 psi|| <= (3 + sqrt 2)||F||
    bound = 3.0 + np.sqrt(2.0)
    theta = np.arccos(np.clip(grid64.nodes, -1, 1))
    worst = 0.0
    for trial in range(50):
        k = int(rng.integers(1, 9))
        coef = rng.normal(size=12) * np.exp(-0.4 * np.arange(12))
        f = sum(c * np.cos(j * theta) for j, c in enumerate(coef))
        bc = "dirichlet" if trial % 2 == 0 else "neumann"
        psi = helmholtz_solve(grid64, ModeField(k, f), bc=bc)
        num = (
            l2_norm(grid64, grid64.d2 @ psi.values)
            + k * l2_norm(grid64, grid64.d1 @ psi.values)
            + k * k * l2_norm(grid64, psi.values)
        )
        worst = max(worst, num / l2_norm(grid64, f))
    assert worst <= bound + 1e-9


def test_green_point_values():
    val = green_eval(1, 0.0, 0.0, (-1.0, 1.0))
    assert val == pytest.approx(-np.sinh(1.0) ** 2 / np.sinh(2.0), rel=1e-13)
    # boundary factors vanish
    assert green_eval(3, -1.0, 0.2, (-1.0, 1.0)) == 0.0
    assert green_eval(3, 1.0, 0.2, (-1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        green_eval(0, 0.0, 0.0, (-1.0, 1.0))


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_green_reciprocity(v, vp, k):
    a = green_eval(k, v, vp, (-1.0, 1.0))
    b = green_eval(k, vp, v, (-1.0, 1.0))
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_green_large_k_stable():
    # naive sinh ratios overflow near k ~ 400; the exp-difference form must not
    val = green_eval(500, 0.31, 0.3100001, (-1.0, 1.0))
    assert np.isfinite(val)
    assert val < 0.0


def test_green_solve_cross_validation(grid96, rng):
    worst = 0.0
    theta = np.arccos(np.clip(grid96.nodes, -1, 1))
    for trial in range(20):
        k = int(rng.integers(1, 7))
        coef = rng.normal(size=10) * np.exp(-0.5 * np.arange(10))
        f = sum(c * np.cos(j * theta) for j, c in enumerate(coef)) * (1 + 0.3j)
        direct = helmholtz_solve(grid96, ModeField(k, -f))
        viagreen = green_solve(grid96, ModeField(k, f), k=k)
        num = l2_norm(grid96, viagreen.values - direct.values)
        worst = max(worst, num / l2_norm(grid96, direct.values))
    assert worst < 1e-8


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (-0.97, 1.02)])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_green_solve_matches_loop_oracle(grid96, rng, k, domain):
    f = rng.normal(size=grid96.ny + 1) + 1j * rng.normal(size=grid96.ny + 1)
    ref = loop_green_solve(grid96, f, k, domain)
    out = green_solve(grid96, ModeField(k, f), domain=domain).values
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_interpolation_matrix_matches_loop_oracle(grid64, rng):
    f = rng.normal(size=grid64.ny + 1) + 1j * rng.normal(size=grid64.ny + 1)
    targets = np.concatenate([rng.uniform(-1.0, 1.0, 50), grid64.nodes[::7]])
    ref = loop_interpolate(grid64, f, targets)
    assert np.max(np.abs(grid64.interpolate(f, targets) - ref)) <= 1e-12 * np.max(np.abs(ref))
    hits = grid64.interpolation_matrix(grid64.nodes[::7])
    assert np.array_equal(hits, np.eye(grid64.ny + 1)[::7])


def test_green_solve_zero(grid96):
    out = green_solve(grid96, ModeField(2, np.zeros(grid96.ny + 1)))
    assert np.max(np.abs(out.values)) == 0.0


def test_green_interior_smoothing(grid96):
    # response to interior-supported data has factorially controlled
    # derivatives away from the support; differentiate the explicit kernel
    import math

    from couette_gevrey.scalar import spline_initial_bump

    hw = 0.2
    rhs_fn = lambda v: spline_initial_bump(v, 12, hw)
    base = np.sqrt(np.trapezoid(rhs_fn(np.linspace(-hw, hw, 2000)) ** 2,
                                np.linspace(-hw, hw, 2000)))
    k, L = 1, 2.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(96)
    pts = hw * gl_x
    wts = hw * gl_w
    gap = 0.3
    for v in (0.52, 0.7, 0.95):
        # for v above the support: G = -sinh(k(1-v)) sinh(k(v'+1)) / (k sinh(2k))
        for n in range(0, 9):
            trig = np.cosh if n % 2 else np.sinh
            kern = (-1.0) ** n * k**n * trig(k * (1.0 - v)) * np.sinh(k * (pts + 1.0)) / (
                k * np.sinh(k * L)
            )
            val = abs(np.sum(wts * kern * rhs_fn(pts)))
            bound = max(math.factorial(n) * (2.0 / gap) ** n, 1.0) * base
            assert val <= bound


def test_poisson_k0_rejected(grid64):
    with pytest.raises(SingularSolveError):
        poisson_mode_solve(grid64, ModeField(0, np.ones(grid64.ny + 1)))


def test_spectral_tail_indicator(grid64):
    smooth = np.exp(-2 * grid64.nodes**2)
    rough = np.sign(grid64.nodes)
    assert grid64.spectral_tail(smooth) < 1e-12
    assert grid64.spectral_tail(rough) > 1e-3
