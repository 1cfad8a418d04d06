import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    helmholtz_solve,
    loop_clenshaw_curtis_weights,
    loop_green_matrix,
    loop_green_solve,
    loop_interpolate,
    parity_lu,
    stacked_parity_solve,
)

from couette_gevrey.spectral import (
    ChannelGrid,
    DirichletEig,
    SingularSolveError,
    _apply_blocks,
    _fold,
    _folded_d2_t,
    _parity_sizes,
    _unfold,
    clenshaw_curtis_weights,
    dirichlet_eig,
    green_eval,
    green_matrix,
    green_solve,
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


@pytest.mark.parametrize("ny", [64, 65])
@pytest.mark.parametrize("shape", [(), (3,)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_cheb_coeffs_match_scipy_dct(ny, shape, dtype, rng):
    from scipy.fft import dct

    grid = ChannelGrid(ny)
    values = rng.normal(size=shape + (ny + 1,)) + (1j * rng.normal(size=shape + (ny + 1,)) if dtype is complex else 0.0)
    rev = values[..., ::-1]
    want = (dct(rev.real, type=1, axis=-1) + 1j * dct(rev.imag, type=1, axis=-1)) / ny
    want[..., [0, -1]] *= 0.5
    got = grid.cheb_coeffs(values)
    assert got.shape == values.shape and got.dtype == values.dtype
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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
    rhs = (np.pi**2 + k**2) * np.sin(np.pi * grid64.nodes)
    psi = helmholtz_solve(grid64, rhs, k)
    assert np.max(np.abs(psi - np.sin(np.pi * grid64.nodes))) < 1e-12
    zero = helmholtz_solve(grid64, np.zeros(grid64.ny + 1), 1)
    assert np.max(np.abs(zero)) == 0.0


def dirichlet_matrix(grid, k, alpha, nu):
    n = grid.ny
    a = alpha * np.eye(n + 1) - nu * (grid.d2 - float(k * k) * np.eye(n + 1))
    a[[0, -1], :] = 0.0
    a[0, 0] = a[-1, -1] = 1.0
    return a


@pytest.mark.parametrize("ny", [64, 65])
@pytest.mark.parametrize("k", [0, 3])
def test_helmholtz_parity_solve_matches_dense(ny, k, rng):
    # one correction in the eigenbasis, x = g + A^{-1}(b - A g) with the
    # residual formed from the folded d2 as the scalar step forms it,
    # against one dense solve of the full Dirichlet matrix, from a zero
    # guess and from the solution moved by a smooth tenth of its peak, as a
    # step's starting state is near its end state; ny = 64 has a centre
    # node, ny = 65 has none
    grid = ChannelGrid(ny)
    alpha, nu = 150.0, 1e-3
    a = dirichlet_matrix(grid, k, alpha, nu)
    rhs = rng.normal(size=(3, ny + 1)) + 1j * rng.normal(size=(3, ny + 1))
    rhs[:, [0, -1]] = 0.0
    dense = np.array([np.linalg.solve(a, b) for b in rhs])
    y = grid.nodes
    peak = np.max(np.abs(dense), axis=1, keepdims=True)
    smooth = dense + 0.1 * peak * (1.0 - y * y) * np.exp(y) * (1.0 + 0.5j)
    shifts = np.full(3, alpha + nu * k * k)
    for guess in (np.zeros_like(rhs), smooth):
        g = _fold(guess)
        residual = _fold(rhs) - shifts[:, None, None] * g + nu * _apply_blocks(g, _folded_d2_t(grid))
        out = _unfold(g + dirichlet_eig(grid).solve(residual, shifts, nu), ny)
        for got, want in zip(out, dense):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("ny", [64, 65])
def test_helmholtz_inverse_matches_stacked_oracle(ny, rng):
    # the eigenbasis solve against the LU solves of the folded blocks;
    # nonzero wall values must be ignored as the oracle's zeroing does, and
    # the right-hand side must not be written
    grid = ChannelGrid(ny)
    ks = range(4)
    rhs = rng.normal(size=(4, ny + 1)) + 1j * rng.normal(size=(4, ny + 1))
    folded = _fold(rhs)
    before = folded.copy()
    out = _unfold(dirichlet_eig(grid).solve(folded, [150.0 + 1e-3 * k * k for k in ks], 1e-3), ny)
    want = stacked_parity_solve([parity_lu(grid, k, 150.0, 1e-3) for k in ks], rhs)
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(folded, before)


@pytest.mark.parametrize("ny", [64, 65])
def test_folded_residual_matches_dense(ny, rng):
    # the dense symmetrised (A + JAJ)/2 applied to the eigenbasis solution
    # of b returns b on the interior rows, for every k, and the walls are
    # zero; the bound is a componentwise multiple of the product's
    # rounding, |A| |x|
    grid = ChannelGrid(ny)
    ks = range(5)
    alpha, nu = 150.0, 1e-3
    rhs = rng.normal(size=(5, ny + 1)) + 1j * rng.normal(size=(5, ny + 1))
    x = _unfold(dirichlet_eig(grid).solve(_fold(rhs), [alpha + nu * k * k for k in ks], nu), ny)
    assert np.all(x[:, [0, -1]] == 0.0)
    for k, got, b in zip(ks, x, rhs):
        a = dirichlet_matrix(grid, k, alpha, nu)
        a = 0.5 * (a + a[::-1, ::-1])
        err = np.abs(a @ got - b)[1:-1]
        assert np.all(err <= 1e-13 * (np.abs(a) @ np.abs(got))[1:-1])


@pytest.mark.parametrize("ny", [8, 9, 64, 65, 192, 256, 384])
def test_dirichlet_spectrum_real_negative_and_well_conditioned(ny):
    # Gottlieb & Lustman: the Chebyshev Dirichlet d2 has a real, negative,
    # distinct spectrum; each folded block's eigenvectors stay well
    # conditioned (cond(V) <= 3.69 for every ny from 4 to 399)
    eig = dirichlet_eig(ChannelGrid(ny))
    for parity, n in enumerate(_parity_sizes(ny)):
        values = eig.values[parity, 1:n]
        assert values.dtype == float and np.all(values < 0.0)
        assert len(np.unique(values)) == n - 1
        assert np.linalg.cond(eig.vectors_t[parity, 1:n, 1:n]) <= 4.0


def test_dirichlet_eig_rejects_complex_or_nonnegative_spectrum(rng):
    grid = ChannelGrid(16)
    grid.d2 = -grid.d2  # a positive spectrum
    with pytest.raises(ValueError, match="complex or not negative"):
        DirichletEig(grid)
    grid.d2 = rng.normal(size=grid.d2.shape)  # a random block has complex pairs
    with pytest.raises(ValueError, match="complex or not negative"):
        DirichletEig(grid)


@pytest.mark.parametrize("ny", [64, 65, 192, 256])
def test_poisson_mode_solve_manufactured(ny):
    # the eigenbasis stream solve against psi = sin(pi y) e^y; the dense
    # collocation solve of the same data errs up to 1.4e-11 at ny = 256
    grid = ChannelGrid(ny)
    y = grid.nodes
    psi = np.sin(np.pi * y) * np.exp(y) * (1.0 + 0.3j)
    psi_yy = np.exp(y) * ((1.0 - np.pi**2) * np.sin(np.pi * y) + 2.0 * np.pi * np.cos(np.pi * y)) * (1.0 + 0.3j)
    for k in (1, 4, 8):
        got = poisson_mode_solve(grid, psi_yy - k * k * psi, k)
        assert got[0] == got[-1] == 0.0
        assert np.max(np.abs(got - psi)) <= 1e-12 * np.max(np.abs(psi))


def test_helmholtz_spectral_convergence():
    errs = []
    for ny in (16, 32, 64):
        g = ChannelGrid(ny)
        rhs = (16 * np.pi**2 + 4.0) * np.sin(4 * np.pi * g.nodes)
        psi = helmholtz_solve(g, rhs, 2)
        errs.append(np.max(np.abs(psi - np.sin(4 * np.pi * g.nodes))))
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 1e-10


def test_helmholtz_neumann(grid64):
    # -psi'' + k^2 psi = (pi^2 + k^2) cos(pi y) has Neumann-compatible rhs
    k = 2
    rhs = (np.pi**2 + k**2) * np.cos(np.pi * grid64.nodes)
    psi = helmholtz_solve(grid64, rhs, k, bc="neumann")
    assert np.max(np.abs(psi - np.cos(np.pi * grid64.nodes))) < 1e-10


def test_helmholtz_k0_neumann_compatibility(grid64):
    # the k = 0 Neumann problem is singular: rejected whether or not the
    # data satisfy the compatibility condition
    with pytest.raises(SingularSolveError):
        helmholtz_solve(grid64, np.ones(grid64.ny + 1), 0, bc="neumann")
    compatible = np.pi**2 * np.cos(np.pi * grid64.nodes)
    with pytest.raises(SingularSolveError):
        helmholtz_solve(grid64, compatible, 0, bc="neumann")
    # k = 0 with Dirichlet walls is regular
    psi = helmholtz_solve(grid64, np.pi**2 * np.sin(np.pi * grid64.nodes), 0)
    assert np.max(np.abs(psi - np.sin(np.pi * grid64.nodes))) < 1e-10


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
        psi = helmholtz_solve(grid64, f, k, bc=bc)
        num = (
            l2_norm(grid64, grid64.d2 @ psi)
            + k * l2_norm(grid64, grid64.d1 @ psi)
            + k * k * l2_norm(grid64, psi)
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


def test_green_eval_array_of_wavenumbers():
    domain = (-0.97, 1.02)
    pts = np.linspace(-0.97, 1.02, 57)
    ks = np.array([1, -3, 8, 40])
    rows = green_eval(ks[:, None], 0.2, pts, domain)
    assert rows.shape == (len(ks), len(pts))
    for row, k in zip(rows, ks):
        assert np.array_equal(row, green_eval(int(k), 0.2, pts, domain))
    with pytest.raises(ValueError):
        green_eval(np.array([[2], [0]]), 0.0, pts, domain)


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
        direct = helmholtz_solve(grid96, -f, k)
        viagreen = green_solve(green_matrix(grid96, [k])[0], f)
        num = l2_norm(grid96, viagreen - direct)
        worst = max(worst, num / l2_norm(grid96, direct))
    assert worst < 1e-8


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (-0.97, 1.02)])
@pytest.mark.parametrize("k", [1, 4, 8])
def test_green_solve_matches_loop_oracle(grid96, rng, k, domain):
    f = rng.normal(size=grid96.ny + 1) + 1j * rng.normal(size=grid96.ny + 1)
    ref = loop_green_solve(grid96, f, k, domain)
    out = green_solve(green_matrix(grid96, [k], domain)[0], f)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (-0.97, 1.02)])
def test_green_matrix_matches_loop_oracle(grid96, domain):
    ks = (1, 4, 8)
    shared = green_matrix(grid96, ks, domain)
    assert shared.shape == (len(ks), grid96.ny + 1, grid96.ny + 1)
    for j, k in enumerate(ks):
        ref = loop_green_matrix(grid96, k, domain)
        assert np.array_equal(shared[j], ref)
        # a table of k alone
        assert np.array_equal(green_matrix(grid96, [k], domain)[0], ref)


def test_interpolation_matrix_matches_loop_oracle(grid64, rng):
    f = rng.normal(size=grid64.ny + 1) + 1j * rng.normal(size=grid64.ny + 1)
    targets = np.concatenate([rng.uniform(-1.0, 1.0, 50), grid64.nodes[::7]])
    ref = loop_interpolate(grid64, f, targets)
    assert np.max(np.abs(grid64.interpolate(f, targets) - ref)) <= 1e-12 * np.max(np.abs(ref))
    hits = grid64.interpolation_matrix(grid64.nodes[::7])
    assert np.array_equal(hits, np.eye(grid64.ny + 1)[::7])


def test_green_solve_zero(grid96):
    out = green_solve(green_matrix(grid96, [2])[0], np.zeros(grid96.ny + 1))
    assert np.max(np.abs(out)) == 0.0


def test_green_interior_smoothing(grid96):
    # response to interior-supported data has factorially controlled
    # derivatives away from the support; differentiate the explicit kernel
    import math

    from couette_gevrey.scalar import spline_bump

    hw = 0.2
    rhs_fn = lambda v: spline_bump(v, 12, hw)
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
        poisson_mode_solve(grid64, np.ones(grid64.ny + 1), 0)


def test_spectral_tail_indicator(grid64):
    smooth = np.exp(-2 * grid64.nodes**2)
    rough = np.sign(grid64.nodes)
    assert grid64.spectral_tail(smooth) < 1e-12
    assert grid64.spectral_tail(rough) > 1e-3
