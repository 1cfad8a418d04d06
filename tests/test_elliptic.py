import numpy as np
import pytest

from conftest import make_ctx
from oracles import composite_values, loop_elliptic_functionals, loop_interior_greens_response

from couette_gevrey import elliptic, functionals
from couette_gevrey.coordinates import (
    couette_state,
    gamma_ladder,
    init_coordinates,
    quartic_profile,
    sin_quartic_profile,
    step_coordinates,
)
from couette_gevrey.elliptic import (
    CHI_STAR,
    CHI_STAR_GAP,
    CHI_TILDE1,
    NonContractionError,
    PhiDecomposition,
    damping_diagnostic,
    decompose_phi,
    eval_elliptic_functionals,
    interior_greens_response,
)
from couette_gevrey.scalar import gevrey_bump, spline_bump
from couette_gevrey.spectral import ChannelGrid, l2_norm, poisson_mode_solve
from couette_gevrey.weights import cutoff_transition


def interior_field(grid, rng):
    env = spline_bump(grid.nodes, 12, 0.3)
    coef = rng.normal(size=5) + 1j * rng.normal(size=5)
    poly = sum(c * grid.nodes**j for j, c in enumerate(coef))
    return env * poly


def sheared_coordinate(profile, grid, steps, dt=0.02):
    coord = init_coordinates(profile, grid, nu=0.0)
    for _ in range(steps):
        coord = step_coordinates(coord, dt, 0.0, profile, grid)
    return coord


def test_cutoff_shapes():
    xi = np.linspace(-1, 1, 4001)
    ct = cutoff_transition(xi, *CHI_TILDE1)
    assert np.all(ct[np.abs(xi) >= 3 / 8 - 1 / 80] == 1.0)
    assert np.all(ct[np.abs(xi) <= 3 / 8 - 1 / 40] == 0.0)
    assert CHI_STAR_GAP > 0.0
    # chi_star is 1 wherever the cascade cutoffs live, even under distortion
    assert np.all(cutoff_transition(xi[np.abs(xi) >= 0.375 - 1 / 160], *CHI_STAR) == 1.0)


def test_solve_stream_manufactured(grid96):
    k = 2
    om = -(np.pi**2 + k * k) * np.sin(np.pi * grid96.nodes)
    psi = poisson_mode_solve(grid96, om, k)
    assert np.max(np.abs(psi - np.sin(np.pi * grid96.nodes))) < 1e-11
    zero = poisson_mode_solve(grid96, np.zeros(grid96.ny + 1), 1)
    assert np.max(np.abs(zero)) == 0.0
    with pytest.raises(Exception):
        poisson_mode_solve(grid96, np.ones(grid96.ny + 1), 0)


def test_stream_self_adjoint(grid96, rng):
    k = 3
    f = interior_field(grid96, rng)
    g = interior_field(grid96, rng)
    pf = poisson_mode_solve(grid96, f, k)
    pg = poisson_mode_solve(grid96, g, k)
    a = grid96.integrate(pf * np.conj(g))
    b = grid96.integrate(f * np.conj(pg))
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_flat_decomposition_single_pass(rng):
    # Ny = 128: the Laplacian-recompute residual needs the extra headroom
    # against second-derivative roundoff amplification
    grid = ChannelGrid(128)
    flat = couette_state(grid, 0.0)
    om = interior_field(grid, rng)
    (dec,) = decompose_phi([1], [om], flat, grid).values()
    assert dec.iterations == 1
    # interior-supported forcing: the exterior equation sees nothing
    assert np.max(np.abs(dec.phi_e)) == 0.0
    psi = poisson_mode_solve(grid, om, 1)
    comp = composite_values(dec, grid, flat)
    rel = np.max(np.abs(psi - comp)) / np.max(np.abs(psi))
    assert rel < 1e-8
    assert dec.sum_residual < 1e-8


def test_flat_decomposition_random_sweep(grid96, rng):
    flat = couette_state(grid96, 0.0)
    worst = 0.0
    for trial in range(6):
        k = 1 + trial % 3
        om = interior_field(grid96, rng)
        (dec,) = decompose_phi([k], [om], flat, grid96).values()
        psi = poisson_mode_solve(grid96, om, k)
        comp = composite_values(dec, grid96, flat)
        worst = max(worst, np.max(np.abs(psi - comp)) / np.max(np.abs(psi)))
    assert worst < 1e-8


def test_distorted_decomposition(grid96, rng):
    prof = quartic_profile(1 / 256)
    coord = sheared_coordinate(prof, grid96, 60)
    om = interior_field(grid96, rng)
    (dec,) = decompose_phi([1], [om], coord, grid96, tol=1e-12).values()
    assert dec.iterations > 1
    psi = poisson_mode_solve(grid96, om, 1)
    comp = composite_values(dec, grid96, coord)
    rel = np.max(np.abs(psi - comp)) / np.max(np.abs(psi))
    # the chi~_1 transition layer is 1/80 wide and spectrally marginal, so
    # the coordinate-defect product limits closure to the distortion scale
    assert rel < 5e-4
    assert dec.sum_residual < 5e-2


def test_non_contraction_rejected(grid96, rng):
    from couette_gevrey.coordinates import CoordinateState

    y = grid96.nodes
    w = 0.35 * np.sin(np.pi * y) * (1 - y * y)
    v_y = 1.0 + grid96.d1 @ w
    coord = CoordinateState(
        t=1.0, w=w, v=y + w, v_y=v_y, G=np.zeros_like(y), H=v_y - 1, Hbar=np.zeros_like(y)
    )
    om = interior_field(grid96, rng)
    with pytest.raises(NonContractionError):
        decompose_phi([1], [om], coord, grid96)


def test_k0_rejected(grid96, rng):
    # k = 0 is outside the elliptic layer: the mode gets no decomposition
    flat = couette_state(grid96, 0.0)
    om = interior_field(grid96, rng)
    decomps = decompose_phi([0, 2], [np.ones(grid96.ny + 1), om], flat, grid96)
    assert list(decomps) == [2]


def test_damping_slope_smooth(grid96):
    times = np.geomspace(5, 50, 12)
    gfun = lambda v: gevrey_bump(v, 0.24)
    hist = list(zip(times, interior_greens_response(grid96, 1, times, gfun, support=(-0.24, 0.24))))
    fit = damping_diagnostic(hist, grid96, 1, 0)
    assert -2.3 <= fit["slope"] <= -1.7
    with pytest.raises(ValueError):
        damping_diagnostic(hist[:5], grid96, 1, 0)


def test_damping_steepens_with_budget(grid96):
    times = np.geomspace(5, 50, 12)
    slopes = []
    for level in (1, 2, 3):
        data = lambda v, m=level: spline_bump(v, m)
        hist = list(zip(times, interior_greens_response(grid96, 1, times, data, support=(-0.25, 0.25))))
        slopes.append(damping_diagnostic(hist, grid96, 1, level)["slope"])
    assert slopes[0] > slopes[1] > slopes[2]


GREEN_RESPONSE_DATA = {
    "gevrey": (lambda v: gevrey_bump(v, 0.24), (-0.24, 0.24)),
    "spline1": (lambda v: spline_bump(v, 1), (-0.25, 0.25)),
    "spline2": (lambda v: spline_bump(v, 2), (-0.25, 0.25)),
    "spline3": (lambda v: spline_bump(v, 3), (-0.25, 0.25)),
}


@pytest.mark.parametrize("name", sorted(GREEN_RESPONSE_DATA))
@pytest.mark.parametrize("k", [1, 3])
def test_interior_greens_response_matches_loop_oracle(grid96, name, k):
    data, support = GREEN_RESPONSE_DATA[name]
    times = (0.0, 5.0, 17.3, 50.0)
    out = interior_greens_response(grid96, k, times, data, support=support)
    assert out.shape == (len(times), grid96.ny + 1)
    for row, t in zip(out, times):
        ref = loop_interior_greens_response(grid96, k, t, data, support=support)
        np.testing.assert_array_equal(row, ref)


def test_interior_greens_response_support_on_nodes():
    # support edges sit exactly on nodes, so those nodes have a zero-width panel
    grid = ChannelGrid(16)
    edge = float(grid.nodes[10])
    assert -edge == grid.nodes[6]
    data = lambda v: spline_bump(v, 2, edge)
    times = (0.0, 3.0, 20.0)
    out = interior_greens_response(grid, 2, times, data, support=(-edge, edge))
    for row, t in zip(out, times):
        ref = loop_interior_greens_response(grid, 2, t, data, support=(-edge, edge))
        np.testing.assert_array_equal(row, ref)
        np.testing.assert_array_equal(np.signbit(row.imag), np.signbit(ref.imag))


def test_damping_k_scaling(grid96):
    # doubling k at fixed window divides the squared localized functional
    # by about 2^{2n}; the fitted amplitude of the norm drops by ~ 2^{-n}
    times = np.geomspace(5, 50, 10)
    level = 2
    star = cutoff_transition(grid96.nodes, *CHI_STAR)
    norms = {}
    for k in (1, 2):
        data = lambda v, m=level: spline_bump(v, m)
        late = interior_greens_response(grid96, k, times[-4:], data, support=(-0.25, 0.25))
        norms[k] = np.mean([np.max(np.abs(star * phi)) for phi in late])
    measured = (norms[2] / norms[1]) ** 2  # squared-functional ratio
    target = 2.0 ** (-2 * level)
    # the phase-mixing prediction is an upper bound; the kernel itself also
    # decays in k across the support gap, so the measured drop can only be
    # stronger
    assert measured <= target * 2.0


def test_elliptic_functionals_zero_and_flat(grid96, rng, params, cascade):
    ctx = make_ctx(grid96, params, cascade, 1e-3)
    flat = couette_state(grid96, 0.0)
    out0 = eval_elliptic_functionals(decompose_phi([1], [np.zeros(grid96.ny + 1)], flat, grid96), flat, ctx, M=2)
    assert all(v == 0.0 for v in out0.values())
    om = interior_field(grid96, rng)
    out = eval_elliptic_functionals(decompose_phi([1], [om], flat, grid96), flat, ctx, M=2)
    # interior data in flat coordinates: exterior forcing vanishes
    assert out["F_ell_E"] == 0.0
    assert out["J_ell_1"] == 0.0
    assert out["E_ell_I_full"] > 0.0
    assert out["E_ell_I_out"] >= 0.0


def test_elliptic_j_oracle(grid96, rng, params, cascade):
    # J_ell sums against a direct loop with the naive ICC evaluation
    from oracles import direct_a, naive_icc

    ctx = make_ctx(grid96, params, cascade, 1e-3)
    prof = quartic_profile(1 / 256)
    coord = sheared_coordinate(prof, grid96, 30)
    om = interior_field(grid96, rng)
    decomps = decompose_phi([2], [om], coord, grid96)
    dec = decomps[2]
    out = eval_elliptic_functionals(decomps, coord, ctx, M=2)
    expected = 0.0
    for m in range(3):
        for n in range(3 - m):
            for a in range(2):
                for b in range(2 - a):
                    c = 1 - a - b
                    vals, ok = naive_icc(
                        dec.phi_e, 2, a, b, c, m, n, "J", coord, grid96, cascade, dec.t
                    )
                    if ok:
                        expected += (
                            2.0
                            * direct_a(params, m, n, dec.t) ** 2
                            * float(np.real(grid96.integrate(np.abs(vals) ** 2)))
                        )
    assert out["J_ell_1"] == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("shear", ["flat", "sin_quartic"])
def test_elliptic_functionals_match_loop_oracle(grid96, rng, params, cascade, shear):
    # the folded Gamma ladders and J operators give the loops' bits exactly;
    # with diffusion the sheared v-interval is wider than the channel, so the
    # interior ladder's d_v is not d_y
    ctx, ctx_ref = (make_ctx(grid96, params, cascade, 1e-3, floor=1e-8) for _ in range(2))
    coord = couette_state(grid96, 2.0)
    if shear == "sin_quartic":
        prof = sin_quartic_profile(1 / 256)
        coord = init_coordinates(prof, grid96, 1e-2)
        for _ in range(100):
            coord = step_coordinates(coord, 0.02, 1e-2, prof, grid96)
        assert coord.v[-1] - coord.v[0] > 2.0
    # wall-reaching data gives phi_E a nonzero share in both cases
    omega = [interior_field(grid96, rng) + 0.05 * np.sin(np.pi * grid96.nodes) ** 2 for _ in range(2)]
    decomps = decompose_phi([1, 3], omega, coord, grid96)
    for M in (3, 4):  # 4 is the depth decompose_suite uses
        out = eval_elliptic_functionals(decomps, coord, ctx, M=M)
        ref = loop_elliptic_functionals(decomps, coord, ctx_ref, M=M)
        assert list(out) == list(ref)
        for key, val in out.items():
            assert val == ref[key], (M, key)
        assert out["J_ell_1"] > 0.0 and out["F_ell_E"] > 0.0
        # the stacked rows zero the same points as the per-term floors
        assert ctx.floored_points == ctx_ref.floored_points > 0, M


def test_elliptic_functionals_build_each_ladder_once(grid96, rng, params, cascade, monkeypatch):
    # per mode: the Gamma ladders of phi_I and phi_E, one d_v ladder per
    # interior level and one chi_{m+n} dv-bar ladder per (m, n); one floor
    # per (m, n) takes its J rows and its F_ell row
    calls, floors = [], []

    def counting(*args, **kwargs):
        calls.append(1)
        return gamma_ladder(*args, **kwargs)

    monkeypatch.setattr(elliptic, "gamma_ladder", counting)
    monkeypatch.setattr(functionals, "gamma_ladder", counting)
    ctx = make_ctx(grid96, params, cascade, 1e-3)
    floor_rows = ctx.floor_rows

    def counting_floor(*args, **kwargs):
        floors.append(1)
        return floor_rows(*args, **kwargs)

    monkeypatch.setattr(ctx, "floor_rows", counting_floor)
    coord = sheared_coordinate(quartic_profile(1 / 256), grid96, 30)
    decomps = decompose_phi([1, 2], [interior_field(grid96, rng) for _ in range(2)], coord, grid96)
    for M in (2, 4):
        calls.clear()
        floors.clear()
        eval_elliptic_functionals(decomps, coord, ctx, M=M)
        assert len(calls) <= len(decomps) * (2 + (M + 1) + (M + 1) * (M + 2) // 2)
        assert len(floors) <= len(decomps) * (M + 1) * (M + 2) // 2


def test_decomposition_csv(grid96, rng):
    flat = couette_state(grid96, 0.0)
    om = interior_field(grid96, rng)
    (dec,) = decompose_phi([1], [om], flat, grid96).values()
    text = dec.export_csv(grid96, flat, om)
    header = text.splitlines()[0]
    assert header.startswith("y,psi_re")
    assert len(text.splitlines()) == grid96.ny + 2
