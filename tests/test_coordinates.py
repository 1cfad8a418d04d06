import numpy as np
import pytest
from oracles import cast_per_level_ladder, loop_spectral_tail, loop_step_coordinates

from couette_gevrey import coordinates
from couette_gevrey.coordinates import (
    CoordinateDegeneracyError,
    ShearProfile,
    build_gamma_stack,
    couette_state,
    gamma_ladder,
    init_coordinates,
    make_profile,
    monitor_assumptions,
    quartic_profile,
    sin_quartic_profile,
    step_coordinates,
    zero_profile,
)
from couette_gevrey.scalar import default_initial_data, exact_transport
from couette_gevrey.spectral import ChannelGrid, l2_norm
from couette_gevrey.weights import eval_q


def test_init_couette(grid64):
    st = init_coordinates(zero_profile(), grid64, nu=1e-3)
    assert np.max(np.abs(st.v - grid64.nodes)) == 0.0
    assert np.max(np.abs(st.G)) == 0.0
    assert np.max(np.abs(st.H)) == 0.0


def test_init_profile_fields(grid64):
    eps = 1.0 / 256.0
    prof = quartic_profile(eps)
    st = init_coordinates(prof, grid64, nu=0.0)
    assert np.allclose(st.w, eps * (1 - grid64.nodes**2) ** 2)
    # wall compatibility: H(0, +-1) = d_y U0(0, +-1) = 0
    assert abs(st.H[0]) < 1e-11
    assert abs(st.H[-1]) < 1e-11


def test_init_rejects_incompatible(grid64):
    bad = ShearProfile("bad", lambda t, y: y, lambda t, y: np.ones_like(y))
    with pytest.raises(ValueError):
        init_coordinates(bad, grid64, nu=0.0)


def test_couette_invariance(grid64):
    prof = zero_profile()
    st = init_coordinates(prof, grid64, nu=1e-3)
    for _ in range(30):
        st = step_coordinates(st, 0.02, 1e-3, prof, grid64)
        assert np.max(np.abs(st.G)) <= 1e-12
        assert np.max(np.abs(st.H)) <= 1e-12
        assert np.max(np.abs(st.Hbar)) <= 1e-12


def test_stationary_exact(grid64):
    # nu = 0, time-independent U0: w stays exactly U0
    prof = quartic_profile(1.0 / 256.0)
    final = init_coordinates(prof, grid64, nu=0.0)
    for _ in range(200):
        final = step_coordinates(final, 0.01, 0.0, prof, grid64)
    assert np.max(np.abs(final.w - prof.u0(final.t, grid64.nodes))) < 1e-10


def test_zero_profile_stays_couette(grid64):
    # the harness uses couette_state in place of zero-shear coordinate steps
    prof = zero_profile()
    state = init_coordinates(prof, grid64, nu=1e-4)
    for _ in range(300):
        state = step_coordinates(state, 0.01, 1e-4, prof, grid64)
    ref = couette_state(grid64, state.t)
    for name in ("t", "w", "v", "v_y", "G", "H", "Hbar"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name


@pytest.mark.parametrize("name", ["quartic", "sin_quartic"])
@pytest.mark.parametrize("nu", [0.0, 1e-4, 1e-3])
@pytest.mark.parametrize("ny", [64, 192])
def test_factored_step_matches_solve_oracle(monkeypatch, name, nu, ny):
    built, real_inverse = [], coordinates.coordinate_inverse

    def counting_inverse(grid, nu_, dt):
        built.append(dt)
        return real_inverse(grid, nu_, dt)

    monkeypatch.setattr(coordinates, "coordinate_inverse", counting_inverse)
    grid = ChannelGrid(ny)
    prof = make_profile(name, 1.0 / 256.0)
    state = init_coordinates(prof, grid, nu)
    t_ref, w_ref = state.t, state.w
    for dt in [0.01] * 300 + [0.0037]:  # a shorter last step
        state = step_coordinates(state, dt, nu, prof, grid)
        w_ref, _ = loop_step_coordinates(t_ref, w_ref, dt, nu, prof, grid)
        t_ref += dt
    assert state.t == t_ref
    assert np.max(np.abs(state.w - w_ref)) <= 1e-11 * np.max(np.abs(w_ref))
    assert built == [0.01, 0.0037]
    assert set(state._inverses) == {(nu, 0.01), (nu, 0.0037)}


def test_hbar_two_formulas(grid64):
    # Hbar = d_y G must agree with (d_y U0 - H)/t for t >= 1
    prof = sin_quartic_profile(1.0 / 256.0)
    final = init_coordinates(prof, grid64, nu=0.0)
    for _ in range(150):
        final = step_coordinates(final, 0.01, 0.0, prof, grid64)
    alt = (prof.dy_u0(final.t, grid64.nodes) - final.H) / final.t
    assert np.max(np.abs(final.Hbar - alt)) < 1e-10


def test_degeneracy_error(grid64):
    huge = ShearProfile(
        "huge",
        lambda t, y: 5.0 * (1 - y * y) ** 2,
        lambda t, y: -20.0 * y * (1 - y * y),
    )
    with pytest.raises(CoordinateDegeneracyError):
        init_coordinates(huge, grid64, nu=0.0)


def test_degeneracy_raises():
    grid = ChannelGrid(32)
    steep = ShearProfile(
        "steep",
        lambda t, y: 2.0 * t * (1 - y * y) ** 2,
        lambda t, y: -8.0 * t * y * (1 - y * y),
    )
    st = init_coordinates(steep, grid, nu=0.0)
    with pytest.raises(CoordinateDegeneracyError):
        for _ in range(300):
            st = step_coordinates(st, 0.05, 0.0, steep, grid)


def test_monitor(grid64):
    prof = quartic_profile(1.0 / 256.0)
    st = init_coordinates(prof, grid64, nu=0.0)
    mon = monitor_assumptions(st, prof, grid64)
    assert all(v["ok"] for v in mon.values())
    prof_big = quartic_profile(1.0 / 32.0)
    st2 = init_coordinates(prof_big, grid64, nu=0.0)
    mon2 = monitor_assumptions(st2, prof_big, grid64)
    assert not mon2["v_minus_y_inf"]["ok"]  # flagged, not fatal


def test_apply_gamma_flat(grid64):
    flat = couette_state(grid64, 0.0)
    f = np.exp(1j * np.pi * grid64.nodes)
    out = gamma_ladder(grid64.d1, f, flat.v_y, 1, 0, flat.t)
    assert out[0] is f
    expected = 1j * np.pi * np.exp(1j * np.pi * grid64.nodes)
    assert np.max(np.abs(out[1] - expected)) < 1e-9


def test_apply_gamma_linearity(grid64, rng):
    flat = couette_state(grid64, 1.0)
    f = rng.normal(size=grid64.ny + 1) + 1j * rng.normal(size=grid64.ny + 1)
    g = rng.normal(size=grid64.ny + 1) + 1j * rng.normal(size=grid64.ny + 1)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j

    def gamma(h):
        return gamma_ladder(grid64.d1, h, flat.v_y, 1, 2, flat.t)[1]

    lhs = gamma(a * f + b * g)
    rhs = a * gamma(f) + b * gamma(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


@pytest.mark.parametrize("k", [None, 0, 3])
def test_gamma_ladder_matches_hand_loop(grid64, rng, k):
    # every folded loop computed (d1 @ f) / v_y + 1j k t f level by level
    # (dv-bar alone when k is None); the ladder must give the same bits
    prof = quartic_profile(1 / 256)
    coord = init_coordinates(prof, grid64, nu=0.0)
    for _ in range(5):
        coord = step_coordinates(coord, 0.05, 1e-3, prof, grid64)
    t = 0.7
    real = rng.normal(size=grid64.ny + 1)
    for f in (real, real + 1j * rng.normal(size=grid64.ny + 1)):
        ladder = gamma_ladder(grid64.d1, f, coord.v_y, 4, k, t)
        # the ladder casts d1 once; the oracle casts it in every product
        for level, cur in zip(ladder, cast_per_level_ladder(grid64.d1, f, coord.v_y, 4, k, t), strict=True):
            assert level.dtype == cur.dtype
            assert np.array_equal(level, cur)
    # flat v-grid form of the interior ladder: dv @ f + 1j k t f
    dv = grid64.d1 / 0.97
    cur = real.astype(complex)
    for level in gamma_ladder(dv, cur, 1.0, 4, 3, t):
        assert np.array_equal(level, cur)
        cur = dv @ cur + 1j * 3 * t * cur


def test_gamma_transport_invariance():
    # Gamma_k of the free-transport solution equals the transported derivative
    grid = ChannelGrid(160)
    k = 1
    g0 = np.exp(-8 * grid.nodes**2) * (1 - grid.nodes**2) ** 2
    norms0 = None
    for t in (0.0, 10.0, 30.0, 50.0):
        om = exact_transport(g0, k, t, grid)
        stack = build_gamma_stack(om, k, couette_state(grid, t), 4, grid, t=t)
        norms = [l2_norm(grid, stack.gamma_pows[n]) for n in range(5)]
        if norms0 is None:
            norms0 = norms
        else:
            drift = max(abs(a - b) / b for a, b in zip(norms, norms0))
            assert drift < 1e-8


def test_stack_structure(grid64, rng):
    flat = couette_state(grid64, 0.3)
    vals = np.exp(-6 * grid64.nodes**2) * (1 + 0.2j)
    stack = build_gamma_stack(vals, 3, flat, 3, grid64, t=0.3)
    assert np.array_equal(stack.entry(0, 0), vals)
    q = eval_q(grid64.nodes)
    expected = 3.0 * q * stack.gamma_pows[1]
    assert np.allclose(stack.entry(1, 1), expected)
    # q vanishes at the walls, so n >= 1 entries do too
    for n in (1, 2, 3):
        assert stack.entry(0, n)[0] == 0.0
        assert stack.entry(0, n)[-1] == 0.0
    with pytest.raises(KeyError):
        stack.entry(2, 2)


def test_stack_trust_flags(grid64):
    flat = couette_state(grid64, 0.0)
    smooth = np.exp(-3 * grid64.nodes**2).astype(complex)
    stack = build_gamma_stack(smooth, 1, flat, 2, grid64)
    assert stack.trusted(0) and stack.trusted(2)
    rough = np.sign(grid64.nodes).astype(complex)
    stack2 = build_gamma_stack(rough, 1, flat, 2, grid64)
    assert not stack2.trusted(1)


def test_stack_tails_match_per_row_dct():
    # one batched DCT per stack gives the per-level tails bit for bit
    grid = ChannelGrid(192, kmax=8)
    omega = default_initial_data(grid, 8).omega
    sheared = init_coordinates(quartic_profile(1 / 256), grid, nu=1e-4)
    for coord, t in ((couette_state(grid, 3.0), 3.0), (sheared, 0.7)):
        for k in (0, 1, 8):
            stack = build_gamma_stack(omega[k], k, coord, 6, grid, t=t)
            ref = [loop_spectral_tail(grid, g) for g in stack.gamma_pows]
            assert np.array_equal(stack.tails, ref)
    assert grid.spectral_tail(np.zeros(grid.ny + 1)) == 0.0
    assert np.array_equal(grid.spectral_tail(np.zeros((2, grid.ny + 1))), [0.0, 0.0])


def test_profile_registry():
    assert make_profile("zero").name == "zero"
    assert make_profile("quartic", 1 / 128).name == "quartic"
    with pytest.raises(ValueError):
        make_profile("nope")
    with pytest.raises(ValueError):
        quartic_profile(1.0)  # violates the closeness cap


def test_coordinate_csv(grid64):
    st = couette_state(grid64, 0.0)
    text = st.export_csv(grid64)
    assert text.splitlines()[0] == "y,v,v_y,G,H,Hbar"
    assert len(text.splitlines()) == grid64.ny + 2
