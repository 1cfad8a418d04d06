import math

import numpy as np
import pytest

from conftest import make_ctx, random_stack
from oracles import (
    loop_coord_functionals,
    naive_ck,
    naive_dissipation,
    naive_energy,
    naive_icc,
    naive_sources,
    per_row_norm_table,
    row_floored,
)

from couette_gevrey.coordinates import (
    build_gamma_stack,
    couette_state,
    init_coordinates,
    make_profile,
    quartic_profile,
    step_coordinates,
)
from couette_gevrey.functionals import (
    CK_KINDS,
    FAMILIES,
    EvalContext,
    eval_ck,
    eval_coord_functionals,
    eval_dissipation,
    eval_energy,
    eval_icc,
    eval_sources,
    full_report,
    in_index_set,
    norm_table,
    truncation_tail,
)
from couette_gevrey.scalar import default_dt, default_initial_data, initial_state, spline_bump, step_scalar
from couette_gevrey.spectral import ChannelGrid, hermitian_mode_weight
from couette_gevrey.weights import eval_q, eval_W

NU = 1e-3


def test_zero_field_all_zero(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    stack = build_gamma_stack(np.zeros(grid64.ny + 1), 1, couette_state(grid64, 0.0), 3, grid64)
    for fam in ("gamma", "alpha", "mu"):
        assert eval_energy(stack, fam, ctx) == 0.0
        assert eval_dissipation(stack, fam, ctx) == 0.0
        for kind in ("phi", "lam", "W"):
            assert eval_ck(stack, fam, kind, ctx) == 0.0


def test_single_shell_energy(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.0)
    vals = spline_bump(grid64.nodes).astype(complex)
    stack = build_gamma_stack(vals, 1, flat, 0, grid64)
    got = eval_energy(stack, "gamma", ctx)
    tab = ctx.table
    w = np.exp(2 * eval_W(0.0, grid64.nodes, NU, params))
    manual = (
        tab.theta(0) ** 2
        * tab.a(0, 0, 0.0) ** 2
        * float(np.real(grid64.integrate(np.abs(vals) ** 2 * w)))
    )
    assert got == pytest.approx(manual, rel=1e-14)


def test_energy_monotone_in_m(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.4)
    vals = (np.exp(-5 * grid64.nodes**2) * (1 + 0.4j)).astype(complex)
    prev = None
    for M in (0, 1, 2, 3):
        stack = build_gamma_stack(vals, 2, flat, M, grid64, t=0.4)
        e = eval_energy(stack, "gamma", ctx)
        if prev is not None:
            assert e >= prev - 1e-15
        prev = e


def test_nu_zero_dissipation(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, nu=0.0)
    stack = random_stack(grid64, rng)
    # W needs nu > 0; at nu = 0 the dissipation prefactor vanishes anyway
    with pytest.raises(ValueError):
        eval_dissipation(stack, "gamma", ctx)


def test_ck_w_zero_region(grid64, params, cascade):
    # with L_eps = 0 the weight -d_t W = W/(1+t) vanishes where W does
    ctx = make_ctx(grid64, params, cascade, NU)
    swt = ctx.sqrt_neg_wt(1.0)
    inner = np.abs(grid64.nodes) <= 0.25
    assert np.all(swt[inner] == 0.0)
    from couette_gevrey.weights import eval_W_derivatives

    wt, _, _ = eval_W_derivatives(1.0, grid64.nodes, NU, params)
    w = eval_W(1.0, grid64.nodes, NU, params)
    assert np.allclose(-wt, w / 2.0, rtol=1e-12)  # W/(1+t) at t = 1


@pytest.mark.parametrize("family", ["gamma", "alpha", "mu"])
def test_energy_oracle(grid64, params, cascade, rng, family):
    ctx = make_ctx(grid64, params, cascade, NU)
    for _ in range(6):
        stack = random_stack(grid64, rng, k=int(rng.integers(1, 5)), t=float(rng.uniform(0, 4)))
        mine = eval_energy(stack, family, ctx)
        ref = naive_energy(stack, family, params, cascade, NU)
        assert mine == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("family", ["gamma", "alpha", "mu"])
def test_dissipation_oracle(grid64, params, cascade, rng, family):
    ctx = make_ctx(grid64, params, cascade, NU)
    stack = random_stack(grid64, rng)
    assert eval_dissipation(stack, family, ctx) == pytest.approx(
        naive_dissipation(stack, family, params, cascade, NU), rel=1e-12
    )


@pytest.mark.parametrize("family", ["gamma", "alpha", "mu"])
@pytest.mark.parametrize("kind", ["phi", "lam", "W"])
def test_ck_oracle(grid64, params, cascade, rng, family, kind):
    ctx = make_ctx(grid64, params, cascade, NU)
    stack = random_stack(grid64, rng, t=1.3)
    assert eval_ck(stack, family, kind, ctx) == pytest.approx(
        naive_ck(stack, family, kind, params, cascade, NU), rel=1e-12, abs=1e-300
    )


def test_all_values_nonnegative(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    for _ in range(4):
        stack = random_stack(grid64, rng, t=float(rng.uniform(0, 10)))
        for fam in ("gamma", "alpha", "mu"):
            assert eval_energy(stack, fam, ctx) >= 0.0
            assert eval_dissipation(stack, fam, ctx) >= 0.0
            for kind in ("phi", "lam", "W"):
                assert eval_ck(stack, fam, kind, ctx) >= 0.0


def test_sources_collapse_and_oracle(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    st_om = random_stack(grid64, rng)
    st_f = random_stack(grid64, rng)
    for fam in ("gamma", "alpha", "mu"):
        mine = eval_sources(st_f, st_om, fam, ctx)
        assert mine == pytest.approx(naive_sources(st_f, st_om, fam, params, cascade, NU), rel=1e-12)
    # f = omega collapses to a positive energy-shaped pairing
    assert eval_sources(st_om, st_om, "gamma", ctx) > 0.0
    # purely imaginary multiple: Re<i f, f> type cancellation
    st_rot = random_stack(grid64, rng)
    st_rot.gamma_pows = [1j * g for g in st_om.gamma_pows]
    val = eval_sources(st_rot, st_om, "gamma", ctx)
    assert abs(val) < 1e-12 * max(eval_sources(st_om, st_om, "gamma", ctx), 1.0)
    # k = 0 keeps the m = 0 entries only; M = 0 is the single level n = 0
    for k, M in ((0, 4), (2, 0)):
        st_om = random_stack(grid64, rng, k=k, M=M)
        st_f = random_stack(grid64, rng, k=k, M=M)
        for fam in ("gamma", "alpha", "mu"):
            mine = eval_sources(st_f, st_om, fam, ctx)
            ref = naive_sources(st_f, st_om, fam, params, cascade, NU)
            assert mine == pytest.approx(ref, rel=1e-12), (k, M, fam)


def test_sources_mismatch_rejected(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    a = random_stack(grid64, rng, M=3)
    b = random_stack(grid64, rng, M=4)
    with pytest.raises(ValueError):
        eval_sources(a, b, "gamma", ctx)


def test_icc_trivial_and_cancellation(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.0)
    f = (spline_bump(grid64.nodes) * np.sin(2 * grid64.nodes)).astype(complex)
    fld, ok = eval_icc(f, 1, 0, 0, 0, 1, 1, "J", flat, ctx)
    assert ok
    stack = build_gamma_stack(f, 1, flat, 2, grid64)
    direct = cascade.chi(2, grid64.nodes) * (abs(stack.k) ** 1 * stack.q_pows[1] * stack.gamma_pows[1])
    assert np.max(np.abs(fld - direct)) < 1e-13 * max(np.max(np.abs(direct)), 1.0)
    # (1,0,0) with n >= 1: one q cancels, finite at the walls
    fld2, ok2 = eval_icc(f, 1, 1, 0, 0, 0, 2, "S", flat, ctx)
    assert ok2 and np.all(np.isfinite(fld2))
    # outside the index set: zero field, flagged
    fld3, ok3 = eval_icc(f, 1, 2, 1, 0, 0, 2, "S", flat, ctx)
    assert not ok3 and np.max(np.abs(fld3)) == 0.0
    assert in_index_set(0, 3, 0, 0)  # a = 0 always allowed
    assert not in_index_set(1, 1, 1, 2)


@pytest.mark.parametrize("variant", ["S", "J"])
def test_icc_oracle(grid64, params, cascade, rng, variant):
    ctx = make_ctx(grid64, params, cascade, NU)
    prof = quartic_profile(1 / 256)
    coord = init_coordinates(prof, grid64, nu=0.0)
    k = 2
    theta = np.arccos(np.clip(grid64.nodes, -1, 1))
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    f = sum(c * np.cos(j * theta) for j, c in enumerate(coef))
    for (a, b, c, m, n) in ((0, 0, 0, 1, 2), (1, 1, 0, 0, 3), (1, 0, 1, 2, 1), (2, 0, 0, 0, 2), (0, 2, 0, 0, 1)):
        mine, ok1 = eval_icc(f, k, a, b, c, m, n, variant, coord, ctx, t=0.6)
        ref, ok2 = naive_icc(f, k, a, b, c, m, n, variant, coord, grid64, cascade, 0.6)
        assert ok1 == ok2
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(mine - ref)) < 1e-12 * scale


def test_coord_functionals_couette_zero(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 1.0)
    out = eval_coord_functionals(flat, ctx, M=4)
    assert len(out) == 18 and all(v == 0.0 for v in out.values())


def test_coord_functionals_flat_shortcut(grid64, params, cascade):
    # flat coordinates skip the field stacks; the full evaluation gives the
    # same keys, in the same order, all +0.0
    ctx = make_ctx(grid64, params, cascade, NU)
    for t in (0.0, 3.0, 17.0):
        flat = couette_state(grid64, t)
        fast = eval_coord_functionals(flat, ctx, M=6)
        full = {f"{key}_{fam}": val for i_io, fam in enumerate(("gamma", "alpha"))
                for key, val in loop_coord_functionals(flat, ctx, i_io, 6).items()}
        assert list(fast) == list(full)
        for key, val in full.items():
            assert fast[key] == val == 0.0
            assert math.copysign(1.0, fast[key]) == math.copysign(1.0, val)


@pytest.mark.parametrize("ny", [64, 192])
def test_coord_functionals_match_loop_oracle(ny, params, cascade):
    # one floored table of d_y orders 0-2 per level gives both families'
    # values of the per-term loops, in the same key order
    grid = ChannelGrid(ny, kmax=2)
    for shear in ("quartic", "sin_quartic"):
        prof = make_profile(shear, 1 / 64)
        for nu in (1e-2, 1e-4):
            state = init_coordinates(prof, grid, nu)
            for _ in range(20):
                state = step_coordinates(state, 0.05, nu, prof, grid)
            for M in (0, 1, 3, 6):
                for floor in (0.0, 1e-8):
                    out = eval_coord_functionals(state, make_ctx(grid, params, cascade, nu, floor), M)
                    ref_ctx = make_ctx(grid, params, cascade, nu, floor)
                    ref = {f"{key}_{fam}": val for i_io, fam in enumerate(("gamma", "alpha"))
                           for key, val in loop_coord_functionals(state, ref_ctx, i_io, M).items()}
                    assert list(out) == list(ref)
                    for key, val in ref.items():
                        assert val > 0.0
                        assert abs(out[key] - val) <= 1e-12 * val, (shear, nu, M, floor, key)


def test_coord_functionals_single_term(grid64, params, cascade):
    # n = 0 term of E_H: theta_0^2 a_0^2 || H e^{W/2} chi_0 ||^2
    ctx = make_ctx(grid64, params, cascade, NU)
    prof = quartic_profile(1 / 256)
    coord = init_coordinates(prof, grid64, nu=0.0)
    out = eval_coord_functionals(coord, ctx, M=0)
    tab = ctx.table
    w_half = np.exp(eval_W(0.0, grid64.nodes, NU, params))
    manual = (
        tab.theta(0) ** 2
        * tab.a(0, 0, 0.0) ** 2
        * float(np.real(grid64.integrate(np.abs(coord.H) ** 2 * w_half)))
    )
    assert out["E_H_gamma"] == pytest.approx(manual, rel=1e-12)
    # E_G n = 0 carries the <t>^(4 - 2 K_eps) bracket weight
    t = 2.0
    coord2 = init_coordinates(prof, grid64, nu=0.0)
    coord2 = type(coord2)(
        t=t, w=coord2.w, v=coord2.v, v_y=coord2.v_y, G=coord2.G, H=coord2.H, Hbar=coord2.Hbar
    )
    out2 = eval_coord_functionals(coord2, ctx, M=0)
    bracket = np.sqrt(1 + t * t) ** (4.0 - 2.0 * params.K_eps)
    manual_g = (
        tab.theta(0) ** 2
        * bracket
        * float(np.real(grid64.integrate(np.abs(coord2.G) ** 2)))
    )
    assert out2["E_G_gamma"] == pytest.approx(manual_g, rel=1e-12)
    vals = eval_coord_functionals(coord2, ctx, M=3)
    assert len(vals) == 18 and all(v >= 0.0 for v in vals.values())


def test_truncation_tail_and_report(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.5)
    vals = spline_bump(grid64.nodes).astype(complex)
    stacks = {
        0: build_gamma_stack(vals, 0, flat, 4, grid64, t=0.5),
        1: build_gamma_stack(vals, 1, flat, 4, grid64, t=0.5),
    }
    rep = full_report(stacks, ctx, flat, coord_M=3)
    assert rep["E_gamma"] >= 0.0
    assert 0.0 <= rep["tail_E_gamma"] <= 1.0
    assert len(rep["shells_E_gamma"]) == 5
    assert "coord_E_H_gamma" in rep
    assert truncation_tail(np.array([1.0, 0.5, 0.01])) == pytest.approx(0.01 / 1.51)


def test_full_report_floored_oracle(grid96, params, cascade):
    # the floors real runs use: relative 1e-8 and ten times each level's tail
    nu, floor = 1e-4, (1e-8, 10.0)
    state = initial_state(grid96, nu, default_initial_data(grid96, 4))
    for _ in range(200):
        state = step_scalar(state, default_dt(4))
    coord = couette_state(grid96, state.t)
    stacks = {k: build_gamma_stack(f, k, coord, 6, grid96, t=state.t)
              for k, f in zip(state.ks, state.omega)}
    ctx = EvalContext(grid96, params, cascade, nu=nu, floor_rel=floor[0], tail_multiplier=floor[1])
    rep = full_report(stacks, ctx)
    unfloored = full_report(stacks, make_ctx(grid96, params, cascade, nu))

    def total(naive, *args):
        return sum(
            hermitian_mode_weight(k) * naive(st, *args, params, cascade, nu, floor=floor)
            for k, st in stacks.items()
        )

    floors_bite = False
    for fam in FAMILIES:
        e_fam = total(naive_energy, fam)
        refs = {f"E_{fam}": e_fam, f"D_{fam}": total(naive_dissipation, fam)}
        for kind in CK_KINDS:
            refs[f"CK_{fam}_{kind}"] = total(naive_ck, fam, kind)
        for key, ref in refs.items():
            tol = 1e-12 * abs(ref) + 1e-12 * e_fam
            assert abs(rep[key] - ref) <= tol, key
            floors_bite |= abs(unfloored[key] - ref) > tol
    assert floors_bite


def test_noise_floor_behavior(grid64, params, cascade):
    ctx = EvalContext(grid64, params, cascade, nu=NU, floor_rel=1e-3, tail_multiplier=0.0)
    vals = np.ones(grid64.ny + 1)
    vals[: grid64.ny // 2] = 1e-6  # below the relative floor
    floored = ctx.floor_rows(np.abs(vals))
    assert np.all(floored[: grid64.ny // 2] == 0.0)
    assert np.all(floored[grid64.ny // 2:] == 1.0)
    # tail-calibrated floor dominates when the measured tail is larger
    assert ctx.floor_rows(np.abs(vals), tails=0.0).sum() == floored.sum()


# (floor_rel, tail_multiplier, tails): no floor at all; the tails alone with
# floor_rel = 0; tail thresholds above floor_rel; floor_rel above them
FLOOR_CASES = [
    (0.0, 0.0, [1e-3] * 6),
    (0.0, 10.0, [0.0, 1e-6, 1e-4, 1e-3, 0.0, 2e-2]),
    (1e-8, 10.0, [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2]),
    (1e-3, 10.0, [0.0, 1e-12, 1e-9, 0.0, 1e-6, 1e-5]),
]


@pytest.mark.parametrize("floor_rel,mult,tails", FLOOR_CASES)
def test_floor_rows_matches_per_row_oracle(grid64, params, cascade, rng, floor_rel, mult, tails):
    # every row floored in one pass, each against its own peak and tail,
    # bit for bit as one row at a time; row 2 is all zero
    rows = (rng.normal(size=(6, grid64.ny + 1)) + 1j * rng.normal(size=(6, grid64.ny + 1))) \
        * np.exp(4.0 * rng.normal(size=(6, grid64.ny + 1)))
    rows[2] = 0.0
    ctx = EvalContext(grid64, params, cascade, nu=NU, floor_rel=floor_rel, tail_multiplier=mult)
    got = ctx.floor_rows(np.abs(rows), np.array(tails))
    pairs = [(r, row_floored(r, tl, floor_rel, mult)) for r, tl in zip(rows, tails)]
    assert np.array_equal(got, np.abs([f for _, f in pairs]))
    # the counter sees every point of every row the floor acts on
    assert ctx.floored_points == sum(np.count_nonzero(f == 0) for r, f in pairs if f is not r)
    assert (ctx.floored_points > 0) == (floor_rel > 0 or mult > 0)


@pytest.mark.parametrize("ny", [64, 65])
def test_norm_table_matches_per_row_floor(params, cascade, rng, ny):
    # a stepped stack whose floors bite, and a random one with a zero level
    grid = ChannelGrid(ny)
    state = initial_state(grid, 1e-4, default_initial_data(grid, 2))
    for _ in range(50):
        state = step_scalar(state, default_dt(2))
    stepped = build_gamma_stack(state.omega[2], 2, couette_state(grid, state.t), 6, grid, t=state.t)
    zero_level = random_stack(grid, rng)
    zero_level.gamma_pows[2] = np.zeros(ny + 1, dtype=complex)
    zero_level.tails = np.array([0.0, 1e-3, 0.0, 1e-12, 2e-2])
    for stack in (stepped, zero_level):
        for floor_rel, mult in ((1e-8, 10.0), (0.0, 10.0), (0.0, 0.0)):
            ctx = EvalContext(grid, params, cascade, nu=1e-4, floor_rel=floor_rel, tail_multiplier=mult)
            assert np.array_equal(norm_table(stack, ctx), per_row_norm_table(stack, ctx))
