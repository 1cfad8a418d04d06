import numpy as np
import pytest

from conftest import make_ctx, random_stack
from oracles import naive_ck, naive_dissipation, naive_energy, naive_icc, naive_sources

from couette_gevrey.coordinates import (
    build_gamma_stack,
    couette_state,
    init_coordinates,
    quartic_profile,
)
from couette_gevrey.functionals import (
    CK_KINDS,
    FAMILIES,
    EvalContext,
    d_switch_sides,
    eval_ck,
    eval_coord_functionals,
    eval_dissipation,
    eval_energy,
    eval_hypocoercivity,
    eval_icc,
    eval_sources,
    full_report,
    hermitian_mode_weight,
    in_index_set,
    truncation_tail,
)
from couette_gevrey.scalar import default_dt, default_initial_data, initial_state, spline_initial_bump, step_scalar
from couette_gevrey.spectral import ModeField
from couette_gevrey.weights import eval_q, eval_W

NU = 1e-3


def test_zero_field_all_zero(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    stack = build_gamma_stack(
        ModeField(1, np.zeros(grid64.ny + 1)), couette_state(grid64, 0.0), 3, grid64
    )
    for fam in ("gamma", "alpha", "mu"):
        assert eval_energy(stack, fam, ctx) == 0.0
        assert eval_dissipation(stack, fam, ctx) == 0.0
        for kind in ("phi", "lam", "W"):
            assert eval_ck(stack, fam, kind, ctx) == 0.0


def test_single_shell_energy(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.0)
    vals = spline_initial_bump(grid64.nodes).astype(complex)
    stack = build_gamma_stack(ModeField(1, vals), flat, 0, grid64)
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
        stack = build_gamma_stack(ModeField(2, vals), flat, M, grid64, t=0.4)
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


def test_sources_mismatch_rejected(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    a = random_stack(grid64, rng, M=3)
    b = random_stack(grid64, rng, M=4)
    with pytest.raises(ValueError):
        eval_sources(a, b, "gamma", ctx)


def test_hypocoercivity_consistency(grid64, params, cascade, rng):
    ctx = make_ctx(grid64, params, cascade, NU)
    stack = random_stack(grid64, rng)
    table = eval_hypocoercivity(stack, ctx)
    assert set(table.keys()) == {(m, n) for m in range(5) for n in range(5 - m)}
    # theta = 1 weights: the gamma component sums to the theta-free energy
    plain = WeightlessCtx = None
    from couette_gevrey.weights import WeightParams

    p1 = WeightParams(delta_drop=1.0, n_star=0)
    ctx1 = make_ctx(grid64, p1, cascade, NU)
    table1 = eval_hypocoercivity(stack, ctx1)
    total_gamma = sum(v["E_gamma"] for v in table1.values())
    assert total_gamma == pytest.approx(eval_energy(stack, "gamma", ctx1), rel=1e-12)
    for v in table.values():
        for key in ("E", "D", "CK_phi", "CK_W"):
            assert v[key] >= 0.0
    with pytest.raises(ValueError):
        eval_hypocoercivity(stack, ctx, c_alpha=0.6)


def test_icc_trivial_and_cancellation(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.0)
    f = ModeField(1, (spline_initial_bump(grid64.nodes) * np.sin(2 * grid64.nodes)).astype(complex))
    fld, ok = eval_icc(f, 0, 0, 0, 1, 1, "J", flat, ctx)
    assert ok
    stack = build_gamma_stack(f, flat, 2, grid64)
    direct = cascade.chi(2, grid64.nodes) * stack.entry(1, 1)
    assert np.max(np.abs(fld.values - direct)) < 1e-13 * max(np.max(np.abs(direct)), 1.0)
    # (1,0,0) with n >= 1: one q cancels, finite at the walls
    fld2, ok2 = eval_icc(f, 1, 0, 0, 0, 2, "S", flat, ctx)
    assert ok2 and np.all(np.isfinite(fld2.values))
    # outside the index set: zero field, flagged
    fld3, ok3 = eval_icc(f, 2, 1, 0, 0, 2, "S", flat, ctx)
    assert not ok3 and np.max(np.abs(fld3.values)) == 0.0
    assert in_index_set(0, 3, 0, 0)  # a = 0 always allowed
    assert not in_index_set(1, 1, 1, 2)


@pytest.mark.parametrize("variant", ["S", "J", "J0"])
def test_icc_oracle(grid64, params, cascade, rng, variant):
    ctx = make_ctx(grid64, params, cascade, NU)
    prof = quartic_profile(1 / 256)
    coord = init_coordinates(prof, grid64, nu=0.0)
    k = 0 if variant == "J0" else 2
    theta = np.arccos(np.clip(grid64.nodes, -1, 1))
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    f = ModeField(k, sum(c * np.cos(j * theta) for j, c in enumerate(coef)))
    for (a, b, c, m, n) in ((0, 0, 0, 1, 2), (1, 1, 0, 0, 3), (1, 0, 1, 2, 1), (2, 0, 0, 0, 2), (0, 2, 0, 0, 1)):
        if variant == "J0":
            m, c = 0, 0
        mine, ok1 = eval_icc(f, a, b, c, m, n, variant, coord, ctx, t=0.6)
        ref, ok2 = naive_icc(f, a, b, c, m, n, variant, coord, grid64, cascade, 0.6)
        assert ok1 == ok2
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(mine.values - ref)) < 1e-12 * scale


def test_coord_functionals_couette_zero(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 1.0)
    out = eval_coord_functionals(flat, ctx, "gamma", M=4)
    assert all(v == 0.0 for v in out.values())


def test_coord_functionals_single_term(grid64, params, cascade):
    # n = 0 term of E_H: theta_0^2 a_0^2 || H e^{W/2} chi_0 ||^2
    ctx = make_ctx(grid64, params, cascade, NU)
    prof = quartic_profile(1 / 256)
    coord = init_coordinates(prof, grid64, nu=0.0)
    out = eval_coord_functionals(coord, ctx, "gamma", M=0)
    tab = ctx.table
    w_half = np.exp(eval_W(0.0, grid64.nodes, NU, params))
    manual = (
        tab.theta(0) ** 2
        * tab.a(0, 0, 0.0) ** 2
        * float(np.real(grid64.integrate(np.abs(coord.H) ** 2 * w_half)))
    )
    assert out["E_H"] == pytest.approx(manual, rel=1e-12)
    # E_G n = 0 carries the <t>^(4 - 2 K_eps) bracket weight
    t = 2.0
    coord2 = init_coordinates(prof, grid64, nu=0.0)
    coord2 = type(coord2)(
        t=t, w=coord2.w, v=coord2.v, v_y=coord2.v_y, G=coord2.G, H=coord2.H, Hbar=coord2.Hbar
    )
    out2 = eval_coord_functionals(coord2, ctx, "gamma", M=0)
    bracket = np.sqrt(1 + t * t) ** (4.0 - 2.0 * params.K_eps)
    manual_g = (
        tab.theta(0) ** 2
        * bracket
        * float(np.real(grid64.integrate(np.abs(coord2.G) ** 2)))
    )
    assert out2["E_G"] == pytest.approx(manual_g, rel=1e-12)
    for fam in ("gamma", "alpha"):
        vals = eval_coord_functionals(coord2, ctx, fam, M=3)
        assert all(v >= 0.0 for v in vals.values())
    with pytest.raises(ValueError):
        eval_coord_functionals(coord2, ctx, "mu")


def test_truncation_tail_and_report(grid64, params, cascade):
    ctx = make_ctx(grid64, params, cascade, NU)
    flat = couette_state(grid64, 0.5)
    vals = spline_initial_bump(grid64.nodes).astype(complex)
    stacks = {
        0: build_gamma_stack(ModeField(0, vals), flat, 4, grid64, t=0.5),
        1: build_gamma_stack(ModeField(1, vals), flat, 4, grid64, t=0.5),
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
    stacks = {k: build_gamma_stack(state.omega[k], coord, 6, grid96, t=state.t) for k in state.modes()}
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


def test_d_switch_measured_constant(grid96, params, cascade):
    # moving chi inside the gradient is controlled by the dissipation shells
    ctx = make_ctx(grid96, params, cascade, NU)
    flat = couette_state(grid96, 0.7)
    vals = spline_initial_bump(grid96.nodes).astype(complex)
    stack = build_gamma_stack(ModeField(2, vals), flat, 4, grid96, t=0.7)
    lhs, rhs = d_switch_sides(stack, ctx)
    assert lhs >= 0.0 and rhs > 0.0
    assert lhs <= 10.0 * rhs  # measured comparison constant stays moderate


def test_noise_floor_behavior(grid64, params, cascade):
    ctx = EvalContext(grid64, params, cascade, nu=NU, floor_rel=1e-3, tail_multiplier=0.0)
    vals = np.ones(grid64.ny + 1)
    vals[: grid64.ny // 2] = 1e-6  # below the relative floor
    floored = ctx.floored(vals)
    assert np.all(floored[: grid64.ny // 2] == 0.0)
    assert np.all(floored[grid64.ny // 2:] == 1.0)
    # tail-calibrated floor dominates when the measured tail is larger
    assert ctx.floored(vals, tail=0.0).sum() == floored.sum()
