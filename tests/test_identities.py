import warnings

import numpy as np
import pytest
from oracles import loop_check_combinatorics, loop_find_theta_params, loop_theta_worst_ratio

from couette_gevrey import identities as idn
from couette_gevrey.coordinates import build_gamma_stack, couette_state
from couette_gevrey.scalar import (
    default_dt,
    default_initial_data,
    initial_state,
    step_scalar,
)
from couette_gevrey.spectral import ChannelGrid


@pytest.fixture(scope="module")
def grid():
    return ChannelGrid(96)


@pytest.fixture(scope="module")
def setup(grid):
    return idn.ManufacturedSetup(grid, k=2, nu=1e-2, eps=1.0 / 64.0)


@pytest.fixture(scope="module")
def coord(setup):
    return setup.coord(1.0)


def test_ad_expansion_exact():
    rep = idn.check_ad_expansion(dim=4, n=5, trials=100)
    assert rep.pass_ and rep.max_abs_residual < 1e-12
    rep1 = idn.check_ad_expansion(dim=3, n=1, trials=5)
    assert rep1.max_abs_residual < 1e-15


def test_ad_expansion_hand_case():
    # nilpotent pair: both sides vanish identically at n = 2
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    a2 = a @ a
    lhs = a2 @ b - b @ a2
    rhs = idn._ad(a, b, 2) + 2 * idn._ad(a, b, 1) @ a
    assert np.allclose(lhs, np.zeros((2, 2)))
    assert np.allclose(lhs, rhs)


# every relation at n = 0..3, cm_pvv_q at its one power
COMMUTATOR_CASES = idn.commutator_cases(range(4))


@pytest.mark.parametrize("which", idn.COMMUTATOR_RELATIONS)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_commutator_relations(which, n, grid, coord):
    if (which, n) not in COMMUTATOR_CASES:
        # cm_pvv_q is stated for q itself; a report named _n{n} must check n
        with pytest.raises(ValueError):
            idn.check_commutator_relations(which, n, 2, coord, grid, t=1.0)
        return
    rep = idn.check_commutator_relations(which, n, 2, coord, grid, t=1.0)
    assert rep.pass_, f"{rep.name}: {rep.max_abs_residual:.3e}"


def test_identity_checks_raise_no_floating_point_warnings(grid, coord):
    # the printed right sides divide by q = 0 on the walls; those nodes are
    # masked and the division must stay silent
    stack = build_gamma_stack(idn.wall_flat_test_field(grid), 1, couette_state(grid, 1.0), 3, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for which, n in COMMUTATOR_CASES:
            idn.check_commutator_relations(which, n, 2, coord, grid, t=1.0)
        for n in (2, 3, 4):
            idn.check_upsilon_identity(n, grid)
        idn.check_boundary_lemma(stack, grid)


def test_walls_dropped_only_where_a_q_power_is_negative(grid, coord):
    # q^{n-2} at n = 1 (d_yy and dv-bar^2 against q^n) and q^{n-3} at n = 2
    # (Upsilon) are the only negative powers; every other check reads all nodes
    interior = {("cm_pyy_qn", 1), ("cm_pvv_qn", 1)}
    for which, n in COMMUTATOR_CASES:
        rep = idn.check_commutator_relations(which, n, 2, coord, grid, t=1.0)
        assert rep.samples == (grid.ny - 1 if (which, n) in interior else grid.ny + 1), rep.name
    for n in (2, 3, 4):
        rep = idn.check_upsilon_identity(n, grid)
        assert rep.samples == (grid.ny - 1 if n == 2 else grid.ny + 1), rep.name


def test_commutator_flat_q_structure(grid):
    # flat coordinates: [d_y, q^n] f = q'(n/q) q^n f exactly
    flat = couette_state(grid, 0.0)
    rep = idn.check_commutator_relations("cm_py_qn", 2, 0, flat, grid)
    assert rep.max_abs_residual <= 1e-10


def test_commutator_n0_trivial(grid, coord):
    for which in ("cm_py_Gn", "cm_pyy_Gn", "cm_py_qn", "cm_pvv_qn"):
        rep = idn.check_commutator_relations(which, 0, 2, coord, grid, t=1.0)
        assert rep.max_abs_residual < 1e-12


def test_upsilon_identity(grid):
    for n in (2, 3, 4):
        rep = idn.check_upsilon_identity(n, grid)
        assert rep.pass_, f"{rep.name}: {rep.max_abs_residual:.3e}"
        assert rep.details["ups1_check"] == 0.0  # Ups1 = -2 q' pointwise


def test_upsilon_requires_n2(grid):
    with pytest.raises(ValueError):
        idn.check_upsilon_identity(1, grid)


def test_mode_equation_residuals(setup):
    for m, n in ((0, 0), (1, 1), (0, 2), (2, 1)):
        rep = idn.check_mode_equation(setup, m, n, t=1.0, dt=1e-3)
        assert rep.pass_, f"{rep.name}: {rep.max_abs_residual:.3e}"
        assert rep.max_abs_residual < 1e-4


def test_mode_equation_couette_reduction(grid):
    # flat manufactured pair (eps = 0): only C_q is active for n >= 1
    setup0 = idn.ManufacturedSetup(grid, k=1, nu=1e-2, eps=0.0)
    parts = idn.mode_equation_rhs(setup0, 0, 1, 1.0)
    assert np.max(np.abs(parts["C_trans"])) == 0.0
    # summation-order ulps only: the coefficient dv-bar(v_y^2) is the
    # derivative of a constant up to rounding crumbs
    assert np.max(np.abs(parts["C_visc"])) < 1e-12 * np.max(np.abs(parts["F"]))
    assert np.max(np.abs(parts["C_q"])) > 0.0
    rep = idn.check_mode_equation(setup0, 0, 1, t=1.0, dt=1e-3)
    assert rep.pass_


def test_mode_equation_refinement_order(setup):
    res = [
        idn.check_mode_equation(setup, 1, 1, t=1.0, dt=dt).max_abs_residual
        for dt in (4e-3, 2e-3, 1e-3)
    ]
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 2.0) < 0.2


def test_c_q_collected_equals_commutator(grid):
    # C_q = -nu [d_yy, q^n] G pointwise, by exact jet differentiation
    nu, n = 1e-2, 3
    gj = idn.analytic_test_jet(grid.nodes, 2, freq=2.1, phase=0.2)
    from couette_gevrey.weights import jet_mul, jet_pow, q_jet

    qj = q_jet(grid.nodes, 2)
    prod = jet_mul(jet_pow(qj, n), gj)
    comm = prod[2] - qj[0] ** n * gj[2]
    lhs = idn.c_q_collected(grid, nu, n, gj[0].astype(complex))
    # replace the spectral d_y G inside c_q_collected by the exact one
    q, qp, qpp = qj
    exact = (
        -nu * n * (n - 1) * qp**2 * q ** (n - 2) * gj[0]
        - 2.0 * nu * n * qp * q ** (n - 1) * gj[1]
        - nu * n * qpp * q ** (n - 1) * gj[0]
    )
    assert np.max(np.abs(exact + nu * comm)) < 1e-13 * max(np.max(np.abs(exact)), 1.0)
    # and the spectral-derivative implementation agrees away from the walls
    inner = slice(4, -4)
    assert np.max(np.abs((lhs - exact)[inner])) < 1e-6 * max(np.max(np.abs(exact)), 1.0)


def test_faa_di_bruno(grid, coord):
    for n, j in ((4, 1), (8, 2), (16, 3), (12, 4), (2, 3)):
        rep = idn.check_faa_di_bruno(n, j, coord, grid)
        assert rep.pass_, f"{rep.name}: {rep.max_abs_residual:.3e}"


def test_faa_flat_j1_is_qprime(grid):
    # flat coordinates, j = 1: q~_{n,1} = q' for every n
    from couette_gevrey.weights import q_jet

    y = grid.nodes[1:-1]
    vy_jet = [np.ones_like(y)] + [np.zeros_like(y)] * 4
    for n in (1, 5, 40):
        qt = idn.q_tilde(n, 1, idn.dvbar_q_powers(1, y, vy_jet))
        assert np.max(np.abs(qt - q_jet(y, 1)[1])) < 1e-12


def test_faa_sup_bound_stable(grid, coord):
    rep = idn.check_faa_di_bruno(8, 2, coord, grid, n_sup_sweep=(8, 16, 32, 64, 128))
    sweep = rep.details["sup_q_tilde_sweep"]
    assert all(np.isfinite(v) for v in sweep.values())
    assert abs(sweep[128] / sweep[64] - 1.0) < 0.01


def test_faa_commutator(grid, coord):
    for n, j in ((4, 1), (6, 2), (8, 3), (2, 3)):
        rep = idn.check_faa_commutator(n, j, coord, grid)
        assert rep.pass_, f"{rep.name}: {rep.max_abs_residual:.3e}"


def test_boundary_lemma_on_solver_output():
    # analytic wall-compatible data keeps the discrete trace residual at the
    # level the lemma demands
    from couette_gevrey.scalar import InitialData

    grid = ChannelGrid(96, kmax=2)
    nu = 1e-3
    vals = np.sin(np.pi * grid.nodes) * (1 - grid.nodes**2) ** 2
    st = initial_state(grid, nu, InitialData((1, 2), [vals, 0.5 * vals]))
    dt = default_dt(2)
    while st.t < 1.0:
        st = step_scalar(st, dt)
    flat = couette_state(grid, st.t)
    stack = build_gamma_stack(st.omega[0], 1, flat, 3, grid, t=st.t)
    rep = idn.check_boundary_lemma(stack, grid)
    assert rep.pass_
    assert rep.max_abs_residual < 1e-8
    # the n = 1 wall value is reported and dominated by its stated bound shape
    assert any(key.startswith("n1_wall_value") for key in rep.details)


def test_boundary_lemma_zero_stack(grid64):
    flat = couette_state(grid64, 0.0)
    stack = build_gamma_stack(np.zeros(grid64.ny + 1), 1, flat, 2, grid64)
    rep = idn.check_boundary_lemma(stack, grid64)
    assert rep.max_abs_residual == 0.0


def test_combinatorics_prod():
    rep = idn.check_combinatorics("prod", n_max=500, zeta=1.0)
    assert rep.pass_
    assert rep.details["exact_n3_is_8_3"]
    rep2 = idn.check_combinatorics("prod2", n_max=500, zeta=1.0)
    assert rep2.pass_
    assert rep2.details["empirical_constant"] < 10.0


def test_combinatorics_sum_comb():
    for frak_c in (1.0, 2.0, 4.0):
        rep = idn.check_combinatorics("sum_comb", n_max=300, frak_c=frak_c)
        assert rep.pass_
        assert np.isfinite(rep.details["empirical_constant"])


def test_combinatorics_comb_boun():
    rep = idn.check_combinatorics("comb_boun", n_max=80)
    assert rep.pass_
    assert rep.details["worst_log_margin"] <= 1e-10


# every kind at the identity suite's parameters, quick and full
COMBINATORICS_CASES = (
    [(which, dict(n_max=n, zeta=zeta)) for which in ("prod", "prod2")
     for n in (200, 2000) for zeta in (0.5, 1.0, 2.0)]
    + [("sum_comb", dict(n_max=n, frak_c=c)) for n in (100, 500) for c in (1.0, 2.0, 4.0)]
    + [("comb_boun", dict(n_max=n)) for n in (60, 200)]
    # rows crossing the two-strip length (prod rows have n+1 terms, sum_comb
    # rows n, prod2 rows n-1), and exponents where the strips fall short of
    # the floor (0.1) or reach it deep inside the denormal range (3.0)
    + [(which, dict(n_max=n, zeta=zeta)) for which in ("prod", "prod2")
       for n in (255, 256, 257, 258) for zeta in (0.1, 1.0, 3.0)]
    + [(which, dict(n_max=2000, zeta=zeta)) for which in ("prod", "prod2") for zeta in (0.1, 3.0)]
    + [("sum_comb", dict(n_max=n, frak_c=2.0)) for n in (256, 257, 258)]
    # comb_boun's m = 0 face: the smallest triangles, the n-block edge, the
    # extreme weight parameters and a late time
    + [("comb_boun", dict(n_max=n)) for n in (5, 6, 7, 36, 37)]
    + [("comb_boun", dict(n_max=80, params=idn.WeightParams(s=s, sigma=sigma)))
       for s, sigma in ((1.2, 0.01), (3.0, 0.15))]
    + [("comb_boun", dict(n_max=60, t_samples=(0.0, 1.0, 100.0, 1e4)))]
    # rows crossing the current two-strip length
    + [(which, dict(n_max=n, zeta=zeta)) for which in ("prod", "prod2")
       for n in range(2 * idn._STRIP - 1, 2 * idn._STRIP + 3) for zeta in (0.1, 1.0, 3.0)]
    + [("sum_comb", dict(n_max=n, frak_c=2.0)) for n in range(2 * idn._STRIP - 1, 2 * idn._STRIP + 3)]
)


def _case_value(v):
    if isinstance(v, idn.WeightParams):
        return f"s{v.s}-sigma{v.sigma}"
    if isinstance(v, tuple):
        return f"t{v[-1]}"
    return f"{v}"


@pytest.mark.parametrize(
    "which, kwargs", COMBINATORICS_CASES,
    ids=[f"{w}-" + "-".join(_case_value(v) for v in kw.values()) for w, kw in COMBINATORICS_CASES],
)
def test_combinatorics_match_loop_oracle(which, kwargs):
    rep = idn.check_combinatorics(which, **kwargs)
    ref = loop_check_combinatorics(which, **kwargs)
    assert rep.name == ref.name
    assert rep.max_abs_residual == ref.max_abs_residual
    assert rep.samples == ref.samples
    assert rep.details == ref.details


@pytest.mark.parametrize("params", [idn.WeightParams(), idn.WeightParams(s=1.2, sigma=0.01),
                                    idn.WeightParams(s=3.0, sigma=0.15)], ids=_case_value)
def test_comb_boun_margin_peaks_on_the_m0_face(params):
    # the full (t, m, l) margin grid of every n, formed as a sweep over m
    # would form it: the maximum over m sits at m = 0, every value formed
    # stays below 2^13, and each float step from m to m + 1 drops by far
    # more than the docstring's rounding bound 4e-11
    n_max, s = 80, params.s
    tab = idn.GevreyCoeffTable(params)
    ts = (0.0, 0.3, 0.7, 1.5, 3.0, 7.0, 15.0, 40.0, 120.0, 400.0)
    lg = idn.log_factorial(np.arange(n_max + 2))
    log_jap, log_phi, log_lam = np.array(
        [(-0.5 * np.log1p(t * t), np.log(tab.phi(t)), np.log(tab.lam(t))) for t in ts]
    ).T[:, :, None, None]
    s_lam = s * (np.arange(n_max + 1) * log_lam[:, :, 0] - lg[: n_max + 1])
    smallest_gap, largest = np.inf, np.abs(s_lam).max()
    for n in range(5, n_max + 1):
        ll = np.arange(0, n // 2 + 1)
        mm = np.arange(0, n_max - n + 1)[:, None]
        log_a_mn = s_lam[:, mm + n] + (1 + n) * log_phi
        log_a_ml = s_lam[:, mm + ll] + (1 + ll) * log_phi
        log_a_0nl = s_lam[:, None, n - ll] + (1 + n - ll) * log_phi
        partial = [log_jap + log_a_mn]
        partial.append(partial[-1] + (lg[n] - lg[ll] - lg[n - ll]))
        partial.append(partial[-1] - log_a_ml)
        partial.append(partial[-1] - log_a_0nl)
        margin = partial[-1] - ll * (s - 1.0) * np.log(0.5)
        largest = max(largest, *(np.abs(x).max() for x in (log_a_mn, log_a_ml, log_a_0nl, *partial, margin)))
        assert (margin.argmax(axis=1) == 0).all()
        if len(mm) > 1:
            smallest_gap = min(smallest_gap, float(np.min(margin[:, :-1] - margin[:, 1:])))
    assert largest < 2.0**13
    assert smallest_gap > 1e6 * 4e-11


def test_exact_max_resums_rows_within_the_band():
    # rows 2 and 3 lie within the band of each other on their rough sums;
    # their exact sums decide, although row 3's rough sum is the smaller
    rough = np.array([1.0, 2.0, 2.0 * (1 - 4e-13), 1.5])
    exact = {1: 1.0, 2: 2.0 * (1 - 1e-13), 3: 2.0, 4: 1.5}
    assert idn._exact_max(rough, np.arange(1, 5), exact.__getitem__) == 2.0
    # a row outside the band is never summed
    assert idn._exact_max(np.array([1.0, 2.0]), np.arange(1, 3), {2: 7.0}.__getitem__) == 7.0


@pytest.mark.parametrize("zeta, full_rows", [(0.1, set(range(2 * idn._STRIP, 2001))), (1.0, set())])
def test_screened_maxima_sum_long_rows_in_full_only_where_strips_fall_short(zeta, full_rows):
    # prod's rows: 0.1 log binom(2000, 64) < 60, so at zeta = 0.1 no strip
    # reaches e^-60 and every long row is summed in full; at zeta = 1 only
    # the candidates of the two maxima are
    lg = idn.log_factorial(np.arange(2002))
    summed = []

    def inv_binom(n, l):
        if np.ndim(l) == 1:  # a whole row, summed as the loop sums it
            summed.append(n)
        return -zeta * (lg[n] - lg[l] - lg[n - l])

    peak, late = idn._screened_maxima(np.arange(1, 2001), 0, 0, inv_binom)
    assert full_rows <= set(summed)
    if not full_rows:
        assert len(summed) <= 4
    ref = [np.exp(-zeta * (lg[n] - lg[: n + 1] - lg[n::-1])).sum() for n in range(1, 2001)]
    assert (peak, late) == (max(ref), max(ref[1800:]))


def test_theta_search_verifies():
    out = idn.find_theta_params(256.0)
    assert out["verified"]
    assert out["coefficient_ratio"] <= 1.0 / 256.0
    assert out["measured_ratio"] <= 1.0 / 256.0


def test_theta_search_zero_array_trivial():
    # the inequality is trivially true on the zero array for any parameters
    ratio = idn.theta_inequality_worst_ratio(0.5, 4, 0.04, 0.05, n_max=40)
    assert np.isfinite(ratio) and ratio > 0.0


def test_theta_search_monotone_in_lambda():
    # smaller radius needs a smaller shell count (not-found counts as inf)
    needed = []
    for lam in (0.5, 0.25, 0.125):
        out = idn.find_theta_params(64.0, lambda_s=lam**1.5, trials=5, n_max=60)
        needed.append(out["n_star"] if out["verified"] else np.inf)
    assert needed[0] >= needed[1] >= needed[2]


def test_theta_search_failure_reports_tightest():
    out = idn.find_theta_params(1e6, lambda_s=0.4, trials=2, n_max=40)
    assert not out["verified"]
    assert out["tightest_ratio"] > out["target"]


@pytest.mark.parametrize(
    "delta, n_star, sigma, lambda_s, frak_c, n_max",
    [
        (1.0, 0, 0.04, 0.125**1.5, 1.0, 120),
        (0.5, 4, 0.04, 0.05, 1.0, 40),
        (1.0 / 32.0, 40, 0.04, 0.4, 1.0, 40),
        (0.125, 3, 0.1, 0.3, 2.0, 200),
    ],
)
def test_theta_table_matches_loop_oracle(delta, n_star, sigma, lambda_s, frak_c, n_max):
    ratio = idn.theta_inequality_worst_ratio(delta, n_star, sigma, lambda_s, frak_c, n_max)
    ref = loop_theta_worst_ratio(delta, n_star, sigma, lambda_s, frak_c, n_max)
    assert ratio == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(b_target=256.0, trials=2, n_max=60),
        dict(b_target=64.0, lambda_s=0.25**1.5, trials=2, n_max=60, seed=7),
        dict(b_target=1e6, lambda_s=0.4, trials=2, n_max=12),
    ],
)
def test_theta_params_match_loop_oracle(kwargs):
    out = idn.find_theta_params(**kwargs)
    ref = loop_find_theta_params(**kwargs)
    assert set(out) == set(ref)
    for key, val in ref.items():
        if isinstance(val, float):
            assert out[key] == pytest.approx(val, rel=1e-12), key
        else:
            assert out[key] == val, key


def test_report_json_roundtrip():
    rep = idn.check_ad_expansion(trials=3)
    js = rep.to_json()
    assert js["pass"] is True
    assert set(js) >= {"name", "max_abs_residual", "samples", "tolerance", "pass"}


def test_determinism():
    a = idn.check_ad_expansion(trials=10, seed=7).max_abs_residual
    b = idn.check_ad_expansion(trials=10, seed=7).max_abs_residual
    assert a == b
