import numpy as np
import pytest

from oracles import LoopScalarStepper

from couette_gevrey import scalar
from couette_gevrey.coordinates import (ShearProfile, init_coordinates, quartic_profile, sin_quartic_profile,
                                        step_coordinates, zero_profile)
from couette_gevrey.scalar import (
    InitialData,
    StabilityError,
    admissible_dt,
    default_dt,
    default_initial_data,
    exact_transport,
    gevrey_bump,
    initial_state,
    spline_bump,
    step_scalar,
)
from couette_gevrey.harness import ExperimentConfig, run_single_nu
from couette_gevrey.identities import ManufacturedSetup
from couette_gevrey.spectral import ChannelGrid, l2_norm


def exact_mms(grid, t, k=1):
    return np.exp(-t) * np.sin(np.pi * grid.nodes).astype(complex)


def mms_row(grid, nu, t, k=1):
    """The forcing of mode k that makes ``exact_mms`` a solution."""
    return (-1.0 + 1j * k * grid.nodes + nu * (np.pi**2 + k * k)) * exact_mms(grid, t, k)


def mms_forcing(grid, nu, k=1):
    def forcing(t):
        return mms_row(grid, nu, t, k)[None, :]

    return forcing


def march(grid, nu, dt, t_end, k=1):
    st = initial_state(grid, nu, InitialData((k,), [exact_mms(grid, 0.0, k)]))
    f = mms_forcing(grid, nu, k)
    while st.t < t_end - 1e-12:
        st = step_scalar(st, dt, forcing=f)
    return st


def test_initial_data_support(grid64):
    data = default_initial_data(grid64, 3)
    outside = np.abs(grid64.nodes) >= 0.25
    for f in data.omega:
        assert np.all(f[outside] == 0.0)
    bad = InitialData((1,), [np.ones(grid64.ny + 1)])
    with pytest.raises(ValueError):
        bad.validate(grid64)


def test_both_bump_profiles(grid64):
    # the spline bump is the default datum; the C-infinity bump (the damping
    # data) is admissible initial data too
    data = default_initial_data(grid64, 2)
    assert np.array_equal(data.omega[1], spline_bump(grid64.nodes) / 2.0)
    gevrey = InitialData((1,), [gevrey_bump(grid64.nodes)]).validate(grid64)
    assert l2_norm(grid64, gevrey.omega[0]) > 0


def test_manufactured_solution_accuracy(grid64):
    nu = 1e-3
    st = march(grid64, nu, 1e-3, 1.0)
    err = np.max(np.abs(st.omega[0] - exact_mms(grid64, st.t)))
    assert err < 1e-6


def test_dt_convergence_order(grid64):
    nu = 1e-3
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        st = march(grid64, nu, dt, 0.5)
        errs.append(np.max(np.abs(st.omega[0] - exact_mms(grid64, st.t))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 2.0) < 0.2


def test_walls_exactly_zero(grid64):
    data = default_initial_data(grid64, 2)
    st = initial_state(grid64, 1e-3, data)
    for _ in range(10):
        st = step_scalar(st, 5e-3)
        for f in st.omega:
            assert f[0] == 0.0 and f[-1] == 0.0


def test_stability_guard(grid64):
    data = default_initial_data(grid64, 8)
    st = initial_state(grid64, 1e-3, data)
    with pytest.raises(StabilityError):
        step_scalar(st, 10 * admissible_dt(8))
    assert default_dt(8) <= admissible_dt(8)
    # a later step reuses the shear's advection factors and is still checked
    st = step_scalar(step_scalar(st, default_dt(8)), default_dt(8))
    with pytest.raises(StabilityError):
        step_scalar(st, 10 * admissible_dt(8))


def test_initial_state_rejects_nonpositive_nu(grid64):
    # every step treats diffusion implicitly, so free transport (nu = 0) has no step
    data = default_initial_data(grid64, 3)
    for nu in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="nu must be > 0"):
            initial_state(grid64, nu, data)


def test_exact_transport_props(grid64):
    f = gevrey_bump(grid64.nodes).astype(complex)
    assert np.array_equal(exact_transport(f, 2, 0.0, grid64), f)
    assert np.array_equal(exact_transport(f, 0, 7.0, grid64), f)
    assert l2_norm(grid64, exact_transport(f, 2, 13.0, grid64)) == pytest.approx(
        l2_norm(grid64, f), rel=1e-14
    )


def test_energy_dissipation_identity(grid64):
    # d/dt ||w||^2 = -2 nu ||grad_k w||^2 within O(dt^2) per step
    nu, k, dt = 1e-2, 1, 1e-3
    vals = np.sin(np.pi * grid64.nodes) + 0.3 * np.sin(2 * np.pi * grid64.nodes)
    st = initial_state(grid64, nu, InitialData((k,), [vals]))
    for _ in range(5):  # settle multistep history
        st = step_scalar(st, dt)
    before = l2_norm(grid64, st.omega[0]) ** 2
    st2 = step_scalar(st, dt)
    after = l2_norm(grid64, st2.omega[0]) ** 2
    mid = 0.5 * (st.omega[0] + st2.omega[0])
    grad_sq = (
        l2_norm(grid64, grid64.d1 @ mid) ** 2 + k * k * l2_norm(grid64, mid) ** 2
    )
    lhs = (after - before) / dt
    rhs = -2.0 * nu * grad_sq
    assert abs(lhs - rhs) < 2e-3 * max(abs(rhs), 1e-3)


def test_uniform_boundedness(grid64):
    for nu in (1e-2, 1e-3, 1e-4):
        data = default_initial_data(grid64, 4)
        st = initial_state(grid64, nu, data)
        n0 = st.total_l2()
        dt = default_dt(4)
        for _ in range(200):
            st = step_scalar(st, dt)
            assert st.total_l2() <= n0 + 1e-8


def test_support_spreading_budget():
    # || w e^W || stays below twice the initial mass out to nu^{-1/3}
    from couette_gevrey.weights import WeightParams, eval_W

    grid = ChannelGrid(128, kmax=2)
    params = WeightParams()
    nu = 1e-3
    data = default_initial_data(grid, 2)
    st = initial_state(grid, nu, data)
    dt = default_dt(2)
    t_final = nu ** (-1.0 / 3.0)
    budget = 2.0 * st.total_l2()
    while st.t < t_final:
        st = step_scalar(st, dt)
    total = 0.0
    for k, f in zip(st.ks, st.omega):
        w = np.exp(eval_W(st.t, grid.nodes, nu, params))
        weight = 1.0 if k == 0 else 2.0
        total += weight * l2_norm(grid, f * w) ** 2
    assert np.sqrt(total) <= budget


def test_wall_second_derivative_decays(grid96):
    # smooth wall-compatible analytic data: the trace d_yy w(+-1) stays ~ 0
    nu = 1e-3
    vals = np.sin(np.pi * grid96.nodes) * (1 - grid96.nodes**2) ** 2
    st = initial_state(grid96, nu, InitialData((1,), [vals.astype(complex)]))
    dt = default_dt(2)
    while st.t < 1.0:
        st = step_scalar(st, dt)
    dyy = grid96.d2 @ st.omega[0]
    assert max(abs(dyy[0]), abs(dyy[-1])) < 1e-6


def test_zero_forcing_zero_state(grid64):
    st = initial_state(grid64, 1e-3, InitialData((1,), [np.zeros(grid64.ny + 1)]))
    for _ in range(20):
        st = step_scalar(st, 1e-2)
    assert np.max(np.abs(st.omega[0])) == 0.0


def test_hermitian_symmetry_convention(grid64):
    # modes are stored for k >= 0; the -k partner is the conjugate, so the
    # total norm doubles the k > 0 weights
    data = default_initial_data(grid64, 2)
    st = initial_state(grid64, 1e-3, data)
    manual = np.sqrt(
        l2_norm(grid64, st.omega[0]) ** 2
        + 2 * l2_norm(grid64, st.omega[1]) ** 2
        + 2 * l2_norm(grid64, st.omega[2]) ** 2
    )
    assert st.total_l2() == pytest.approx(manual, rel=1e-14)


def test_sbdf2_amplification_margin():
    # the advection multiplier stability claim behind admissible_dt
    def growth(theta, steps=20000):
        z = -1j * theta
        u0, u1 = 1.0 + 0j, np.exp(z)
        for _ in range(steps):
            u0, u1 = u1, ((4 + 4 * z) * u1 - (1 + 2 * z) * u0) / 3.0
        return abs(u1) ** (1.0 / steps)

    assert growth(0.09) < 1.0 + 1e-4
    assert growth(0.2) > 1.0 + 5e-4


def mixed_profile():
    # an even plus an odd shear, |eps| 1/32 in total: the step's even-shear and
    # odd-shear advection terms both act
    even, odd = quartic_profile(1.0 / 64.0), sin_quartic_profile(1.0 / 64.0)
    return ShearProfile("mixed", lambda t, y: even.u0(t, y) + odd.u0(t, y),
                        lambda t, y: even.dy_u0(t, y) + odd.dy_u0(t, y))


def pulsing_profile():
    # U0 = (1 + sin(t)/2) times the quartic: the nodal shear changes every
    # step, so a step that reused stale advection factors would drift
    quartic = quartic_profile()
    return ShearProfile("pulsing", lambda t, y: (1.0 + 0.5 * np.sin(t)) * quartic.u0(t, y),
                        lambda t, y: (1.0 + 0.5 * np.sin(t)) * quartic.dy_u0(t, y))


def _oracle_cases(grid):
    data4 = default_initial_data(grid, 4)
    mms_ks = (0, 1, 2)
    mms_modes = [exact_mms(grid, 0.0, k) for k in mms_ks]

    def forcing(t):
        # modes 1 and 2 are forced, mode 0 is not
        return np.array([mms_row(grid, 1e-3, t, k) if k else np.zeros(grid.ny + 1) for k in mms_ks])

    return {
        "zero_profile": (data4.ks, data4.omega, zero_profile(), None),
        "quartic_profile": (data4.ks, data4.omega, quartic_profile(), None),
        "mixed_profile": (data4.ks, data4.omega, mixed_profile(), None),
        "pulsing_profile": (data4.ks, data4.omega, pulsing_profile(), None),
        "mms_forcing": (mms_ks, mms_modes, zero_profile(), forcing),
        "modes_1_3": ((1, 3), data4.omega[[1, 3]], zero_profile(), None),
    }


ORACLE_CASES = ["zero_profile", "quartic_profile", "mixed_profile", "pulsing_profile", "mms_forcing", "modes_1_3"]


# the parity-split solve has a centre node for even ny and none for odd ny
@pytest.mark.parametrize("case,ny", [pytest.param(c, 96, id=c) for c in ORACLE_CASES]
                         + [pytest.param(c, 95, id=f"{c}-ny95") for c in ORACLE_CASES])
def test_batched_step_matches_per_mode_oracle(case, ny):
    grid = ChannelGrid(ny, kmax=8)
    ks, omega, profile, forcing = _oracle_cases(grid)[case]
    nu = 1e-3
    st = initial_state(grid, nu, InitialData(ks, omega))
    ref = LoopScalarStepper(grid, nu, ks, omega)
    peak = max(np.max(np.abs(f)) for f in omega)
    for i in range(200):
        dt = 1e-2 if i < 100 else 8e-3  # the dt change reruns the restart step
        st = step_scalar(st, dt, profile, forcing)
        ref.step(dt, profile, forcing)
    assert st.t == pytest.approx(ref.t, abs=1e-14)
    assert st.restarts == 2
    assert list(st.ks) == sorted(ref.omega)
    worst = max(np.max(np.abs(f - ref.omega[k])) for k, f in zip(st.ks, st.omega))
    assert worst <= 1e-12 * peak


def test_batched_step_noise_floor():
    # The trust flags read per-level spectral tails of q^n Gamma^n omega, and
    # six Gamma applications amplify white roundoff in omega.  A solver that
    # ends in a matrix product leaves such noise: the plain eigenbasis
    # product x = V diag V^{-1} b of the interior D2 measured 19x the
    # oracle's median tail here, and doubled the untrusted c08 samples.  The
    # same product applied as one correction from the state stays under the
    # oracle's floor (0.091x on the odd datum, 0.068x on the even one, which
    # alone reaches the even block).  The data are analytic, so the tails sit at
    # roundoff; the C^15 default bump carries a ~1e-11 physical tail at this
    # time, which would hide the noise.
    grid = ChannelGrid(192, kmax=8)
    nu = 1e-4
    y = grid.nodes
    odd = np.sin(np.pi * y) * np.exp(-16.0 * y * y)
    even = np.cos(np.pi * y) * (1.0 - y * y) * np.exp(-16.0 * y * y)
    for bump in (odd, even):
        data = InitialData(range(9), [bump / (1.0 + k * k) for k in range(9)])
        st = initial_state(grid, nu, data)
        ref = LoopScalarStepper(grid, nu, data.ks, data.omega)
        dt = default_dt(8)
        for _ in range(300):
            st = step_scalar(st, dt)
            ref.step(dt, zero_profile())
        batched = np.median([grid.spectral_tail(f) for f in st.omega])
        oracle = np.median([grid.spectral_tail(v) for v in ref.omega.values()])
        assert oracle < 1e-13  # the comparison is made at the roundoff floor
        assert batched <= 3.0 * oracle


def test_steps_never_write_earlier_states(grid64):
    # a new state's SBDF2 history is the previous state's halves array itself,
    # so no step may write into an array it was given
    st0 = initial_state(grid64, 1e-3, default_initial_data(grid64, 2))
    before0 = st0.halves.copy()
    st1 = step_scalar(st0, 5e-3)
    before1 = st1.halves.copy()
    st2 = step_scalar(st1, 5e-3)
    assert st2._prev is st1.halves
    assert np.array_equal(st0.halves, before0) and np.array_equal(st1.halves, before1)
    assert not np.shares_memory(st0.halves, st1.halves)
    assert not np.shares_memory(st1.halves, st2.halves)
    # omega is unfolded once per state, and callers cannot write through it
    assert not st2.omega.flags.writeable
    assert st2.omega is st2.omega


def test_run_unfolds_once_per_sample(monkeypatch):
    # the step carries halves; only a sample reads the complex modes
    calls = []
    unfold = scalar._unfold

    def counting(halves, ny):
        calls.append(ny)
        return unfold(halves, ny)

    monkeypatch.setattr(scalar, "_unfold", counting)
    config = ExperimentConfig(ny=32, kmax=2, t_final_policy="absolute", t_final_value=1.0, truncation_m=2)
    out = run_single_nu(config, 1e-2)
    counters = out["timings"]["counters"]
    assert counters["steps"] > counters["samples"] == len(calls) == 5


def test_stability_checked_while_shear_grows(grid64):
    # U0 = t/4 grows past the advection margin mid-run; the step must raise
    # on the first step whose starting shear is past it, never reusing the
    # bound of an earlier U0
    growing = ShearProfile("growing", lambda t, y: 0.25 * t * np.ones_like(y), lambda t, y: np.zeros_like(y))
    st = initial_state(grid64, 1e-3, default_initial_data(grid64, 8))
    dt = default_dt(8)
    for steps in range(100):
        if dt * 8 * np.max(np.abs(grid64.nodes + growing.u0(st.t, grid64.nodes))) > scalar.THETA_ADV * (1.0 + 1e-9):
            break
        st = step_scalar(st, dt, growing)
    assert steps == 51 and st.t == pytest.approx(0.51)
    with pytest.raises(StabilityError):
        step_scalar(st, dt, growing)


@pytest.mark.parametrize("profile", [None, quartic_profile()], ids=["zero", "quartic"])
def test_advection_factors_built_once_for_steady_shear(grid64, monkeypatch, profile):
    # a steady U0 builds its advection factors on the first step only, even
    # when the zero profile is made afresh by every step
    builds = []
    build = scalar._advection_factors

    def counting(state, shear):
        builds.append(state.t)
        return build(state, shear)

    monkeypatch.setattr(scalar, "_advection_factors", counting)
    st = initial_state(grid64, 1e-3, default_initial_data(grid64, 4))
    for _ in range(200):
        st = step_scalar(st, default_dt(4), profile)
    assert builds == [0.0]


def test_sheared_manufactured_run_converges():
    # ManufacturedSetup's closed-form coordinate w = eps rho(t) (1 - y^2)^2
    # and scalar, with the U0 and forcing that make them exact, run through
    # the real step_scalar and step_coordinates to T = 1.  omega converges
    # at second order (errors 6.9e-5, 1.7e-5, 4.4e-6, 1.1e-6); w at first,
    # since the coordinate step takes nu t_{j+1} d2 w_{j+1} backward-Euler
    # (1.3e-5, 6.6e-6, 3.3e-6, 1.6e-6)
    grid = ChannelGrid(64)
    setup = ManufacturedSetup(grid, k=2, nu=1e-2)
    profile = ShearProfile("manufactured", lambda t, y: grid.interpolate(setup.u0(t), y).real,
                           lambda t, y: grid.interpolate(grid.d1 @ setup.u0(t), y).real)
    forcing = lambda t: setup.forcing(t)[None, :]
    omega_errs, w_errs = [], []
    for dt in (0.02, 0.01, 0.005, 0.0025):
        st = initial_state(grid, setup.nu, InitialData((setup.k,), [setup.omega(0.0)]))
        coord = init_coordinates(profile, grid, setup.nu)
        for _ in range(round(1.0 / dt)):
            st = step_scalar(st, dt, profile, forcing)
            coord = step_coordinates(coord, dt, setup.nu, profile, grid)
        assert st.t == pytest.approx(1.0) and coord.t == pytest.approx(1.0)
        omega_errs.append(np.max(np.abs(st.omega[0] - setup.omega(st.t))))
        w_errs.append(np.max(np.abs(coord.w - setup.w(coord.t))))
    assert all(np.log2(a / b) >= 1.9 for a, b in zip(omega_errs, omega_errs[1:]))
    assert all(np.log2(a / b) >= 0.95 for a, b in zip(w_errs, w_errs[1:]))
