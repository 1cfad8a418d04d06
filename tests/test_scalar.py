import numpy as np
import pytest

from oracles import LoopScalarStepper

from couette_gevrey.coordinates import quartic_profile, zero_profile
from couette_gevrey.scalar import (
    InitialData,
    StabilityError,
    admissible_dt,
    default_dt,
    default_initial_data,
    exact_transport,
    gevrey_bump,
    initial_state,
    spline_initial_bump,
    step_scalar,
)
from couette_gevrey.spectral import ChannelGrid, ModeField, l2_norm


def exact_mms(grid, t, k=1):
    return np.exp(-t) * np.sin(np.pi * grid.nodes).astype(complex)


def mms_forcing(grid, nu, k=1):
    def forcing(t):
        om = exact_mms(grid, t, k)
        return {k: (-1.0 + 1j * k * grid.nodes + nu * (np.pi**2 + k * k)) * om}

    return forcing


def march(grid, nu, dt, t_end, k=1):
    st = initial_state(grid, nu, InitialData({k: ModeField(k, exact_mms(grid, 0.0, k))}))
    f = mms_forcing(grid, nu, k)
    while st.t < t_end - 1e-12:
        st = step_scalar(st, dt, forcing=f)
    return st


def test_initial_data_support(grid64):
    data = default_initial_data(grid64, 3)
    outside = np.abs(grid64.nodes) >= 0.25
    for f in data.omega_in.values():
        assert np.all(f.values[outside] == 0.0)
    bad = InitialData({1: ModeField(1, np.ones(grid64.ny + 1))})
    with pytest.raises(ValueError):
        bad.validate(grid64)


def test_both_bump_profiles(grid64):
    # the spline bump is the default datum; the C-infinity bump (the damping
    # data) is admissible initial data too
    data = default_initial_data(grid64, 2)
    assert np.array_equal(data.omega_in[1].values, spline_initial_bump(grid64.nodes) / 2.0)
    gevrey = InitialData({1: ModeField(1, gevrey_bump(grid64.nodes))}).validate(grid64)
    assert l2_norm(grid64, gevrey.omega_in[1]) > 0


def test_manufactured_solution_accuracy(grid64):
    nu = 1e-3
    st = march(grid64, nu, 1e-3, 1.0)
    err = np.max(np.abs(st.omega[1].values - exact_mms(grid64, st.t)))
    assert err < 1e-6


def test_dt_convergence_order(grid64):
    nu = 1e-3
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        st = march(grid64, nu, dt, 0.5)
        errs.append(np.max(np.abs(st.omega[1].values - exact_mms(grid64, st.t))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert abs(o - 2.0) < 0.2


def test_walls_exactly_zero(grid64):
    data = default_initial_data(grid64, 2)
    st = initial_state(grid64, 1e-3, data)
    for _ in range(10):
        st = step_scalar(st, 5e-3)
        for f in st.omega.values():
            assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_stability_guard(grid64):
    data = default_initial_data(grid64, 8)
    st = initial_state(grid64, 1e-3, data)
    with pytest.raises(StabilityError):
        step_scalar(st, 10 * admissible_dt(8))
    assert default_dt(8) <= admissible_dt(8)


def test_free_transport_exact(grid64):
    # nu = 0 keeps the discrete solution on the exact transport orbit
    data = default_initial_data(grid64, 3)
    st = initial_state(grid64, 0.0, data)
    dt = default_dt(3)
    n0 = {k: l2_norm(grid64, f) for k, f in st.omega.items()}
    for _ in range(400):
        st = step_scalar(st, dt)
    for k, f in st.omega.items():
        assert abs(l2_norm(grid64, f) - n0[k]) < 1e-9
        oracle = exact_transport(data.omega_in[k], k, st.t, grid64)
        assert np.max(np.abs(f.values - oracle.values)) < 1e-6


def test_exact_transport_props(grid64):
    f = ModeField(2, gevrey_bump(grid64.nodes).astype(complex))
    assert np.array_equal(exact_transport(f, 2, 0.0, grid64).values, f.values)
    f0 = ModeField(0, f.values)
    assert np.array_equal(exact_transport(f0, 0, 7.0, grid64).values, f.values)
    assert l2_norm(grid64, exact_transport(f, 2, 13.0, grid64)) == pytest.approx(
        l2_norm(grid64, f), rel=1e-14
    )


def test_energy_dissipation_identity(grid64):
    # d/dt ||w||^2 = -2 nu ||grad_k w||^2 within O(dt^2) per step
    nu, k, dt = 1e-2, 1, 1e-3
    vals = np.sin(np.pi * grid64.nodes) + 0.3 * np.sin(2 * np.pi * grid64.nodes)
    st = initial_state(grid64, nu, InitialData({k: ModeField(k, vals * 0.0)}))
    st.omega[k] = ModeField(k, vals.astype(complex))
    for _ in range(5):  # settle multistep history
        st = step_scalar(st, dt)
    before = l2_norm(grid64, st.omega[k]) ** 2
    st2 = step_scalar(st, dt)
    after = l2_norm(grid64, st2.omega[k]) ** 2
    mid = 0.5 * (st.omega[k].values + st2.omega[k].values)
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
    for k, f in st.omega.items():
        w = np.exp(eval_W(st.t, grid.nodes, nu, params))
        weight = 1.0 if k == 0 else 2.0
        total += weight * l2_norm(grid, f.values * w) ** 2
    assert np.sqrt(total) <= budget


def test_wall_second_derivative_decays(grid96):
    # smooth wall-compatible analytic data: the trace d_yy w(+-1) stays ~ 0
    nu = 1e-3
    vals = np.sin(np.pi * grid96.nodes) * (1 - grid96.nodes**2) ** 2
    st = initial_state(grid96, nu, InitialData({1: ModeField(1, vals.astype(complex))}))
    dt = default_dt(2)
    while st.t < 1.0:
        st = step_scalar(st, dt)
    dyy = grid96.d2 @ st.omega[1].values
    assert max(abs(dyy[0]), abs(dyy[-1])) < 1e-6


def test_zero_forcing_zero_state(grid64):
    st = initial_state(grid64, 1e-3, InitialData({1: ModeField(1, np.zeros(grid64.ny + 1))}))
    for _ in range(20):
        st = step_scalar(st, 1e-2)
    assert np.max(np.abs(st.omega[1].values)) == 0.0


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


def _oracle_cases(grid):
    data4 = default_initial_data(grid, 4).omega_in
    mms_modes = {k: ModeField(k, exact_mms(grid, 0.0, k)) for k in (0, 1, 2)}
    forced = {k: mms_forcing(grid, 1e-3, k) for k in (1, 2)}

    def forcing(t):
        return {k: f(t)[k] for k, f in forced.items()}

    return {
        "zero_profile": (data4, zero_profile(), None),
        "quartic_profile": (data4, quartic_profile(), None),
        "mms_forcing": (mms_modes, zero_profile(), forcing),
        "modes_1_3": ({k: data4[k] for k in (1, 3)}, zero_profile(), None),
    }


ORACLE_CASES = ["zero_profile", "quartic_profile", "mms_forcing", "modes_1_3"]


# the parity-split solve has a centre node for even ny and none for odd ny
@pytest.mark.parametrize("case,ny", [pytest.param(c, 96, id=c) for c in ORACLE_CASES]
                         + [pytest.param(c, 95, id=f"{c}-ny95") for c in ORACLE_CASES])
def test_batched_step_matches_per_mode_oracle(case, ny):
    grid = ChannelGrid(ny, kmax=8)
    omega, profile, forcing = _oracle_cases(grid)[case]
    nu = 1e-3
    st = initial_state(grid, nu, InitialData(omega))
    ref = LoopScalarStepper(grid, nu, omega)
    peak = max(np.max(np.abs(f.values)) for f in omega.values())
    for i in range(200):
        dt = 1e-2 if i < 100 else 8e-3  # the dt change reruns the restart step
        st = step_scalar(st, dt, profile, forcing)
        ref.step(dt, profile, forcing)
    assert st.t == pytest.approx(ref.t, abs=1e-14)
    assert st.modes() == sorted(ref.omega)
    worst = max(np.max(np.abs(st.omega[k].values - ref.omega[k])) for k in st.modes())
    assert worst <= 1e-12 * peak


def test_batched_step_noise_floor():
    # The trust flags read per-level spectral tails of q^n Gamma^n omega, and
    # six Gamma applications amplify white roundoff in omega.  A solver that
    # ends in a matrix product leaves such noise: an eigenbasis of the
    # interior D2 measured 19x the oracle's median tail here, and doubled the
    # untrusted c08 samples.  The parity-split LU solves keep the oracle's
    # floor (0.86x on the odd datum, 1.02x on the even one, which alone
    # reaches the even block).  The data are analytic, so the tails sit at
    # roundoff; the C^15 default bump carries a ~1e-11 physical tail at this
    # time, which would hide the noise.
    grid = ChannelGrid(192, kmax=8)
    nu = 1e-4
    y = grid.nodes
    odd = np.sin(np.pi * y) * np.exp(-16.0 * y * y)
    even = np.cos(np.pi * y) * (1.0 - y * y) * np.exp(-16.0 * y * y)
    for bump in (odd, even):
        data = InitialData({k: ModeField(k, bump / (1.0 + k * k)) for k in range(9)})
        st = initial_state(grid, nu, data)
        ref = LoopScalarStepper(grid, nu, data.omega_in)
        dt = default_dt(8)
        for _ in range(300):
            st = step_scalar(st, dt)
            ref.step(dt, zero_profile())
        batched = np.median([grid.spectral_tail(st.omega[k].values) for k in st.modes()])
        oracle = np.median([grid.spectral_tail(v) for v in ref.omega.values()])
        assert oracle < 1e-13  # the comparison is made at the roundoff floor
        assert batched <= 3.0 * oracle
