"""Label flows, the symplectic pipeline, and the action functional."""

import math
import re
from functools import partial

import numpy as np
import pytest

from cohk import dynamics
from cohk.core import CoherentSpace, DegenerateFormError, DomainError
from cohk.catalog import DeBrangesSpace, KlauderSpace, fd_LR, make_space, space_names
from cohk.cli import _quadratic_energy, _quadratic_energy_dH
from cohk.dynamics import (
    HamiltonianSpec,
    Trajectory,
    _flow_points,
    _form_eigh,
    _grad,
    _mixed_matrix,
    _rk4_step,
    autocorrelation,
    df_action,
    el_integrate,
    flow_exact,
    hamiltonian_vector_field,
    oscillator_field,
    poisson_bracket,
    propagate_ode,
    symplectic_matrix,
)
from cohk.fock import OscGenerator, klauder_kernel

SEED = 0xC0FFEE


def _number_op(n=1):
    return OscGenerator(0.0, np.zeros(n), np.zeros(n), np.eye(n))


def _harmonic_ham():
    return HamiltonianSpec(gen=_number_op())


def _overflowing_ham():
    """Growth e^{512 t}: RK4 at dt = 1/64 overflows after about 125 steps."""
    return HamiltonianSpec(gen=OscGenerator(0.0, np.zeros(1), np.zeros(1), np.array([[512j]])))


Z0 = np.array([-0.5, 1.0], dtype=complex)


def quadratic_H(z):
    """<z|N|z> without normalization; its EL flow is the exact N flow."""
    z = np.asarray(z, dtype=complex)
    k = math.exp(2.0 * z[0].real + abs(z[1]) ** 2)
    return k * abs(z[1]) ** 2


# ---------------------------------------------------------------------------
# exact flows


def test_flow_exact_harmonic_rotates_the_mode():
    psi = flow_exact(_number_op(), 0.7, Z0)
    assert psi[0] == pytest.approx(Z0[0])
    assert psi[1] == pytest.approx(np.exp(-0.7j) * Z0[1], rel=1e-13)


def test_flow_exact_constant_generator_shifts_z0():
    gen = OscGenerator(0.4 - 0.2j, np.zeros(1), np.zeros(1), np.zeros((1, 1)))
    psi = flow_exact(gen, 2.0, Z0)
    assert psi[0] == pytest.approx(Z0[0] - 2.0j * (0.4 - 0.2j))
    assert psi[1] == pytest.approx(Z0[1])


def test_flow_exact_pure_drive_translates_the_mode():
    q = np.array([0.3 + 0.5j])
    gen = OscGenerator(0.0, np.zeros(1), q, np.zeros((1, 1)))
    psi = flow_exact(gen, 1.5, Z0)
    assert psi[1] == pytest.approx(Z0[1] - 1.5j * q[0])


def test_flow_exact_hbar_rescales_time():
    rng = np.random.default_rng(SEED)
    gen = OscGenerator(0.1, rng.normal(size=2) + 0j, rng.normal(size=2) + 0j,
                       rng.normal(size=(2, 2)) + 0j)
    z = 0.4 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    a = flow_exact(gen, 1.3, z, hbar=2.0)
    b = flow_exact(gen, 0.65, z, hbar=1.0)
    assert a == pytest.approx(b)


def _random_generator(rng, n):
    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return OscGenerator(complex(c()), c(n), c(n), c(n, n))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_stacked_flow_exact_is_the_per_case_flow(n, hbar):
    rng = np.random.default_rng(SEED)
    gen = _random_generator(rng, n)
    t = rng.uniform(-3.0, 3.0, size=50)
    z = 0.5 * (rng.normal(size=(50, n + 1)) + 1j * rng.normal(size=(50, n + 1)))
    flows = flow_exact(gen, t, z, hbar)
    assert flows.shape == z.shape and flows.dtype == complex
    for i in range(50):
        assert flow_exact(gen, t[i], z[i], hbar).tobytes() == flows[i].tobytes()
    # one label broadcast over a stack of times
    assert flow_exact(gen, t.reshape(5, 10), z[0], hbar).tobytes() == \
        np.stack([flow_exact(gen, tk, z[0], hbar) for tk in t]).tobytes()
    # one time over the label stack: one exponential, broadcast
    one = flow_exact(gen, t[0], z, hbar)
    assert one.shape == z.shape
    for i in range(50):
        assert flow_exact(gen, t[0], z[i], hbar).tobytes() == one[i].tobytes()
    # times (3, 1) against labels (50,) give flows (3, 50)
    grid = flow_exact(gen, t[:3, None], z, hbar)
    assert grid.shape == (3, 50, n + 1)
    for j in range(3):
        assert flow_exact(gen, t[j], z, hbar).tobytes() == grid[j].tobytes()


def test_stacked_flow_exact_splits_only_the_overflowing_case():
    # growth e^{512 t}: at t = 1.5 the block exponential overflows, and its
    # two halves do not
    gen = _overflowing_ham().gen
    t = np.array([0.25, 1.5, -0.5, 1.0])
    z = np.array([[0.1, 1.0], [-0.5, 1e-100], [0.3j, 0.5], [0.0, 1e-200]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        flows = flow_exact(gen, t, z)
        for i in range(len(t)):
            assert flow_exact(gen, t[i], z[i]).tobytes() == flows[i].tobytes()
        # every time against the two labels that stay finite at t = 1.5
        grid = flow_exact(gen, t[:, None], z[[1, 3]])
        for i in range(len(t)):
            for j, k in enumerate([1, 3]):
                assert flow_exact(gen, t[i], z[k]).tobytes() == grid[i, j].tobytes()
    assert np.isfinite(flows).all()
    assert flows[1, 0] == z[1, 0]
    assert flows[1, 1] == pytest.approx(1e-100 * math.exp(384.0) * math.exp(384.0), rel=1e-12)


def test_stacked_flow_exact_raises_when_a_case_overflows_after_40_splits():
    # growth e^{1e300 t}: still overflows at t / 2^40 for t = 1, while
    # t <= 0 gives finite exponentials
    gen = OscGenerator(0.0, np.zeros(1), np.zeros(1), np.array([[1e300j]]))
    t = np.array([0.0, -1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(flow_exact(gen, t[:2], np.tile(Z0, (2, 1)))).all()
        with pytest.raises(DomainError, match="t=1 even after step splitting"):
            flow_exact(gen, t, np.tile(Z0, (3, 1)))


def test_flow_exact_raises_once_a_split_half_overflows_the_label():
    # growth e^{1e9 t}: the exponential overflows until t / 2^21, and the
    # label overflows on the way; the first overflowing half ends the flow
    gen = OscGenerator(0.0, np.zeros(1), np.zeros(1), np.array([[1e9j]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match=r"overflows at t=1$"):
            flow_exact(gen, np.array([0.5, 1.0]), Z0)


def test_oscillator_field_is_the_flow_derivative():
    rng = np.random.default_rng(SEED)
    gen = OscGenerator(0.2 + 0.1j, rng.normal(size=2) + 0j,
                       rng.normal(size=2) + 0j, rng.normal(size=(2, 2)) + 0j)
    z = 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
    h = 1e-6
    fd = (flow_exact(gen, h, z) - flow_exact(gen, -h, z)) / (2.0 * h)
    assert oscillator_field(gen)(0.0, z) == pytest.approx(fd, rel=1e-7, abs=1e-9)


# ---------------------------------------------------------------------------
# RK4 propagation


def test_propagate_matches_exact_flow():
    space = make_space("klauder")
    traj = propagate_ode(space, _harmonic_ham(), Z0, 1.0, 0.01)
    exact = flow_exact(_number_op(), 1.0, Z0)
    assert np.abs(traj.points[-1] - exact).max() < 1e-6
    assert traj.times[-1] == pytest.approx(1.0)


def test_propagate_fourth_order_convergence():
    space = make_space("klauder")
    exact = flow_exact(_number_op(), 1.0, Z0)
    errs = []
    for dt in (0.04, 0.02):
        traj = propagate_ode(space, _harmonic_ham(), Z0, 1.0, dt)
        errs.append(np.abs(traj.points[-1] - exact).max())
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order > 3.8


def test_norm_conserved_for_self_adjoint_drive():
    p = np.array([0.2 + 0.1j])
    gen = OscGenerator(0.3, p, p, np.eye(1))
    assert gen.adjoint().p == pytest.approx(gen.p)
    space = make_space("klauder")
    traj = propagate_ode(space, HamiltonianSpec(gen=gen), Z0, 4.0, 1e-3)
    norms = [abs(klauder_kernel(pt, pt)) for pt in traj.points[:: 400]]
    ref = abs(klauder_kernel(Z0, Z0))
    assert max(abs(n - ref) for n in norms) <= 1e-8 * ref


def _assert_one_owned_array(traj):
    # a view would keep the whole preallocated step buffer alive behind a
    # truncated trajectory
    assert isinstance(traj.points, np.ndarray)
    assert len(traj.points) == len(traj.times)
    assert traj.points.base is None
    assert not np.shares_memory(traj.points, traj.times)


@pytest.mark.parametrize("ham, t_end, dt, steps", [
    (_harmonic_ham(), 0.05, 1e-2, 5),
    (HamiltonianSpec(H=quadratic_H), 0.05, 1e-2, 5),
    (_overflowing_ham(), 4.0, 1.0 / 64, None),
], ids=["oscillator", "classical", "aborted"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_trajectory_points_own_their_data(ham, t_end, dt, steps):
    traj = propagate_ode(make_space("klauder", dim=1), ham, Z0, t_end, dt)
    _assert_one_owned_array(traj)
    assert traj.points.shape[1:] == Z0.shape
    if steps is None:
        assert traj.meta["aborted"] and 2 < len(traj) < round(t_end / dt)
    else:
        assert len(traj) == steps + 1


def test_autocorrelation_harmonic_closed_form():
    space = make_space("klauder")
    traj = propagate_ode(space, _harmonic_ham(), Z0, 3.0, 1e-3)
    series = autocorrelation(space, Z0, traj)
    t = series.times
    exact = np.exp(-1.0) * np.exp(np.exp(-1j * t))
    assert np.abs(series.values - exact).max() < 1e-10
    assert series.z == pytest.approx(Z0)


def _assert_aborted_cleanly(traj, t_last, reason):
    assert traj.meta["aborted"]
    assert reason in traj.meta["reason"]
    assert 0.0 < traj.times[-1] <= t_last
    assert np.all(np.isfinite(traj.points.view(float)))
    _assert_one_owned_array(traj)


def test_propagate_aborts_cleanly_on_domain_error():
    space = make_space("klauder")

    def field(t, z):
        if t > 0.5:
            raise DomainError("left the chart")
        return np.array([0.0, -1j * z[1]])

    traj = propagate_ode(space, HamiltonianSpec(F=field), Z0, 2.0, 0.01)
    _assert_aborted_cleanly(traj, 0.52, "left the chart")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagate_aborts_cleanly_on_oscillator_overflow():
    traj = propagate_ode(make_space("klauder"), _overflowing_ham(), Z0, 4.0, 1.0 / 64)
    _assert_aborted_cleanly(traj, 2.5, "non-finite")


def test_propagate_steps_a_scalar_label_field():
    # z' = -i z on the disk: the label rotates, z(t) = z0 e^{-it}
    z0 = 0.5 + 0.1j
    ham = HamiltonianSpec(F=lambda t, z: -1j * z)
    traj = propagate_ode(make_space("szego"), ham, z0, 1.0, 0.01)
    _assert_one_owned_array(traj)
    assert traj.points.shape == (101,) and traj.points.dtype == complex
    assert abs(traj.points[-1] - z0 * np.exp(-1j)) < 1e-9


def test_complex_velocity_on_a_real_chart_aborts_the_first_step():
    ham = HamiltonianSpec(F=lambda t, z: -1j * z)
    traj = propagate_ode(make_space("euclidean"), ham, [0.3, -0.4], 1.0, 0.01)
    assert traj.meta["aborted"] and len(traj) == 1
    assert "expected a real vector of length 2" in traj.meta["reason"]


def test_hamiltonian_spec_wants_exactly_one_generator():
    with pytest.raises(DomainError):
        HamiltonianSpec(gen=_number_op(), H=quadratic_H)
    with pytest.raises(DomainError):
        HamiltonianSpec()
    with pytest.raises(DomainError):
        HamiltonianSpec(gen=_number_op(), hbar=0.0)


def test_a_dH_needs_its_H():
    dH = _quadratic_energy_dH(make_space("klauder"))
    for other in ({"gen": _number_op()}, {"F": lambda t, z: -1j * z}):
        with pytest.raises(DomainError, match="give H with it"):
            HamiltonianSpec(dH=dH, **other)
    with pytest.raises(DomainError):
        HamiltonianSpec(dH=dH)


# ---------------------------------------------------------------------------
# symplectic structure


def test_symplectic_matrix_klauder_hand_value():
    space = make_space("klauder")
    A = symplectic_matrix(space, Z0)
    expect = 2.0 * np.array([
        [0.0, 1.0, 0.0, 1.0],
        [-1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 2.0],
        [-1.0, 0.0, -2.0, 0.0],
    ])
    assert A == pytest.approx(expect, rel=1e-6)
    assert A == pytest.approx(-A.T)


def test_symplectic_matrix_rejects_real_charts():
    for name in ("euclidean", "reciprocal"):
        space = make_space(name)
        rng = np.random.default_rng(SEED)
        with pytest.raises(DegenerateFormError):
            symplectic_matrix(space, space.sample_point(rng))


_ENTRY_POINTS = {
    "field": lambda space, z: hamiltonian_vector_field(space, _smooth_H, z),
    "bracket": lambda space, z: poisson_bracket(space, _smooth_H, np.real, z),
    "symplectic": symplectic_matrix,
}


_NOT_KLAUDER = "expected [z0, zhat] as a complex vector of length 2"


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("name, z, message", [
    ("schur", 1.2, "schur points lie in the open unit disk"),
    ("klauder", np.array([0.1, 0.2, 0.3j]), _NOT_KLAUDER),
    ("klauder", [0.1, 0.2, 0.3j], _NOT_KLAUDER),
    ("klauder", [np.nan, 0.2], "non-finite coordinates"),
], ids=["outside", "long", "long-list", "nan"])
def test_entry_points_reject_labels_outside_the_space(entry, name, z, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _ENTRY_POINTS[entry](make_space(name), z)


def test_hamiltonian_field_matches_exact_generator():
    space = make_space("klauder")
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        z = 0.6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        v = np.asarray(hamiltonian_vector_field(space, quadratic_H, z))
        exact = np.array([0.0, -1j * z[1]])
        assert np.abs(v - exact).max() < 1e-6 * max(1.0, abs(z[1]))


# ---------------------------------------------------------------------------
# Poisson bracket


def _fg_samples(rng, count=8):
    space = make_space("klauder")
    f = lambda z: (z[1].real ** 2 + 0.3 * z[0].imag)
    g = lambda z: (z[1].imag * z[0].real + 0.1 * abs(z[1]) ** 2)
    h = lambda z: (z[0].real + z[1].real * z[1].imag)
    pts = [0.7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
           for _ in range(count)]
    return space, f, g, h, pts


def test_poisson_antisymmetry_is_exact():
    rng = np.random.default_rng(SEED)
    space, f, g, _, pts = _fg_samples(rng)
    for z in pts:
        fg = poisson_bracket(space, f, g, z)
        gf = poisson_bracket(space, g, f, z)
        assert fg == -gf
        assert poisson_bracket(space, f, f, z) == 0.0


def test_poisson_leibniz_rule():
    rng = np.random.default_rng(SEED)
    space, f, g, h, pts = _fg_samples(rng)
    for z in pts:
        gh = lambda w: g(w) * h(w)
        lhs = poisson_bracket(space, f, gh, z)
        rhs = (poisson_bracket(space, f, g, z) * h(z)
               + g(z) * poisson_bracket(space, f, h, z))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-6 * scale


def test_poisson_jacobi_identity():
    rng = np.random.default_rng(SEED)
    space, f, g, h, pts = _fg_samples(rng, count=5)
    H_OUT = 1e-4
    for z in pts:
        def bkt(a, b):
            return lambda w: poisson_bracket(space, a, b, w).real

        total = (poisson_bracket(space, f, bkt(g, h), z, grad_h=H_OUT)
                 + poisson_bracket(space, g, bkt(h, f), z, grad_h=H_OUT)
                 + poisson_bracket(space, h, bkt(f, g), z, grad_h=H_OUT))
        assert abs(total) <= 1e-4 * max(
            1.0, abs(poisson_bracket(space, f, g, z)))


# ---------------------------------------------------------------------------
# variational dynamics


def test_el_integrate_tracks_the_exact_orbit():
    space = make_space("klauder")
    ham = HamiltonianSpec(H=quadratic_H)
    traj = el_integrate(space, ham, Z0, 2.0, 1e-3)
    end = traj.points[-1]
    angle_err = abs(np.angle(end[1] / (np.exp(-2.0j) * Z0[1])))
    assert angle_err < 1e-6
    assert abs(abs(end[1]) - abs(Z0[1])) < 1e-8
    assert abs(end[0] - Z0[0]) < 1e-6


def test_el_integrate_requires_classical_h():
    space = make_space("klauder")
    with pytest.raises(DomainError):
        el_integrate(space, _harmonic_ham(), Z0, 1.0, 0.01)


def test_action_is_stationary_to_second_order():
    """Perturbing the solution by eps with fixed endpoints moves the
    action like eps^2."""
    space = make_space("klauder")
    ham = HamiltonianSpec(H=quadratic_H)
    traj = el_integrate(space, ham, Z0, 1.0, 5e-3)
    base = df_action(traj, ham, space)
    n = len(traj.points)
    bump = np.sin(np.pi * np.arange(n) / (n - 1))

    def action_at(eps):
        pts = [p + eps * b * np.array([0.3 + 0.2j, 1.0 - 0.5j])
               for p, b in zip(traj.points, bump)]
        return df_action(Trajectory(traj.times, pts, {}), ham, space)

    d1 = abs(action_at(0.02) - base)
    d2 = abs(action_at(0.04) - base)
    slope = math.log(d2 / d1) / math.log(2.0)
    assert slope == pytest.approx(2.0, abs=0.1)


def test_df_action_needs_enough_points():
    space = make_space("klauder")
    ham = HamiltonianSpec(H=quadratic_H)
    short = Trajectory(np.linspace(0.0, 1.0, 10),
                       [Z0.copy() for _ in range(10)], {})
    with pytest.raises(DomainError):
        df_action(short, ham, space)


def test_time_reversal_recovers_the_start():
    space = make_space("klauder")
    fwd = el_integrate(space, HamiltonianSpec(H=quadratic_H), Z0, 1.0, 1e-3)
    neg = HamiltonianSpec(H=lambda z: -quadratic_H(z))
    back = el_integrate(space, neg, fwd.points[-1], 1.0, 1e-3)
    assert np.abs(back.points[-1] - Z0).max() < 1e-6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_hamiltonian_is_bitwise_the_per_label_one(dim):
    # one H call on the whole stencil or trajectory evaluates the same
    # expression on the same labels as one call per label
    space = make_space("klauder", dim=dim)
    z0 = space.sample_point(np.random.default_rng(SEED))
    Hv = _quadratic_energy(space)
    runs = []
    for stacked in (True, False):
        ham = HamiltonianSpec(H=Hv, stacked=stacked)
        traj = el_integrate(space, ham, z0, 0.5, 5e-3)
        runs.append((traj.points, df_action(traj, ham, space)))
    (pts_s, act_s), (pts_1, act_1) = runs
    assert len(pts_s) == 101
    assert np.array_equal(pts_s, pts_1)
    assert act_s == act_1


@pytest.mark.parametrize("name, z0", [
    ("szego", 0.4 + 0.2j), ("schur", 0.4 + 0.2j), ("debranges", 0.3 + 0.5j),
])
def test_el_integrate_conserves_h_on_scalar_charts(name, z0):
    space = make_space(name)

    def H(z):
        return space.kernel(z, z).real * np.abs(z) ** 2

    runs = [el_integrate(space, HamiltonianSpec(H=H, stacked=stacked), z0, 0.5, 5e-3)
            for stacked in (True, False)]
    for traj in runs:
        assert not traj.meta["aborted"]
        _assert_one_owned_array(traj)
        assert traj.points.shape == (101,) and traj.points.dtype == complex
        energy = H(traj.points)
        assert np.abs(energy - energy[0]).max() <= 1e-8 * abs(energy[0])
    # not bit for bit: one H call per label computes on numpy scalars, whose
    # arithmetic rounds differently from the stacked call's array loops (the
    # two already differ on de Branges), and the FD gradient amplifies that
    assert np.abs(runs[0].points - runs[1].points).max() <= 1e-9


def test_stacked_hamiltonian_must_give_one_value_per_label():
    space = make_space("klauder")
    ham = HamiltonianSpec(H=lambda Z: 1.0, stacked=True)
    # a malformed spec raises out of the integrator: it is not a step
    # leaving the domain, so it does not end the run as an aborted trajectory
    with pytest.raises(TypeError, match=r"shape \(\) for labels stacked as \(8,\)"):
        el_integrate(space, ham, Z0, 0.1, 1e-2)
    traj = el_integrate(space, HamiltonianSpec(H=quadratic_H), Z0, 0.5, 5e-3)
    with pytest.raises(TypeError, match=r"shape \(\) for labels stacked as \(101,\)"):
        df_action(traj, ham, space)


def test_degenerate_el_stage_truncates_the_run():
    # K(z, z) = e^{2 Re z0} passes the degeneracy cut near Re z0 = 354.5;
    # the run keeps the steps before it (measured 12 points)
    ham = HamiltonianSpec(H=lambda z: 1e308 * z[0].imag)
    traj = el_integrate(make_space("klauder", dim=1), ham, [354.0, 0.0], 5.0, 0.05)
    _assert_aborted_cleanly(traj, 5.0, "coherent 2-form degenerate")
    assert len(traj) > 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_energy_dH_matches_the_stencil(dim):
    # the closed form against the FD oracle, whose error is about 1e-10 of
    # the gradient here; one stacked call gives each label's own bits
    space = make_space("klauder", dim=dim)
    H, dH = _quadratic_energy(space), _quadratic_energy_dH(space)
    Z = space.sample_points(np.random.default_rng(SEED), 50)
    G = dH(Z)
    assert G.shape == Z.shape
    for z, g in zip(Z, G):
        assert np.array_equal(dH(z), g)
        w = _grad(space, H, z, stacked=True)
        want = w[0::2] + 1j * w[1::2]
        assert np.abs(2.0 * g - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("space", [make_space(name) for name in space_names()]
                         + [make_space("klauder", dim=d) for d in (2, 3, 5)],
                         ids=lambda s: s.space_id)
def test_stencil_step_scale_is_max_one_norm(space):
    """_grad's step rule is the FD oracle's _point_scale: max(1, |z|), equal
    bit for bit to numpy.linalg.norm's sum, on labels scaled up to 30x."""
    from cohk.catalog import _point_scale

    rng = np.random.default_rng(SEED)
    for z in space.sample_points(rng, 100):
        for s in (1.0, 7.0, 30.0) if space.space_id.startswith("klauder") else (1.0,):
            assert _point_scale(space, s * z) == max(1.0, float(np.linalg.norm(s * z)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_el_integrate_with_dH_agrees_with_the_stencil(dim):
    space = make_space("klauder", dim=dim)
    z0 = space.sample_point(np.random.default_rng(SEED))
    H = _quadratic_energy(space)
    runs = [el_integrate(space, HamiltonianSpec(H=H, dH=dH, stacked=True), z0, 1.0, 2e-3)
            for dH in (_quadratic_energy_dH(space), None)]
    closed, fd = (traj.points for traj in runs)
    assert closed.shape == fd.shape == (501, dim + 1)
    assert np.abs(closed - fd).max() <= 1e-9
    # the EL flow of this H is the exact N flow: the mode rotates as e^{-it}
    want = z0[1:] * np.exp(-1j * runs[0].times[-1])
    assert np.abs(closed[-1, 1:] - want).max() <= 1e-12 * np.abs(want).max()


def test_dH_of_the_wrong_shape_raises_type_error():
    space = make_space("klauder")
    ham = HamiltonianSpec(H=quadratic_H, dH=lambda z: 1.0)
    # a malformed spec raises out of the integrator, as a malformed stacked H does
    with pytest.raises(TypeError, match=r"dH returned shape \(\) for a label of shape \(2,\)"):
        el_integrate(space, ham, Z0, 0.1, 1e-2)
    with pytest.raises(TypeError, match=r"shape \(1,\) for a label of shape \(2,\)"):
        hamiltonian_vector_field(space, quadratic_H, Z0, dH=lambda z: z[:1])
    # a result with the label's size but not its shape is malformed too
    with pytest.raises(TypeError, match=r"shape \(2, 1\) for a label of shape \(2,\)"):
        hamiltonian_vector_field(space, quadratic_H, Z0, dH=lambda z: z[:, None])
    szego = make_space("szego")
    with pytest.raises(TypeError, match=r"shape \(1,\) for a label of shape \(\)"):
        hamiltonian_vector_field(szego, _smooth_H, 0.3 + 0.1j, dH=lambda z: np.atleast_1d(z))
    with pytest.raises(TypeError, match=r"shape \(1, 1\) for a label of shape \(\)"):
        el_integrate(szego, HamiltonianSpec(H=_smooth_H, dH=lambda z: np.full((1, 1), z)),
                     0.3 + 0.1j, 0.1, 1e-2)


@pytest.mark.parametrize("name", ["euclidean", "reciprocal"])
def test_el_on_a_real_chart_raises_before_the_loop(name):
    space = make_space(name)
    calls = []
    ham = HamiltonianSpec(H=lambda z: calls.append(z) or 0.0)
    with pytest.raises(DegenerateFormError, match="vanishes identically"):
        el_integrate(space, ham, space.sample_point(np.random.default_rng(SEED)), 1.0, 0.01)
    assert not calls


# ---------------------------------------------------------------------------
# integrator stages against their references


def _field_rk4(space, gen, z0, t_end, dt, hbar=1.0):
    """Reference oscillator RK4: the closed-form field oscillator_field,
    one call per stage, validating each step and stopping at the first
    label that validate rejects."""
    f = oscillator_field(gen, hbar)
    y = np.asarray(z0, dtype=complex).copy()
    points, aborted = [y], False
    for i in range(int(round(t_end / dt))):
        t = i * dt
        k1 = f(t, y)
        k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        try:
            points.append(space.validate(y))
        except DomainError:
            aborted = True
            break
    return np.stack(points), aborted


# Generators whose entries are 0, powers of two or ones, on which the former
# per-stage matrix form reproduced the field loop bit for bit.  The doubled
# trajectory applies powers of the step map instead, so it agrees with the
# loop to rounding: measured at most 6.1e-15 of each row's largest entry.
_BITWISE_CASES = {
    "number-dim1": (_number_op(1), [-0.5, 1.0], 4.0, 1e-3),
    "number-dim2": (_number_op(2), [0.25 - 0.5j, 1.0, 0.3 + 0.7j], 4.0, 1e-3),
    "non-hermitian-dim1": (OscGenerator(0.25, np.array([0.5j]), np.array([-2.0]),
                                        np.array([[0.5 - 0.25j]])),
                           [0.1 + 0.2j, -0.6 + 0.4j], 4.0, 1e-3),
    "non-hermitian-dim2": (OscGenerator(0.25, np.array([0.5, 0.0]), np.array([0.0, 0.5j]),
                                        np.array([[0.5j, 1.0], [0.0, -0.25]])),
                           [0.1 + 0.2j, -0.6 + 0.4j, 0.3 - 0.1j], 4.0, 1e-3),
    # growth e^{512 t}: RK4 overflows after about 125 steps and the run aborts
    "aborted": (OscGenerator(0.0, np.zeros(1), np.zeros(1), np.array([[512j]])),
                [0.0, 1.0], 4.0, 1.0 / 64),
}


def _assert_rows_match(got, want, rtol):
    """Each row of got within rtol of the largest entry of that row of want."""
    assert got.shape == want.shape
    err = np.abs(got - want).max(axis=-1)
    assert (err <= rtol * np.abs(want).max(axis=-1)).all()


@pytest.mark.parametrize("case", sorted(_BITWISE_CASES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_oscillator_rk4_is_bitwise_the_field_loop(case):
    gen, z0, t_end, dt = _BITWISE_CASES[case]
    space = make_space("klauder", dim=gen.n)
    z0 = np.array(z0, dtype=complex)
    want, aborted = _field_rk4(space, gen, z0, t_end, dt)
    traj = propagate_ode(space, HamiltonianSpec(gen=gen), z0, t_end, dt)
    assert traj.meta["aborted"] == aborted == (case == "aborted")
    if aborted:
        # the loop's last stage overflows a step before the label does, and
        # the doubled run has no stages, so it keeps one more finite row
        assert len(want) == 124 and len(traj) == 125
        assert "non-finite" in traj.meta["reason"]
    _assert_rows_match(traj.points[:len(want)], want, 1e-14)


def _fallback_gen():
    """X = diag(512j, 1): one RK4 step multiplies the first mode by 297 at
    dt = 1/64, so the step map's 128th power overflows."""
    return OscGenerator(0.0, np.zeros(2), np.zeros(2), np.diag([512j, 1.0]))


def test_oscillator_rk4_goes_on_in_blocks_once_a_power_overflows():
    # the growing mode's coordinate is 0, and 0 times the overflowed power
    # would be NaN: doubling on would abort the run at row 128, where the
    # field loop stays finite through all 257 rows (measured 7.1e-16)
    space = make_space("klauder", dim=2)
    z0 = np.array([-0.5, 0.0, 1.0], dtype=complex)
    want, aborted = _field_rk4(space, _fallback_gen(), z0, 4.0, 1.0 / 64)
    traj = propagate_ode(space, HamiltonianSpec(gen=_fallback_gen()), z0, 4.0, 1.0 / 64)
    assert not aborted and not traj.meta["aborted"] and len(want) == 257
    _assert_rows_match(traj.points, want, 1e-14)


_DRIVE = OscGenerator(0.3, np.array([0.2 + 0.1j]), np.array([0.2 + 0.1j]), np.eye(1))


def _assert_prefixes(runs):
    """Each run's rows are, bit for bit, the first rows of the last run."""
    for pts in runs[:-1]:
        assert len(pts) < len(runs[-1])
        assert pts.tobytes() == runs[-1][:len(pts)].tobytes()


# the exact flow of the fallback generator overflows (e^{512 t}), so only
# its RK4 rows are compared
@pytest.mark.parametrize("gen, z0, dt, horizons, exact", [
    (_number_op(), Z0, 1e-2, (0.5, 1.27, 3.0), True),
    (_DRIVE, Z0, 1e-3, (0.1, 1.0, 2.049), True),
    (_fallback_gen(), [-0.5, 0.0, 1.0], 1.0 / 64, (1.0, 2.0, 4.0), False),
], ids=["number", "self-adjoint-drive", "overflow-fallback"])
def test_doubled_rows_do_not_depend_on_the_horizon(gen, z0, dt, horizons, exact):
    space = make_space("klauder", dim=gen.n)
    ham = HamiltonianSpec(gen=gen)
    _assert_prefixes([propagate_ode(space, ham, z0, t_end, dt).points for t_end in horizons])
    if exact:
        _assert_prefixes([_flow_points(gen, z0, round(t_end / dt), dt, 1.0)
                          for t_end in horizons])


def test_oscillator_rk4_conserves_the_norm_over_2_20_steps():
    # the self-adjoint drive of test_norm_conserved_for_self_adjoint_drive,
    # 256 times longer (measured: drift 1.4e-13, end point 1.1e-11)
    space = make_space("klauder")
    traj = propagate_ode(space, HamiltonianSpec(gen=_DRIVE), Z0, 2 ** 20 * 1e-3, 1e-3)
    assert len(traj) == 2 ** 20 + 1 and not traj.meta["aborted"]
    norms = space.kernel(traj.points, traj.points).real
    assert np.abs(norms - norms[0]).max() <= 1e-12 * norms[0]
    exact = flow_exact(_DRIVE, traj.times[-1], Z0)
    assert np.abs(traj.points[-1] - exact).max() <= 1e-10


@pytest.mark.parametrize("name", ["euclidean", "reciprocal", "szego"])
def test_oscillator_spec_needs_complex_label_vectors(name):
    space = make_space(name)
    z0 = space.sample_point(np.random.default_rng(SEED))
    with pytest.raises(DomainError, match="complex label vectors"):
        propagate_ode(space, _harmonic_ham(), z0, 1.0, 0.01)


class _UserKlauder(CoherentSpace):
    """klauder(1) written as a user would: the base class's per-label
    ``stack`` and domain check, none of the catalog's broadcasting."""

    space_id = "user-klauder"
    coord_len = 2

    def kernel(self, z, zp):
        return klauder_kernel(z, zp)

    def validate(self, z):
        z = np.asarray(z, dtype=complex)
        if z.shape != (2,):
            raise DomainError("expected a complex vector of length 2")
        if not np.isfinite(z).all():
            raise DomainError("non-finite coordinates")
        return z


class _UserStrip(_UserKlauder):
    """The user klauder cut to the strip |Im z1| <= 0.5."""

    def validate(self, z):
        z = super().validate(z)
        if abs(z[1].imag) > 0.5:
            raise DomainError("strip labels keep |Im z1| <= 0.5")
        return z


@pytest.mark.parametrize("ham, t_end, dt", [
    (_harmonic_ham(), 1.0, 0.1),
    (HamiltonianSpec(gen=_DRIVE), 2.0, 1e-3),
    (_overflowing_ham(), 4.0, 1.0 / 64),
], ids=["number", "self-adjoint-drive", "overflow"])
def test_oscillator_trajectory_on_a_user_space_is_the_catalogs(ham, t_end, dt):
    want = propagate_ode(make_space("klauder"), ham, Z0, t_end, dt)
    got = propagate_ode(_UserKlauder(), ham, Z0, t_end, dt)
    assert want.meta["aborted"] == (ham.gen.X[0, 0] == 512j)
    assert got.points.tobytes() == want.points.tobytes()
    assert np.array_equal(got.times, want.times) and got.meta == want.meta


def test_oscillator_trajectory_stops_where_a_user_space_rejects_a_label():
    # z1(t) = e^{-it}: |Im z1| = sin t passes 0.5 between t = 0.5 and 0.6
    z0 = np.array([0.0, 1.0], dtype=complex)
    want = propagate_ode(make_space("klauder"), _harmonic_ham(), z0, 1.0, 0.1)
    traj = propagate_ode(_UserStrip(), _harmonic_ham(), z0, 1.0, 0.1)
    assert len(want) == 11 and len(traj) == 6
    assert traj.meta["aborted"] and traj.meta["reason"] == "strip labels keep |Im z1| <= 0.5"
    assert traj.points.tobytes() == want.points[:6].tobytes()
    assert traj.points.flags.owndata


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_oscillator_rk4_dense_generator_matches_the_field_loop(n, hbar):
    # with dense complex entries the stage product sums the same terms in
    # another order than the field's vdot and matvec, so equality is to
    # rounding (measured <= 1e-16 relative over 2000 steps)
    rng = np.random.default_rng(SEED)
    gen = OscGenerator(0.2 + 0.1j, rng.normal(size=n) + 1j * rng.normal(size=n),
                       rng.normal(size=n) + 0j,
                       rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    z0 = 0.5 * (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
    space = make_space("klauder", dim=n)
    want, _ = _field_rk4(space, gen, z0, 2.0, 1e-3, hbar)
    traj = propagate_ode(space, HamiltonianSpec(gen=gen, hbar=hbar), z0, 2.0, 1e-3)
    got = np.stack(traj.points)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _smooth_H(z):
    a = np.atleast_1d(z)
    return float(np.sum(np.abs(a) ** 2) + np.real(a[0] ** 3) + 0.5 * np.imag(a[-1]))


def _smooth_dH(z):
    """dH/dconj(z) of _smooth_H in label form: z + 3/2 conj(z0)^2 e_0 + i/4 e_last."""
    g = np.array(z, dtype=complex, ndmin=1)
    g[0] += 1.5 * np.conj(g[0]) ** 2
    g[-1] += 0.25j
    return g.reshape(np.shape(z))


def _realified_field(space, H, z, hbar=1.0):
    """x' = -(1/hbar) A^{-1} dH with the realified 2-form, as a chart tangent."""
    A = symplectic_matrix(space, z)
    dH = _grad(space, H, z)
    x = -np.linalg.solve(A.astype(complex), dH) / hbar
    return x[0::2] + 1j * x[1::2]


_COMPLEX_CHARTS = [make_space(name) for name in space_names()
                   if make_space(name).complex_chart] + [make_space("klauder", dim=2)]


@pytest.mark.parametrize("space", _COMPLEX_CHARTS, ids=lambda s: s.space_id)
def test_el_field_matches_the_realified_solve(space):
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        z = space.sample_point(rng)
        got = np.atleast_1d(hamiltonian_vector_field(space, _smooth_H, z, hbar=0.8))
        want = _realified_field(space, _smooth_H, z, hbar=0.8)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("space", _COMPLEX_CHARTS, ids=lambda s: s.space_id)
def test_el_field_with_dH_matches_the_realified_solve(space):
    # the closed dH against the realified solve of the FD gradient, so they
    # agree to the stencil's error, not to rounding
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        z = space.sample_point(rng)
        got = hamiltonian_vector_field(space, _smooth_H, z, hbar=0.8, dH=_smooth_dH)
        assert np.shape(got) == np.shape(z)
        want = _realified_field(space, _smooth_H, z, hbar=0.8)
        assert np.abs(np.atleast_1d(got) - want).max() <= 1e-8 * np.abs(want).max()


def test_el_field_matches_the_realified_solve_on_the_fd_oracle():
    # near the real axis de Branges Hm comes from the FD oracle
    space = make_space("debranges")
    for z in (0.3 + 5e-5j, -1.0 + 1e-6j, 0.7 - 3e-5j):
        assert not space.has_closed_geometry(z)
        got = hamiltonian_vector_field(space, _smooth_H, z)
        want = _realified_field(space, _smooth_H, z)[0]
        assert abs(got - want) <= 1e-13 * abs(want)


def _raises_degenerate(fn, *args):
    try:
        fn(*args)
    except DegenerateFormError:
        return True
    return False


def test_el_field_degenerate_wherever_the_symplectic_matrix_is():
    for name in ("euclidean", "reciprocal"):
        space = make_space(name)
        z = space.sample_point(np.random.default_rng(SEED))
        with pytest.raises(DegenerateFormError):
            hamiltonian_vector_field(space, _smooth_H, z)
    # z0 = 354.7 leaves K(z, z) finite but 2 K(z, z) not; z0 = -|zhat|^2/2
    # keeps K(z, z) = 1 while cond(Hm) grows like |zhat|^4 (1e8, 8e13, 1e16)
    degenerate = 0
    for dim in (1, 2):
        space = make_space("klauder", dim=dim)
        for zh in (0.0, 1.0, 1e2, 3e3, 1e4, 1e8):
            for z0 in (0.0, 300.0, 354.5, 354.7, 354.95, 400.0, -zh * zh / 2.0):
                z = np.array([z0] + [zh] * dim, dtype=complex)
                want = _raises_degenerate(symplectic_matrix, space, z)
                got = _raises_degenerate(hamiltonian_vector_field, space, _smooth_H, z)
                assert got == want, z
                degenerate += want
    assert 0 < degenerate < 84


def test_degeneracy_test_takes_huge_finite_forms():
    # K(z, z) = e^686 puts both eigenvalues of Hm + Hm* near 1.6e298, where
    # the bound 1e12 lambda_min overflowed (a RuntimeWarning, an error here)
    space = make_space("klauder")
    z = np.array([343.0, 0.0], dtype=complex)
    A = symplectic_matrix(space, z)
    assert np.isfinite(A).all() and abs(A[0, 1]) > 1e297
    assert np.isfinite(hamiltonian_vector_field(space, _smooth_H, z)).all()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_mixed_matrix_is_the_stacked_basis(dim):
    space = make_space("klauder", dim=dim)
    E = np.eye(dim + 1, dtype=complex)
    for z in space.sample_points(np.random.default_rng(SEED), 10):
        Hm = _mixed_matrix(space, z)
        k = space.kernel(z, z).real
        for a in range(dim + 1):
            for b in range(dim + 1):
                assert Hm[a, b] == space.mixed_form(z, E[a], E[b])  # bit for bit
                assert abs(Hm[a, b] - fd_LR(space, z, E[a], E[b])) <= 1e-7 * k


def test_debranges_mixed_matrix_stack_takes_closed_and_fd_case_by_case():
    space = make_space("debranges")
    # |Im z| >= 1e-4 takes the closed form, below it the FD oracle
    Z = np.array([0.3 + 0.5j, 0.3 + 5e-5j, -0.7 - 1e-4j, 0.1 - 2e-5j, 1.2 - 0.4j])
    Hm = _mixed_matrix(space, Z[:, None, None])
    assert Hm.shape == (5, 1, 1)
    closed = space.has_closed_geometry(Z)
    assert list(closed) == [True, False, True, False, True]
    for z, h, c in zip(Z, Hm, closed):
        assert np.array_equal(_mixed_matrix(space, z), h)  # bit for bit
        want = space.mixed_form(z, 1.0, 1.0) if c else fd_LR(space, z, 1.0, 1.0)
        assert h[0, 0] == want


@pytest.mark.parametrize("name", ["klauder", "hermitian", "sphere"])
def test_mixed_matrix_takes_a_stack_of_labels(name):
    space = make_space(name, dim=2)
    Z = space.sample_points(np.random.default_rng(SEED), 7)
    Hm = _mixed_matrix(space, Z[:, None, None])
    assert Hm.shape == (7, space.coord_len, space.coord_len)
    for z, h in zip(Z, Hm):
        assert np.array_equal(_mixed_matrix(space, z), h)  # bit for bit


# ---------------------------------------------------------------------------
# the closed klauder solve against its eigh oracle

_EPS = np.finfo(float).eps


def _eigh_solve(space, z, g):
    """Hm^{-1} g from one eigh of S = Hm + Hm*: the path every other space
    takes, and the closed solve's oracle."""
    _, lam, V = _form_eigh(space, z)
    return V @ ((V.conj().T @ (2.0 * g)) / lam)


def _label_with_n(dim, n):
    """A klauder label with |zhat|^2 = n and K(z, z) = e^0.2: cond(S) = mu^2
    grows like n^2 while the kernel stays near 1."""
    return np.array([0.1 - n / 2.0] + [math.sqrt(n / dim)] * dim, dtype=complex)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_mixed_solve_matches_the_eigh_oracle(dim):
    # to 1e-13 on sampled labels; at |zhat| = 1e2 and 3e2 (cond(S) 1e8 and
    # 8e9) the oracle's own error grows like eps cond(S), so the bound does
    # too; the residual against the closed Hm holds at every condition.
    # |zhat| = 1e3 sits on the 1e12 cut (mu^2 = 1e12 + 4e6), closer to it
    # than eigh's error, so the degeneracy test below brackets it instead.
    space = make_space("klauder", dim=dim)
    rng = np.random.default_rng(SEED)
    labels = list(space.sample_points(rng, 50)) + [_label_with_n(dim, n) for n in (1e4, 9e4)]
    for z in labels:
        g = space.sample_tangent(z, rng)
        x, lam_min, lam_max = space.mixed_solve(z, g)
        Hm = _mixed_matrix(space, z)
        ev = np.linalg.eigvalsh(Hm + Hm.conj().T)
        tol = 1e-13 + 2.0 * _EPS * ev[-1] / ev[0]
        want = _eigh_solve(space, z, g)
        assert np.abs(x - want).max() <= tol * np.abs(want).max(), z
        assert abs(lam_max - ev[-1]) <= 1e-13 * ev[-1]
        assert abs(lam_min - ev[0]) <= tol * ev[0]
        assert np.abs(Hm @ x - g).max() <= 8.0 * _EPS * np.abs(Hm).max() * np.abs(x).max()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_mixed_solve_stack_is_bitwise_the_per_label_solve(dim):
    space = make_space("klauder", dim=dim)
    rng = np.random.default_rng(SEED)
    Z = space.sample_points(rng, 50)
    G = space.sample_tangent(Z, rng)
    X, lam_min, lam_max = space.mixed_solve(Z, G)
    assert X.shape == Z.shape and lam_min.shape == lam_max.shape == (50,)
    for z, g, x, lo, hi in zip(Z, G, X, lam_min, lam_max):
        one = space.mixed_solve(z, g)
        assert np.array_equal(one[0], x) and one[1] == lo and one[2] == hi
    # any stack shape, and one right-hand side broadcast against the labels
    deep = space.mixed_solve(Z.reshape(5, 10, -1), G.reshape(5, 10, -1))[0]
    assert np.array_equal(deep.reshape(Z.shape), X)
    shared = space.mixed_solve(Z, G[0])[0]
    for z, x in zip(Z, shared):
        assert np.array_equal(space.mixed_solve(z, G[0])[0], x)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_closed_degeneracy_agrees_with_the_symplectic_matrix(dim):
    # n = 5e5 and 2e6 put mu^2 = cond(S) at 2.5e11 and 4e12, on both sides
    # of the 1e12 cut; at zhat = 0, Re z0 = 354.5 leaves 2 K(z, z) = 1.6e308
    # finite and 354.7 overflows it.  The suite errors on RuntimeWarning, so
    # neither path may warn on its way to the error.
    space = make_space("klauder", dim=dim)
    edge = [np.array([z0] + [0.0] * dim, dtype=complex) for z0 in (354.5, 354.7)]
    cases = [(_label_with_n(dim, 5e5), False), (_label_with_n(dim, 2e6), True),
             (edge[0], False), (edge[1], True)]
    for z, degenerate in cases:
        assert _raises_degenerate(symplectic_matrix, space, z) == degenerate, z
        for dH in (_smooth_dH, None):
            field = partial(hamiltonian_vector_field, dH=dH)
            assert _raises_degenerate(field, space, _smooth_H, z) == degenerate, z


def test_klauder_el_stage_calls_neither_mixed_form_nor_eigh(monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("the klauder EL stage left its closed solve")

    monkeypatch.setattr(np.linalg, "eigh", called)
    monkeypatch.setattr(KlauderSpace, "mixed_form", called)
    rng = np.random.default_rng(SEED)
    for dim in (1, 2, 3):
        space = make_space("klauder", dim=dim)
        z0 = space.sample_point(rng)
        H = _quadratic_energy(space)
        for dH in (_quadratic_energy_dH(space), None):
            traj = el_integrate(space, HamiltonianSpec(H=H, dH=dH, stacked=True), z0, 0.05, 1e-2)
            assert len(traj) == 6 and not traj.meta["aborted"]
        # the oracle path still goes through both
        with pytest.raises(AssertionError, match="left its closed solve"):
            symplectic_matrix(space, z0)


# ---------------------------------------------------------------------------
# one Euler-Lagrange field, with a closed solve on every catalog complex chart


def _solve_labels(space, rng, n):
    """n sampled labels, plus on de Branges three in the strip where its Hm
    comes from the FD oracle."""
    Z = space.sample_points(rng, n)
    if isinstance(space, DeBrangesSpace):
        Z = np.concatenate([Z, [0.3 + 5e-5j, -1.0 + 1e-6j, 0.7 - 3e-5j]])
    return Z


@pytest.mark.parametrize("space", _COMPLEX_CHARTS, ids=lambda s: s.space_id)
def test_closed_mixed_solve_matches_the_eigh_oracle_on_every_complex_chart(space):
    # S = 2 I on hermitian and sphere and the 1x1 S = 2 Re h on the scalar
    # charts, so those match eigh bit for bit; klauder's Sherman-Morrison
    # solve matches it to rounding (cond(S) is small on sampled labels)
    rng = np.random.default_rng(SEED)
    for z in _solve_labels(space, rng, 50):
        g = np.reshape(space.sample_tangent(z, rng), -1)  # the stage's flat g
        x, lam_min, lam_max = space.mixed_solve(z, g)
        lam = _form_eigh(space, z)[1]
        want = _eigh_solve(space, z, g)
        if isinstance(space, KlauderSpace):
            assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
            assert abs(lam_min - lam[0]) <= 1e-13 * lam[0]
            assert abs(lam_max - lam[-1]) <= 1e-13 * lam[-1]
        else:
            assert np.array_equal(x, want)
            assert (lam_min, lam_max) == (lam[0], lam[-1])


@pytest.mark.parametrize("space", _COMPLEX_CHARTS, ids=lambda s: s.space_id)
def test_closed_mixed_solve_stack_is_bitwise_the_per_label_solve_on_every_complex_chart(space):
    rng = np.random.default_rng(SEED)
    Z = _solve_labels(space, rng, 50)
    G = space.sample_tangent(Z, rng)
    X, lam_min, lam_max = space.mixed_solve(Z, G)
    assert X.shape == Z.shape and np.shape(lam_min) == np.shape(lam_max) == Z.shape[:1]
    for z, g, x, lo, hi in zip(Z, G, X, lam_min, lam_max):
        one = space.mixed_solve(z, g)
        assert np.array_equal(one[0], x) and one[1] == lo and one[2] == hi


@pytest.mark.parametrize("space", _COMPLEX_CHARTS, ids=lambda s: s.space_id)
def test_catalog_el_stage_never_reaches_eigh(space, monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("the EL stage left its closed solve")

    monkeypatch.setattr(np.linalg, "eigh", called)
    rng = np.random.default_rng(SEED)
    for z0 in _solve_labels(space, rng, 1):
        for closed in (True, False):
            calls = []

            def H(z):
                calls.append(z)
                return _smooth_H(z)

            def dH(z):
                calls.append(z)
                return _smooth_dH(z)

            ham = HamiltonianSpec(H=H, dH=dH if closed else None)
            traj = el_integrate(space, ham, z0, 0.05, 1e-2)
            # sphere and schur labels leave the domain within the horizon,
            # after whole steps of stages
            assert len(calls) >= 4
            assert "degenerate" not in traj.meta.get("reason", "")
            hamiltonian_vector_field(space, _smooth_H, z0, dH=dH if closed else None)
    # the oracle path still goes through eigh
    with pytest.raises(AssertionError, match="left its closed solve"):
        symplectic_matrix(space, z0)


@pytest.mark.parametrize("space", _COMPLEX_CHARTS + [_UserKlauder()], ids=lambda s: s.space_id)
def test_first_rk4_stage_is_bitwise_the_hamiltonian_vector_field(space, monkeypatch):
    # propagate_ode builds the field once per run and hamiltonian_vector_field
    # runs the same stage, so the first stage of a run is its value at z0
    stages = []

    def spy(f, t, y, dt):
        stages.append(f(t, y))
        return _rk4_step(f, t, y, dt)

    monkeypatch.setattr(dynamics, "_rk4_step", spy)
    # the user space (the eigh solve) draws its label as klauder(1) does
    sampler = make_space("klauder") if isinstance(space, _UserKlauder) else space
    z0 = space.validate(sampler.sample_point(np.random.default_rng(SEED)))
    for dH in (_smooth_dH, None):
        stages.clear()
        el_integrate(space, HamiltonianSpec(H=_smooth_H, dH=dH, hbar=0.8), z0, 0.01, 1e-2)
        want = hamiltonian_vector_field(space, _smooth_H, z0, hbar=0.8, dH=dH)
        assert type(stages[0]) is type(want)
        assert np.array_equal(stages[0], want)


def test_el_stage_at_a_vanishing_kernel_is_degenerate_without_warning():
    # K(z, z) = e^{-800} underflows to 0: the solve divides by it, and the
    # degeneracy test, not a RuntimeWarning (an error here), ends the stage
    space = make_space("klauder")
    z = np.array([-400.0, 1.0], dtype=complex)
    with pytest.raises(DegenerateFormError, match="degenerate"):
        hamiltonian_vector_field(space, lambda z: z[0].real, z)
    traj = el_integrate(space, HamiltonianSpec(H=lambda z: z[0].real), z, 0.05, 1e-2)
    assert len(traj) == 1 and "degenerate" in traj.meta["reason"]


# ---------------------------------------------------------------------------
# the Euler-Lagrange loop against its plain expressions, written out here:
# the optimized stage and step must reproduce them bit for bit


def _plain_rk4(f, z0, n_steps, dt):
    """RK4 as y + dt/6 (k1 + 2 k2 + 2 k3 + k4), each stage's half step
    formed afresh, stacked with the starting label."""
    y, points = z0, [z0]
    for i in range(n_steps):
        t = i * dt
        k1 = f(t, y)
        k2 = f(t + dt / 2.0, y + dt / 2.0 * k1)
        k3 = f(t + dt / 2.0, y + dt / 2.0 * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points.append(y)
    return np.array(points)


def _plain_klauder_solve(z, g):
    """KlauderSpace.mixed_solve with K spread over the coordinates on every
    label and 2 K formed twice."""
    zh = z[..., 1:]
    n = np.vecdot(zh, zh).real
    k = np.exp(z[..., 0][()].real * 2.0 + n)
    x = g - z * g[..., :1]
    x[..., 0] = (1.0 + n) * g[..., 0][()] - np.vecdot(zh, g[..., 1:])
    x /= k[..., None]
    mu = 0.5 * ((2.0 + n) + np.sqrt(n * (n + 4.0)))
    return x, 2.0 * k / mu, 2.0 * k * mu


def _plain_quadratic_energy_dH(z):
    """The CLI's dH built slot by slot into an empty array."""
    zh = z[..., 1:]
    n = np.vecdot(zh, zh).real
    k = np.exp(z[..., 0][()].real * 2.0 + n)
    out = np.empty(z.shape, dtype=complex)
    out[..., 0] = k * n
    out[..., 1:] = (k * (n + 1.0))[..., None] * zh
    return out


def _plain_stage(solve, dH, z, hbar):
    """One Euler-Lagrange stage: dH flattened, solved, times -i/hbar."""
    g = np.asarray(dH(z), dtype=complex).reshape(-1)
    return (-1j / hbar) * solve(z, g)[0]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class _UserSolveReturnsG(_UserKlauder):
    """A user space whose closed solve hands back its right-hand side."""

    def mixed_solve(self, z, g):
        return g, 2.0, 2.0


def _owning_case(name):
    """(space, spec, the plain field, arrays that must not change) for one
    way a user's callable can hand the loop an array it does not own."""
    cached = np.array([0.25 - 0.5j, 0.5 + 1j])
    if name == "F returns its input":
        return make_space("klauder"), HamiltonianSpec(F=lambda t, z: z), lambda t, z: z, []
    if name == "F returns a cached array":
        return (make_space("klauder"), HamiltonianSpec(F=lambda t, z: cached),
                lambda t, z: cached.copy(), [cached])
    if name == "dH returns a cached array":
        ham = HamiltonianSpec(H=quadratic_H, dH=lambda z: cached, hbar=0.8)
        want = lambda t, z: _plain_stage(_plain_klauder_solve, lambda z: cached.copy(), z, 0.8)
        return make_space("klauder"), ham, want, [cached]
    # the solve returns g, and g is the label itself
    ham = HamiltonianSpec(H=quadratic_H, dH=lambda z: z, hbar=0.8)
    want = lambda t, z: _plain_stage(lambda z, g: (g.copy(),), lambda z: z.copy(), z, 0.8)
    return _UserSolveReturnsG(), ham, want, []


@pytest.mark.parametrize("name", ["F returns its input", "F returns a cached array",
                                  "dH returns a cached array", "mixed_solve returns its g"])
def test_the_loop_writes_into_no_array_it_did_not_make(name):
    space, ham, plain_f, cached = _owning_case(name)
    z0 = Z0.copy()
    before = [a.copy() for a in [z0] + cached]
    traj = propagate_ode(space, ham, z0, 0.1, 1e-2)
    assert not traj.meta["aborted"] and len(traj) == 11
    assert _same_bits(traj.points, _plain_rk4(plain_f, Z0.copy(), 10, 1e-2))
    for a, b in zip([z0] + cached, before):
        assert _same_bits(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_el_stage_is_bitwise_its_plain_expressions(dim):
    space = make_space("klauder", dim=dim)
    rng = np.random.default_rng(SEED)
    Z = space.sample_points(rng, 50)
    dH = _quadratic_energy_dH(space)
    field = dynamics._el_field(space, _quadratic_energy(space), dH, 0.8, True)
    for z in Z:
        assert _same_bits(dH(z), _plain_quadratic_energy_dH(z))
        assert _same_bits(field(0.0, z), _plain_stage(_plain_klauder_solve, dH, z, 0.8))
        g = space.sample_tangent(z, rng)
        for got, want in zip(space.mixed_solve(z, g), _plain_klauder_solve(z, g.copy())):
            assert _same_bits(got, want)
    # a (5, 10) stack, with two labels whose forms are degenerate: one past
    # the 1e12 condition cut, one whose K(z, z) overflows
    Z[7] = _label_with_n(dim, 2e6)
    Z[8] = np.array([354.7] + [0.0] * dim, dtype=complex)
    Zs, Gs = Z.reshape(5, 10, -1), space.sample_tangent(Z, rng).reshape(5, 10, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(dH(Zs), _plain_quadratic_energy_dH(Zs))
        got, want = space.mixed_solve(Zs, Gs), _plain_klauder_solve(Zs, Gs.copy())
    for a, b in zip(got, want):
        assert _same_bits(a, b)


@pytest.mark.parametrize("name", ["szego", "schur", "debranges"])
def test_scalar_chart_el_stage_solves_a_one_element_g(name):
    # the closed dH's number goes to the 1x1 solve as a 1-element g
    space = make_space(name)
    field = dynamics._el_field(space, _smooth_H, _smooth_dH, 0.8)
    for z in _solve_labels(space, np.random.default_rng(SEED), 20):
        z = space.validate(z)
        want = complex(_plain_stage(space.mixed_solve, _smooth_dH, z, 0.8)[0])
        got = field(0.0, z)
        assert type(got) is complex and _same_bits(got, want)
