"""Autocorrelation spectroscopy against the exactly solvable oscillator.

With one mode, z = z' = [-1/2, 1] and H the number operator,
K_t = e^{-1} exp(e^{-it}) = sum_n w_n e^{-int} with w_n = e^{-1}/n!,
so every op here has a hand-computable target.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cohk.core import DomainError
from cohk.catalog import make_space
from cohk.dynamics import HamiltonianSpec, autocorrelation, flow_exact, propagate_ode
from cohk.fock import (
    OscGenerator,
    dgamma_element,
    gen_block,
    klauder_kernel,
    osc_act,
    osc_from_block,
)
from cohk.spectral import (
    _flow_points,
    _uniform_fourier,
    eigencomponent_overlap,
    kt_roundtrip_residual,
    oscillator_series,
    rational_element,
    resolvent_element,
    resolvent_equation_residual,
    resolvent_symmetry_residual,
    schwinger_dyson_residual,
    spectral_density,
    spectrum_scan,
    time_average_overlap,
)

SEED = 0xC0FFEE
Z0 = np.array([-0.5, 1.0], dtype=complex)


def _number_op(n=1):
    return OscGenerator(0.0, np.zeros(n), np.zeros(n), np.eye(n))


def _zero_op(n=1):
    return OscGenerator(0.0, np.zeros(n), np.zeros(n), np.zeros((n, n)))


def _w(n):
    return math.exp(-1.0) / math.factorial(n)


@pytest.fixture(scope="module")
def harmonic_series():
    return oscillator_series(_number_op(), Z0, Z0, 200.0 * math.pi, 0.05)


def test_series_matches_closed_form(harmonic_series):
    t = harmonic_series.times
    exact = np.exp(-1.0) * np.exp(np.exp(-1j * t))
    assert np.abs(harmonic_series.values - exact).max() < 1e-11
    assert harmonic_series.t0 == 0.0
    assert harmonic_series.hbar == 1.0


def test_series_rejects_bad_grids():
    with pytest.raises(DomainError):
        oscillator_series(_number_op(), Z0, Z0, 10.0, -0.1)
    with pytest.raises(DomainError):
        oscillator_series(_number_op(), Z0, Z0, 1e9, 1e-3)


def test_time_average_picks_the_ground_weight(harmonic_series):
    got = time_average_overlap(harmonic_series, 0.0, 200.0 * math.pi)
    assert got == pytest.approx(_w(0), abs=1e-4)


def test_time_average_picks_excited_weights(harmonic_series):
    for n in (1, 2, 3):
        got = time_average_overlap(harmonic_series, float(n), 200.0 * math.pi)
        assert got == pytest.approx(_w(n), abs=1e-4)


def test_time_average_off_spectrum_decays_like_one_over_t(harmonic_series):
    # |average| <= sum_n w_n / (T |E - n|) <= 2/T at E = 1/2
    for T in (100.0, 200.0, 400.0):
        got = abs(time_average_overlap(harmonic_series, 0.5, T))
        assert got <= 2.0 / T


def test_time_average_needs_coverage(harmonic_series):
    with pytest.raises(DomainError):
        time_average_overlap(harmonic_series, 0.0, 1e6)


def test_time_average_off_diagonal_needs_swapped_series():
    zp = np.array([0.2, 0.5 - 0.3j], dtype=complex)
    fwd = oscillator_series(_number_op(), Z0, zp, 50.0, 0.05)
    with pytest.raises(DomainError):
        time_average_overlap(fwd, 0.0, 40.0)
    swapped = oscillator_series(_number_op(), zp, Z0, 50.0, 0.05)
    got = time_average_overlap(fwd, 1.0, 40.0, swapped=swapped)
    # first coefficient of exp(conj(z0) + zp0 + e^{-it} vdot(zhat, zphat))
    pref = np.exp(np.conj(Z0[0]) + zp[0])
    a = np.vdot(Z0[1:], zp[1:])
    assert got == pytest.approx(pref * a, abs=5e-2 * abs(pref))


def test_scan_finds_lines_and_weights(harmonic_series):
    E_grid = np.arange(-0.5, 4.5, 0.004)
    lines = spectrum_scan(harmonic_series, E_grid)
    assert len(lines) == 5
    for n, line in enumerate(lines):
        assert line.energy == pytest.approx(float(n), abs=0.004)
        assert line.weight == pytest.approx(_w(n), abs=1e-3)


def _hbar_two_lines(series):
    """Lines of the number operator's series on a grid finer than hbar pi/T
    only at hbar = 2; at both hbar the lines sit at N in energy."""
    lines = spectrum_scan(series, np.arange(-0.5, 6.505, 0.01))
    assert [round(line.energy, 3) for line in lines] == list(range(7))
    assert sum(line.weight for line in lines) == pytest.approx(
        klauder_kernel(Z0, Z0).real, abs=1e-3)


def test_scan_at_hbar_two_resolves_hbar_pi_over_t():
    # the sidelobe test measures distances in cells of hbar pi/T; in cells
    # of pi/T it kept ~90 window sidelobes as lines
    _hbar_two_lines(oscillator_series(_number_op(), Z0, Z0, 100.0 * math.pi, 0.05, hbar=2.0))


def test_autocorrelation_keeps_the_trajectory_hbar():
    space = make_space({"kind": "klauder", "dim": 1})
    traj = propagate_ode(space, HamiltonianSpec(gen=_number_op(), hbar=2.0), Z0,
                         100.0 * math.pi, 0.05)
    series = autocorrelation(space, Z0, traj)
    assert series.hbar == 2.0
    _hbar_two_lines(series)


def test_scan_rejects_coarse_grids(harmonic_series):
    with pytest.raises(DomainError):
        spectrum_scan(harmonic_series, np.arange(-0.5, 4.5, 0.05))


def test_scan_constant_series_is_a_single_zero_line():
    ser = oscillator_series(_zero_op(), Z0, Z0, 200.0, 0.05)
    lines = spectrum_scan(ser, np.arange(-1.0, 1.0, 0.01))
    assert len(lines) == 1
    assert lines[0].energy == pytest.approx(0.0, abs=0.01)
    assert lines[0].weight == pytest.approx(abs(klauder_kernel(Z0, Z0)), rel=1e-6)


def test_scan_two_mode_line_positions():
    om = np.array([1.0, math.sqrt(2.0)])
    gen = OscGenerator(0.0, np.zeros(2), np.zeros(2), np.diag(om))
    z = np.array([-0.5, 0.8, 0.6], dtype=complex)
    ser = oscillator_series(gen, z, z, 40.0 * math.pi, 0.02)
    grid = np.arange(-0.3, 3.2, 0.005)
    lines = spectrum_scan(ser, grid)
    expected = sorted(
        n1 * om[0] + n2 * om[1]
        for n1 in range(4) for n2 in range(3)
        if n1 * om[0] + n2 * om[1] < 3.0
    )
    got = [line.energy for line in lines]
    for e in expected:
        assert min(abs(g - e) for g in got) < 0.005


def test_resolvent_zero_generator_is_kernel_over_e():
    ham = HamiltonianSpec(gen=_zero_op())
    E = 0.5 + 0.1j
    g = resolvent_element(ham, Z0, Z0, E)
    assert g == pytest.approx(klauder_kernel(Z0, Z0) / E, rel=1e-4)


def test_resolvent_matches_eigen_sum():
    ham = HamiltonianSpec(gen=_number_op())
    E = 0.5 + 0.1j
    g = resolvent_element(ham, Z0, Z0, E)
    exact = sum(_w(n) / (E - n) for n in range(60))
    assert abs(g - exact) < 1e-4


def test_resolvent_needs_upper_half_plane():
    ham = HamiltonianSpec(gen=_number_op())
    with pytest.raises(DomainError):
        resolvent_element(ham, Z0, Z0, 0.5 - 0.1j)
    with pytest.raises(DomainError):
        resolvent_element(ham, Z0, Z0, 0.5)


def test_resolvent_symmetry_off_diagonal():
    ham = HamiltonianSpec(gen=_number_op())
    zp = np.array([0.2 + 0.1j, 0.4 - 0.3j], dtype=complex)
    res = resolvent_symmetry_residual(ham, Z0, zp, 0.5 + 0.1j)
    assert res <= 1e-10 * abs(klauder_kernel(Z0, zp))


def test_rational_single_complex_root_is_minus_resolvent():
    ham = HamiltonianSpec(gen=_number_op())
    E0 = 0.5 + 0.1j
    got = rational_element(ham, Z0, Z0, [E0], [1.0])
    g = resolvent_element(ham, Z0, Z0, E0)
    assert got == pytest.approx(-g, rel=1e-12)


def test_rational_real_root_zero_generator():
    # 1/(H + 1) with H = 0 is just 1; the eta extrapolation must recover it
    ham = HamiltonianSpec(gen=_zero_op())
    got = rational_element(ham, Z0, Z0, [-1.0], [1.0], eta=0.05)
    assert got == pytest.approx(klauder_kernel(Z0, Z0), rel=5e-3)


def test_rational_rejects_bad_inputs():
    ham = HamiltonianSpec(gen=_number_op())
    with pytest.raises(DomainError):
        rational_element(ham, Z0, Z0, [1.0 + 1e-9, 1.0], [1.0])
    with pytest.raises(DomainError):
        rational_element(ham, Z0, Z0, [-1.0], [1.0, 2.0])
    from cohk.spectral import SpectralLine
    spectrum = [SpectralLine(1.0, _w(1))]
    with pytest.raises(DomainError):
        rational_element(ham, Z0, Z0, [1.05], [1.0], eta=0.05,
                         spectrum=spectrum)


def test_spectral_density_peak_height():
    ham = HamiltonianSpec(gen=_number_op())
    eta = 0.05
    grid = np.array([1.0])
    dens = spectral_density(ham, Z0, Z0, grid, eta)
    lorentz_peak = _w(1) / (math.pi * eta)
    tails = sum(_w(n) * eta / math.pi / (1.0 - n) ** 2
                for n in range(8) if n != 1)
    assert dens[0] == pytest.approx(lorentz_peak + tails, rel=1e-2)


def test_density_is_nonnegative_and_sums_to_diagonal():
    ham = HamiltonianSpec(gen=_number_op())
    grid = np.arange(-3.0, 10.0, 0.01)
    dens = spectral_density(ham, Z0, Z0, grid, 0.05)
    assert dens.min() >= -1e-6
    total = np.trapezoid(dens, x=grid)
    assert total == pytest.approx(abs(klauder_kernel(Z0, Z0)), abs=1e-2)


def test_kt_roundtrip_residuals():
    ham = HamiltonianSpec(gen=_number_op())
    grid = np.arange(-3.0, 10.0, 0.01)
    assert kt_roundtrip_residual(ham, Z0, Z0, 0.0, 0.05, grid) <= 2e-2
    assert kt_roundtrip_residual(ham, Z0, Z0, 0.7, 0.05, grid) <= 5e-2


def test_kt_roundtrip_zero_generator():
    # Tail mass outside [-a, a] is (eta/pi)(2/a), so a = 35 leaves ~9e-4;
    # the E step must stay below eta/2 or the Lorentzian is undersampled.
    ham = HamiltonianSpec(gen=_zero_op())
    grid = np.arange(-35.0, 35.0 + 1e-9, 0.025)
    assert kt_roundtrip_residual(ham, Z0, Z0, 0.0, 0.05, grid) <= 1e-3
    assert kt_roundtrip_residual(ham, Z0, Z0, 0.01, 0.05, grid) <= 1e-3


def test_kt_roundtrip_rejects_narrow_grids():
    ham = HamiltonianSpec(gen=_number_op())
    with pytest.raises(DomainError):
        kt_roundtrip_residual(ham, Z0, Z0, 0.0, 0.05,
                              np.arange(-0.5, 4.0, 0.01))


def test_schwinger_dyson_residual_seeded():
    ham = HamiltonianSpec(gen=_number_op())
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        z = 0.7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        zp = 0.7 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        t = float(rng.uniform(0.0, 8.0))
        assert schwinger_dyson_residual(ham, z, zp, t) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_stacked_schwinger_dyson_residual_is_the_per_case_one(n, hbar):
    rng = np.random.default_rng(SEED)
    c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a self-adjoint generator: real rho, p = q, Hermitian X
    p, A = 0.25 * c(n), 0.25 * c(n, n)
    gen = OscGenerator(0.25 * rng.normal(), p, p, A + A.conj().T)
    ham = HamiltonianSpec(gen=gen, hbar=hbar)
    z, zp = 0.5 * c(50, n + 1), 0.5 * c(50, n + 1)
    t = rng.uniform(0.0, 3.0, size=50)
    res = schwinger_dyson_residual(ham, z, zp, t)
    assert res.shape == (50,) and res.dtype == float
    for i in range(50):
        one = schwinger_dyson_residual(ham, z[i], zp[i], t[i])
        assert type(one) is float
        assert abs(one - res[i]) <= 1e-15
    assert res.max() <= 1e-6


def test_resolvent_equation_residual():
    ham = HamiltonianSpec(gen=_number_op())
    res = resolvent_equation_residual(ham, Z0, Z0, 0.5 + 0.1j)
    assert res <= 1e-4


@pytest.mark.parametrize("zp", [Z0, np.array([0.2 + 0.1j, 0.4 - 0.3j])],
                         ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_shared_resolvent_flow_keeps_the_separate_flow_bits(zp, hbar):
    # the element and the equation residual written out over an
    # oscillator_series and, for the H G term, a second _flow_points flow
    gen = OscGenerator(0.1, np.array([0.3 + 0.1j]), np.array([0.3 + 0.1j]),
                       np.array([[1.2]]))
    ham = HamiltonianSpec(gen=gen, hbar=hbar)
    # 27,632 samples at hbar 1: past the size from which numpy reuses an
    # unnamed temporary in place, which can swap the operands of a product
    E, dt = 0.5 + 0.1j, 1e-2
    t_max = hbar * math.log(1e12) / E.imag
    series = oscillator_series(gen, Z0, zp, t_max, dt, hbar)
    iota = 1j / hbar
    phase = np.exp(iota * E * series.times)
    g = -iota * np.trapezoid(phase * series.values, dx=series.dt)
    pts = _flow_points(gen, zp, len(series.times) - 1, series.dt, hbar)
    hvals = dgamma_element(gen, Z0, pts)
    og = -iota * np.trapezoid(phase * hvals, dx=series.dt)
    k = klauder_kernel(Z0, zp)

    got = resolvent_element(ham, Z0, zp, E)
    assert type(got) is complex and got == complex(g)
    assert resolvent_equation_residual(ham, Z0, zp, E) == abs(E * g - og - k) / abs(k)


@pytest.mark.parametrize("call", [
    lambda ham: oscillator_series(ham.gen, Z0, Z0, 1.0, 0.1),
    lambda ham: resolvent_element(ham, Z0, Z0, 0.5 + 0.1j),
    lambda ham: resolvent_symmetry_residual(ham, Z0, Z0, 0.5 + 0.1j),
    lambda ham: resolvent_equation_residual(ham, Z0, Z0, 0.5 + 0.1j),
    lambda ham: rational_element(ham, Z0, Z0, [-1.0], [1.0]),
    lambda ham: spectral_density(ham, Z0, Z0, [0.0, 1.0], 0.05),
    lambda ham: kt_roundtrip_residual(ham, Z0, Z0, 0.0, 0.05, [0.0, 1.0]),
    lambda ham: schwinger_dyson_residual(ham, Z0, Z0, 0.5),
], ids=["series", "element", "symmetry", "equation", "rational", "density",
        "roundtrip", "schwinger-dyson"])
def test_spectral_calls_without_a_generator_raise_domain_error(call):
    ham = HamiltonianSpec(H=lambda z: 0.0)
    with pytest.raises(DomainError, match="oscillator generator"):
        call(ham)


def test_eigencomponent_overlap_from_trajectory():
    space = make_space("klauder")
    ham = HamiltonianSpec(gen=_number_op())
    traj = propagate_ode(space, ham, Z0, 300.0, 0.05)
    got = eigencomponent_overlap(space, Z0, traj, 1.0, 300.0)
    assert got == pytest.approx(_w(1), abs=5e-3)
    flat = eigencomponent_overlap(space, Z0, traj, 0.0, 300.0)
    assert flat == pytest.approx(_w(0), abs=5e-3)


def test_eigencomponent_overlap_reads_the_trajectory_hbar():
    # at hbar = 2, E = 1 is level 1; read at hbar = 1 it would be level 2
    space = make_space("klauder")
    ham = HamiltonianSpec(gen=_number_op(), hbar=2.0)
    T = 100.0 * math.pi
    traj = propagate_ode(space, ham, Z0, T, math.pi / 40.0)
    assert traj.meta["hbar"] == 2.0
    got = eigencomponent_overlap(space, Z0, traj, 1.0, T)
    assert got == pytest.approx(_w(1), abs=5e-3)
    assert abs(got - _w(2)) > 0.1


# ---- array routines against the step loop and the dense Fourier sum ----
#
# The oracles below are the per-step loop and the dense exp(outer(E, t))
# sum that _flow_points and _uniform_fourier replaced; they live only here.


def _loop_flow(gen, z, n_steps, dt, hbar=1.0):
    step = osc_from_block(expm((-1j * dt / hbar) * gen_block(gen)))
    pts = [np.asarray(z, dtype=complex)]
    for _ in range(n_steps):
        pts.append(osc_act(step, pts[-1]))
    return np.array(pts)


def _dense_fourier(x, t0, dt, E, iota):
    t = t0 + dt * np.arange(len(x))
    return np.array([np.exp(iota * e * t) @ x for e in E])


def _driven_generator():
    # non-Hermitian X: the flow grows like e^{0.3 t}
    return OscGenerator(0.2 - 0.1j, [0.3 + 0.2j], [-0.1 + 0.4j],
                        np.array([[1.0 + 0.3j]]))


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
def test_flow_points_edge_counts(n_steps):
    gen = _driven_generator()
    z = np.array([0.1 - 0.2j, 0.6 + 0.3j])
    pts = _flow_points(gen, z, n_steps, 1e-2, 1.0)
    ref = _loop_flow(gen, z, n_steps, 1e-2)
    assert pts.shape == (n_steps + 1, 2)
    assert np.array_equal(pts[0], z)
    assert np.abs(pts - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_flow_points_at_powers_of_two_are_flow_exact(n, hbar):
    # each doubling is one flow_exact of m dt, exact for m = 2^j, so the
    # point 2^j steps on has the bits of the direct flow
    rng = np.random.default_rng(7)
    gen = OscGenerator(complex(rng.normal(), rng.normal()),
                       rng.normal(size=n) + 1j * rng.normal(size=n),
                       rng.normal(size=n) + 1j * rng.normal(size=n),
                       0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    z = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    dt = 1e-2
    pts = _flow_points(gen, z, 1500, dt, hbar)
    for j in range(11):
        assert pts[2 ** j].tobytes() == flow_exact(gen, 2 ** j * dt, z, hbar).tobytes()


def test_flow_points_matches_step_loop_non_hermitian():
    gen = _driven_generator()
    z = np.array([0.1 - 0.2j, 0.6 + 0.3j])
    pts = _flow_points(gen, z, 100_000, 1e-3, 1.0)
    ref = _loop_flow(gen, z, 100_000, 1e-3)
    rel = np.abs(pts - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert rel.max() <= 1e-10


def test_flow_points_backward_steps_invert_forward():
    gen = _driven_generator()
    z = np.array([0.1 - 0.2j, 0.6 + 0.3j])
    fwd = _flow_points(gen, z, 500, 1e-2, 1.0)
    back = _flow_points(gen, fwd[-1], 500, -1e-2, 1.0)
    assert np.abs(back[::-1] - fwd).max() <= 1e-12 * np.abs(fwd).max()


def test_flow_points_harmonic_closed_form_2_19_steps():
    dt = 2.0 ** -10
    pts = _flow_points(_number_op(), Z0, 2 ** 19, dt, 1.0)
    t = dt * np.arange(2 ** 19 + 1)
    assert np.abs(pts[:, 1] - np.exp(-1j * t) * Z0[1]).max() <= 1e-14
    assert np.all(pts[:, 0] == Z0[0])


def _assert_fourier_agrees(x, t0, dt, E, iota, rows=None):
    got = _uniform_fourier(x, t0, dt, E, iota)
    assert got.shape == (len(E),)
    rows = np.arange(len(E)) if rows is None else rows
    want = _dense_fourier(x, t0, dt, np.asarray(E)[rows], iota)
    assert np.abs(got[rows] - want).max() <= 1e-11 * np.abs(x).sum()


def test_uniform_fourier_on_the_criterion_6_grid():
    # the dense oracle is evaluated on every 7th energy (and the last) to
    # keep it to 2.5e7 exponentials; the transform itself covers the grid
    ser = oscillator_series(_number_op(), Z0, Z0, 400.0 * math.pi, 0.05)
    vals = np.concatenate([np.conj(ser.values[:0:-1]), ser.values])
    T = ser.times[-1]
    assert len(vals) == 50_267
    grid = np.arange(-0.5, 6.5 + 1e-12, 0.002)
    assert len(grid) == 3_501
    rows = np.r_[np.arange(0, len(grid), 7), len(grid) - 1]
    _assert_fourier_agrees(vals, -T, 0.05, grid, 1j, rows)


def test_uniform_fourier_on_the_roundtrip_grid():
    ham = HamiltonianSpec(gen=_zero_op())
    eta, dt = 0.05, 1e-2
    ser = oscillator_series(ham.gen, Z0, Z0, math.log(1e12) / eta, dt)
    x = ser.values * np.exp(-eta * ser.times) * dt
    grid = np.arange(-35.0, 35.0 + 1e-9, 0.025)
    rows = np.r_[np.arange(0, len(grid), 7), len(grid) - 1]
    _assert_fourier_agrees(x, 0.0, dt, grid, 1j, rows)


@pytest.mark.parametrize("E", [[1.0], [0.97, 1.0, 1.03], [-2.5, -2.5 + 1e-3, -2.5 + 2e-3]])
def test_uniform_fourier_on_one_and_three_point_grids(E):
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=4001) + 1j * rng.normal(size=4001)
    _assert_fourier_agrees(x, -20.0, 0.01, E, 1j)
    _assert_fourier_agrees(x, 3.0, 0.01, E, 1j / 0.7)


def test_non_uniform_grids_are_rejected(harmonic_series):
    bent = np.r_[np.arange(-0.5, 2.0, 0.004), np.arange(2.0, 4.5, 0.003)]
    with pytest.raises(DomainError, match="uniform"):
        spectrum_scan(harmonic_series, bent)
    ham = HamiltonianSpec(gen=_number_op())
    with pytest.raises(DomainError, match="uniform"):
        spectral_density(ham, Z0, Z0, [0.0, 1.0, 3.0], 0.05)
    with pytest.raises(DomainError, match="uniform"):
        _uniform_fourier(np.ones(5), 0.0, 0.1, [0.0, 0.1, 0.2 + 1e-6], 1j)
