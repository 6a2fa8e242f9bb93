"""The one step rule: horizons, steps and scales that are NaN or infinite.

Every time grid takes its step count from ``core._step_count``, and every
scale (hbar, eta, Im E, eps) must be finite and positive, so a NaN or an
infinity reaching a public entry point is a DomainError, never a plain
ValueError or OverflowError from int(round(...)) nor a NaN result.
"""

import math

import numpy as np
import pytest

from cohk import dynamics
from cohk.catalog import make_space
from cohk.core import MAX_SIZE, DomainError, _step_count
from cohk.dynamics import HamiltonianSpec, el_integrate, flow_exact, propagate_ode
from cohk.fock import OscGenerator, ccr_epsilon_check
from cohk.spectral import (
    eigencomponent_overlap,
    kt_roundtrip_residual,
    oscillator_series,
    rational_element,
    resolvent_element,
    resolvent_equation_residual,
    resolvent_symmetry_residual,
    schwinger_dyson_residual,
    spectral_density,
    time_average_overlap,
)

Z0 = np.array([-0.5, 1.0], dtype=complex)
GEN = OscGenerator(0.0, np.zeros(1), np.zeros(1), np.eye(1))
HAM = HamiltonianSpec(gen=GEN)
KLAUDER = make_space("klauder")
E_GRID = np.linspace(-2.0, 3.0, 51)


def _quadratic(z):
    return abs(z[1]) ** 2


@pytest.fixture(scope="module")
def series():
    return oscillator_series(GEN, Z0, Z0, 10.0, 0.05)


@pytest.fixture(scope="module")
def traj():
    return propagate_ode(KLAUDER, HAM, Z0, 10.0, 0.05)


# name -> (call of the bad value x, whether it is rejected before any flow)
_CASES = {
    "propagate_ode-t_end": (lambda x, s, tr: propagate_ode(KLAUDER, HAM, Z0, x, 0.01), True),
    "propagate_ode-dt": (lambda x, s, tr: propagate_ode(KLAUDER, HAM, Z0, 1.0, x), True),
    "el_integrate-t_end": (lambda x, s, tr: el_integrate(
        KLAUDER, HamiltonianSpec(H=_quadratic), Z0, x, 0.01), True),
    "el_integrate-dt": (lambda x, s, tr: el_integrate(
        KLAUDER, HamiltonianSpec(H=_quadratic), Z0, 1.0, x), True),
    "oscillator_series-t_max": (lambda x, s, tr: oscillator_series(GEN, Z0, Z0, x, 0.05), True),
    "oscillator_series-dt": (lambda x, s, tr: oscillator_series(GEN, Z0, Z0, 10.0, x), True),
    "oscillator_series-hbar": (lambda x, s, tr: oscillator_series(GEN, Z0, Z0, 10.0, 0.05, x),
                               True),
    "resolvent_element-Im_E": (lambda x, s, tr: resolvent_element(
        HAM, Z0, Z0, complex(0.5, x), 10.0), True),
    "resolvent_element-Re_E": (lambda x, s, tr: resolvent_element(
        HAM, Z0, Z0, complex(x, 0.1), 10.0), True),
    "resolvent_element-t_max": (lambda x, s, tr: resolvent_element(HAM, Z0, Z0, 0.5 + 0.1j, x),
                                True),
    "resolvent_element-dt": (lambda x, s, tr: resolvent_element(
        HAM, Z0, Z0, 0.5 + 0.1j, 0.0, x), True),
    "resolvent_symmetry_residual-E": (lambda x, s, tr: resolvent_symmetry_residual(
        HAM, Z0, Z0, complex(0.5, x)), True),
    "resolvent_equation_residual-E": (lambda x, s, tr: resolvent_equation_residual(
        HAM, Z0, Z0, complex(0.5, x)), True),
    "rational_element-eta": (lambda x, s, tr: rational_element(
        HAM, Z0, Z0, [0.5], [1.0], eta=x), True),
    "spectral_density-eta": (lambda x, s, tr: spectral_density(HAM, Z0, Z0, E_GRID, x), True),
    "spectral_density-dt": (lambda x, s, tr: spectral_density(HAM, Z0, Z0, E_GRID, 0.1, x),
                            True),
    "kt_roundtrip_residual-eta": (lambda x, s, tr: kt_roundtrip_residual(
        HAM, Z0, Z0, 1.0, x, E_GRID), True),
    # the density comes first, so its flows run before t is read
    "kt_roundtrip_residual-t": (lambda x, s, tr: kt_roundtrip_residual(
        HAM, Z0, Z0, x, 0.1, np.linspace(-5.0, 6.0, 201)), False),
    "time_average_overlap-T": (lambda x, s, tr: time_average_overlap(s, 0.0, x), True),
    "eigencomponent_overlap-T": (lambda x, s, tr: eigencomponent_overlap(
        KLAUDER, Z0, tr, 0.0, x), True),
    "flow_exact-t": (lambda x, s, tr: flow_exact(GEN, x, Z0), True),
    "flow_exact-t-stack": (lambda x, s, tr: flow_exact(GEN, [0.5, x], Z0), True),
    "flow_exact-hbar": (lambda x, s, tr: flow_exact(GEN, 1.0, Z0, x), True),
    "schwinger_dyson_residual-t": (lambda x, s, tr: schwinger_dyson_residual(HAM, Z0, Z0, x),
                                   True),
    "HamiltonianSpec-hbar": (lambda x, s, tr: HamiltonianSpec(gen=GEN, hbar=x), True),
    "ccr_epsilon_check-eps": (lambda x, s, tr: ccr_epsilon_check(
        np.ones(1), np.ones(1), Z0, Z0, [x, 0.1, 0.05]), True),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_non_finite_times_and_scales_are_domain_errors(case, bad, series, traj, monkeypatch):
    call, before_flow = _CASES[case]
    calls = []

    def counting(*args):
        calls.append(args)
        return block_exp(*args)

    block_exp = dynamics._block_exp
    monkeypatch.setattr(dynamics, "_block_exp", counting)
    with pytest.raises(DomainError):
        call(bad, series, traj)
    # no exponential of a time that is not finite, and none at all for the
    # inputs read before any flow runs
    assert all(np.isfinite(tau).all() for _, tau in calls)
    if before_flow:
        assert not calls


@pytest.mark.parametrize("span, dt", [(0.5, 1.0), (1.5, 1.0), (2.5, 1.0), (0.0, 0.1), (3.0, 0.1)])
def test_step_count_rounds_as_python_round(span, dt):
    assert _step_count(span, dt, "t_end") == round(span / dt)


def test_step_count_allows_max_size_steps_and_no_more():
    assert _step_count(float(MAX_SIZE), 1.0, "t_end") == MAX_SIZE
    assert _step_count(MAX_SIZE + 0.5, 1.0, "t_end") == MAX_SIZE  # rounds to even
    with pytest.raises(DomainError, match=r"^t_end needs 2e\+07 steps of dt=1; "
                                          rf"the most allowed is {MAX_SIZE}$"):
        _step_count(MAX_SIZE + 1.0, 1.0, "t_end")
    # a ratio that overflows is too many steps, not an infinite int
    with pytest.raises(DomainError, match="needs inf steps"):
        _step_count(1e300, 1e-300, "t_end")


@pytest.mark.parametrize("span, dt", [(-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
def test_step_count_names_its_horizon(span, dt):
    with pytest.raises(DomainError, match=r"^T=x, dt=.*: need a horizon >= 0"):
        _step_count(span, dt, "T=x")
