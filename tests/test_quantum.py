"""Finite combinations of coherent states and the induced quantum ops."""

import numpy as np
import pytest

from cohk.core import AxiomViolationError, CoherentSpace, DomainError
from cohk.catalog import make_space
from cohk.quantum import (
    CoherentMapSpec,
    KernelOperator,
    QVec,
    adjoint_residual,
    coherent_state,
    gamma_apply,
    inner,
    norm,
    orthonormal_basis,
    sandwich,
)

SEED = 0xC0FFEE


def test_inner_of_single_states_is_kernel():
    space = make_space("euclidean")
    phi = coherent_state(space, np.array([1.0, 2.0]))
    psi = coherent_state(space, np.array([3.0, 4.0]))
    assert inner(phi, psi) == pytest.approx(11.0)


def test_inner_is_antilinear_left_linear_right():
    space = make_space("hermitian")
    rng = np.random.default_rng(SEED)
    z, w = space.sample_point(rng), space.sample_point(rng)
    phi = coherent_state(space, z, coeff=2.0 - 1.0j)
    psi = coherent_state(space, w, coeff=0.5 + 0.25j)
    expect = np.conj(2.0 - 1.0j) * (0.5 + 0.25j) * space.kernel(z, w)
    assert inner(phi, psi) == pytest.approx(expect)


def test_norm_euclidean_three_four():
    space = make_space("euclidean")
    assert norm(coherent_state(space, np.array([3.0, 4.0]))) == pytest.approx(5.0)


def test_norm_of_difference_expands_correctly(space):
    rng = np.random.default_rng(SEED)
    z, w = space.sample_point(rng), space.sample_point(rng)
    d = coherent_state(space, z).minus(coherent_state(space, w))
    expect = (space.kernel(z, z) + space.kernel(w, w)
              - 2.0 * space.kernel(z, w).real)
    assert norm(d) ** 2 == pytest.approx(max(expect.real, 0.0), abs=1e-9 * max(1.0, abs(expect)))


def test_vector_algebra_round_trip():
    space = make_space("euclidean")
    a = coherent_state(space, np.array([1.0, 0.0]))
    b = coherent_state(space, np.array([0.0, 1.0]))
    v = a.scaled(2.0).plus(b.scaled(-3.0))
    assert len(v) == 2
    assert inner(v, a) == pytest.approx(2.0)
    assert inner(v, b) == pytest.approx(-3.0)


def test_space_mismatch_rejected():
    a = coherent_state(make_space("euclidean"), np.array([1.0, 0.0]))
    b = coherent_state(make_space("hermitian"), np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        inner(a, b)


class _IndefiniteLine(CoherentSpace):
    """Deliberately non-PSD product, to exercise the norm guard."""

    space_id = "indefinite-line"
    coord_len = 1
    complex_chart = False

    def kernel(self, z, zp):
        return np.asarray(z) * np.asarray(zp) - 2.0

    def validate(self, z):
        return float(z)

    def stack(self, pts):
        return np.asarray(pts, dtype=float)


def test_negative_squared_norm_raises():
    bad = _IndefiniteLine()
    with pytest.raises(AxiomViolationError):
        norm(coherent_state(bad, 1.0))


def test_orthonormal_basis_sphere_standard_pair():
    space = make_space("sphere")
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    basis = orthonormal_basis(space, [e1, e2])
    assert basis.kept == 2
    assert basis.eigenvalues[:2] == pytest.approx([1.0, 1.0])
    for i in range(2):
        for j in range(2):
            got = inner(basis.vector(space, i), basis.vector(space, j))
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_orthonormal_basis_klauder_two_points():
    space = make_space("klauder")
    pts = [np.array([-0.5, 0.0], dtype=complex),
           np.array([-0.5, 1.0], dtype=complex)]
    basis = orthonormal_basis(space, pts)
    assert basis.kept == 2
    g = np.exp(-1.0)
    assert basis.gram == pytest.approx(np.array([[g, g], [g, 1.0]]))


def test_orthonormal_basis_drops_duplicate_direction():
    space = make_space("euclidean")
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    basis = orthonormal_basis(space, [e1, e1, e2])
    assert basis.kept == 2


def test_orthonormal_basis_is_orthonormal(space):
    rng = np.random.default_rng(SEED)
    pts = space.sample_points(rng, 5)
    basis = orthonormal_basis(space, pts)
    got = np.array([
        [inner(basis.vector(space, i), basis.vector(space, j))
         for j in range(basis.kept)]
        for i in range(basis.kept)
    ])
    assert got == pytest.approx(np.eye(basis.kept), abs=5e-8)


def test_orthonormal_basis_empty_rank_rejected():
    space = make_space("euclidean")
    with pytest.raises(AxiomViolationError):
        orthonormal_basis(space, [np.zeros(2)])


def test_orthonormal_basis_of_no_points_names_them():
    with pytest.raises(DomainError, match="points: a Gram matrix needs at least one point"):
        orthonormal_basis(make_space("klauder"), [])


def test_gamma_apply_rotation_has_transpose_adjoint():
    space = make_space("euclidean")
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = CoherentMapSpec(forward=lambda z: R @ z, adjoint=lambda z: R.T @ z,
                        unitary_claim=True)
    rng = np.random.default_rng(SEED)
    samples = [(space.sample_point(rng), space.sample_point(rng))
               for _ in range(25)]
    assert adjoint_residual(space, A, samples) < 1e-12

    psi = coherent_state(space, np.array([1.0, 0.0]))
    rotated = gamma_apply(A, psi)
    assert rotated.terms[0][1] == pytest.approx(R[:, 0])


def test_adjoint_residual_flags_a_wrong_adjoint():
    space = make_space("euclidean")
    A = CoherentMapSpec(forward=lambda z: 2.0 * z, adjoint=lambda z: 3.0 * z)
    samples = [(np.array([1.0, 0.0]), np.array([1.0, 1.0]))]
    assert adjoint_residual(space, A, samples) > 0.5


def test_adjoint_residual_requires_an_adjoint():
    space = make_space("euclidean")
    with pytest.raises(DomainError):
        adjoint_residual(space, CoherentMapSpec(forward=lambda z: z), [])


def test_sandwich_of_kernel_operator_matches_inner():
    space = make_space("szego")
    rng = np.random.default_rng(SEED)
    z, w = space.sample_point(rng), space.sample_point(rng)
    phi = coherent_state(space, z, coeff=1.0 - 2.0j)
    psi = coherent_state(space, w, coeff=0.75j)
    ident = KernelOperator(matrix_element=space.kernel)
    assert sandwich(ident, phi, psi) == pytest.approx(inner(phi, psi))


def test_sandwich_accepts_bare_callables():
    space = make_space("euclidean")
    phi = coherent_state(space, np.array([1.0, 2.0]))
    psi = coherent_state(space, np.array([3.0, 4.0]))
    doubled = sandwich(lambda z, w: 2.0 * space.kernel(z, w), phi, psi)
    assert doubled == pytest.approx(22.0)
