"""Kernel evaluation, Gram matrices, and the metric-axiom layer."""

import math

import numpy as np
import pytest

from cohk.core import (
    LOG_ZERO,
    AxiomViolationError,
    DomainError,
    angle,
    cauchy_schwarz_margin,
    distance,
    gram,
    kernel_eval,
    length,
    nondegeneracy_probe,
    potential,
    psd_check,
)
from cohk.catalog import make_space

from conftest import SEED


def test_kernel_eval_reciprocal():
    sp = make_space("reciprocal")
    assert kernel_eval(sp, 1.0, 1.0) == pytest.approx(0.5)


def test_kernel_eval_klauder_origin():
    sp = make_space("klauder", dim=1)
    z = np.zeros(2, dtype=complex)
    assert kernel_eval(sp, z, z) == pytest.approx(1.0)


def test_kernel_eval_szego():
    sp = make_space("szego")
    assert kernel_eval(sp, 0.5, 0.5) == pytest.approx(4.0 / 3.0)


def test_kernel_eval_rejects_wrong_shape():
    sp = make_space("hermitian", dim=2)
    with pytest.raises(DomainError):
        kernel_eval(sp, np.ones(3, dtype=complex), np.ones(2, dtype=complex))


def test_gram_hilbert_matrix():
    sp = make_space("reciprocal")
    g = gram(sp, [0.5, 1.5, 2.5])
    expected = np.array(
        [[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
    )
    assert np.allclose(g, expected)


def test_gram_single_point_positive(space, rng):
    z = space.sample_point(rng)
    g = gram(space, [z])
    assert g.shape == (1, 1)
    assert g[0, 0].real > 0
    assert abs(g[0, 0].imag) < 1e-12 * max(1.0, g[0, 0].real)


def test_gram_sphere_standard_basis():
    sp = make_space("sphere", dim=2)
    e1 = np.array([1, 0], dtype=complex)
    e2 = np.array([0, 1], dtype=complex)
    assert np.allclose(gram(sp, [e1, e2]), np.eye(2))


def test_psd_check_hilbert():
    sp = make_space("reciprocal")
    rep = psd_check(gram(sp, [0.5, 1.5, 2.5]))
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(2.687e-3, rel=1e-3)


def test_psd_check_identity():
    rep = psd_check(np.eye(2))
    assert rep.passed and rep.min_eigenvalue == pytest.approx(1.0)


def test_psd_check_indefinite():
    rep = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not rep.passed
    assert rep.min_eigenvalue == pytest.approx(-1.0)
    assert rep.max_eigenvalue == pytest.approx(3.0)


def test_psd_check_rejects_nonsquare():
    with pytest.raises(DomainError):
        psd_check(np.ones((2, 3)))


def test_empty_point_sets_are_domain_errors(space):
    with pytest.raises(DomainError, match="points: a Gram matrix needs at least one point"):
        gram(space, [])
    with pytest.raises(DomainError, match=r"gram matrix is empty \(0 x 0\)"):
        psd_check(np.zeros((0, 0)))


def test_gram_psd_property(space, rng):
    pts = space.sample_points(rng, 12)
    assert psd_check(gram(space, pts)).passed


def test_length_sphere(rng):
    sp = make_space("sphere", dim=3)
    assert length(sp, sp.sample_point(rng)) == pytest.approx(1.0)


def test_length_examples():
    assert length(make_space("klauder", dim=1), np.zeros(2, complex)) == pytest.approx(1.0)
    assert length(make_space("euclidean", dim=2), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_angle_orthogonal():
    sp = make_space("euclidean", dim=2)
    a = angle(sp, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert a == pytest.approx(math.pi / 2)


def test_angle_self_is_zero(space, rng):
    z = space.sample_point(rng)
    assert angle(space, z, z) == pytest.approx(0.0, abs=3e-8)


def test_angle_szego_offset_points():
    # |K| = 0.8, lengths sqrt(4/3) each, so cos = 0.8 * 3/4
    sp = make_space("szego")
    assert angle(sp, 0.5, -0.5) == pytest.approx(math.acos(0.6))


def test_angle_zero_length_rejected():
    sp = make_space("euclidean", dim=2)
    with pytest.raises(DomainError):
        angle(sp, np.zeros(2), np.array([1.0, 0.0]))


def test_distance_euclidean():
    sp = make_space("euclidean", dim=2)
    d = distance(sp, np.zeros(2), np.array([3.0, 4.0]))
    assert d == pytest.approx(5.0)


def test_distance_self_zero(space, rng):
    z = space.sample_point(rng)
    assert distance(space, z, z) == pytest.approx(0.0, abs=1e-7)


def test_distance_klauder_displaced():
    sp = make_space("klauder", dim=1)
    z = np.array([0.0, 1.0], dtype=complex)
    zp = np.zeros(2, dtype=complex)
    assert distance(sp, z, zp) == pytest.approx(math.sqrt(math.e - 1.0))


def test_potential_klauder_exponent():
    sp = make_space("klauder", dim=1)
    z = np.array([0.1 + 0.2j, 0.3 - 0.1j])
    zp = np.array([-0.4 + 0.05j, 0.2 + 0.6j])
    expected = np.conj(z[0]) + zp[0] + np.conj(z[1]) * zp[1]
    assert potential(sp, z, zp) == pytest.approx(expected)


def test_potential_log_zero_sentinel():
    sp = make_space("euclidean", dim=2)
    p = potential(sp, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert p is LOG_ZERO


def test_potential_reciprocal_zero():
    assert potential(make_space("reciprocal"), 0.5, 0.5) == pytest.approx(0.0)


def test_cs_margin_examples(rng):
    sph = make_space("sphere", dim=2)
    e1 = np.array([1, 0], dtype=complex)
    e2 = np.array([0, 1], dtype=complex)
    assert cauchy_schwarz_margin(sph, e1, e2) == pytest.approx(1.0)
    assert cauchy_schwarz_margin(make_space("szego"), 0.3, 0.7) > 0


def test_cs_margin_self(space, rng):
    z = space.sample_point(rng)
    assert cauchy_schwarz_margin(space, z, z) == pytest.approx(0.0, abs=1e-9)


def test_nondegeneracy_probe_euclidean():
    sp = make_space("euclidean", dim=2)
    z = np.array([1.0, 0.0])
    z2 = np.array([2.0, 0.0])
    assert nondegeneracy_probe(sp, z, z2, [np.array([0.0, 1.0])]) == 0.0
    assert nondegeneracy_probe(sp, z, z2, [np.array([1.0, 0.0])]) == pytest.approx(1.0)


def test_nondegeneracy_probe_distinct_points(space, rng):
    if not space.nondegenerate_claim:
        pytest.skip("space makes no nondegeneracy claim")
    z, z2 = space.sample_points(rng, 2)
    witnesses = space.sample_points(rng, 8)
    assert nondegeneracy_probe(space, z, z2, witnesses) > 1e-12


def test_nondegeneracy_probe_needs_witnesses():
    sp = make_space("szego")
    with pytest.raises(DomainError):
        nondegeneracy_probe(sp, 0.1, 0.2, [])


# ---- axiom sweep over every catalog space ----


def _scale(space, pts):
    return max(abs(space.kernel(z, z)) for z in pts)


def test_hermitian_symmetry(space, rng):
    pts = space.sample_points(rng, 10)
    for z in pts:
        for zp in pts:
            k = space.kernel(z, zp)
            kt = space.kernel(zp, z)
            assert abs(np.conj(k) - kt) <= 1e-12 * max(1.0, abs(k))


def test_gram2_inequality(space, rng):
    pts = space.sample_points(rng, 10)
    scale = _scale(space, pts)
    for z in pts:
        for zp in pts:
            lhs = abs(space.kernel(z, zp)) ** 2
            rhs = (space.kernel(z, z) * space.kernel(zp, zp)).real
            assert lhs <= rhs + 1e-10 * max(1.0, scale) ** 2


def test_triangle_inequality(space, rng):
    pts = space.sample_points(rng, 8)
    scale = _scale(space, pts)
    for x in pts:
        for y in pts:
            for z in pts:
                assert distance(space, x, z) <= (
                    distance(space, x, y) + distance(space, y, z) + 1e-10 * max(1.0, scale)
                )


def test_distance_norm_bounds(space, rng):
    pts = space.sample_points(rng, 10)
    tol = 1e-10 * max(1.0, _scale(space, pts))
    for z in pts:
        for zp in pts:
            d = distance(space, z, zp)
            lz, lzp = length(space, z), length(space, zp)
            assert abs(lz - lzp) <= d + tol
            assert d <= lz + lzp + tol


def test_kernel_lipschitz_bound(space, rng):
    # |K(y,z) - K(y',z')| <= d(y,y') ||z'|| + ||y|| d(z,z')
    pts = space.sample_points(rng, 6)
    tol = 1e-10 * max(1.0, _scale(space, pts))
    for y in pts[:3]:
        for yp in pts[:3]:
            for z in pts[3:]:
                for zp in pts[3:]:
                    lhs = abs(space.kernel(y, z) - space.kernel(yp, zp))
                    rhs = distance(space, y, yp) * length(space, zp) + length(
                        space, y
                    ) * distance(space, z, zp)
                    assert lhs <= rhs + tol


def test_potential_cs_inequality(space, rng):
    # 2 Re P(z,z') <= P(z,z) + P(z',z') when all three are finite
    pts = space.sample_points(rng, 10)
    for z in pts:
        for zp in pts:
            p = potential(space, z, zp)
            pz = potential(space, z, z)
            pzp = potential(space, zp, zp)
            if p is LOG_ZERO or pz is LOG_ZERO or pzp is LOG_ZERO:
                continue
            assert 2 * p.real <= pz.real + pzp.real + 1e-9


def test_seed_is_stable():
    # the default seed is part of the reproducibility contract
    assert SEED == 0xC0FFEE
