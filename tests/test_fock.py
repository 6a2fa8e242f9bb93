"""Oscillator semigroup bookkeeping and the operator identities built on it."""

import math

import numpy as np
import pytest

from cohk.catalog import make_space
from cohk.core import DomainError
from cohk.fock import (
    _klauder_diagonal,
    CcrReport,
    OscElement,
    OscGenerator,
    annihilation_element,
    ccr_epsilon_check,
    creation_element,
    dgamma_element,
    gamma_colon_residual,
    gamma_element,
    gen_block,
    klauder_kernel,
    normal_ordered_element,
    normal_ordered_series,
    osc_act,
    osc_adjoint,
    osc_block,
    osc_bracket,
    osc_exp,
    osc_from_block,
    osc_identity,
    osc_mul,
    segal_field_element,
    weyl_element,
    weyl_ordered_element,
    weyl_relation_residuals,
)

SEED = 0xC0FFEE


def _random_element(rng, n):
    return OscElement(
        rng.normal() + 1j * rng.normal(),
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=n) + 1j * rng.normal(size=n),
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
    )


def _random_generator(rng, n):
    e = _random_element(rng, n)
    return OscGenerator(e.rho, e.p, e.q, e.X)


def _random_label(rng, n):
    return 0.5 * (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


def test_klauder_kernel_origin_is_one():
    assert klauder_kernel([0.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)


def test_osc_mul_matches_block_product():
    """The semigroup law *is* 3-block matrix multiplication; check against
    the product computed by numpy alone."""
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        for _ in range(10):
            A, B = _random_element(rng, n), _random_element(rng, n)
            lhs = osc_block(osc_mul(A, B))
            rhs = osc_block(A) @ osc_block(B)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, np.abs(rhs).max()))


def test_osc_act_matches_block_action():
    rng = np.random.default_rng(SEED)
    for n in (1, 2):
        for _ in range(10):
            A = _random_element(rng, n)
            z = _random_label(rng, n)
            v = np.concatenate([[z[0]], z[1:], [1.0]])
            w = osc_block(A) @ v
            out = osc_act(A, z)
            assert out[0] == pytest.approx(w[0])
            assert out[1:] == pytest.approx(w[1:-1])
            assert w[-1] == pytest.approx(1.0)


def test_osc_block_round_trip():
    rng = np.random.default_rng(SEED)
    A = _random_element(rng, 3)
    back = osc_from_block(osc_block(A))
    assert back.rho == pytest.approx(A.rho)
    assert back.p == pytest.approx(A.p)
    assert back.q == pytest.approx(A.q)
    assert back.X == pytest.approx(A.X)


def test_osc_identity_is_neutral():
    rng = np.random.default_rng(SEED)
    A = _random_element(rng, 2)
    for prod in (osc_mul(A, osc_identity(2)), osc_mul(osc_identity(2), A)):
        assert osc_block(prod) == pytest.approx(osc_block(A))


def test_osc_adjoint_moves_through_the_kernel():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        A = _random_element(rng, 2)
        z, zp = _random_label(rng, 2), _random_label(rng, 2)
        lhs = klauder_kernel(z, osc_act(A, zp))
        rhs = klauder_kernel(osc_act(osc_adjoint(A), z), zp)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert worst < 1e-12


def test_osc_bracket_matches_block_commutator():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        g1, g2 = _random_generator(rng, 2), _random_generator(rng, 2)
        lhs = gen_block(osc_bracket(g1, g2))
        b1, b2 = gen_block(g1), gen_block(g2)
        rhs = b1 @ b2 - b2 @ b1
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, np.abs(rhs).max()))


def test_osc_exp_is_a_one_parameter_semigroup():
    rng = np.random.default_rng(SEED)
    g = _random_generator(rng, 2)
    a = osc_exp(g, 0.3)
    b = osc_exp(g, 0.5)
    both = osc_exp(g, 0.8)
    assert osc_block(osc_mul(a, b)) == pytest.approx(osc_block(both))


def test_dgamma_is_the_derivative_of_gamma_along_exp():
    """Independent check: centered difference of gamma_element(osc_exp(g, t))
    at t = 0, with one Richardson step, against the closed form."""
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        g = _random_generator(rng, 2)
        z, zp = _random_label(rng, 2), _random_label(rng, 2)

        def d(h):
            up = gamma_element(osc_exp(g, h), z, zp)
            dn = gamma_element(osc_exp(g, -h), z, zp)
            return (up - dn) / (2.0 * h)

        h = 1e-4
        fd = (4.0 * d(h / 2.0) - d(h)) / 3.0
        closed = dgamma_element(g, z, zp)
        assert fd == pytest.approx(closed, rel=1e-8, abs=1e-10)


def test_kernel_and_dgamma_broadcast_over_stacked_labels():
    rng = np.random.default_rng(SEED)
    for n in (1, 3):
        g = _random_generator(rng, n)
        z = _random_label(rng, n)
        zps = np.stack([_random_label(rng, n) for _ in range(12)]).reshape(3, 4, n + 1)
        k = klauder_kernel(z, zps)
        h = dgamma_element(g, z, zps)
        assert k.shape == h.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            one_k = klauder_kernel(z, zps[idx])
            one_h = dgamma_element(g, z, zps[idx])
            assert type(one_k) is complex and type(one_h) is complex
            # per-label definitions, written out independently
            zh, zph = z[1:], zps[idx][1:]
            want_k = np.exp(np.conj(z[0]) + zps[idx][0] + np.vdot(zh, zph))
            want_h = want_k * (g.rho + np.vdot(g.p, zph) + np.vdot(zh, g.q)
                               + np.vdot(zh, g.X @ zph))
            assert k[idx] == pytest.approx(one_k, rel=1e-14)
            assert h[idx] == pytest.approx(one_h, rel=1e-13)
            assert one_k == pytest.approx(want_k, rel=1e-14)
            assert one_h == pytest.approx(want_h, rel=1e-13)


def test_dgamma_over_stacked_left_labels_is_independent_of_stack_length():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        g = _random_generator(rng, n)
        zs = np.stack([_random_label(rng, n) for _ in range(40)])
        zps = np.stack([_random_label(rng, n) for _ in range(40)])
        h = dgamma_element(g, zs, zps)
        assert h.shape == (40,)
        for i in range(40):
            assert dgamma_element(g, zs[i:i + 1], zps[i:i + 1]).tobytes() == h[i:i + 1].tobytes()


def test_dgamma_number_operator_harmonic_point():
    z = np.array([-0.5, 1.0], dtype=complex)
    n_op = OscGenerator(0.0, np.zeros(1), np.zeros(1), np.eye(1))
    assert dgamma_element(n_op, z, z) == pytest.approx(1.0)


def test_ladder_elements_against_eigenrelation():
    rng = np.random.default_rng(SEED)
    q = np.array([0.3 - 0.2j, 1.1j])
    z, zp = _random_label(rng, 2), _random_label(rng, 2)
    k = klauder_kernel(z, zp)
    assert annihilation_element(q, z, zp) == pytest.approx(k * np.vdot(q, zp[1:]))
    assert creation_element(q, z, zp) == pytest.approx(k * np.vdot(z[1:], q))
    assert segal_field_element(q, z, zp) == pytest.approx(
        (annihilation_element(q, z, zp) + creation_element(q, z, zp)) / math.sqrt(2.0)
    )


def test_creation_is_adjoint_of_annihilation():
    rng = np.random.default_rng(SEED)
    q = np.array([0.4 + 0.1j])
    z, zp = _random_label(rng, 1), _random_label(rng, 1)
    assert creation_element(q, z, zp) == pytest.approx(
        np.conj(annihilation_element(q, zp, z))
    )


def test_normal_ordered_monomial():
    z = np.array([0.1, 0.5 - 0.25j], dtype=complex)
    zp = np.array([-0.2j, 0.3 + 0.4j], dtype=complex)
    got = normal_ordered_element(lambda w, v: w[0] ** 2 * v[0], z, zp)
    expect = klauder_kernel(z, zp) * np.conj(z[1]) ** 2 * zp[1]
    assert got == pytest.approx(expect)


def test_normal_ordered_series_sums_the_exponential():
    """sum_k :(a* a)^k/k!: termwise equals Gamma([0,0,0,2]) for one mode."""
    z = np.array([0.1, 0.6 - 0.2j], dtype=complex)
    zp = np.array([0.05j, 0.4 + 0.3j], dtype=complex)
    terms = (
        (lambda w, v, k=k: (w[0] * v[0]) ** k / math.factorial(k))
        for k in range(60)
    )
    got = normal_ordered_series(terms, z, zp)
    doubling = OscElement(0.0, np.zeros(1), np.zeros(1), 2.0 * np.eye(1))
    assert got == pytest.approx(gamma_element(doubling, z, zp), rel=1e-12)


def test_normal_ordered_series_reports_non_settling():
    z = np.array([0.0, 1.0], dtype=complex)
    growing = ((lambda w, v, k=k: float(k + 1)) for k in range(10 ** 6))
    with pytest.raises(ArithmeticError):
        normal_ordered_series(growing, z, z, max_terms=50)


def test_weyl_vacuum_anchor():
    """<[0,0]| W(1,1) |[0,0]> = e^{1/2}, the BCH central term alone."""
    vac = np.array([0.0, 0.0], dtype=complex)
    got = weyl_element(np.array([1.0]), np.array([1.0]), vac, vac)
    assert got == pytest.approx(math.exp(0.5), rel=1e-13)


def test_weyl_vs_ordered_ratio():
    rng = np.random.default_rng(SEED)
    p = np.array([0.3 + 0.1j])
    q = np.array([-0.2 + 0.5j])
    z, zp = _random_label(rng, 1), _random_label(rng, 1)
    ratio = weyl_ordered_element(p, q, z, zp) / weyl_element(p, q, z, zp)
    assert ratio == pytest.approx(np.exp(np.vdot(p, q) / 2.0))


def test_weyl_relations_hold_to_rounding():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        p, q, pp, qp = (rng.normal(size=n) + 1j * rng.normal(size=n)
                        for _ in range(4))
        samples = [(_random_label(rng, n), _random_label(rng, n))
                   for _ in range(20)]
        report = weyl_relation_residuals(0.6 * p, 0.6 * q, 0.6 * pp, 0.6 * qp,
                                         samples)
        assert report.max_residual <= 1e-12 * report.scale


def test_weyl_relations_make_seven_gamma_elements_a_pair(monkeypatch):
    """W W' is composed once and evaluated once per pair: the five
    identities need 7 distinct gamma_element calls, not 8."""
    import cohk.fock

    calls = []
    real = cohk.fock.gamma_element
    monkeypatch.setattr(cohk.fock, "gamma_element",
                        lambda A, z, zp: calls.append(1) or real(A, z, zp))
    rng = np.random.default_rng(SEED)
    p, q, pp, qp = (0.6 * (rng.normal(size=2) + 1j * rng.normal(size=2))
                    for _ in range(4))
    samples = [(_random_label(rng, 2), _random_label(rng, 2)) for _ in range(5)]
    weyl_relation_residuals(p, q, pp, qp, samples)
    assert len(calls) == 7 * len(samples)


def test_weyl_report_reads_its_identity_fields():
    """max_residual is the maximum over the fields before scale, and no
    samples leave every identity at 0."""
    from dataclasses import fields

    rng = np.random.default_rng(SEED)
    p, q, pp, qp = (rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4))
    samples = [(_random_label(rng, 1), _random_label(rng, 1)) for _ in range(10)]
    rep = weyl_relation_residuals(p, q, pp, qp, samples)
    names = [f.name for f in fields(rep)][:-1]
    assert names == ["exchange", "composition", "inverse", "swap", "group_commutator"]
    assert list(rep.residuals) == names
    assert rep.max_residual == max(getattr(rep, name) for name in names)
    empty = weyl_relation_residuals(p, q, pp, qp, [])
    assert empty.residuals == dict.fromkeys(names, 0.0) and empty.scale == 1.0


def test_weyl_inverse_composition_value():
    """W_ord(p,q) W_ord(-p,-q) acts as multiplication by e^{p*q}: the
    element product collapses to [-p*q, 0, 0, 1] and the two ordering
    scalars contribute e^{2 p*q}."""
    p = np.array([0.7])
    q = np.array([0.2 - 0.4j])
    z = np.array([0.1, 0.3 + 0.2j], dtype=complex)
    zp = np.array([-0.05, 0.1 - 0.6j], dtype=complex)
    fwd = OscElement(0.0, p, q, np.eye(1))
    bwd = OscElement(0.0, -p, -q, np.eye(1))
    prod = osc_mul(fwd, bwd)
    assert gamma_element(prod, z, zp) == pytest.approx(
        np.exp(-np.vdot(p, q)) * klauder_kernel(z, zp))
    scalars = np.exp(np.vdot(p, q)) * np.exp(np.vdot(-p, -q))
    assert scalars * gamma_element(prod, z, zp) == pytest.approx(
        np.exp(np.vdot(p, q)) * klauder_kernel(z, zp))


def test_ccr_deltas_match_closed_form():
    """Delta(eps) = (e^{eps^2 p*q} - 1) K(z, [0, eps p, eps q, 1] z'),
    derived once by hand; the op must reproduce it at every node."""
    rng = np.random.default_rng(SEED)
    p = np.array([0.8 - 0.3j])
    q = np.array([0.5 + 0.6j])
    z, zp = _random_label(rng, 1), _random_label(rng, 1)
    eps = [0.2, 0.1, 0.05, 0.025]
    report = ccr_epsilon_check(p, q, z, zp, eps)
    for e, d in zip(eps, report.deltas):
        shift = OscElement(0.0, e * p, e * q, np.eye(1))
        expect = (np.exp(e * e * np.vdot(p, q)) - 1.0) * gamma_element(shift, z, zp)
        assert d == pytest.approx(expect, rel=1e-12)


def test_ccr_slope_unit_case():
    z = np.array([-0.5, 1.0], dtype=complex)
    report = ccr_epsilon_check(np.array([1.0]), np.array([1.0]), z, z,
                               [0.1 / 2 ** j for j in range(6)])
    k = klauder_kernel(z, z)
    assert report.limit / k == pytest.approx(1.0, abs=1e-9)
    assert report.residual_product <= 1e-9 * abs(k)


def test_ccr_slope_complex_case_prefers_product_candidate():
    z = np.array([-0.5, 1.0], dtype=complex)
    report = ccr_epsilon_check(np.array([1.0]), np.array([1.0j]), z, z,
                               [0.1 / 2 ** j for j in range(6)])
    k = klauder_kernel(z, z)
    assert report.limit / k == pytest.approx(1.0j, abs=1e-9)
    assert report.residual_product <= 1e-9 * abs(k)
    assert report.residual_imag_twist == pytest.approx(abs(1.0j + 2.0) * abs(k), rel=1e-6)


def test_ccr_eps_list_must_decrease():
    z = np.array([0.0, 0.0], dtype=complex)
    with pytest.raises(DomainError):
        ccr_epsilon_check(np.array([1.0]), np.array([1.0]), z, z, [0.1, 0.2])
    with pytest.raises(DomainError):
        ccr_epsilon_check(np.array([1.0]), np.array([1.0]), z, z, [0.1])


def test_gamma_colon_identity():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3):
        g = _random_generator(rng, n)
        samples = [(_random_label(rng, n), _random_label(rng, n))
                   for _ in range(15)]
        res = gamma_colon_residual(g.rho, g.p, g.q, g.X, samples)
        assert res <= 1e-12 * max(
            1.0, max(abs(gamma_element(OscElement(g.rho, g.p, g.q, g.X), z, w))
                     for z, w in samples))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_klauder_diagonal_is_the_kernel_on_the_diagonal(dim):
    # one real exponential against the complex one of kernel(z, z): within
    # 1 ulp, bit for bit on most labels; labels up to 10x the sampled scale
    # reach exponents near 100
    space = make_space("klauder", dim=dim)
    rng = np.random.default_rng(0xC0FFEE)
    Z = np.concatenate([space.sample_points(rng, 2000) * s for s in (1.0, 3.0, 10.0)])
    n = np.vecdot(Z[:, 1:], Z[:, 1:]).real
    got = _klauder_diagonal(Z, n)
    want = space.kernel(Z, Z).real
    assert np.isfinite(want).all() and (got == want).mean() > 0.9
    assert np.all(np.abs(got - want) <= np.spacing(want))
    for z, k, nz in zip(Z, got, n):
        assert _klauder_diagonal(z, nz) == k  # a single label gets its stack bits
    assert np.array_equal(_klauder_diagonal(Z.reshape(3, 2000, -1), n.reshape(3, 2000)),
                          got.reshape(3, 2000))
