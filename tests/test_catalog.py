"""Catalog spaces: kernels, closed-form geometry vs the FD oracle."""

import importlib.util
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cohk.core import MAX_SIZE, DomainError, gram, psd_check
from cohk.catalog import (
    DeBrangesSpace,
    EuclideanSpace,
    HermitianSpace,
    KlauderSpace,
    SchurSpace,
    UnitSphereSpace,
    commutation_check,
    default_spaces,
    fd_L,
    fd_LR,
    fd_R,
    geometry_report,
    infinitesimal_cs_margin,
    make_space,
    metric_g,
    one_form_theta,
    potential_inequality_check,
    space_names,
    two_form_omega,
    wtg_matrix,
)

SEED = 0xC0FFEE


def test_catalog_has_eight_spaces():
    assert len(space_names()) == 8


def test_make_space_from_descriptor_dict():
    sp = make_space({"kind": "euclidean", "dim": 3})
    assert sp.coord_len == 3


def test_make_space_unknown_kind():
    with pytest.raises(DomainError):
        make_space("banach")


def _f(z):
    return 0.5 * z


# each malformed descriptor, and the key its message starts with
_BAD_DESCRIPTORS = [
    (("banach",), {}, "kind"),
    ((["klauder"],), {}, "kind"),
    ((None,), {}, "kind"),
    (({"dim": 2},), {}, "kind"),
    (({"kind": 3},), {}, "kind"),
    (("klauder",), {"dimm": 3}, "dimm"),
    (("szego",), {"dim": 1}, "dim"),
    (("schur",), {"E": _f}, "E"),
    (("euclidean",), {"dim": 2.9}, "dim"),
    (("euclidean",), {"dim": "3"}, "dim"),
    (("euclidean",), {"dim": True}, "dim"),
    (("euclidean",), {"dim": np.float64(2.0)}, "dim"),
    (("hermitian",), {"dim": 0}, "dim"),
    (("sphere",), {"dim": -1}, "dim"),
    (("klauder",), {"dim": MAX_SIZE + 1}, "dim"),
    (("klauder",), {"dim": 10 ** 400}, "dim"),
    (("schur",), {"preset": "x"}, "preset"),
    (("debranges",), {"preset": 1}, "preset"),
    (("debranges",), {"preset": None}, "preset"),
    (("schur",), {"s": _f}, "s_prime"),
    (("schur",), {"s_prime": _f}, "s"),
    (("schur",), {"s": 1, "s_prime": _f}, "s"),
    (("debranges",), {"E": _f, "E_prime": 0}, "E_prime"),
    (("schur",), {"s": _f, "s_prime": _f, "preset": "mobius"}, "preset"),
    (({"kind": "klauder"},), {"dim": 2}, "dim"),
    (({"kind": "schur", "preset": "square"},), {"preset": "mobius"}, "preset"),
]


@pytest.mark.parametrize("args, params, key", _BAD_DESCRIPTORS)
def test_make_space_names_the_malformed_key(args, params, key):
    with pytest.raises(DomainError, match=rf"^{key}: "):
        make_space(*args, **params)


@pytest.mark.parametrize("cls", [EuclideanSpace, HermitianSpace, UnitSphereSpace, KlauderSpace])
@pytest.mark.parametrize("dim", [2.5, 0, -1, True, "2", MAX_SIZE + 1])
def test_direct_construction_checks_dim(cls, dim):
    with pytest.raises(DomainError, match=r"^dim: "):
        cls(dim)


def test_descriptor_defaults_and_callables():
    assert make_space("klauder", dim=np.int64(2)).space_id == "klauder(2)"
    assert make_space({"kind": "sphere"}).space_id == "sphere(2)"
    assert KlauderSpace(3).coord_len == 4 and EuclideanSpace(3).coord_len == 3
    schur = make_space("schur", s=_f, s_prime=lambda z: 0.5 + 0.0 * z)
    assert schur.space_id == "schur" and schur.s is _f


def test_benchmark_spaces_match_the_default_spaces():
    # perfbench/workloads.py says its SPACES match default_spaces(); hold it to that
    assert [s.space_id.split("(")[0] for s in default_spaces()] == space_names()
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert ([make_space(d).space_id for d in workloads.SPACES]
            == [s.space_id for s in default_spaces()])


def test_klauder_kernel_formula(rng):
    sp = make_space("klauder", dim=1)
    z = sp.sample_point(rng)
    zp = sp.sample_point(rng)
    expected = np.exp(np.conj(z[0]) + zp[0] + np.conj(z[1]) * zp[1])
    assert sp.kernel(z, zp) == pytest.approx(expected)


def test_debranges_exp_is_sinc_on_reals():
    sp = make_space("debranges", preset="exp")
    x, xp = 0.7, -0.4
    assert sp.kernel(x, xp) == pytest.approx(math.sin(x - xp) / (x - xp))
    # Paley-Wiener: the sinc Gram over real samples is PSD
    g = gram(sp, [-2.0, -0.5, 0.3, 1.1, 2.4])
    assert psd_check(g).passed


def test_debranges_diagonal_branch_continuity():
    sp = make_space("debranges", preset="damped-linear")
    x = 0.8
    near = sp.kernel(x, x + 3e-9)
    at = sp.kernel(x, x)
    assert at == pytest.approx(2.0 + x * x, rel=1e-10)
    assert near == pytest.approx(at, rel=1e-6)


@pytest.mark.parametrize("name", ["szego", "schur"])
def test_out_of_disk_label_names_its_space(name):
    space = make_space(name)
    for check in (space.validate, lambda z: space.stack([0.1, z])):
        with pytest.raises(DomainError, match=f"^{name} points lie in the open unit disk$"):
            check(1.2)


def test_schur_rejects_non_schur_map():
    with pytest.raises(DomainError):
        SchurSpace(lambda z: 2.0 * z, lambda z: 2.0)


def test_debranges_rejects_bad_structure_function():
    # E = e^{+iz} grows in the lower half-plane instead
    with pytest.raises(DomainError):
        DeBrangesSpace(lambda z: np.exp(1j * z), lambda z: 1j * np.exp(1j * z))


def test_schur_zero_map_reduces_to_szego(rng):
    schur = SchurSpace(lambda z: 0.0 * z, lambda z: 0.0 * z)
    szego = make_space("szego")
    z, zp = szego.sample_points(rng, 2)
    assert schur.kernel(z, zp) == pytest.approx(szego.kernel(z, zp))
    X, Y = 0.3 + 0.1j, -0.2 + 0.4j
    assert schur.mixed_form(z, X, Y) == pytest.approx(szego.mixed_form(z, X, Y))


def test_schur_mobius_kernel_is_rank_one(rng):
    # 1 - conj(s(z))s(z') = 3(1 - conj(z)z')/(conj(z+2)(z'+2)), so the
    # kernel factors as conj(g(z))g(z') with g = sqrt(3)/(z+2): the
    # infinitesimal Cauchy-Schwarz inequality is an equality everywhere
    sp = make_space("schur", preset="mobius")
    z, zp = sp.sample_points(rng, 2)
    g = lambda w: math.sqrt(3.0) / (w + 2.0)
    assert sp.kernel(z, zp) == pytest.approx(np.conj(g(z)) * g(zp))
    X = sp.sample_tangent(z, rng)
    assert infinitesimal_cs_margin(sp, z, X) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.det(wtg_matrix(sp, z, X)) == pytest.approx(0.0, abs=1e-12)


def test_fd_r_klauder_vanishes_at_origin():
    sp = make_space("klauder", dim=1)
    z = np.zeros(2, dtype=complex)
    X = np.array([0.0, 1.0], dtype=complex)
    assert fd_R(sp, sp.kernel, z, z, X) == pytest.approx(0.0, abs=1e-9)


def test_fd_on_constant_function(space, rng):
    z = space.sample_point(rng)
    X = space.sample_tangent(z, rng)
    const = lambda a, b: 1.0 + 0.0j
    assert fd_L(space, const, z, z, X) == pytest.approx(0.0, abs=1e-12)
    assert fd_R(space, const, z, z, X) == pytest.approx(0.0, abs=1e-12)


def test_fd_r_szego_origin():
    sp = make_space("szego")
    assert fd_R(sp, sp.kernel, 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_fd_lr_examples(rng):
    # the mixed stencil carries ~1e-6 relative roundoff, so 1e-5 here
    kl = make_space("klauder", dim=1)
    X = np.array([0.0, 1.0], dtype=complex)
    assert fd_LR(kl, np.zeros(2, complex), X, X) == pytest.approx(1.0, rel=1e-5)

    eu = make_space("euclidean", dim=2)
    e1 = np.array([1.0, 0.0])
    assert fd_LR(eu, eu.sample_point(rng), e1, e1) == pytest.approx(1.0, rel=1e-5)

    sz = make_space("szego")
    assert fd_LR(sz, 0.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-5)


# ---- one broadcasting kernel per space ----


def test_kernel_stack_matches_single_pairs(space, rng):
    Z = space.sample_points(rng, 12)
    W = space.sample_points(rng, 12)
    Z = Z.reshape((3, 4) + Z.shape[1:])
    W = W.reshape((3, 4) + W.shape[1:])
    K = space.kernel(Z, W)
    assert K.shape == (3, 4) and K.dtype == complex
    for i in range(3):
        for j in range(4):
            one = space.kernel(Z[i, j], W[i, j])
            assert isinstance(one, complex)
            assert one == K[i, j]  # bit for bit


def test_kernel_broadcasts_one_label_against_a_stack(space, rng):
    z = space.sample_point(rng)
    W = space.sample_points(rng, 5)
    right = space.kernel(z, W)
    left = space.kernel(W, z)
    assert right.shape == left.shape == (5,)
    for k in range(5):
        assert right[k] == space.kernel(z, W[k])
        assert left[k] == space.kernel(W[k], z)


def test_gram_is_one_broadcast_kernel_call(space, rng):
    P = space.sample_points(rng, 6)
    g = gram(space, P)
    for j in range(6):
        for k in range(6):
            assert g[j, k] == space.kernel(P[j], P[k])


def _stacked_cases(space, rng, n):
    Z = space.sample_points(rng, n)
    return Z, space.sample_tangent(Z, rng), space.sample_tangent(Z, rng)


def _assert_stack_matches_single_cases(space, Z, X, Y):
    K = space.kernel
    th_R, lr = fd_R(space, K, Z, Z, X), fd_LR(space, Z, X, Y)
    th, mix = space.theta_form(Z, X), space.mixed_form(Z, X, Y)
    rep = geometry_report(space, Z, X, Y)
    margin, W = infinitesimal_cs_margin(space, Z, X), wtg_matrix(space, Z, X)
    psd = psd_check(W, tol_rel=1e-7, tol_abs=1e-8)
    assert th_R.shape == lr.shape == th.shape == mix.shape == margin.shape == (len(Z),)
    assert W.shape == (len(Z), 2, 2) and psd.passed.shape == (len(Z),)
    closed = np.broadcast_to(space.has_closed_geometry(Z), (len(Z),))
    for i in range(len(Z)):
        z, x, y = Z[i], X[i], Y[i]
        # bit for bit
        assert fd_R(space, K, z, z, x) == th_R[i]
        assert fd_LR(space, z, x, y) == lr[i]
        assert space.theta_form(z, x) == th[i]
        assert space.mixed_form(z, x, y) == mix[i]
        one = geometry_report(space, z, x, y)
        for name in ("g_closed", "g_fd", "theta_closed", "theta_fd", "omega_closed", "omega_fd"):
            assert getattr(one, name) == getattr(rep, name)[i], name
        assert one.rel_discrepancies == tuple(r[i] for r in rep.rel_discrepancies)
        assert one.provenance == ("closed" if closed[i] else "fd")
        assert infinitesimal_cs_margin(space, z, x) == margin[i]
        assert np.array_equal(wtg_matrix(space, z, x), W[i])
        p = psd_check(W[i], tol_rel=1e-7, tol_abs=1e-8)
        assert (p.min_eigenvalue, p.max_eigenvalue, p.hermiticity_defect, p.passed) == (
            psd.min_eigenvalue[i], psd.max_eigenvalue[i], psd.hermiticity_defect[i],
            psd.passed[i])


def test_geometry_stack_matches_single_cases(space, rng):
    _assert_stack_matches_single_cases(space, *_stacked_cases(space, rng, 50))


def test_debranges_geometry_stack_mixes_closed_and_fd_cases(rng):
    sp = make_space("debranges", preset="exp")
    Z, X, Y = _stacked_cases(sp, rng, 50)
    Z[[3, 17, 41]] = 0.5 + 1e-6j
    assert list(np.flatnonzero(~sp.has_closed_geometry(Z))) == [3, 17, 41]
    _assert_stack_matches_single_cases(sp, Z, X, Y)
    rep = geometry_report(sp, Z, X, Y)
    assert rep.provenance == "mixed"
    assert rep.g_closed[3] == rep.g_fd[3] and rep.rel_discrepancies[0][3] == 0.0


def _assert_broadcast_matches_single_cases(space, z, X, Y):
    """Every geometry entry point on labels and tangents whose stacks
    broadcast against each other gives, case by case, the single-case call
    bit for bit; values read from z and X alone broadcast to the full
    shape."""
    tail = () if space.scalar_chart else (space.coord_len,)
    stacks = [np.shape(a)[:np.ndim(a) - len(tail)] for a in (z, X, Y)]
    shape = np.broadcast_shapes(*stacks)
    shape_x = np.broadcast_shapes(*stacks[:2])
    th, W = one_form_theta(space, z, X), wtg_matrix(space, z, X)
    margin = infinitesimal_cs_margin(space, z, X)
    g, om = metric_g(space, z, X, Y), two_form_omega(space, z, X, Y)
    rep = geometry_report(space, z, X, Y)
    assert th.shape == margin.shape == shape_x and W.shape == shape_x + (2, 2)
    assert g.shape == om.shape == rep.g_fd.shape == rep.omega_closed.shape == shape
    assert rep.theta_fd.shape == shape_x
    for idx in np.ndindex(shape):
        zi, xi, yi = (np.broadcast_to(a, shape + tail)[idx] for a in (z, X, Y))
        assert one_form_theta(space, zi, xi) == np.broadcast_to(th, shape)[idx]
        assert np.array_equal(wtg_matrix(space, zi, xi),
                              np.broadcast_to(W, shape + (2, 2))[idx])
        assert infinitesimal_cs_margin(space, zi, xi) == np.broadcast_to(margin, shape)[idx]
        assert metric_g(space, zi, xi, yi) == g[idx]
        assert two_form_omega(space, zi, xi, yi) == om[idx]
        one = geometry_report(space, zi, xi, yi)
        for name in ("g_closed", "g_fd", "theta_closed", "theta_fd", "omega_closed", "omega_fd"):
            assert getattr(one, name) == np.broadcast_to(getattr(rep, name), shape)[idx], name
        assert one.rel_discrepancies == tuple(np.broadcast_to(r, shape)[idx]
                                              for r in rep.rel_discrepancies)


def _unit_displacements(space):
    """The chart's real unit displacements, one per row ([1, 1j] on a
    complex scalar chart)."""
    if space.scalar_chart:
        return np.array([1.0, 1j]) if space.complex_chart else np.array([1.0])
    return np.eye(space.coord_len, dtype=complex if space.complex_chart else float)


def test_geometry_broadcasts_labels_against_tangents(space, rng):
    z = space.sample_point(rng)
    Zk = space.stack([z] * 6)
    X, Y = space.sample_tangent(Zk, rng), space.sample_tangent(Zk, rng)
    # one label, a stack of tangents
    _assert_broadcast_matches_single_cases(space, z, X, Y)
    # one label, the basis pairs (E_a, E_b) of a matrix
    E = _unit_displacements(space)
    _assert_broadcast_matches_single_cases(space, z, E[:, None], E[None])
    # three labels against the six tangents
    Z = space.sample_points(rng, 3)
    _assert_broadcast_matches_single_cases(space, Z[:, None], X, Y)


def test_debranges_broadcast_takes_closed_and_fd_case_by_case(rng):
    sp = make_space("debranges", preset="exp")
    # |Im z| >= 1e-4 takes the closed forms, below it the FD oracle
    Z = np.array([0.3 + 0.5j, 0.3 + 5e-5j, -0.7 - 1e-4j, 0.1 - 2e-5j, 1.2 - 0.4j])
    closed = sp.has_closed_geometry(Z)
    assert list(closed) == [True, False, True, False, True]
    X, Y = sp.sample_tangent(np.zeros(4), rng), sp.sample_tangent(np.zeros(4), rng)
    g = metric_g(sp, Z[:, None], X, Y)
    assert g.shape == (5, 4)
    for i, z in enumerate(Z):
        mixed = sp.mixed_form if closed[i] else partial(fd_LR, sp)
        for j in range(4):
            assert metric_g(sp, z, X[j], Y[j]) == g[i, j]
            assert (mixed(z, X[j], Y[j]) + mixed(z, Y[j], X[j])) / 2.0 == g[i, j]
    _assert_broadcast_matches_single_cases(sp, Z[:, None], X, Y)


def test_debranges_stack_mixes_diagonal_and_far_pairs():
    sp = make_space("debranges", preset="damped-linear")
    x = 0.8
    # |conj(z) - z'| < 1e-8 takes the Taylor limit, the rest the quotient
    Z = np.array([x, x, 0.3 + 0.2j, x + 0j, -0.4 - 0.1j])
    W = np.array([x + 3e-9, x, -0.7 + 0.5j, x, 0.2 + 0.3j])
    K = sp.kernel(Z, W)
    assert K[1] == pytest.approx(2.0 + x * x, rel=1e-10)
    assert K[3] == K[1]
    assert K[0] == pytest.approx(K[1], rel=1e-6)
    for k in range(len(Z)):
        assert K[k] == sp.kernel(Z[k], W[k])
    assert np.all(np.isfinite(K))


# ---- the masked de Branges kernel ----


def _two_branch_kernel(sp, z, zp):
    """The de Branges kernel with both branches on every pair, chosen by
    np.where: the reference for the kernel that evaluates its Taylor
    limit only on the pairs within the cut."""
    def Ebar(x):
        return np.conj(sp.E(np.conj(x)))

    def Ebar_prime(x):
        return np.conj(sp.E_prime(np.conj(x)))

    def one_sided(u, w):
        d = u - w
        near = np.abs(d) < 1e-8
        m = (u + w) / 2.0
        return np.where(
            near,
            (sp.E(m) * Ebar_prime(m) - sp.E_prime(m) * Ebar(m)) / 2j,
            (Ebar(u) * sp.E(w) - sp.E(u) * Ebar(w)) / (2j * np.where(near, 1.0, d)),
        )

    u = np.asarray(z, dtype=complex)[..., None]
    w = np.asarray(zp, dtype=complex)[..., None]
    return ((one_sided(np.conj(u), w) + np.conj(one_sided(np.conj(w), u))) / 2.0)[..., 0]


@pytest.mark.parametrize("preset", ["exp", "damped-linear"])
def test_debranges_gram_is_bitwise_the_two_branch_formula(preset):
    sp = make_space("debranges", preset=preset)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.5, 1.5, 12)
    z = x[:6] + 1j * rng.uniform(0.1, 0.8, 6)
    P = np.concatenate([
        x + 0j,              # real axis: every diagonal pair is near
        x[:4] + 3e-9,        # within 3e-9 of a real point
        z, np.conj(z),       # conjugate pairs: conj(z) - z' = 0
        np.conj(z) + 2e-9j,  # within 3e-9 of a conjugate
        z + 3e-9,            # within 3e-9 of z, a far pair for the cut
        sp.sample_points(rng, 20),
    ])
    near = np.abs(np.conj(P)[:, None] - P[None]) < 1e-8
    assert len(P) < near.sum() < near.size
    # the Gram mixes near and far pairs; the pairwise stacks below are all
    # near (real diagonal, conjugates) or all far
    cases = [(P[:, None], P[None]), (x, x), (x[:4], x[:4] + 3e-9), (z, np.conj(z)), (z, z)]
    for Z, W in cases:
        want = _two_branch_kernel(sp, Z, W)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = sp.kernel(Z, W)
        assert K.dtype == want.dtype == complex
        assert K.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram(sp, P).tobytes() == _two_branch_kernel(sp, P[:, None], P[None]).tobytes()


# ---- one domain check per space, for one label or a stack ----


def _labelled(space):
    return pytest.param(space, id=space.space_id)


_STACK_SPACES = [
    make_space(kind, dim=dim)
    for kind in ("euclidean", "hermitian", "sphere", "klauder") for dim in (1, 2, 3)
] + [
    make_space("reciprocal"), make_space("szego"),
    make_space("schur", preset="mobius"), make_space("schur", preset="square"),
    make_space("debranges", preset="exp"), make_space("debranges", preset="damped-linear"),
]

# E = exp(-0.9 i z) (z - i) passes the constructor's grid test, but
# K(z, z) <= 0 near the origin
_LOW_DEBRANGES = DeBrangesSpace(
    lambda z: np.exp(-0.9j * z) * (z - 1j),
    lambda z: np.exp(-0.9j * z) * (1.0 - 0.9j * (z - 1j)),
)


def _per_label(space, points):
    return np.asarray([space.validate(z) for z in points])


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as err:
        return type(err), str(err)


@pytest.mark.parametrize("space", [_labelled(sp) for sp in _STACK_SPACES])
def test_stack_is_bitwise_the_per_label_loop(space):
    P = space.sample_points(np.random.default_rng(SEED), 2000)
    want = _per_label(space, P)
    assert want.dtype == (complex if space.complex_chart else float)
    for points in (P, list(P), P.tolist()):
        got = space.stack(points)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, P)
    empty = space.stack([])
    assert empty.dtype == _per_label(space, []).dtype and empty.shape == (0,)


def _bad_labels(space, good):
    """Labels validate rejects, named by what is wrong with them."""
    if space.scalar_chart:
        bad = {"nan": math.nan, "inf": complex(0.0, math.inf),
               "wrong length": [good, good], "ragged": [[good], good]}
    else:
        n = space.coord_len
        nan = np.array(good, dtype=complex if space.complex_chart else float)
        nan[-1] = math.nan
        bad = {"nan": nan, "wrong length": np.ones(n + 1), "ragged": [1.0, [1.0, 2.0]]}
    if not space.complex_chart:
        # complex-typed labels are rejected, even with a zero imaginary part
        if space.scalar_chart:
            bad.update({"complex numpy scalar": np.complex128(good + 1j),
                        "complex 0-d array": np.array(good + 0j)})
        else:
            bad.update({"complex array": np.asarray(good) + 1j,
                        "complex array, zero Im": np.asarray(good, dtype=complex),
                        "complex numpy entry": [np.complex128(1 + 1j), *good[1:]]})
    if space.space_id == "reciprocal":
        bad.update({"zero": 0.0, "negative": -1.5, "inf": math.inf, "complex": 0.5 + 0.5j})
    if space.space_id in ("szego", "schur(mobius)", "schur(square)"):
        bad.update({"unit circle": 1.0, "outside": 0.3 - 1.5j})
    if space.space_id.startswith("sphere"):
        bad["off the sphere"] = 2.0 * np.asarray(good)
    if space is _LOW_DEBRANGES:
        bad.update({"K(z,z) <= 0": 0.0, "K(z,z) <= 0 off the axis": 0.1j})
    return bad


@pytest.mark.parametrize("space", [_labelled(sp) for sp in _STACK_SPACES + [_LOW_DEBRANGES]])
def test_stack_raises_the_first_bad_labels_own_error(space):
    rng = np.random.default_rng(SEED)
    P = [z for z in space.sample_points(rng, 60) if space.contains(z)][:40]
    assert len(P) == 40
    bad = _bad_labels(space, P[0])
    for name, label in bad.items():
        with pytest.raises(Exception):
            space.validate(label)
        for pos in (0, len(P) // 2, len(P) - 1):
            points = list(P)
            points[pos] = label
            want = _outcome(_per_label, space, points)
            assert isinstance(want, tuple), name
            assert _outcome(space.stack, points) == want, (name, pos)
    # two bad labels: the first one's error, whatever the other's kind
    names = list(bad)
    for first, second in zip(names, names[::-1]):
        points = list(P)
        points[5], points[30] = bad[first], bad[second]
        want = _outcome(_per_label, space, points)
        assert _outcome(space.stack, points) == want, (first, second)


@pytest.mark.parametrize("space", [_labelled(sp) for sp in _STACK_SPACES + [_LOW_DEBRANGES]])
def test_contains_is_false_on_every_bad_label(space):
    rng = np.random.default_rng(SEED)
    good = next(z for z in space.sample_points(rng, 60) if space.contains(z))
    for name, label in _bad_labels(space, good).items():
        assert space.contains(label) is False, name
        with pytest.raises(DomainError):
            space.validate(label)


def test_user_space_keeps_the_per_label_stack():
    from cohk.core import CoherentSpace

    class Halfline(CoherentSpace):
        scalar_chart = True

        def validate(self, z):
            z = float(z)
            if not z > 0.0:
                raise DomainError("positive reals only")
            return z

    sp = Halfline()
    assert sp.stack([1, 2.5]).tolist() == [1.0, 2.5]
    with pytest.raises(DomainError, match="positive reals only"):
        sp.stack([1.0, -1.0])


def test_chart_path_over_a_step_array(space, rng):
    z = space.sample_point(rng)
    X = space.sample_tangent(z, rng)
    steps = np.array([[1e-3, -1e-3, 0.0], [0.25, -0.5, 2e-6]])
    W = space.chart_path(z, X, steps)
    assert np.shape(W) == steps.shape + np.shape(z)
    for idx in np.ndindex(steps.shape):
        assert np.array_equal(W[idx], space.chart_path(z, X, steps[idx]))


def test_sphere_chart_path_stays_on_the_sphere(rng):
    sp = make_space("sphere", dim=3)
    z = sp.sample_point(rng)
    X = sp.sample_tangent(z, rng)
    W = sp.chart_path(z, X, np.linspace(-2.0, 2.0, 41))
    assert np.allclose(np.linalg.norm(W, axis=-1), 1.0, rtol=0, atol=1e-14)
    for w in W:
        sp.validate(w)


def test_fd_with_a_broadcasting_non_kernel_function():
    # f(a, b) = a^2 b^3 + sin(a) b on a real chart; derivatives by hand
    sp = make_space("reciprocal")

    def f(a, b):
        return a * a * b ** 3 + np.sin(a) * b

    z, zp = 0.7, 1.3
    want_l = 2 * z * zp ** 3 + np.cos(z) * zp
    want_r = 3 * z * z * zp ** 2 + np.sin(z)
    assert fd_L(sp, f, z, zp, 1.0) == pytest.approx(want_l, rel=1e-9)
    assert fd_R(sp, f, z, zp, 1.0) == pytest.approx(want_r, rel=1e-9)
    # fd_LR differentiates at (z, z): L_X R_Y f = X Y d2f/da db
    assert fd_LR(sp, z, 1.0, 1.0, f=f) == pytest.approx(6 * z * z ** 2 + np.cos(z), rel=1e-9)
    assert fd_LR(sp, z, 2.0, -0.5, f=f) == pytest.approx(-(6 * z ** 3 + np.cos(z)), rel=1e-9)


def test_fd_with_a_broadcasting_function_on_vectors():
    # f(a, b) = sum(conj(a) * b)^2 on C^2: R_X f = 2 (a* b)(a* X),
    # L_X f = 2 (a* b)(X* b), L_X R_Y f at (z, z) = 2 ((X* z)(z* Y) + |z|^2 X* Y)
    sp = make_space("hermitian", dim=2)

    def f(a, b):
        return np.vecdot(a, b) ** 2

    z = np.array([0.3 + 0.4j, -0.2 + 0.1j])
    zp = np.array([0.5 - 0.1j, 0.2 + 0.6j])
    X = np.array([1.0 - 0.5j, 0.25 + 0.75j])
    Y = np.array([-0.4 + 0.2j, 0.6 - 0.3j])
    ab = np.vdot(z, zp)
    assert fd_R(sp, f, z, zp, X) == pytest.approx(2 * ab * np.vdot(z, X), rel=1e-9)
    assert fd_L(sp, f, z, zp, X) == pytest.approx(2 * ab * np.vdot(X, zp), rel=1e-9)
    want = 2 * (np.vdot(X, z) * np.vdot(z, Y) + np.vdot(z, z) * np.vdot(X, Y))
    assert fd_LR(sp, z, X, Y, f=f) == pytest.approx(want, rel=1e-8)


def test_theta_euclidean_example():
    sp = make_space("euclidean", dim=2)
    got = one_form_theta(sp, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert got == pytest.approx(11.0)


def test_metric_klauder_example():
    sp = make_space("klauder", dim=1)
    X = np.array([0.0, 1.0], dtype=complex)
    assert metric_g(sp, np.zeros(2, complex), X, X) == pytest.approx(1.0)


def test_omega_alternating(space, rng):
    z = space.sample_point(rng)
    X = space.sample_tangent(z, rng)
    assert two_form_omega(space, z, X, X) == pytest.approx(0.0, abs=1e-10)
    Y = space.sample_tangent(z, rng)
    assert two_form_omega(space, z, X, Y) == pytest.approx(
        -two_form_omega(space, z, Y, X)
    )


def test_metric_symmetric_and_nonnegative(space, rng):
    z = space.sample_point(rng)
    X = space.sample_tangent(z, rng)
    Y = space.sample_tangent(z, rng)
    assert metric_g(space, z, X, Y) == pytest.approx(metric_g(space, z, Y, X))
    scale = max(1.0, abs(space.kernel(z, z)))
    assert metric_g(space, z, X, X).real >= -1e-9 * scale


def test_geometry_closed_matches_fd(space, rng):
    for _ in range(6):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        Y = space.sample_tangent(z, rng)
        rep = geometry_report(space, z, X, Y)
        assert rep.provenance in ("closed", "fd")
        if rep.provenance == "closed":
            assert max(rep.rel_discrepancies[:2]) < 1e-5


def test_geometry_closed_matches_fd_at_2000_cases(space, rng):
    # the scale of the sweep workload: the mixed second difference must not
    # let roundoff reach the 1e-5 contract on any of the sampled cases
    worst = 0.0
    for _ in range(2000):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        Y = space.sample_tangent(z, rng)
        rep = geometry_report(space, z, X, Y)
        if rep.provenance == "closed":
            worst = max(worst, *rep.rel_discrepancies[:2])
    assert worst <= 1e-5


def test_geometry_fd_fallback_near_real_axis():
    sp = make_space("debranges", preset="exp")
    rep = geometry_report(sp, 0.5 + 1e-6j, 1.0, 1.0j)
    assert rep.provenance == "fd"
    assert rep.g_closed == rep.g_fd


def test_lxrxk_real_nonnegative(space, rng):
    for _ in range(5):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        v = fd_LR(space, z, X, X)
        scale = max(1.0, abs(space.kernel(z, z)))
        assert abs(v.imag) <= 1e-9 * scale
        assert v.real >= -1e-9 * scale


def test_infinitesimal_cs_examples():
    eu = make_space("euclidean", dim=2)
    assert infinitesimal_cs_margin(eu, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0, rel=1e-6)
    assert infinitesimal_cs_margin(eu, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
    assert infinitesimal_cs_margin(make_space("szego"), 0.0, 1.0) == pytest.approx(1.0, rel=1e-6)


def test_infinitesimal_cs_nonnegative(space, rng):
    for _ in range(5):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        scale = max(1.0, abs(space.kernel(z, z)) ** 2)
        assert infinitesimal_cs_margin(space, z, X) >= -1e-8 * scale


def test_wtg_matrix_examples(rng):
    eu = make_space("euclidean", dim=2)
    z = np.array([1.0, 0.0])
    m = wtg_matrix(eu, z, np.zeros(2))
    assert m[0, 0] == pytest.approx(1.0) and abs(m[0, 1]) < 1e-12

    m = wtg_matrix(eu, z, np.array([1.0, 0.0]))
    assert np.allclose(m, np.ones((2, 2)), atol=1e-7)

    kl = make_space("klauder", dim=1)
    m = wtg_matrix(kl, np.zeros(2, complex), np.array([0.0, 1.0], complex))
    assert np.allclose(m, np.eye(2), atol=1e-7)


def test_wtg_matrix_psd(space, rng):
    for _ in range(5):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        assert psd_check(wtg_matrix(space, z, X), tol_rel=1e-7, tol_abs=1e-8).passed


def test_potential_inequalities_klauder():
    sp = make_space("klauder", dim=1)
    X = np.array([0.0, 1.0], dtype=complex)
    rep = potential_inequality_check(sp, np.zeros(2, complex), X)
    assert not rep.skipped
    assert rep.ifcs_margin == pytest.approx(1.0, rel=1e-5)
    assert rep.fbar_residual < 1e-8


def test_potential_inequalities_zero_field(space, rng):
    z = space.sample_point(rng)
    rep = potential_inequality_check(space, z, 0.0 * np.asarray(space.sample_tangent(z, rng)))
    assert not rep.skipped
    assert rep.worst == pytest.approx(0.0, abs=1e-10)


def test_potential_inequalities_szego_origin():
    rep = potential_inequality_check(make_space("szego"), 0.0, 1.0)
    assert rep.ifcs_margin == pytest.approx(1.0, rel=1e-5)


def test_potential_inequalities_hold(space, rng):
    for _ in range(4):
        z = space.sample_point(rng)
        X = space.sample_tangent(z, rng)
        rep = potential_inequality_check(space, z, X)
        if rep.skipped:
            continue
        assert rep.fbar_residual <= 1e-6
        assert rep.worst >= -1e-6


def test_commutation_check(space, rng):
    z, zp = space.sample_points(rng, 2)
    X = space.sample_tangent(z, rng)
    Y = space.sample_tangent(zp, rng)
    scale = max(1.0, abs(space.kernel(z, zp)))
    assert commutation_check(space, z, zp, X, Y) <= 1e-6 * scale
    assert commutation_check(space, z, zp, 0.0 * np.asarray(X), Y) == pytest.approx(0.0, abs=1e-12)


# ---- tangent sampler on one label or a stack ----


@pytest.mark.parametrize("space", [_labelled(sp) for sp in _STACK_SPACES])
def test_sample_tangent_draws_one_tangent_per_label_of_a_stack(space):
    rng = np.random.default_rng(SEED)
    Z = space.sample_points(rng, 2000)
    X = space.sample_tangent(Z, rng)
    assert X.shape == Z.shape and X.dtype == Z.dtype
    assert np.isfinite(X).all() and len(np.unique(X)) == X.size
    if space.space_id.startswith("sphere"):
        # each row is a tangent of its own label: Re(z* X) = 0
        assert np.abs(np.vecdot(Z, X).real).max() <= 1e-12


def _tangent_as_drawn_one_label_at_a_time(space, z, rng):
    """The per-label tangent expressions the stacked sampler replaced."""
    kind = space.space_id.split("(")[0]
    n = space.coord_len
    if kind == "euclidean":
        return rng.normal(size=n)
    if kind in ("hermitian", "sphere"):
        X = (rng.normal(size=n) + 1j * rng.normal(size=n)) / math.sqrt(2)
        return X - z * np.vdot(z, X).real if kind == "sphere" else X
    if kind == "klauder":
        return 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    if kind == "reciprocal":
        return float(rng.normal())
    return complex(rng.normal() + 1j * rng.normal()) / math.sqrt(2)


@pytest.mark.parametrize("space", [_labelled(sp) for sp in _STACK_SPACES])
def test_single_label_tangents_keep_their_draws(space):
    rng, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for z in space.sample_points(np.random.default_rng(SEED + 1), 20):
        X = space.sample_tangent(z, rng)
        want = _tangent_as_drawn_one_label_at_a_time(space, z, ref)
        assert np.shape(X) == np.shape(want)
        assert isinstance(X, type(want))
        assert np.asarray(X).tobytes() == np.asarray(want).tobytes()
    # both streams consumed the same draws
    assert rng.normal() == ref.normal()
