"""Concrete coherent spaces and the finite-difference derivation oracle.

Eight spaces are provided, each with one kernel, one seeded sampler and
closed-form first/second kernel derivatives.  Every kernel, every closed
form and every tangent sampler is a single numpy expression that
broadcasts over stacked leading axes of its labels and tangents; a single
case is the 0-d instance of the same expression and gives a complex scalar
(a kernel or closed form) or one tangent.

========== =========================== =================================
name       points                      kernel
========== =========================== =================================
euclidean  real n-vectors              z^T z'
hermitian  complex n-vectors           z* z'
sphere     unit complex n-vectors      z* z'
klauder    [z0, zhat] in C x C^n       exp(conj(z0) + z0' + zhat* zhat')
reciprocal positive reals              1 / (z + z')
szego      unit disk                   1 / (1 - conj(z) z')
schur      unit disk, Schur map s      (1 - conj(s(z)) s(z')) / (1 - conj(z) z')
debranges  complex plane, structure E  see :class:`DeBrangesSpace`
========== =========================== =================================

Derivations along chart paths are written L_X (left slot) and R_X (right
slot).  The finite-difference versions are the ground truth the closed
forms are validated against: central differences with one Richardson
level, paths re-projected on the sphere.  Each stencil, both Richardson
steps included, is one call of the differentiated function on stacked
chart-path points, for a whole stack of cases at once.  First derivatives
step 1e-5 * max(1, |z|); the mixed second difference steps
1e-3 * max(1, |z|), because its roundoff grows like 1/h^2 rather than 1/h.

The geometry (theta, metric, two-form, WTG jets and geometry reports)
takes one case, or labels and tangents whose stacks broadcast against each
other, and uses the closed forms where the space has them, the FD oracle
on the other cases.

One registry maps each kind to its class, its descriptor keys with their
defaults, and its presets; ``make_space``, the only reader of a space
descriptor, ``space_names`` and ``default_spaces`` read it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import MAX_SIZE, AxiomViolationError, CoherentSpace, DomainError
from .fock import _klauder_diagonal, _klauder_exponent

__all__ = [
    "DeBrangesSpace",
    "EuclideanSpace",
    "GeometryReport",
    "HermitianSpace",
    "KlauderSpace",
    "PotentialReport",
    "ReciprocalSpace",
    "SchurSpace",
    "SzegoSpace",
    "UnitSphereSpace",
    "commutation_check",
    "fd_L",
    "fd_LR",
    "fd_R",
    "geometry_report",
    "infinitesimal_cs_margin",
    "make_space",
    "metric_g",
    "one_form_theta",
    "potential_inequality_check",
    "space_names",
    "two_form_omega",
    "wtg_matrix",
]


def _finite(arr):
    # count_nonzero skips the reduction machinery of .all(), which costs
    # more than the test itself on one label
    return np.count_nonzero(np.isfinite(arr)) == arr.size


class _CatalogSpace(CoherentSpace):
    """A catalog space: one broadcasting domain check for one label or a stack.

    A label is converted to the chart's dtype and form and must be finite;
    ``_outside`` then flags, elementwise over labels stacked along leading
    axes, those that lie outside the space's region.  ``validate`` runs it
    on one label and ``stack`` once on the whole stack.
    """

    def _outside(self, Z):
        """True where a finite label of the stack ``Z`` lies outside the
        domain (elementwise; a single label gives one bool)."""
        return False

    def stack(self, points):
        # numpy kinds whose cast to the chart dtype is the per-label one
        kinds = "biufc" if self.complex_chart else "biuf"
        shape = () if self.scalar_chart else (self.coord_len,)
        try:
            Z = np.asarray(points)
        except (TypeError, ValueError, OverflowError):  # e.g. a ragged list
            Z = None
        # an empty stack is left to the loop too: it gives float64, shape (0,)
        if (Z is not None and Z.dtype.kind in kinds and Z.ndim == len(shape) + 1
                and Z.shape[1:] == shape and len(Z)):
            Z = Z.astype(complex if self.complex_chart else float, order="C")
            if _finite(Z) and not np.any(self._outside(Z)):
                return Z
        # the per-label loop raises the first bad label's own error
        return super().stack(points)


# ---------------------------------------------------------------------------
# vector-chart spaces


class _VectorSpace(_CatalogSpace):
    """Labels are vectors of ``_lead_len + dim`` coordinates."""

    _label_form = "a complex vector"
    _lead_len = 0

    def __init__(self, dim):
        count = isinstance(dim, (int, np.integer)) and not isinstance(dim, bool)
        if not (count and 1 <= dim <= MAX_SIZE):
            raise DomainError(f"dim: expected a count from 1 to {MAX_SIZE}")
        self.dim = int(dim)
        self.coord_len = self.dim + self._lead_len
        self.space_id = f"{self._kind}({self.dim})"

    def validate(self, z):
        try:
            if not self.complex_chart and np.iscomplexobj(z):
                raise TypeError  # numpy's cast to the real chart would drop Im
            z = np.asarray(z, dtype=complex if self.complex_chart else float)
        except (TypeError, ValueError, OverflowError):  # e.g. ragged, complex on a real chart
            z = None
        if z is None or z.shape != (self.coord_len,):
            raise DomainError(f"expected {self._label_form} of length {self.coord_len}")
        if not _finite(z):
            raise DomainError("non-finite coordinates")
        if self._outside(z):
            raise DomainError(self._outside_msg)
        return z


class EuclideanSpace(_VectorSpace):
    """R^n with the bilinear kernel K(z, z') = z^T z' (no conjugation)."""

    _kind = "euclidean"
    complex_chart = False
    _label_form = "a real vector"

    def kernel(self, z, zp):
        return np.vecdot(z, zp, dtype=complex)

    def sample_points(self, rng, n):
        return rng.normal(size=(n, self.dim))

    def sample_tangent(self, z, rng):
        return rng.normal(size=np.shape(z))

    # the kernel is bilinear: R_X K(z, z) = K(z, X) and L_X R_Y K = K(X, Y)
    def theta_form(self, z, X):
        return self.kernel(z, X)

    def mixed_form(self, z, X, Y):
        return self.kernel(X, Y)


class HermitianSpace(_VectorSpace):
    """C^n with the sesquilinear kernel K(z, z') = z* z'."""

    _kind = "hermitian"

    def kernel(self, z, zp):
        return np.vecdot(z, zp)

    def sample_points(self, rng, n):
        sh = (n, self.dim)
        return (rng.normal(size=sh) + 1j * rng.normal(size=sh)) / math.sqrt(2)

    def sample_tangent(self, z, rng):
        sh = np.shape(z)
        return (rng.normal(size=sh) + 1j * rng.normal(size=sh)) / math.sqrt(2)

    # the kernel is sesquilinear: R_X K(z, z) = K(z, X) and L_X R_Y K = K(X, Y)
    def theta_form(self, z, X):
        return self.kernel(z, X)

    def mixed_form(self, z, X, Y):
        return self.kernel(X, Y)

    # over the chart basis Hm = K(E_a, E_b) = I, so Hm^{-1} g = g and both
    # extreme eigenvalues of Hm + Hm* are 2
    def mixed_solve(self, z, g):
        shape = np.broadcast_shapes(np.shape(z), np.shape(g))
        two = np.full(shape[:-1], 2.0)[()]
        return np.broadcast_to(g, shape).astype(complex), two, two


class UnitSphereSpace(HermitianSpace):
    """Unit sphere in C^n with the restricted kernel z* z'.

    Chart paths re-project onto the sphere after each displacement, which
    leaves first derivatives (and mixed L R second derivatives) unchanged
    while keeping every probe point in the domain.  Tangents at z satisfy
    Re(z* X) = 0.
    """

    _kind = "sphere"
    _outside_msg = "point is not on the unit sphere"

    def _outside(self, Z):
        return np.abs(np.vecdot(Z, Z).real - 1.0) > 1e-12

    def chart_path(self, z, X, t):
        w = super().chart_path(z, X, t)
        return w / np.sqrt(np.vecdot(w, w).real)[..., None]

    def sample_points(self, rng, n):
        V = rng.normal(size=(n, self.dim)) + 1j * rng.normal(size=(n, self.dim))
        return V / np.sqrt(np.sum(np.abs(V) ** 2, axis=-1))[:, None]

    def sample_tangent(self, z, rng):
        X = super().sample_tangent(z, rng)
        return X - z * np.vecdot(z, X).real[..., None]


class KlauderSpace(_VectorSpace):
    """C x C^n with K(z, z') = exp(conj(z0) + z0' + zhat* zhat').

    Points are flat complex arrays [z0, zhat_1, ..., zhat_n]; the completed
    span of its coherent states is the bosonic Fock space over C^n.
    """

    _kind = "klauder"
    _lead_len = 1  # z0
    _label_form = "[z0, zhat] as a complex vector"

    def kernel(self, z, zp):
        return np.exp(_klauder_exponent(z, zp))

    def sample_points(self, rng, n):
        sh = (n, self.coord_len)
        return 0.5 * (rng.normal(size=sh) + 1j * rng.normal(size=sh))

    def sample_tangent(self, z, rng):
        sh = np.shape(z)
        return 0.5 * (rng.normal(size=sh) + 1j * rng.normal(size=sh))

    # u(X) = X0 + zhat* Xhat is how the exponent responds to the right-slot
    # displacement X at the diagonal point: theta = K u(X) and
    # L_X R_Y K = K (Xhat* Yhat + conj(u(X)) u(Y)).  np.multiply keeps a
    # single case on numpy's array loops, as a stack is (numpy's scalar
    # complex product rounds differently).
    def theta_form(self, z, X):
        return np.multiply(self.kernel(z, z), X[..., 0] + np.vecdot(z[..., 1:], X[..., 1:]))

    def mixed_form(self, z, X, Y):
        zh, Xh, Yh = z[..., 1:], X[..., 1:], Y[..., 1:]
        uX = X[..., 0] + np.vecdot(zh, Xh)
        uY = Y[..., 0] + np.vecdot(zh, Yh)
        return np.multiply(self.kernel(z, z), np.vecdot(Xh, Yh) + np.multiply(np.conj(uX), uY))

    # Over the chart basis the mixed form is Hm = K (P + a a*), with
    # P = diag(0, 1, ..., 1), a = [1, zhat] and n = |zhat|^2.  Sherman-Morrison
    # inverts it, (P + a a*)^{-1} = [[1 + n, -zhat*], [-zhat, I]], and its
    # eigenvalues are 1 (dim - 1 times), mu and 1/mu, with
    # mu = ((2 + n) + sqrt(n (n + 4))) / 2.  K = exp(2 Re z0 + n) is one
    # real exponential of the n already at hand.
    def mixed_solve(self, z, g):
        zh = z[..., 1:]
        n = np.vecdot(zh, zh).real
        k = _klauder_diagonal(z, n)
        # the modes are ghat - zhat g0; the z0 slot is overwritten (a real
        # times a complex rounds alike on numpy scalars and arrays, so a
        # single label takes the scalar one)
        x = g - z * g[..., :1]
        x[..., 0] = (1.0 + n) * g[..., 0][()] - np.vecdot(zh, g[..., 1:])
        # a single label divides by its 0-d K as it is, not as a 1-element
        # array: the same quotients, without making that array every stage
        x /= k[..., None] if k.ndim else k
        mu = 0.5 * ((2.0 + n) + np.sqrt(n * (n + 4.0)))
        two_k = 2.0 * k
        return x, two_k / mu, two_k * mu


# ---------------------------------------------------------------------------
# scalar-chart spaces


def _lift(*args):
    """Scalar-chart labels and tangents as complex arrays with a trailing
    unit axis, so a single case runs through numpy's array loops like a
    stacked one (numpy's scalar complex product rounds differently);
    ``_drop`` undoes it."""
    return [np.asarray(a, dtype=complex)[..., None] for a in args]


def _drop(k):
    """Undo ``_lift``: a single pair comes back as a complex scalar."""
    return k[..., 0][()]


class _ScalarSpace(_CatalogSpace):
    coord_len = 1
    scalar_chart = True
    _label_form = "a complex number"
    _nonfinite_msg = "non-finite coordinate"

    def validate(self, z):
        try:
            if not self.complex_chart and np.iscomplexobj(z):
                raise TypeError  # numpy's cast to the real chart would drop Im
            z = complex(z) if self.complex_chart else float(z)
        except (TypeError, ValueError, OverflowError):  # e.g. a list, a complex on a real chart
            raise DomainError(f"expected {self._label_form}") from None
        if not cmath.isfinite(z):
            raise DomainError(self._nonfinite_msg)
        if self._outside(z):
            raise DomainError(self._outside_msg)
        return z

    def sample_tangent(self, z, rng):
        # each part divided on its own, as Python's complex / float divides;
        # numpy's complex division multiplies by the reciprocal instead
        sh = np.shape(z)
        x = rng.normal(size=sh) / math.sqrt(2)
        return (x + 1j * (rng.normal(size=sh) / math.sqrt(2)))[()]

    # Hm is the 1x1 matrix h = L_1 R_1 K(z, z), through the closed-or-FD
    # dispatch (de Branges' strip near the real axis takes the FD oracle,
    # whose h need not be real).  S = Hm + Hm* = 2 Re h, so the solve
    # S x = 2 g gives x = g / Re h, and both extreme eigenvalues of S are
    # 2 Re h.  A real chart's 2-form vanishes; the dynamics layer rejects
    # it before solving.
    def mixed_solve(self, z, g):
        h = _mixed(self, z, 1.0 + 0j, 1.0 + 0j).real
        lam = 2.0 * h
        return g / h, lam, lam


class ReciprocalSpace(_ScalarSpace):
    """Positive half-line with K(z, z') = 1 / (z + z') (Hilbert-matrix kernel)."""

    complex_chart = False
    _label_form = "a real number"
    space_id = "reciprocal"
    _nonfinite_msg = _outside_msg = "reciprocal points are strictly positive reals"

    def kernel(self, z, zp):
        return 1.0 / (z + zp) + 0j

    def _outside(self, Z):
        return Z <= 0.0

    def sample_points(self, rng, n):
        return rng.uniform(0.4, 2.5, size=n)

    def sample_tangent(self, z, rng):
        return rng.normal(size=np.shape(z))[()]

    def theta_form(self, z, X):
        return -X / (4.0 * z * z) + 0j

    def mixed_form(self, z, X, Y):
        return X * Y / (4.0 * z * z * z) + 0j


class SzegoSpace(_ScalarSpace):
    """Open unit disk with the Szego kernel K(z, z') = 1 / (1 - conj(z) z')."""

    space_id = "szego"
    _outside_msg = "szego points lie in the open unit disk"

    def kernel(self, z, zp):
        u, w = _lift(z, zp)
        return _drop(1.0 / (1.0 - np.conj(u) * w))

    def _outside(self, Z):
        return abs(Z) >= 1.0

    def sample_points(self, rng, n):
        r = rng.uniform(0.05, 0.75, size=n)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return r * np.exp(1j * phi)

    def theta_form(self, z, X):
        u, x = _lift(z, X)
        d = 1.0 - np.abs(u) ** 2
        return _drop(np.conj(u) * x / (d * d))

    def mixed_form(self, z, X, Y):
        u, x, y = _lift(z, X, Y)
        a = np.abs(u) ** 2
        d = 1.0 - a
        return _drop(np.conj(x) * y * (1.0 + a) / (d * d * d))


class SchurSpace(_ScalarSpace):
    """Unit disk with K(z, z') = (1 - conj(s(z)) s(z')) / (1 - conj(z) z').

    ``s`` must be analytic on the disk with |s| <= 1 (a Schur function) and
    is supplied together with its derivative; both are checked on a sample
    grid at construction.
    """

    def __init__(self, s, s_prime, preset=None):
        self.s = s
        self.s_prime = s_prime
        self.preset = preset
        self.space_id = f"schur({preset})" if preset else "schur"
        for r in (0.0, 0.3, 0.6, 0.9):
            for k in range(8):
                w = r * cmath.exp(2j * math.pi * k / 8)
                if abs(complex(s(w))) > 1.0 + 1e-10:
                    raise DomainError(
                        f"|s({w})| = {abs(complex(s(w)))} > 1: not a Schur function"
                    )

    def kernel(self, z, zp):
        u, w = _lift(z, zp)
        return _drop((1.0 - np.conj(self.s(u)) * self.s(w)) / (1.0 - np.conj(u) * w))

    _outside_msg = "schur points lie in the open unit disk"
    _outside = SzegoSpace._outside
    sample_points = SzegoSpace.sample_points

    def theta_form(self, z, X):
        u, x = _lift(z, X)
        d = 1.0 - np.abs(u) ** 2
        sv, dsv = self.s(u), self.s_prime(u)
        a = (1.0 - np.abs(sv) ** 2) * np.conj(u) / (d * d) - np.conj(sv) * dsv / d
        return _drop(a * x)

    def mixed_form(self, z, X, Y):
        u, x, y = _lift(z, X, Y)
        a = np.abs(u) ** 2
        d = 1.0 - a
        sv, dsv = self.s(u), self.s_prime(u)
        ss = 1.0 - np.abs(sv) ** 2
        m0 = (
            ss / (d * d)
            + 2.0 * ss * a / (d * d * d)
            - 2.0 * (np.conj(sv) * dsv * u).real / (d * d)
            - np.abs(dsv) ** 2 / d
        )
        return _drop(np.conj(x) * y * m0)


class DeBrangesSpace(_ScalarSpace):
    """Kernel built from a structure function E with |E(conj z)| < |E(z)| above
    the real axis:

        K(z, z') = [Ebar(u) E(w) - E(u) Ebar(w)] / (2i (u - w)),

    with u = conj(z), w = z' and Ebar(x) = conj(E(conj(x))).  On the real
    axis the quotient degenerates; below |u - w| = 1e-8 a first-order Taylor
    branch at the midpoint is used and Hermitized explicitly.  The quotient
    is evaluated on every pair and the Taylor limit only on the pairs
    within that cut, so a Gram pays for the limit on its near pairs alone.
    A finite point is in the domain unless K(z, z) <= 0.  Closed-form
    derivatives use the quotient-rule expressions and need |Im z| >= 1e-4;
    elsewhere the finite-difference fallback takes over.
    """

    _diag_cut = 1e-8
    _closed_cut = 1e-4
    _outside_msg = "K(z,z) <= 0: point outside the usable domain"

    def __init__(self, E, E_prime, preset=None):
        self.E = E
        self.E_prime = E_prime
        self.preset = preset
        self.space_id = f"debranges({preset})" if preset else "debranges"
        for x in (-1.5, -0.5, 0.5, 1.5):
            for y in (0.3, 0.9):
                z = complex(x, y)
                if abs(self._Ebar(z)) >= abs(complex(E(z))):
                    raise DomainError(
                        f"|E(conj z)| >= |E(z)| at z = {z}: not a de Branges function"
                    )

    def _Ebar(self, x):
        return np.conj(self.E(np.conj(x)))

    def _Ebar_prime(self, x):
        return np.conj(self.E_prime(np.conj(x)))

    def _N(self, u, w):
        return self._Ebar(u) * self.E(w) - self.E(u) * self._Ebar(w)

    def _limit(self, m):
        return (self.E(m) * self._Ebar_prime(m) - self.E_prime(m) * self._Ebar(m)) / 2j

    def _one_sided(self, u, w):
        # N / (2i (u - w)) on every pair, replaced by its limit at the
        # midpoint on the pairs where u and w meet
        d = u - w
        near = np.abs(d) < self._diag_cut
        k = self._N(u, w) / (2j * np.where(near, 1.0, d))
        if near.any():
            un, wn = (np.broadcast_to(a, near.shape)[near] for a in (u, w))
            k[near] = self._limit((un + wn) / 2.0)
        return k

    def kernel(self, z, zp):
        u, w = _lift(z, zp)
        a = self._one_sided(np.conj(u), w)
        b = self._one_sided(np.conj(w), u)
        return _drop((a + np.conj(b)) / 2.0)

    def _outside(self, Z):
        return self.kernel(Z, Z).real <= 0.0

    def sample_points(self, rng, n):
        x = rng.uniform(-1.5, 1.5, size=n)
        y = rng.uniform(0.1, 0.8, size=n) * np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
        return x + 1j * y

    def has_closed_geometry(self, z):
        return np.abs(np.imag(z)) >= self._closed_cut

    def _phi_w(self, u, w):
        d = u - w
        nw = self._Ebar(u) * self.E_prime(w) - self.E(u) * self._Ebar_prime(w)
        return nw / (2j * d) + self._N(u, w) / (2j * d * d)

    def _phi_uw(self, u, w):
        d = u - w
        n = self._N(u, w)
        nu = self._Ebar_prime(u) * self.E(w) - self.E_prime(u) * self._Ebar(w)
        nw = self._Ebar(u) * self.E_prime(w) - self.E(u) * self._Ebar_prime(w)
        nuw = self._Ebar_prime(u) * self.E_prime(w) - self.E_prime(u) * self._Ebar_prime(w)
        return (
            nuw / (2j * d)
            - nw / (2j * d * d)
            + nu / (2j * d * d)
            - 2.0 * n / (2j * d ** 3)
        )

    def theta_form(self, z, X):
        u, x = _lift(z, X)
        return _drop(x * self._phi_w(np.conj(u), u))

    def mixed_form(self, z, X, Y):
        u, x, y = _lift(z, X, Y)
        return _drop(np.conj(x) * y * self._phi_uw(np.conj(u), u))


# ---------------------------------------------------------------------------
# construction


# A registry entry: the class, the descriptor keys it takes with their
# defaults, and for a space built from callables, their keys and the named
# presets that stand for them.
_Kind = namedtuple("_Kind", "cls defaults funcs presets", defaults=((), None))


_REGISTRY = {
    "euclidean": _Kind(EuclideanSpace, {"dim": 2}),
    "hermitian": _Kind(HermitianSpace, {"dim": 2}),
    "sphere": _Kind(UnitSphereSpace, {"dim": 2}),
    "klauder": _Kind(KlauderSpace, {"dim": 1}),
    "reciprocal": _Kind(ReciprocalSpace, {}),
    "szego": _Kind(SzegoSpace, {}),
    "schur": _Kind(SchurSpace, {"preset": "mobius"}, ("s", "s_prime"), {
        "square": (lambda z: z * z, lambda z: 2.0 * z),
        "mobius": (
            lambda z: (2.0 * z + 1.0) / (z + 2.0),
            lambda z: 3.0 / (z + 2.0) ** 2,
        ),
    }),
    "debranges": _Kind(DeBrangesSpace, {"preset": "exp"}, ("E", "E_prime"), {
        "exp": (lambda z: np.exp(-1j * z), lambda z: -1j * np.exp(-1j * z)),
        "damped-linear": (
            lambda z: (z + 1j) * np.exp(-1j * z),
            lambda z: (2.0 - 1j * z) * np.exp(-1j * z),
        ),
    }),
}


def space_names():
    return list(_REGISTRY)


def make_space(kind, **params):
    """Build a catalog space from a JSON-friendly descriptor.

    ``kind`` may also be a dict {"kind": ..., ...} as used by the CLI
    config format, given without keyword parameters.  Vector spaces take
    ``dim``; schur/debranges take either a ``preset`` name or both
    callables (``s``/``s_prime``, ``E``/``E_prime``).  Omitted keys take
    the registry's defaults.  A malformed descriptor raises
    :class:`DomainError` whose message starts with the offending key.
    """
    if isinstance(kind, dict):
        if params:
            raise DomainError(f"{next(iter(params))}: not taken next to a descriptor dict")
        params = dict(kind)
        kind = params.pop("kind", None)
    entry = _REGISTRY.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise DomainError(f"kind: unknown space kind {kind!r} (one of: {', '.join(_REGISTRY)})")
    for key in params:
        if key not in entry.defaults and key not in entry.funcs:
            raise DomainError(f"{key}: unknown key for a {kind} space")
    if any(f in params for f in entry.funcs):
        if "preset" in params:
            raise DomainError(f"preset: not taken next to {' and '.join(entry.funcs)}")
        for f in entry.funcs:
            if not callable(params.get(f)):
                raise DomainError(f"{f}: expected a callable, given with {'/'.join(entry.funcs)}")
        return entry.cls(*(params[f] for f in entry.funcs))
    args = {**entry.defaults, **params}
    if entry.presets is None:
        return entry.cls(**args)
    preset = args["preset"]
    if not isinstance(preset, str) or preset not in entry.presets:
        raise DomainError(f"preset: unknown {kind} preset {preset!r}"
                          f" (one of: {', '.join(entry.presets)})")
    return entry.cls(*entry.presets[preset], preset=preset)


def default_spaces():
    """One representative instance of each of the eight catalog spaces."""
    return [make_space(kind) for kind in _REGISTRY]


# ---------------------------------------------------------------------------
# finite-difference oracle
#
# Every oracle takes a stack of cases, labels and tangents stacked along
# leading axes, with one step h per label.  The step is folded into the
# tangent, so each stencil point is chart_path(z, h X, s) for unit steps s
# shared by all cases, and one call of the differentiated function covers
# the stack.


def _point_scale(space, z):
    """max(1, |z|) per label, with |z|^2 summed as numpy.linalg.norm sums
    it (real parts, then imaginary parts)."""
    a = np.asarray(z)
    if space.scalar_chart:
        a = a[..., None]
    return np.maximum(1.0, np.sqrt(np.vecdot(a.real, a.real) + np.vecdot(a.imag, a.imag)))


def _times(space, h, X):
    """Tangents X scaled by their labels' steps h."""
    return (h if space.scalar_chart else np.asarray(h)[..., None]) * X


def _richardson(d_h, d_h2):
    return (4.0 * d_h2 - d_h) / 3.0


def _checked(out):
    if not np.all(np.isfinite(out)):
        raise AxiomViolationError("non-finite finite difference")
    return out


_FIRST_STEPS = np.array([1.0, -1.0, 0.5, -0.5])
_MIXED_STEPS = (np.array([[1.0, 1.0, -1.0, -1.0], [0.5, 0.5, -0.5, -0.5]]),
                np.array([[1.0, -1.0, 1.0, -1.0], [0.5, -0.5, 0.5, -0.5]]))


def _first_difference(f_at, h):
    """d/dt f_at(t) at 0: central differences at steps h and h/2 with one
    Richardson level, from one call f_at(s) on the unit steps
    s = [1, -1, 1/2, -1/2], which f_at scales by h."""
    v = f_at(_FIRST_STEPS)
    v = np.broadcast_to(v, (4,) + np.shape(v)[1:])
    return _checked(_richardson((v[0] - v[1]) / (2.0 * h), (v[2] - v[3]) / h))


def fd_R(space, f, z, zp, X, h=None):
    """Central-difference R_X f(z, z') along the chart path through z'.

    One Richardson level (steps h and h/2); h defaults to
    1e-5 * max(1, |z'|).  f broadcasts like ``space.kernel``: the whole
    stencil of every stacked case is one call on stacked right labels.  A
    constant f is fine.
    """
    if h is None:
        h = 1e-5 * _point_scale(space, zp)
    hX = _times(space, h, X)
    return _first_difference(lambda s: f(z, space.chart_path(zp, hX, s)), h)


def fd_L(space, f, z, zp, X, h=None):
    """Central-difference L_X f(z, z') along the chart path through z.

    fd_R with the slots swapped: the same stencil, steps and broadcasting
    contract, on stacked left labels.
    """
    return fd_R(space, lambda a, b: f(b, a), zp, z, X, h)


def fd_LR(space, z, X, Y, f=None, h=None):
    """Mixed second difference L_X R_Y f evaluated at (z, z).

    Four-point stencil with one Richardson level, evaluated as one call of
    f on eight stacked label pairs per case; f defaults to the kernel and
    broadcasts like it (a constant f is fine).  h defaults to
    1e-3 * max(1, |z|): the stencil divides roundoff by h^2, and after the
    Richardson level the truncation error is O(h^4), so the
    first-derivative step 1e-5 would leave ~1e-6 relative noise.
    """
    if f is None:
        f = space.kernel
    if h is None:
        h = 1e-3 * _point_scale(space, z)
    sx, sy = _MIXED_STEPS
    v = f(space.chart_path(z, _times(space, h, X), sx),
          space.chart_path(z, _times(space, h, Y), sy))
    v = np.broadcast_to(v, (2, 4) + np.shape(v)[2:])
    d = [(w[0] - w[1] - w[2] + w[3]) / (4.0 * hk * hk) for w, hk in zip(v, (h, h / 2.0))]
    return _checked(_richardson(*d))


def _fd_theta(space, z, X):
    return fd_R(space, space.kernel, z, z, X)


# ---------------------------------------------------------------------------
# geometry: theta, metric, two-form
#
# Each function takes one case or a stack of cases, z and the tangents
# broadcast against each other along their stack axes, and returns values
# of the broadcast stack shape.


def _closed_or_fd(space, closed, fd, z, *tangents):
    """closed(z, *tangents) on the cases where the space has closed
    geometry and fd(z, *tangents) on the others, each run only on its own
    cases, as one flat stack of them.  When every case is closed, closed
    runs once on the arguments as given, its value broadcast to the stack."""
    args = [np.asarray(a) for a in (z, *tangents)]
    tail = () if space.scalar_chart else args[0].shape[-1:]
    shape = np.broadcast_shapes(*(a.shape[:a.ndim - len(tail)] for a in args))
    closed_here = space.has_closed_geometry(z)
    if np.all(closed_here):
        return np.broadcast_to(closed(*args), shape).astype(complex)[()]
    ok = np.broadcast_to(closed_here, shape)
    out = np.empty(shape, dtype=complex)
    for cases, form in ((ok, closed), (~ok, fd)):
        if cases.any():
            out[cases] = form(*(np.broadcast_to(a, shape + tail)[cases] for a in args))
    return out[()]


def one_form_theta(space, z, X):
    """theta(z)(X) = R_X K(z, z); closed form where the space has one."""
    return _closed_or_fd(space, space.theta_form, partial(_fd_theta, space), z, X)


def _mixed(space, z, X, Y):
    """L_X R_Y K(z, z); closed form where the space has one."""
    return _closed_or_fd(space, space.mixed_form, partial(fd_LR, space), z, X, Y)


def metric_g(space, z, X, Y):
    """Symmetrized second kernel derivative (L_Y R_X + L_X R_Y) K(z,z) / 2."""
    return (_mixed(space, z, X, Y) + _mixed(space, z, Y, X)) / 2.0


def two_form_omega(space, z, X, Y):
    """Antisymmetric part L_X R_Y K - L_Y R_X K at the diagonal point.

    For constant fields this is the value of the exterior derivative of
    theta; the bracket term of the general formula vanishes.
    """
    return _mixed(space, z, X, Y) - _mixed(space, z, Y, X)


@dataclass
class GeometryReport:
    """Closed-form vs finite-difference cross-validation at one sample or a
    stack of them.  Values have the broadcast stack shape of z, X and Y
    (theta's of z and X alone); provenance is "closed" or "fd" when every
    label has it, "mixed" otherwise."""

    g_closed: complex
    g_fd: complex
    theta_closed: complex
    theta_fd: complex
    omega_closed: complex
    omega_fd: complex
    rel_discrepancies: tuple
    provenance: str = "closed"


def geometry_report(space, z, X, Y):
    """Compare closed-form g, theta, omega against the FD oracle at (z, X, Y).

    Where the space has no closed form, the "closed" values are the FD
    ones and their discrepancies read 0.
    """
    lr_xy = fd_LR(space, z, X, Y)
    lr_yx = fd_LR(space, z, Y, X)
    m_xy = _mixed(space, z, X, Y)
    m_yx = _mixed(space, z, Y, X)
    pairs = (((m_xy + m_yx) / 2.0, (lr_xy + lr_yx) / 2.0),
             (one_form_theta(space, z, X), _fd_theta(space, z, X)),
             (m_xy - m_yx, lr_xy - lr_yx))
    rel = tuple(np.abs(c - f) / np.maximum(1.0, np.abs(f)) for c, f in pairs)
    closed = np.asarray(space.has_closed_geometry(z))
    prov = "closed" if closed.all() else "mixed" if closed.any() else "fd"
    (g_cl, g_fd), (th_cl, th_fd), (om_cl, om_fd) = pairs
    return GeometryReport(g_cl, g_fd, th_cl, th_fd, om_cl, om_fd, rel, prov)


def wtg_matrix(space, z, X):
    """2x2 matrix [[K, R_X K], [L_X K, L_X R_X K]] at (z, z); PSD for any X.

    Closed-form entries where available (see infinitesimal_cs_margin for
    why), FD otherwise.  A stack of cases gives a stack of matrices.
    """
    th = one_form_theta(space, z, X)
    k = np.broadcast_to(space.kernel(z, z), np.shape(th))
    return np.stack([np.stack([k, th], -1),
                     np.stack([np.conj(th), _mixed(space, z, X, X)], -1)], -2)


def infinitesimal_cs_margin(space, z, X):
    """K(z,z) L_X R_X K(z,z) - |R_X K(z,z)|^2 at the diagonal point, the
    determinant of wtg_matrix.

    Nonnegative (up to -1e-8 * scale) in any coherent space, with equality
    exactly on rank-one kernels such as schur("mobius").  The equality case
    is why closed forms are preferred when the space has them: finite
    differences carry ~1e-6 noise, which lands on either side of an exact
    zero.
    """
    return _wtg_det(wtg_matrix(space, z, X))


def _wtg_det(m):
    """Determinant of (a stack of) wtg_matrix results, as
    infinitesimal_cs_margin reads it: real diagonal, Hermitian corner."""
    return m[..., 0, 0].real * m[..., 1, 1].real - np.abs(m[..., 0, 1]) ** 2


@dataclass
class PotentialReport:
    """Signed margins of the log-kernel derivative inequalities."""

    fbar_residual: float
    rerr_margin: float
    rell_margin: float
    ifcs_margin: float
    worst: float
    skipped: bool = False


def potential_inequality_check(space, z, X, h=None):
    """Check the derivative inequalities of the potential P = log K.

    Verifies, by finite differences along the same chart paths,
    L_X P = conj(R_X P), 2 Re R_X^2 P <= (L_X + R_X)^2 P,
    2 Re L_X^2 P <= (L_X + R_X)^2 P and L_X R_X P >= 0.  If the kernel
    vanishes anywhere on the probe stencil, the report comes back skipped.

    The step default is 1e-4 rather than the first-derivative 1e-5:
    second differences divide roundoff by h^2, and log-linear potentials
    (Klauder, rank-one Schur kernels) satisfy the inequalities with
    equality, so the noise floor has to sit well below 1e-6.
    """
    if h is None:
        h = 1e-4 * _point_scale(space, z)

    def pot(a, b):
        k = space.kernel(a, b)
        if np.any(np.abs(k) < 1e-300):
            raise ZeroDivisionError
        return np.log(k)

    try:
        lp = fd_L(space, pot, z, z, X, h=h)
        rp = fd_R(space, pot, z, z, X, h=h)
        lrp = fd_LR(space, z, X, X, f=pot, h=h)

        # second differences along the path, steps [h, 0, -h] then halved
        w = space.chart_path(z, X, np.array([h, 0.0, -h, h / 2.0, 0.0, -h / 2.0]))

        def second(vals):
            return _richardson((vals[0] - 2.0 * vals[1] + vals[2]) / (h * h),
                               (vals[3] - 2.0 * vals[4] + vals[5]) / (h * h / 4.0))

        r2 = second(pot(z, w))
        l2 = second(pot(w, z))
        both2 = second(pot(w, w))
    except ZeroDivisionError:
        nan = float("nan")
        return PotentialReport(nan, nan, nan, nan, nan, skipped=True)

    fbar = abs(lp - np.conj(rp))
    rerr = both2.real - 2.0 * r2.real
    rell = both2.real - 2.0 * l2.real
    ifcs = lrp.real
    return PotentialReport(fbar, rerr, rell, ifcs, min(rerr, rell, ifcs))


def commutation_check(space, z, zp, X, Y, h=None):
    """|L_X R_Y K - R_Y L_X K| via genuinely nested finite differences.

    The two orders use swapped inner/outer steps so the stencils differ;
    a symmetric four-point stencil would make the comparison vacuous.  The
    base step is 1e-4 (second-difference optimum) rather than the 1e-5 of
    the first-derivative oracle, whose roundoff would drown the bound.
    """
    if h is None:
        h = 1e-4 * max(_point_scale(space, z), _point_scale(space, zp))
    h_in = 0.7 * h

    def lr(step_l, step_r):
        def inner(a, b):
            return (space.kernel(a, space.chart_path(b, Y, step_r))
                    - space.kernel(a, space.chart_path(b, Y, -step_r))) / (2.0 * step_r)

        return (inner(space.chart_path(z, X, step_l), zp)
                - inner(space.chart_path(z, X, -step_l), zp)) / (2.0 * step_l)

    def rl(step_l, step_r):
        def inner(a, b):
            return (space.kernel(space.chart_path(a, X, step_l), b)
                    - space.kernel(space.chart_path(a, X, -step_l), b)) / (2.0 * step_l)

        return (inner(z, space.chart_path(zp, Y, step_r))
                - inner(z, space.chart_path(zp, Y, -step_r))) / (2.0 * step_r)

    return abs(lr(h, h_in) - rl(h, h_in))
