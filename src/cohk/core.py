"""Coherent products, Gram matrices and the metric quantities they induce.

A coherent space is a set of points carrying a Hermitian positive
semidefinite kernel K, the coherent product.  Everything here works through
kernel values alone: lengths sqrt(K(z,z)), angles, distances, the
log-kernel potential, and sample-level probes of the defining inequalities.
Concrete spaces live in :mod:`cohk.catalog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "LOG_ZERO",
    "MAX_SIZE",
    "AxiomViolationError",
    "CoherentSpace",
    "DegenerateFormError",
    "DomainError",
    "PsdReport",
    "angle",
    "cauchy_schwarz_margin",
    "distance",
    "gram",
    "kernel_eval",
    "length",
    "nondegeneracy_probe",
    "potential",
    "psd_check",
]

#: Seed used by every reproducible sampling helper unless overridden.
DEFAULT_SEED = 0xC0FFEE

#: Largest step count, grid length or sample count one computation may ask
#: for; more is a rejected input rather than a run that cannot finish or
#: allocate.
MAX_SIZE = 20_000_000

# entries up to this size add to themselves without overflow
_HALF_MAX = np.finfo(float).max / 2.0


def _step_count(span, dt, name):
    """round(span / dt), the one step rule of every time grid: a DomainError
    starting with ``name`` unless 0 < dt < inf, span >= 0 and the count is
    at most MAX_SIZE (an infinite span needs infinitely many steps)."""
    if not (0.0 < dt < math.inf and span >= 0.0):
        raise DomainError(f"{name}, dt={dt:g}: need a horizon >= 0 and a finite step dt > 0")
    steps = span / dt  # may overflow to inf, so compared before rounding
    if not steps <= MAX_SIZE + 0.5:
        raise DomainError(f"{name} needs {steps:.3g} steps of dt={dt:g}; "
                          f"the most allowed is {MAX_SIZE}")
    return int(round(steps))


class DomainError(ValueError):
    """Point does not belong to the space (wrong shape, tag or region)."""


class AxiomViolationError(ArithmeticError):
    """A kernel value violated positivity beyond numerical tolerance."""


class DegenerateFormError(ArithmeticError):
    """A symplectic form is numerically singular at the requested point."""


class _LogZeroType:
    """Sentinel for log K when K vanishes.

    An explicit object rather than -inf, so that it can never leak into
    float arithmetic; comparisons must skip it deliberately.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "LOG_ZERO"


LOG_ZERO = _LogZeroType()


class CoherentSpace:
    """Base class for point sets with a Hermitian PSD kernel.

    Subclasses implement ``kernel`` as one numpy expression that
    broadcasts over stacked leading axes of its two labels, so a Gram
    matrix is ``kernel(P[:, None], P[None])``; a single pair gives a
    complex scalar.  Points are plain Python or numpy scalars on scalar
    charts and coordinate vectors otherwise, stacked along leading axes
    with the coordinate axis last; tangent vectors share the point's shape.

    Attributes
    ----------
    space_id : str
        Stable identifier, also used by the CLI config format.
    coord_len : int
        Number of chart coordinates (1 for scalar charts).
    complex_chart : bool
        Whether chart coordinates are complex.  Real charts (Euclidean,
        reciprocal) expect real tangents.
    scalar_chart : bool
        Whether a label is a scalar rather than a coordinate vector, so
        that a stack of labels has no coordinate axis.
    """

    space_id = "coherent"
    coord_len = 1
    complex_chart = True
    scalar_chart = False

    # -- kernel -----------------------------------------------------------

    def kernel(self, z, zp):
        """K(z, z'), broadcast over stacked leading axes of both labels."""
        raise NotImplementedError

    # -- points -----------------------------------------------------------

    def validate(self, z):
        """Return the canonical form of ``z`` or raise :class:`DomainError`."""
        raise NotImplementedError

    def contains(self, z):
        try:
            self.validate(z)
        except DomainError:
            return False
        return True

    def stack(self, points):
        """Stack validated points into one array for ``kernel``.

        The contract is this per-label loop: a new array equal, dtype and
        bits included, to ``np.asarray([self.validate(z) for z in points])``,
        and the first label that fails ``validate`` raises its own error.
        Catalog spaces meet it with one broadcasting domain check of the
        whole stack; a user space keeps the loop.
        """
        return np.asarray([self.validate(z) for z in points])

    def _outside(self, Z):
        """True where a finite label of the stack ``Z`` lies outside the
        domain, one bool per label.  This is the per-label ``contains``;
        catalog spaces override it with one broadcasting region check."""
        return np.array([not self.contains(z) for z in Z], dtype=bool)

    def chart_path(self, z, X, t):
        """Point at parameter ``t`` on the chart line through ``z`` along ``X``.

        Straight in coordinates; spaces with a constrained domain (the unit
        sphere) re-project.  An array of steps gives the points stacked
        along leading axes of that shape.  All finite differences route
        through this, so first derivatives agree with the flow definition
        for any such path.
        """
        return z + np.multiply.outer(t, X)

    # -- sampling ----------------------------------------------------------

    def sample_points(self, rng, n):
        """Stacked array of ``n`` points drawn from ``rng``."""
        raise NotImplementedError

    def sample_point(self, rng):
        """One point, drawn as ``sample_points(rng, 1)`` draws it."""
        return self.sample_points(rng, 1)[0]

    def sample_tangent(self, z, rng):
        """Tangents drawn from ``rng``, one per label of ``z`` and stacked
        like it; a single label gives one tangent of the label's form.

        Catalog spaces draw a whole stack in one expression, so a stack
        consumes the stream differently from a loop of single draws.
        """
        raise NotImplementedError

    # -- optional closed-form geometry (filled in by catalog spaces) -------

    def theta_form(self, z, X):
        """Closed form of R_X K(z,z), when the space has one.

        Broadcasts like ``kernel``: labels and tangents stack along leading
        axes and the result has their broadcast stack shape; a single case
        is the 0-d instance of the same expression.
        """
        raise NotImplementedError

    def mixed_form(self, z, X, Y):
        """Closed form of L_X R_Y K(z,z), when the space has one; broadcasts
        like ``theta_form``."""
        raise NotImplementedError

    def mixed_solve(self, z, g):
        """Closed-form solve of the mixed matrix Hm[a, b] = L_{E_a} R_{E_b}
        K(z, z) over the chart basis, when the space has one: returns
        (Hm^{-1} g, lambda_min, lambda_max), with lambda_min and lambda_max
        the extreme eigenvalues of Hm + Hm*.  Broadcasts over labels and
        right-hand sides stacked along leading axes."""
        raise NotImplementedError

    def has_closed_geometry(self, z):
        """Whether the closed forms hold at ``z``: one bool for every label,
        or a bool array of the stack shape of ``z``.  By default they hold
        everywhere if the space defines ``theta_form``, and nowhere else."""
        return type(self).theta_form is not CoherentSpace.theta_form

    def __repr__(self):
        return f"<{type(self).__name__} {self.space_id}>"


# ---------------------------------------------------------------------------
# kernel-level operations


def kernel_eval(space, z, zp):
    """Evaluate the coherent product K(z, z').

    Raises
    ------
    DomainError
        If either point fails validation.
    AxiomViolationError
        If the value is not finite (kernel singularity).
    """
    z = space.validate(z)
    zp = space.validate(zp)
    k = complex(space.kernel(z, zp))
    if not (math.isfinite(k.real) and math.isfinite(k.imag)):
        raise AxiomViolationError(
            f"kernel of {space.space_id} not finite at the given pair"
        )
    return k


def _kernel_matrix(space, left, right):
    """K(left[j], right[k]) over two stacks of labels as a complex matrix.

    The one checked kernel-matrix evaluation, behind gram,
    nondegeneracy_probe and quantum's inner and norm: an entry that is not
    finite (an overflowing or singular kernel) raises AxiomViolationError
    naming the space and the first such pair, without a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.asarray(space.kernel(left[:, None], right[None]), dtype=complex)
    if not np.all(np.isfinite(k)):
        bad = np.argwhere(~np.isfinite(k))[0]
        raise AxiomViolationError(
            f"kernel of {space.space_id} not finite at point pair "
            f"({bad[0]}, {bad[1]})"
        )
    return k


def gram(space, points):
    """Gram matrix G[j, k] = K(points[j], points[k]) as a complex array."""
    pts = space.stack(points)
    if not len(pts):
        raise DomainError("points: a Gram matrix needs at least one point")
    return _kernel_matrix(space, pts, pts)


@dataclass
class PsdReport:
    """Eigenvalue summary of a Gram matrix positivity check."""

    min_eigenvalue: float
    max_eigenvalue: float
    hermiticity_defect: float
    passed: bool


def psd_check(g, tol_rel=1e-10, tol_abs=1e-12):
    """Check a Gram matrix for Hermiticity and positive semidefiniteness.

    The eigenvalues of the Hermitized matrix (G + G*)/2 are computed; the
    verdict is ``min_eig >= -tol_abs - tol_rel * max(1, max_eig)``.  The
    relative term matters because Hilbert-type Grams are severely
    ill-conditioned and an absolute-only tolerance misfires on them.

    A matrix whose Hermitized form has an imaginary part that is exactly 0
    (every Gram of a real-chart space) is checked with the cheaper real
    symmetric solver; every other matrix takes the complex Hermitian solver
    as before, bit for bit.  An exactly Hermitian matrix, G == G* entry by
    entry with no entry above half the float range, is its own Hermitized
    matrix: it goes to its solver as it is, with a hermiticity defect of 0.
    So do the Grams of most catalog spaces; szego's and schur's are
    Hermitian only to rounding, since a complex quotient and the quotient
    of the conjugates round differently.

    ``g`` may stack matrices along leading axes, shape (..., n, n); the
    report's fields then have the stack shape.  Each matrix of a stack gets
    its solver and its Hermitization on its own, so its row of the report
    is the report of that matrix checked alone.  A matrix with an entry
    that is not finite, or whose modulus overflows, raises DomainError.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise DomainError("gram matrix must be square")
    if not g.shape[-1]:
        raise DomainError("gram matrix is empty (0 x 0)")
    if not g.imag.any():
        g = g.real  # |x + 0j| is |x|: the same defect and scale, in real arithmetic
    # max|G| is finite exactly when every entry and its modulus are
    peak = np.max(np.abs(g), axis=(-2, -1))
    if not np.isfinite(peak).all():
        raise DomainError("gram matrix has an entry that is not finite or whose modulus overflows")
    gh = np.conj(np.swapaxes(g, -1, -2))
    # G == G* whose entries double without overflow: (G + G*)/2 is G
    own = np.all(g == gh, axis=(-2, -1)) & (peak <= _HALF_MAX)
    if own.all():
        s, herm_defect = g, np.zeros(own.shape)
    else:
        herm_defect = np.max(np.abs(g - gh), axis=(-2, -1))
        s = g + gh
        s /= 2.0
        if own.any():
            s[own] = g[own]
    real = ~np.any(s.imag, axis=(-2, -1))  # per matrix, whatever the stack holds
    # a stack of one kind goes to its solver whole, without copying rows
    if real.all():
        eigs = np.linalg.eigvalsh(s.real)
    elif not real.any():
        eigs = np.linalg.eigvalsh(s)
    else:
        eigs = np.empty(s.shape[:-1])
        eigs[real] = np.linalg.eigvalsh(s.real[real])
        eigs[~real] = np.linalg.eigvalsh(s[~real])
    mn, mx = eigs[..., 0], eigs[..., -1]
    scale = np.maximum(1.0, peak)
    ok = (mn >= -tol_abs - tol_rel * np.maximum(1.0, mx)) & (herm_defect <= 1e-12 * scale)
    return PsdReport(mn[()], mx[()], herm_defect[()], ok[()])


def length(space, z):
    """sqrt(K(z,z)).  Raises if K(z,z) is negative beyond -1e-12."""
    k = kernel_eval(space, z, z)
    if k.real < -1e-12:
        raise AxiomViolationError(
            f"K(z,z) = {k.real!r} < 0 on {space.space_id}"
        )
    return math.sqrt(max(k.real, 0.0))


def angle(space, z, zp):
    """Angle arccos(|K(z,z')| / (|z| |z'|)), clamped into [0, pi/2]."""
    nz = length(space, z)
    nzp = length(space, zp)
    if nz == 0.0 or nzp == 0.0:
        raise DomainError("angle undefined for a zero-length point")
    c = abs(kernel_eval(space, z, zp)) / (nz * nzp)
    return math.acos(min(max(c, 0.0), 1.0))


def distance(space, z, zp):
    """Kernel distance sqrt(K(z,z) + K(z',z') - 2 Re K(z,z')).

    The radicand is clamped to zero inside a rounding window scaled by the
    kernel magnitude; anything below the window is an axiom violation.
    """
    kzz = kernel_eval(space, z, z).real
    kpp = kernel_eval(space, zp, zp).real
    cross = kernel_eval(space, z, zp).real
    rad = kzz + kpp - 2.0 * cross
    window = 1e-12 * max(1.0, kzz + kpp)
    if rad < -window:
        raise AxiomViolationError(
            f"distance radicand {rad!r} < 0 on {space.space_id}"
        )
    return math.sqrt(max(rad, 0.0))


def potential(space, z, zp):
    """Principal-branch log K(z,z'), or the LOG_ZERO sentinel when K = 0."""
    k = kernel_eval(space, z, zp)
    if abs(k) < 1e-300:
        return LOG_ZERO
    return complex(np.log(complex(k)))


def cauchy_schwarz_margin(space, z, zp):
    """|z| |z'| - |K(z,z')|, nonnegative up to rounding for PSD kernels."""
    return length(space, z) * length(space, zp) - abs(kernel_eval(space, z, zp))


def nondegeneracy_probe(space, z, z2, witnesses):
    """max over witnesses w of |K(z2, w) - K(z, w)|.

    A value at rounding level with z != z2 flags a degeneracy witness
    failure for this sample; a single witness is usually not conclusive.
    """
    if len(witnesses) < 1:
        raise DomainError("nondegeneracy probe needs at least one witness")
    k = _kernel_matrix(space, space.stack([z, z2]), space.stack(witnesses))
    return float(np.max(np.abs(k[1] - k[0])))
