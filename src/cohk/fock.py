"""Fock calculus on Klauder space, in closed form.

Operators never appear as matrices here.  Elements of the oscillator
semigroup [rho, p, q, X] act affinely on Klauder labels, their
quantizations Gamma(A) act by relabeling coherent states, and every
operator identity in this module reduces to scalar bookkeeping plus
kernel evaluations:

    <z| Gamma(A) |z'> = K(z, A z').

Products of quantized operators compose through osc_mul; exponentials of
generators through the (n+2)x(n+2) block picture.  The Weyl operator
W(p,q) = exp(p*a + a*q) is represented by its central splitting
e^{p*q/2} Gamma([0,p,q,I]); the ordered product e^{p*a} e^{a*q} differs
from it by e^{p*q/2} and is the form the exchange/inverse relations are
stated in.  One shift constructor, ``_shift``, builds every [0,p,q,I]
(e^{p*a} and e^{a*q} are [0,p,0,I] and [0,0,q,I]), and
weyl_relation_residuals names its five identities in one table, whose
names are WeylReport's fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import DomainError

__all__ = [
    "CcrReport",
    "OscElement",
    "OscGenerator",
    "WeylReport",
    "annihilation_element",
    "ccr_epsilon_check",
    "creation_element",
    "dgamma_element",
    "gamma_colon_residual",
    "gamma_element",
    "gen_block",
    "klauder_kernel",
    "normal_ordered_element",
    "normal_ordered_series",
    "osc_act",
    "osc_adjoint",
    "osc_block",
    "osc_bracket",
    "osc_exp",
    "osc_from_block",
    "osc_identity",
    "osc_mul",
    "segal_field_element",
    "weyl_element",
    "weyl_ordered_element",
    "weyl_relation_residuals",
]


# mode part zhat of stacked [z0, zhat] labels; built once, because a fresh
# index tuple per call is a tenth of a single-pair kernel evaluation
_MODES = np.s_[..., 1:]


def _klauder_exponent(z, zp):
    """conj(z0) + z0' + zhat* zhat', broadcast over stacked leading axes;
    the one exponent behind KlauderSpace.kernel and klauder_kernel.

    ``[()]`` turns the 0-d head of a single label into a numpy scalar, so a
    single pair stays on numpy's fast scalar arithmetic.  An el_integrate
    RK4 step on klauder with the CLI's closed dH makes no call: the closed
    mixed solve and that dH take K(z, z) from ``_klauder_diagonal``.
    Without a dH, H is evaluated on the gradient stencil, one call per
    stage (4 per step) for the CLI's stacked H.
    """
    return np.conj(z[..., 0]) + zp[..., 0][()] + np.vecdot(z[_MODES], zp[_MODES])


def _klauder_diagonal(z, n):
    """K(z, z) = exp(2 Re z0 + n) for n = |zhat|^2, broadcast over stacked
    labels: the exponential of the real part of ``_klauder_exponent(z, z)``,
    whose imaginary part is 0 on the diagonal, so one real exponential
    replaces a complex one.  It is within 1 ulp of ``kernel(z, z).real``
    (bit for bit on most labels); callers that already have n pay no
    second pass over the modes.  As in ``_klauder_exponent``, ``[()]``
    keeps a single label on numpy's scalar arithmetic, whose real products
    and sums round as the array loops do."""
    return np.exp(z[..., 0][()].real * 2.0 + n)


def klauder_kernel(z, zp):
    """K(z, z') = exp(conj(z0) + z0' + zhat* zhat') on flat [z0, zhat] labels.

    Either label may stack labels along leading axes; a single pair gives a
    Python complex, a stack an array of the broadcast stack shape.
    """
    k = np.exp(_klauder_exponent(np.asarray(z, dtype=complex),
                                 np.asarray(zp, dtype=complex)))
    return complex(k) if k.ndim == 0 else k


def _vec(v):
    """A p or q vector as a flat complex array."""
    return np.asarray(v, dtype=complex).reshape(-1)


def _as_vec(v, n, name):
    v = _vec(v)
    if v.shape != (n,):
        raise DomainError(f"{name} must have length {n}")
    return v


@dataclass(eq=False)
class OscElement:
    """Oscillator semigroup element [rho, p, q, X], block form
    [[1, p*, rho], [0, X, q], [0, 0, 1]]."""

    rho: complex
    p: np.ndarray
    q: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=complex)
        if self.X.ndim != 2 or self.X.shape[0] != self.X.shape[1]:
            raise DomainError("X must be a square matrix")
        n = self.X.shape[0]
        self.rho = complex(self.rho)
        self.p = _as_vec(self.p, n, "p")
        self.q = _as_vec(self.q, n, "q")

    @property
    def n(self):
        return self.X.shape[0]


@dataclass(eq=False)
class OscGenerator:
    """Oscillator algebra generator X_{rho,p,q,X}; dGamma of it has the
    closed-form matrix element implemented by dgamma_element."""

    rho: complex
    p: np.ndarray
    q: np.ndarray
    X: np.ndarray

    __post_init__ = OscElement.__post_init__
    n = OscElement.n

    def adjoint(self):
        return osc_adjoint(self)


def osc_identity(n):
    return OscElement(0.0, np.zeros(n), np.zeros(n), np.eye(n))


def _check_dims(A, B):
    if A.n != B.n:
        raise DomainError(f"mode count mismatch: {A.n} vs {B.n}")


def osc_mul(A, B):
    """Semigroup product; matches block-matrix multiplication."""
    _check_dims(A, B)
    return OscElement(
        A.rho + B.rho + np.vdot(A.p, B.q),
        B.p + B.X.conj().T @ A.p,
        A.q + A.X @ B.q,
        A.X @ B.X,
    )


def osc_act(A, z):
    """Affine action [rho,p,q,X][z0, zhat] = [rho + z0 + p* zhat, q + X zhat]."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (A.n + 1,):
        raise DomainError(f"expected a Klauder label of length {A.n + 1}")
    out = np.empty(A.n + 1, dtype=complex)
    out[0] = A.rho + z[0] + np.vdot(A.p, z[1:])
    out[1:] = A.q + A.X @ z[1:]
    return out


def osc_adjoint(A):
    """A* = [conj(rho), q, p, X*], of A's own type (element or generator);
    an element's satisfies K(z, Az') = K(A*z, z')."""
    return type(A)(np.conj(A.rho), A.q, A.p, A.X.conj().T)


def osc_bracket(g1, g2):
    """Lie bracket of generators, again of the form X_{rho,p,q,X}."""
    _check_dims(g1, g2)
    return OscGenerator(
        np.vdot(g1.p, g2.q) - np.vdot(g2.p, g1.q),
        g2.X.conj().T @ g1.p - g1.X.conj().T @ g2.p,
        g1.X @ g2.q - g2.X @ g1.q,
        g1.X @ g2.X - g2.X @ g1.X,
    )


def osc_block(A):
    """(n+2) x (n+2) upper-triangular block matrix of an element: its
    ``gen_block`` layout with the two corner 1s."""
    M = gen_block(A)
    M[0, 0] = M[-1, -1] = 1.0
    return M


def osc_from_block(M):
    M = np.asarray(M, dtype=complex)
    n = M.shape[0] - 2
    return OscElement(M[0, n + 1], np.conj(M[0, 1:n + 1]), M[1:n + 1, n + 1],
                      M[1:n + 1, 1:n + 1])


def gen_block(gen):
    """Block form of a generator: [[0, p*, rho], [0, X, q], [0, 0, 0]]."""
    n = gen.n
    M = np.zeros((n + 2, n + 2), dtype=complex)
    M[0, 1:n + 1] = np.conj(gen.p)
    M[0, n + 1] = gen.rho
    M[1:n + 1, 1:n + 1] = gen.X
    M[1:n + 1, n + 1] = gen.q
    return M


def _block_exp(gen, s):
    """expm(s * gen_block(gen)) stacked over the entries of ``s``: the one
    matrix exponential, matrix by matrix, so stacking keeps the bits."""
    from scipy.linalg import expm

    return expm(np.multiply.outer(s, gen_block(gen)))


def osc_exp(gen, t=1.0):
    """exp(t * gen) as a semigroup element, via the block matrix exponential."""
    return osc_from_block(_block_exp(gen, t))


# ---------------------------------------------------------------------------
# matrix elements


def gamma_element(A, z, zp):
    """<z| Gamma(A) |z'> = K(z, A z')."""
    return klauder_kernel(z, osc_act(A, zp))


def dgamma_element(gen, z, zp):
    """<z| dGamma(X_{rho,p,q,X}) |z'> = K(z,z') (rho + p* zhat' + zhat* q + zhat* X zhat').

    Broadcasts over stacked left and right labels like klauder_kernel.  Every
    product is taken label by label (vecdot, stacked matmul), so a case
    gets the same bits in a stack of any length.
    """
    return klauder_kernel(z, zp) * _dgamma_factor(gen, z, zp)


def _dgamma_factor(gen, z, zp):
    """rho + p* zhat' + zhat* q + zhat* X zhat', the factor of K(z, z') in
    dgamma_element, so a caller holding K need not evaluate it again."""
    z = np.asarray(z, dtype=complex)
    zp = np.asarray(zp, dtype=complex)
    zh, zph = z[..., 1:], zp[..., 1:]
    lin = (gen.rho + np.vecdot(gen.p, zph) + np.vecdot(zh, gen.q)
           + np.vecdot(zh, (gen.X @ zph[..., None])[..., 0]))
    return complex(lin) if np.ndim(lin) == 0 else lin


def annihilation_element(q, z, zp):
    """<z| q*a |z'> = K(z,z') q* zhat': coherent states are a-eigenvectors."""
    zp = np.asarray(zp, dtype=complex)
    return klauder_kernel(z, zp) * complex(np.vdot(q, zp[1:]))


def creation_element(q, z, zp):
    """<z| a*q |z'> = K(z,z') zhat* q."""
    z = np.asarray(z, dtype=complex)
    return klauder_kernel(z, zp) * complex(np.vdot(z[1:], q))


def segal_field_element(q, z, zp):
    """Matrix element of the Segal field (q*a + a*q)/sqrt(2)."""
    return (annihilation_element(q, z, zp) + creation_element(q, z, zp)) / np.sqrt(2.0)


def normal_ordered_element(F, z, zp):
    """<z| :F(a*, a): |z'> = K(z,z') F(conj(zhat), zhat').

    F is an ordinary function of two vector arguments; the first receives
    the conjugated bra label, so polynomials can be written verbatim.
    """
    z = np.asarray(z, dtype=complex)
    zp = np.asarray(zp, dtype=complex)
    return klauder_kernel(z, zp) * complex(F(np.conj(z[1:]), zp[1:]))


# normal_ordered_series stops once a term falls below this share of the sum
_SERIES_TAIL = 1e-14


def normal_ordered_series(F_terms, z, zp, max_terms=10000):
    """Sum normal_ordered_element over countably many terms.

    Truncates once a term falls below ``_SERIES_TAIL`` relative to the
    running sum; raises if max_terms are consumed first.
    """
    total = 0.0 + 0.0j
    for k, F in enumerate(F_terms):
        term = normal_ordered_element(F, z, zp)
        total += term
        if k > 0 and abs(term) <= _SERIES_TAIL * max(1.0, abs(total)):
            return total
        if k + 1 >= max_terms:
            raise ArithmeticError("normal-ordered series did not settle")
    return total


# ---------------------------------------------------------------------------
# Weyl operators


def _vd(p, q):
    return complex(np.vdot(p, q))


def _shift(p, q):
    """[0, p, q, I] for flat p, q of one length: its Gamma is e^{p*a} e^{a*q}
    up to the scalar e^{p*q}.  The one constructor of every shift element."""
    return OscElement(0.0, p, q, np.eye(len(p)))


def weyl_element(p, q, z, zp):
    """<z| exp(p*a + a*q) |z'> = e^{p*q/2} K(z, [0,p,q,I] z').

    The central splitting is the unique closed form consistent with the
    exchange relation for e^{p*a} and e^{a*q}; the exchange relation
    itself is re-verified in weyl_relation_residuals rather than assumed.
    """
    p, q = _vec(p), _vec(q)
    return np.exp(_vd(p, q) / 2.0) * gamma_element(_shift(p, q), z, zp)


def weyl_ordered_element(p, q, z, zp):
    """<z| e^{p*a} e^{a*q} |z'>; equals e^{p*q/2} weyl_element."""
    p, q = _vec(p), _vec(q)
    return np.exp(_vd(p, q)) * gamma_element(_shift(p, q), z, zp)


class _Wop:
    """scalar * Gamma(element): enough to compose Weyl operator products."""

    def __init__(self, scalar, elem):
        self.scalar = complex(scalar)
        self.elem = elem

    def __matmul__(self, other):
        return _Wop(self.scalar * other.scalar, osc_mul(self.elem, other.elem))

    def element(self, z, zp):
        return self.scalar * gamma_element(self.elem, z, zp)


def _w_ord(p, q):
    """e^{p*a} e^{a*q} = e^{p*q} Gamma([0,p,q,I])."""
    return _Wop(np.exp(_vd(p, q)), _shift(p, q))


@dataclass
class WeylReport:
    """Max residuals of the Weyl operator identities over a sample set; every
    field before ``scale`` is one identity of weyl_relation_residuals' table."""

    exchange: float          # e^{p*a} e^{a*q} = e^{p*q} e^{a*q} e^{p*a}
    composition: float       # W(p,q) W(p',q') = e^{-p'*q} W(p+p', q+q')
    inverse: float           # W(p,q) W(-p,-q) = e^{p*q} 1
    swap: float              # W W' = e^{p*q' - p'*q} W' W
    group_commutator: float  # W^{-1} W'^{-1} W W' = e^{p*q' - p'*q} 1
    scale: float

    @property
    def residuals(self):
        """{identity: max residual}, in field order."""
        return {name: getattr(self, name) for name in _WEYL_IDENTITIES}

    @property
    def max_residual(self):
        return max(self.residuals.values())


_WEYL_IDENTITIES = tuple(f.name for f in fields(WeylReport) if f.name != "scale")


def weyl_relation_residuals(p, q, pp, qp, samples):
    """Verify the Weyl relations on ordered exponentials over (z, z') samples.

    All five identities are evaluated by composing scalar * Gamma(element)
    pairs through osc_mul, so each residual reflects only the scalar
    bookkeeping, never quadrature.  W W' is composed once and evaluated
    once per pair: 7 gamma_element calls a pair.
    """
    p, q, pp, qp = _vec(p), _vec(q), _vec(pp), _vec(qp)
    zero = np.zeros(len(p))
    ea, ec = _Wop(1.0, _shift(p, zero)), _Wop(1.0, _shift(zero, q))  # e^{p*a}, e^{a*q}
    w, wp, w_sum = _w_ord(p, q), _w_ord(pp, qp), _w_ord(p + pp, q + qp)
    ww = w @ wp
    lhs_exch = ea @ ec
    rhs_exch = _Wop(np.exp(_vd(p, q)), (ec @ ea).elem)
    rhs_comp = _Wop(np.exp(-_vd(pp, q)) * w_sum.scalar, w_sum.elem)
    lhs_inv = w @ _w_ord(-p, -q)
    inv_scalar = np.exp(_vd(p, q))
    wp_w = wp @ w
    phase = np.exp(_vd(p, qp) - _vd(pp, q))  # e^{p*q' - p'*q}
    # W^{-1} W'^{-1} W W', associated as written: (e^{p*a} e^{a*q})^{-1} is
    # Gamma([0,-p,-q,I]) exactly
    comm = _Wop(1.0, _shift(-p, -q)) @ _Wop(1.0, _shift(-pp, -qp)) @ w @ wp

    worst = dict.fromkeys(_WEYL_IDENTITIES, 0.0)
    scale = 1.0
    for z, zp_pt in samples:
        k = klauder_kernel(z, zp_pt)
        scale = max(scale, abs(k))
        ww_el = ww.element(z, zp_pt)
        # the identity table: left side minus right side at (z, z')
        defects = {
            "exchange": lhs_exch.element(z, zp_pt) - rhs_exch.element(z, zp_pt),
            "composition": ww_el - rhs_comp.element(z, zp_pt),
            "inverse": lhs_inv.element(z, zp_pt) - inv_scalar * k,
            "swap": ww_el - phase * wp_w.element(z, zp_pt),
            "group_commutator": comm.element(z, zp_pt) - phase * k,
        }
        for name, d in defects.items():
            worst[name] = max(worst[name], abs(d))
    return WeylReport(scale=scale, **worst)


# ---------------------------------------------------------------------------
# CCR slope


def _neville_at_zero(xs, ys):
    t = list(ys)
    n = len(t)
    for level in range(1, n):
        for i in range(n - level):
            t[i] = (xs[i + level] * t[i] - xs[i] * t[i + 1]) / (xs[i + level] - xs[i])
    return t[0]


@dataclass
class CcrReport:
    """epsilon^2 slope of the ordered-exponential commutator defect."""

    limit: complex
    residual_product: float      # |limit - p*q K(z,z')|
    residual_imag_twist: float   # |limit - (-2 Im(p*q)) K(z,z')|
    deltas: list


def ccr_epsilon_check(p, q, z, zp, eps_list):
    """Slope of Delta(eps)/eps^2 where
    Delta = <z| e^{eps p*a} e^{eps a*q} |z'> - <z| e^{eps a*q} e^{eps p*a} |z'>.

    Both orderings are composed exactly through osc_mul, the quotient is
    extrapolated to eps = 0 by Neville's scheme over the given nodes, and
    the limit is compared against the two closed-form candidates
    p*q K(z,z') and -2 Im(p*q) K(z,z').
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2 or any(not 0.0 < e < math.inf for e in eps_list) or any(
        a <= b for a, b in zip(eps_list, eps_list[1:])
    ):
        raise DomainError("eps_list must be decreasing, finite and positive")
    p, q = _vec(p), _vec(q)
    zero = np.zeros(len(p))

    deltas = []
    quotients = []
    for e in eps_list:
        ea, ec = _Wop(1.0, _shift(e * p, zero)), _Wop(1.0, _shift(zero, e * q))
        d = (ea @ ec).element(z, zp) - (ec @ ea).element(z, zp)
        deltas.append(d)
        quotients.append(d / (e * e))

    limit = _neville_at_zero(eps_list, quotients)
    k = klauder_kernel(z, zp)
    return CcrReport(
        limit=limit,
        residual_product=abs(limit - _vd(p, q) * k),
        residual_imag_twist=abs(limit - (-2.0 * _vd(p, q).imag) * k),
        deltas=deltas,
    )


# ---------------------------------------------------------------------------
# normal-ordering identity


def gamma_colon_residual(rho, p, q, X, samples):
    """Residual of Gamma([rho,p,q,X]) = :exp(rho + p*a + a*q + a*(X-1)a):.

    The (X - 1) is what makes the two sides agree: expanding
    K(z, Az') = exp(conj(z0) + rho + z0' + p* zhat' + zhat*(q + X zhat'))
    against K(z,z') F(conj zhat, zhat') leaves exactly exp(zhat*(X-1)zhat')
    for the quadratic factor.
    """
    A = OscElement(rho, p, q, X)
    n = A.n
    eyeless = A.X - np.eye(n)

    def F(w, v):
        return np.exp(A.rho + np.vdot(A.p, v) + w @ A.q + w @ (eyeless @ v))

    worst = 0.0
    for z, zp_pt in samples:
        lhs = normal_ordered_element(F, z, zp_pt)
        rhs = gamma_element(A, z, zp_pt)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst
