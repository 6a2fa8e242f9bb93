"""Finite-span quantum spaces over a coherent space.

A QVec is a formal combination sum_k c_k |z_k> of coherent states; every
inner product reduces to kernel evaluations, so no Hilbert-space basis is
ever materialized.  Point maps with adjoints lift to linear maps between
these spans (gamma_apply); operators enter through their shadow
C(z, z') = <z|X|z'> and are evaluated by sandwich().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AxiomViolationError, CoherentSpace, DomainError, _kernel_matrix, gram

__all__ = [
    "CoherentMapSpec",
    "KernelOperator",
    "OrthoBasis",
    "QVec",
    "adjoint_residual",
    "coherent_state",
    "gamma_apply",
    "inner",
    "norm",
    "orthonormal_basis",
    "sandwich",
]


@dataclass
class QVec:
    """Formal combination sum_k c_k |z_k>.

    Terms are kept verbatim: repeated points are allowed and never merged,
    since merging would need a point-equality tolerance and rank questions
    belong to the Gram eigendecomposition.
    """

    space: CoherentSpace
    terms: list = field(default_factory=list)

    def __post_init__(self):
        self.terms = [(complex(c), self.space.validate(z)) for c, z in self.terms]

    def scaled(self, a):
        return QVec(self.space, [(a * c, z) for c, z in self.terms])

    def plus(self, other):
        _same_space(self, other)
        return QVec(self.space, list(self.terms) + list(other.terms))

    def minus(self, other):
        return self.plus(other.scaled(-1.0))

    def __len__(self):
        return len(self.terms)


def coherent_state(space, z, coeff=1.0):
    return QVec(space, [(coeff, z)])


def _same_space(phi, psi):
    if phi.space.space_id != psi.space.space_id:
        raise DomainError(
            f"space mismatch: {phi.space.space_id} vs {psi.space.space_id}"
        )


def _pairing(phi, psi):
    """<phi|psi> of two nonempty spans, with psi's coefficients and the
    checked kernel matrix K(z_j, w_k) it sums over."""
    c = np.array([t[0] for t in phi.terms])
    d = np.array([t[0] for t in psi.terms])
    k = _kernel_matrix(phi.space, phi.space.stack([t[1] for t in phi.terms]),
                       psi.space.stack([t[1] for t in psi.terms]))
    return complex(np.conj(c) @ k @ d), d, k


def inner(phi, psi):
    """<phi|psi> = sum conj(c_j) d_k K(z_j, w_k); antilinear in phi.  A
    kernel value that is not finite raises AxiomViolationError."""
    _same_space(phi, psi)
    if not phi.terms or not psi.terms:
        return 0.0 + 0.0j
    return _pairing(phi, psi)[0]


def norm(psi):
    """sqrt(Re <psi|psi>); a radicand below -1e-10*scale is a PSD violation,
    with scale = max(1, max_k |c_k|^2 |K(z_k, z_k)|) read off the diagonal of
    the kernel matrix the radicand was summed over."""
    if not psi.terms:
        return 0.0
    v, c, k = _pairing(psi, psi)
    v = v.real
    scale = max(1.0, float(np.max(np.abs(c) ** 2 * np.abs(np.diagonal(k)))))
    if v < -1e-10 * scale:
        raise AxiomViolationError(f"negative squared norm {v}")
    return float(np.sqrt(max(v, 0.0)))


@dataclass
class CoherentMapSpec:
    """A point map with (optionally) its adjoint: K(z, Az') = K(A*z, z')."""

    forward: object
    adjoint: object = None


def gamma_apply(A, psi):
    """Quantized action: relabel each point through the forward map."""
    fwd = A.forward if isinstance(A, CoherentMapSpec) else A
    return QVec(psi.space, [(c, fwd(z)) for c, z in psi.terms])


def adjoint_residual(space, A, samples):
    """max |K(z, Az') - K(A*z, z')| over sample pairs (z, z')."""
    if A.adjoint is None:
        raise DomainError("map has no adjoint to verify")
    pairs = list(samples)
    if not pairs:
        return 0.0
    left = np.asarray([[z for z, _ in pairs], [A.adjoint(z) for z, _ in pairs]])
    right = np.asarray([[A.forward(zp) for _, zp in pairs], [zp for _, zp in pairs]])
    k = space.kernel(left, right)
    return float(np.max(np.abs(k[0] - k[1])))


@dataclass
class OrthoBasis:
    """Orthonormal span extracted from a coherent Gram matrix."""

    points: list
    eigenvalues: np.ndarray       # all of them, descending
    kept: int
    coeffs: np.ndarray            # n x kept; basis_i = sum_k coeffs[k,i] |z_k>
    gram: np.ndarray

    def vector(self, space, i):
        return QVec(space, [(self.coeffs[k, i], z) for k, z in enumerate(self.points)])


def orthonormal_basis(space, points, tol=1e-12):
    """Diagonalize the Gram and keep directions with eigenvalue > tol*max.

    Eigendecomposition, not Cholesky: coherent Grams are near-singular by
    design and thresholding is the stable way to read off the actual rank.
    """
    g = gram(space, points)
    lam, U = np.linalg.eigh((g + g.conj().T) / 2.0)
    order = np.argsort(lam)[::-1]
    lam, U = lam[order], U[:, order]
    kept = int(np.sum(lam > tol * max(lam[0], 0.0)))
    if kept == 0:
        raise AxiomViolationError("Gram has no eigenvalue above threshold")
    coeffs = U[:, :kept] / np.sqrt(lam[:kept])
    return OrthoBasis([space.validate(z) for z in points], lam, kept, coeffs, g)


@dataclass
class KernelOperator:
    """An operator represented by its shadow <z|X|z'>.

    Whether a user-supplied shadow really comes from an operator on the
    quantum space is accepted on faith; the operators this package
    constructs are built from point maps and semigroup elements, which do
    qualify.
    """

    matrix_element: object


def sandwich(op, phi, psi):
    """<phi|X|psi> = sum conj(c_j) d_k <z_j|X|w_k>."""
    _same_space(phi, psi)
    me = op.matrix_element if isinstance(op, KernelOperator) else op
    total = 0.0 + 0.0j
    for c, z in phi.terms:
        for d, w in psi.terms:
            total += np.conj(c) * d * me(z, w)
    return complex(total)
