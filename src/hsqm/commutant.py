"""Finite-dimensional von Neumann algebra laboratory.

Algebras are linear spans of d x d matrices, held as Frobenius-orthonormal
bases.  Everything reduces to numerical linear algebra on row-major
vectorized matrices: closures under products, commutant null spaces,
span intersections, and cyclic/separating rank checks.

All inputs in practice are exact small-integer or sqrt-integer data, so
singular-value gaps are large; ranks use a relative 1e-10 cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AlgebraGens",
    "AlgebraBasis",
    "algebra_span",
    "commutant_basis",
    "is_factor",
    "check_cyclic",
    "check_separating",
    "intersection_dimension",
    "span_contains",
]

_RANK_TOL = 1e-10


@dataclass
class AlgebraGens:
    """Generating set for a unital *-algebra of d x d matrices."""

    dim: int
    generators: list = field(default_factory=list)

    def __post_init__(self):
        self.generators = [np.ascontiguousarray(g, dtype=complex) for g in self.generators]
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if g.shape != (self.dim, self.dim):
                raise ValueError("generator has wrong shape")


@dataclass
class AlgebraBasis:
    """Frobenius-orthonormal basis of a matrix algebra (or linear span)."""

    dim: int
    basis: list

    @property
    def size(self) -> int:
        return len(self.basis)


def _orthonormal_span(mats, dim: int) -> list:
    """Orthonormal basis (as matrices) of the span of the given matrices."""
    stack = np.vstack([m.ravel()[None, :] for m in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > _RANK_TOL * s[0]
    return [vh[i].reshape(dim, dim) for i in range(len(s)) if keep[i]]


def algebra_span(gens: AlgebraGens) -> AlgebraBasis:
    """Basis of the smallest unital *-algebra containing the generators.

    Adjoins the identity and all adjoints, then multiplies the basis on
    the right by the orthonormal basis of that seed span until the
    spanned dimension stops growing.  A span closed under right
    multiplication by the generators holds every word in them, so this
    is the full closure; the unit-norm seed keeps the relative rank
    cutoff scale-free.  Terminates in at most d^2 rounds since the
    dimension strictly increases.
    """
    d = gens.dim
    seed = [np.eye(d, dtype=complex)]
    for g in gens.generators:
        seed.append(g)
        seed.append(g.conj().T)
    seed_basis = basis = _orthonormal_span(seed, d)
    for _ in range(d * d):
        candidates = basis + [a @ b for a in basis for b in seed_basis]
        new_basis = _orthonormal_span(candidates, d)
        if len(new_basis) == len(basis):
            return AlgebraBasis(d, new_basis)
        basis = new_basis
    return AlgebraBasis(d, basis)


def commutant_basis(alg: AlgebraBasis) -> AlgebraBasis:
    """Orthonormal basis of {X : [X, G] = 0 for every basis element G}.

    Row-major vec turns X -> XG - GX into kron(I, G^T) - kron(G, I);
    stacking these over the basis and taking the SVD null space gives an
    orthonormal commutant basis directly.  The stack has size * d^2 >= d^2
    rows, so it is tall and a thin SVD already returns all d^2 rows of Vh,
    the whole null space included.
    """
    d = alg.dim
    eye = np.eye(d)
    blocks = [np.kron(eye, g.T) - np.kron(g, eye) for g in alg.basis]
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    # basis elements are unit Frobenius norm, so genuine non-commutation
    # shows at scale ~1; flooring the cutoff keeps an all-noise stack
    # (e.g. the scalar algebra) from faking rank
    cutoff = _RANK_TOL * max(float(s[0]) if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    # M = U S Vh, so the null vectors of M are the conjugated rows of Vh
    return AlgebraBasis(d, [row.conj().reshape(d, d) for row in vh[rank:]])


def intersection_dimension(a: AlgebraBasis, b: AlgebraBasis) -> int:
    """Dimension of span(a) ∩ span(b) via orthonormal-projector product.

    Eigenvalues of P_a P_b P_a cluster at 1 on the intersection and away
    from 1 elsewhere; exact inputs keep the gap wide.
    """
    if a.dim != b.dim:
        raise ValueError("algebras act on different dimensions")
    va = np.vstack([m.ravel()[None, :] for m in a.basis])  # rows orthonormal
    vb = np.vstack([m.ravel()[None, :] for m in b.basis])
    pa = va.conj().T @ va
    pb = vb.conj().T @ vb
    evals = np.linalg.eigvalsh(pa @ pb @ pa)
    return int(np.sum(evals > 0.5))


def span_contains(alg: AlgebraBasis, mat: np.ndarray, tol: float = 1e-10) -> bool:
    """True if the matrix lies in the algebra's span up to tolerance."""
    v = mat.ravel()
    proj = np.zeros_like(v)
    for b in alg.basis:
        w = b.ravel()
        proj = proj + w * np.vdot(w, v)
    scale = max(np.linalg.norm(v), 1.0)
    return bool(np.linalg.norm(v - proj) <= tol * scale)


def is_factor(alg: AlgebraBasis) -> bool:
    """True iff the center span(alg) ∩ span(alg') is just the scalars."""
    return intersection_dimension(alg, commutant_basis(alg)) == 1


def _image_rank(alg: AlgebraBasis, phi: np.ndarray) -> int:
    phi = np.asarray(phi, dtype=complex)
    cols = np.column_stack([g @ phi for g in alg.basis])
    s = np.linalg.svd(cols, compute_uv=False)
    # unit basis and O(1) phi: genuine image vectors sit at scale ~|phi|
    floor = max(float(s[0]), float(np.linalg.norm(phi)), 1e-30)
    return int(np.sum(s > _RANK_TOL * floor))


def check_cyclic(alg: AlgebraBasis, phi: np.ndarray) -> bool:
    """True iff {G phi} over the basis spans the whole of C^d."""
    return _image_rank(alg, phi) == alg.dim


def check_separating(alg: AlgebraBasis, phi: np.ndarray) -> bool:
    """True iff G -> G phi is injective on the algebra span."""
    return _image_rank(alg, phi) == alg.size
