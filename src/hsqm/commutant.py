"""Finite-dimensional von Neumann algebra laboratory.

Algebras are linear spans of d x d matrices, held as Frobenius-orthonormal
bases, whose row-major vecs are the orthonormal rows of a size x d^2 matrix
V.  Both kernels rest on the bicommutant theorem, A'' = A for a unital
*-algebra: the twirl X -> sum_i B_i X B_i^dagger over a basis of B is
Hermitian positive semidefinite with range exactly B', so a commutant is
one d^2 x d^2 ``eigh``; and the algebra generated by a set is (A')', with
A' the null space of the generators' commutators.  Ranks use a relative
1e-10 cutoff; a kernel whose preconditions fail raises ``ValueError``.
Generators with no nonzero imaginary part generate a real *-algebra's
complexification, so every solve stays in float64 (complex128 otherwise);
each commutant is solved once, and kept on its frozen basis.
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
#: a clear rank gap: every discarded singular value is this far below the cutoff
_GAP_RATIO = 1e-3
#: distance from a span, for unit vectors, that still counts as inside it
_CLOSURE_TOL = 1e-8


@dataclass
class AlgebraGens:
    """Generating set for a unital *-algebra of d x d matrices."""

    dim: int
    generators: list

    def __post_init__(self):
        gens = [np.asarray(g) for g in self.generators]
        real = not any(np.any(g.imag) for g in gens)
        self.generators = [np.ascontiguousarray(g.real if real else g, dtype=float if real else complex) for g in gens]
        if not self.generators:
            raise ValueError("need at least one generator")
        if any(g.shape != (self.dim, self.dim) for g in self.generators):
            raise ValueError("generator has wrong shape")


@dataclass(frozen=True, eq=False)
class AlgebraBasis:
    """Frobenius-orthonormal basis of a span, as a read-only (size, d, d) copy."""

    dim: int
    basis: np.ndarray
    _commutant: AlgebraBasis | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        basis = np.array(self.basis, order="C").reshape(-1, self.dim, self.dim)
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def size(self) -> int:
        return len(self.basis)


def _rows(alg: AlgebraBasis) -> np.ndarray:
    """The basis as the rows of a size x d^2 matrix (row-major vec)."""
    return alg.basis.reshape(alg.size, alg.dim * alg.dim)


def _outside(rows: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Norm of each vector's component outside the span of orthonormal rows."""
    return np.linalg.norm(vecs - (vecs @ rows.conj().T) @ rows, axis=-1)


def algebra_span(gens: AlgebraGens) -> AlgebraBasis:
    """Basis of the smallest unital *-algebra containing the generators.

    A' is the null space of X -> [X, g] and [X, g^dagger] over the generators
    scaled to unit norm (an adjoint already listed adds no block); A = (A')'.
    Raises ``ValueError`` when the commutator stack has no clear rank gap or
    a generator falls outside the result.
    """
    d = gens.dim
    units = [g / (np.linalg.norm(g) or 1.0) for g in gens.generators]
    ops = []
    for g in units:
        for h in (g, g.conj().T):
            if not any(np.array_equal(h, o) for o in ops):
                ops.append(h)
    # row-major vec turns X -> Xh - hX into kron(I, h^T) - kron(h, I)
    eye = np.eye(d)
    _, s, vh = np.linalg.svd(np.vstack([np.kron(eye, h.T) - np.kron(h, eye) for h in ops]), full_matrices=False)
    # unit generators: genuine non-commutation shows at scale ~1; flooring
    # the cutoff keeps an all-noise stack (scalar generators) from faking rank
    cutoff = _RANK_TOL * max(float(s[0]), 1.0)
    rank = int(np.sum(s > cutoff))
    if rank < s.size and s[rank] > _GAP_RATIO * cutoff:
        raise ValueError(f"generator commutators have no clear rank gap: {s[rank]:.3g} against cutoff {cutoff:.3g}")
    # M = U S Vh, so the null vectors of M are the conjugated rows of Vh
    alg = commutant_basis(AlgebraBasis(d, vh[rank:].conj()))
    if np.max(_outside(_rows(alg), np.reshape(units, (len(units), d * d)))) > _CLOSURE_TOL:
        raise ValueError("a generator lies outside the computed span")
    return alg


def commutant_basis(alg: AlgebraBasis) -> AlgebraBasis:
    """Orthonormal basis of {X : [X, G] = 0 for every basis element G}.

    The twirl X -> sum_i B_i X B_i^dagger is the reshuffle of V^T conj(V);
    for a unital *-algebra its range is exactly the commutant, spanned by its
    eigenvectors above the rank cutoff (returned largest eigenvalue first).
    Raises ``ValueError`` on a span without the identity or not closed under
    adjoints, where the twirl has another range.  Solved once per basis: a
    repeated call returns the commutant kept on ``alg``.
    """
    if alg._commutant is not None:
        return alg._commutant
    d = alg.dim
    v = _rows(alg)
    adjoints = v.reshape(-1, d, d).transpose(0, 2, 1).conj().reshape(-1, d * d)
    outside = _outside(v, np.vstack([np.eye(d).reshape(1, d * d) / np.sqrt(d), adjoints]))
    if outside[0] > _CLOSURE_TOL:
        raise ValueError("span does not contain the identity; the commutant needs a unital *-algebra")
    if np.max(outside) > _CLOSURE_TOL:
        raise ValueError("span is not closed under adjoints; the commutant needs a unital *-algebra")
    twirl = (v.T @ v.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    lam, vecs = np.linalg.eigh(twirl)
    # the eigenvalues on B' are ratios of block multiplicities, >= 1/d
    keep = np.flatnonzero(lam > _RANK_TOL * max(float(lam[-1]), 1.0))[::-1]
    object.__setattr__(alg, "_commutant", AlgebraBasis(d, vecs[:, keep].T))
    return alg._commutant


def intersection_dimension(a: AlgebraBasis, b: AlgebraBasis) -> int:
    """Dimension of span(a) ∩ span(b): the singular values of V_a V_b^dagger
    are the cosines of the principal angles, 1 on the intersection."""
    if a.dim != b.dim:
        raise ValueError("algebras act on different dimensions")
    cosines = np.linalg.svd(_rows(a) @ _rows(b).conj().T, compute_uv=False)
    return int(np.sum(cosines * cosines > 0.5))


def span_contains(alg: AlgebraBasis, mat: np.ndarray) -> bool:
    """True if the matrix lies in the algebra's span, up to the relative rank cutoff."""
    v = np.ravel(mat)
    return bool(_outside(_rows(alg), v) <= _RANK_TOL * max(np.linalg.norm(v), 1.0))


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
