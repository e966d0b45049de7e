"""The Hilbert space B2(H_N) of Hilbert-Schmidt operators.

An N x N operator X doubles as a vector of B2(H_N) with inner product
<X|Y> = Tr[X† Y]; in finite dimension every operator is Hilbert-Schmidt,
so :class:`~hsqm.fock.Operator` plays both roles.

Vectorization is row-major throughout the package: the rank-one basis
element |n><l| maps to the unit coordinate at index n*N + l.

The workhorse is the sandwich superoperator A ∨ B : X -> A X B†, which
bridges the left and right multiplication algebras.
"""

from __future__ import annotations

import numpy as np

from .fock import FockSpace, Operator

__all__ = [
    "SuperOp",
    "hs_inner",
    "hs_norm",
    "basis_element",
    "vee",
    "left_action",
    "right_action",
    "vectorize",
    "unvectorize",
    "block_indices",
]


def hs_inner(x: Operator, y: Operator) -> complex:
    """Hilbert-Schmidt inner product Tr[X† Y]; conjugate linear in X."""
    if x.space != y.space:
        raise ValueError("operators live on different Fock spaces")
    return complex(np.vdot(x.mat, y.mat))


def hs_norm(x: Operator) -> float:
    """sqrt(Tr[X† X]), the Frobenius norm of the matrix."""
    return float(np.linalg.norm(x.mat))


def basis_element(space: FockSpace, n: int, l: int) -> Operator:
    """Rank-one unit vector |n><l| of B2(H_N)."""
    if not (0 <= n < space.dim and 0 <= l < space.dim):
        raise IndexError(f"basis indices ({n},{l}) out of range for dim {space.dim}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[n, l] = 1.0
    return Operator(space, mat)


def vectorize(x: Operator) -> np.ndarray:
    """Row-major coordinates of X in the |n><l| basis."""
    return x.mat.ravel()


def unvectorize(space: FockSpace, v: np.ndarray) -> Operator:
    return Operator(space, np.asarray(v, dtype=complex).reshape(space.dim, space.dim))


def block_indices(space: FockSpace, max_level: int) -> np.ndarray:
    """Row-major indices n*N + l of the |n><l| with n, l <= max_level."""
    keep = np.arange(max_level + 1)
    return (keep[:, None] * space.dim + keep[None, :]).ravel()


class SuperOp:
    """Linear map on B2(H_N).

    Two representations, converted explicitly:

    * factored -- a list of (A, B) pairs meaning X -> sum_i A_i X B_i†;
      exact and cheap, closed under composition and adjoints;
    * dense -- an N^2 x N^2 matrix acting on row-major vectorized X;
      needed for spectral work (commutants, frame operators).
    """

    __slots__ = ("space", "pairs", "dense")

    def __init__(self, space: FockSpace, pairs=None, dense=None):
        if (pairs is None) == (dense is None):
            raise ValueError("give exactly one of pairs/dense")
        self.space = space
        if pairs is not None:
            n = space.dim
            pairs = [
                (np.ascontiguousarray(a, dtype=complex), np.ascontiguousarray(b, dtype=complex))
                for a, b in pairs
            ]
            for a, b in pairs:
                if a.shape != (n, n) or b.shape != (n, n):
                    raise ValueError("factor pair has wrong shape")
            self.pairs = pairs
            self.dense = None
        else:
            d = space.dim**2
            dense = np.ascontiguousarray(dense, dtype=complex)
            if dense.shape != (d, d):
                raise ValueError(f"dense superoperator must be {d}x{d}")
            self.pairs = None
            self.dense = dense

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, space: FockSpace) -> "SuperOp":
        eye = np.eye(space.dim)
        return cls(space, pairs=[(eye, eye)])

    @classmethod
    def from_dense(cls, space: FockSpace, dense: np.ndarray) -> "SuperOp":
        return cls(space, dense=dense)

    @classmethod
    def from_apply(cls, space: FockSpace, fn) -> "SuperOp":
        """Dense matrix of an arbitrary linear map, by acting on the basis."""
        n = space.dim
        cols = np.empty((n * n, n * n), dtype=complex)
        for k in range(n * n):
            e = np.zeros((n, n), dtype=complex)
            e[divmod(k, n)] = 1.0
            cols[:, k] = fn(Operator(space, e)).mat.ravel()
        return cls(space, dense=cols)

    # -- action ------------------------------------------------------

    def __call__(self, x: Operator) -> Operator:
        if x.space != self.space:
            raise ValueError("operator lives on a different Fock space")
        if self.pairs is not None:
            out = np.zeros_like(x.mat)
            for a, b in self.pairs:
                out += a @ x.mat @ b.conj().T
            return Operator(self.space, out)
        n = self.space.dim
        return Operator(self.space, (self.dense @ x.mat.ravel()).reshape(n, n))

    # -- algebra -----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Row-major dense matrix; for A ∨ B this is kron(A, conj(B))."""
        if self.dense is not None:
            return self.dense
        d = self.space.dim**2
        out = np.zeros((d, d), dtype=complex)
        for a, b in self.pairs:
            out += np.kron(a, b.conj())
        return out

    def compose(self, other: "SuperOp") -> "SuperOp":
        """self after other."""
        if self.space != other.space:
            raise ValueError("superoperators live on different spaces")
        if self.pairs is not None and other.pairs is not None:
            prods = [(a1 @ a2, b1 @ b2) for a1, b1 in self.pairs for a2, b2 in other.pairs]
            return SuperOp(self.space, pairs=prods)
        return SuperOp(self.space, dense=self.to_dense() @ other.to_dense())

    __matmul__ = compose

    def adjoint(self) -> "SuperOp":
        """Adjoint w.r.t. the HS inner product; (A ∨ B)* = A† ∨ B†."""
        if self.pairs is not None:
            return SuperOp(self.space, pairs=[(a.conj().T, b.conj().T) for a, b in self.pairs])
        return SuperOp(self.space, dense=self.dense.conj().T)

    def __add__(self, other: "SuperOp") -> "SuperOp":
        if self.space != other.space:
            raise ValueError("superoperators live on different spaces")
        if self.pairs is not None and other.pairs is not None:
            return SuperOp(self.space, pairs=self.pairs + other.pairs)
        return SuperOp(self.space, dense=self.to_dense() + other.to_dense())

    def __repr__(self) -> str:
        kind = "factored" if self.pairs is not None else "dense"
        return f"SuperOp(dim={self.space.dim}^2, {kind})"


def vee(a: Operator, b: Operator) -> SuperOp:
    """The sandwich map A ∨ B : X -> A X B†."""
    if a.space != b.space:
        raise ValueError("operators live on different Fock spaces")
    return SuperOp(a.space, pairs=[(a.mat, b.mat)])


def left_action(a: Operator) -> SuperOp:
    """Left multiplication X -> A X, i.e. A ∨ I."""
    return vee(a, Operator(a.space, np.eye(a.space.dim)))


def right_action(a: Operator) -> SuperOp:
    """Right multiplication X -> X A, i.e. I ∨ A†."""
    return vee(Operator(a.space, np.eye(a.space.dim)), a.dag())
