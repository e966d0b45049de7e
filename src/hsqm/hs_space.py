"""The Hilbert space B2(H_N) of Hilbert-Schmidt operators.

An N x N operator X doubles as a vector of B2(H_N) with inner product
<X|Y> = Tr[X† Y], the ``np.vdot`` of the two matrices; in finite
dimension every operator is Hilbert-Schmidt, so
:class:`~hsqm.fock.Operator` plays both roles.

Vectorization is row-major throughout the package: the rank-one basis
element |n><l| maps to the unit coordinate at index n*N + l.

The workhorse is the sandwich superoperator A ∨ B : X -> A X B†, which
bridges the left and right multiplication algebras.  A :class:`SuperOp`
is one such sandwich; its dense form, and every dense superoperator of
the package, is a plain N^2 x N^2 array acting on row-major vectorized X.
"""

from __future__ import annotations

import numpy as np

from .fock import FockSpace, Operator

__all__ = [
    "SuperOp",
    "hs_norm",
    "basis_element",
    "vee",
]


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


def _block_levels(space: FockSpace) -> np.ndarray:
    """The levels 0..N/4, where every resolution contract is checked."""
    return np.arange(space.dim // 4 + 1)


class SuperOp:
    """Linear map on B2(H_N) in factored form: the sandwich
    X -> L X R† of its ``left`` and ``right`` factors.  Its dense form is
    the N^2 x N^2 array :meth:`to_dense` returns, acting on row-major
    vectorized X.
    """

    __slots__ = ("space", "left", "right")

    def __init__(self, space: FockSpace, left: np.ndarray, right: np.ndarray):
        self.space = space
        self.left = np.ascontiguousarray(left, dtype=complex)
        self.right = np.ascontiguousarray(right, dtype=complex)
        n = space.dim
        if self.left.shape != (n, n) or self.right.shape != (n, n):
            raise ValueError("sandwich factors have wrong shape")

    def __call__(self, x: Operator) -> Operator:
        if x.space != self.space:
            raise ValueError("operator lives on a different Fock space")
        return Operator(self.space, self.left @ x.mat @ self.right.conj().T)

    def to_dense(self) -> np.ndarray:
        """Row-major dense matrix kron(L, conj(R))."""
        return np.kron(self.left, self.right.conj())

    def __repr__(self) -> str:
        return f"SuperOp(dim={self.space.dim}^2)"


def vee(a: Operator, b: Operator) -> SuperOp:
    """The sandwich map A ∨ B : X -> A X B†."""
    if a.space != b.space:
        raise ValueError("operators live on different Fock spaces")
    return SuperOp(a.space, a.mat, b.mat)

