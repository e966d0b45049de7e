"""Phase-plane quadrature: radial Gauss-Laguerre x uniform angular rule.

With z = (y - ix)/sqrt(2) and t = |z|^2 = (x^2 + y^2)/2 the plane measure
is dx dy = dt dphi, so integrands of the Fock-overlap kind
e^(-t) * poly(t) * e^(i k phi) are integrated exactly once the radial
rule has enough nodes for the polynomial degree and the angular count
exceeds |k|.  All quadrature "error" in this package is therefore
truncation error of the operators, not of the rule.

Every node lies on a circle, z = sqrt(t_r) e^(i phi_a), and the closed form
of the displacement (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)) gives

    D(r e^(i phi))_mn = e^(i (m - n) phi) D(r)_mn,   D(r) real,

so a stack over the K = R * A nodes is R real radial matrices times a
phase per charge c = m - n.  The sum of e^(i (c - c') phi_a) over the A
uniform angles is A when c = c' (mod A) and 0 otherwise, exactly, for any
A >= 3: frame and Gram sums over the nodes keep only entries whose charges
agree mod A, each weighted by its ring.  Schemes with fewer than 2N - 1
angles alias charges that differ by A; the same rule covers them.  So the
rule is stored as R rings, sum_r ring_weights[r] (2pi/A) sum_a f(z_(r,a))
~ integral f dx dy; the K nodes exist only for black-box integrands.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.special import roots_laguerre

from .fock import FockSpace, _coherent_columns, displacement_stack

__all__ = ["QuadratureScheme"]


class QuadratureScheme:
    """Product rule over the phase plane: R rings of A uniform angles,
    integer sizes.  sum_r ring_weights[r] (2pi/A) sum_a f(z_(r,a))
    approximates  integral f dx dy  (= 2 * integral f d^2 z); ``z_nodes``
    lists the K = R * A nodes ring by ring, for black-box integrands."""

    __slots__ = ("radial_nodes", "ring_weights", "angular_count", "z_nodes")

    def __init__(self, radial_count: int, angular_count: int):
        if not all(isinstance(count, numbers.Integral) for count in (radial_count, angular_count)):
            raise ValueError("quadrature sizes must be integers")
        if radial_count < 1:
            raise ValueError("need at least one radial node")
        if angular_count < 3:
            raise ValueError("need at least three angular nodes")
        t, w = roots_laguerre(radial_count)
        if not np.all(w > 0):
            raise ValueError("radial weights must be positive")
        self.radial_nodes = t
        self.angular_count = int(angular_count)
        # undo the e^{-t} Laguerre weight; stable through logs
        self.ring_weights = np.exp(np.log(w) + t)
        phi = 2.0 * np.pi * np.arange(angular_count) / angular_count
        self.z_nodes = (np.sqrt(t)[:, None] * np.exp(1j * phi)[None, :]).ravel()

    @classmethod
    def default(cls, n_levels: int) -> "QuadratureScheme":
        """2N radial and 4N+1 angular nodes: exact for overlaps of the
        first N levels with plenty of margin."""
        return cls(2 * n_levels, 4 * n_levels + 1)

    def adequate_for(self, n_levels: int) -> bool:
        """True if the rule meets the minimum sizes for dimension N."""
        return len(self.radial_nodes) >= 2 * n_levels and self.angular_count >= 2 * n_levels + 1

    def _radial_stack(self, space: FockSpace) -> np.ndarray:
        """The R real radial matrices D(sqrt(t_r)), shape (R, N, N); D at
        sqrt(t_r) e^(i phi) scales entry mn by e^(i(m-n) phi), at -sqrt(t_r) by (-1)^(m-n)."""
        return displacement_stack(space, np.sqrt(self.radial_nodes)).real

    def _radial_column(self, space: FockSpace) -> np.ndarray:
        """Column 0 of the radial matrices, <n|sqrt(t_r)>, shape (R, N): R * N entries."""
        return _coherent_columns(space.dim, np.sqrt(self.radial_nodes)).real

    def _ring_gram(self, mats: np.ndarray, columns: np.ndarray | None = None) -> np.ndarray:
        """The node sum (1/2pi) integral vec(M) vec(M)^† dx dy, where
        M = e^(i(m-n) phi_a) mats[r] at node (r, a) and (m, n) indexes the
        last two axes of ``mats`` (shape (R, M, M')).

        Only pairs of entries whose charges m - n agree mod A survive the
        angular sum.  Real, shape (M*M', M*M'), or (M*M', C) for C ``columns``.
        """
        count = self.angular_count
        rings, rows, cols = mats.shape
        charge = np.subtract.outer(np.arange(rows), np.arange(cols)).ravel() % count
        vecs = mats.reshape(rings, rows * cols)
        keep = slice(None) if columns is None else columns
        gram = (vecs.T * self.ring_weights) @ vecs[:, keep]
        return np.where(charge[:, None] == charge[keep], gram, 0.0)

    def xy_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian nodes under the z = (y - ix)/sqrt(2) convention."""
        x = -np.sqrt(2.0) * self.z_nodes.imag
        y = np.sqrt(2.0) * self.z_nodes.real
        return x, y

    def __repr__(self) -> str:
        return f"QuadratureScheme(radial={len(self.radial_nodes)}, angular={self.angular_count})"
