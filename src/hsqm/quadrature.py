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

The radial rule is computed in numpy (Golub & Welsch, Math. Comp. 23, 221
(1969)): the nodes are the eigenvalues of the Jacobi matrix of the
Laguerre polynomials, polished by one Newton step on l_R / l_(R-1), where
l_n(t) = e^(-t/2) L_n(t) comes from the normalized Laguerre recurrence of
:mod:`hsqm.fock` at order 0 (with its log shift).  The ring weights are
the Christoffel sums w_r e^(t_r) = 1 / sum_(n<R) l_n(t_r)^2, taken after
the shift is removed, so the sum cannot overflow.  Against 50-digit
values they are within 4.2e-14 relative at R <= 200, where the derivative
formula t / (R l_(R-1))^2 is off by up to 3.0e-11, so it is not used.  The rule
stays positive and finite up to R = 536 (the largest node below
t = 2,100), which covers the default 2N rings to N = 268.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .fock import _T_MAX, FockSpace, _closed_form_support, _coherent_columns, _laguerre_functions, _read_only
from .fock import _step_coefficients, displacement_stack

__all__ = ["QuadratureScheme"]


def _ell(t: np.ndarray, count: int) -> np.ndarray:
    """l_n(t) = e^(-t/2) L_n(t) = h_n^0(t) for n < count, shape (count, len(t))."""
    steps = tuple(table[:, :, None] for table in _step_coefficients(count, [0]))
    return _laguerre_functions(t, -t[None, :] / 2.0, steps)[:, 0]


@functools.lru_cache(maxsize=16)
def _laguerre_rule(radial_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_r and ring weights w_r e^(t_r) of the R-point Gauss-Laguerre
    rule (see the module docstring), read-only and shared."""
    n = np.arange(radial_count, dtype=float)
    t = np.linalg.eigvalsh(np.diag(2.0 * n + 1.0) + np.diag(n[1:], -1))
    if t[-1] > _T_MAX:
        raise ValueError(f"the radial rule is limited to nodes t <= {_T_MAX:g}; R = {radial_count} reaches {t[-1]:.0f}")
    ell = _ell(t, radial_count + 1)
    # t L_R' = R (L_R - L_(R-1)), so L_R / L_R' = t q / (R (q - 1)) with q = l_R / l_(R-1)
    q = ell[-1] / ell[-2]
    t -= t * q / (radial_count * (q - 1.0))
    ell = _ell(t, radial_count)
    ring = 1.0 / np.einsum("nr,nr->r", ell, ell)
    for table in (t, ring):
        table.setflags(write=False)
    return t, ring


@functools.lru_cache(maxsize=16)
def _charge_classes(count: int, shape: tuple[int, int], cols: tuple[int, ...]) -> tuple:
    """The entries m*M + n of an N x M matrix in the charge classes (m - n mod
    ``count``) of the entries ``cols``, a row per class, ``cols`` first, then
    ascending; ``cols`` alike; -1 pads both; and the rows' closed-form support."""
    size, cols = shape[0] * shape[1], np.array(cols)
    residue = np.subtract.outer(np.arange(shape[0]), np.arange(shape[1])).ravel() % count
    carried, later = np.zeros(count, int), np.ones(size, int)
    carried[residue[cols]], later[cols] = 1, 0
    items = np.flatnonzero(carried[residue])
    key = np.sort(((np.cumsum(carried) - 1)[residue[items]] * 2 + later[items]) * size + items)
    which, items = key // (2 * size), key % size
    place = np.arange(items.size) - np.searchsorted(which, which)
    rows = np.full((which[-1] + 1, place.max() + 1), -1)
    rows[which, place] = items
    inside = (rows >= 0) & (later[rows] == 0)
    columns = np.where(inside, rows, -1)[:, : inside.sum(axis=1).max()]
    for table in (rows, columns):
        table.setflags(write=False)
    return rows, columns, _read_only(_closed_form_support(*np.divmod(rows[rows >= 0], shape[1]), shape[0]))


class QuadratureScheme:
    """Product rule over the phase plane: R rings of A uniform angles,
    integer sizes.  sum_r ring_weights[r] (2pi/A) sum_a f(z_(r,a))
    approximates  integral f dx dy  (= 2 * integral f d^2 z); ``z_nodes``
    lists the K = R * A nodes ring by ring, for black-box integrands."""

    __slots__ = ("radial_nodes", "ring_weights", "angular_count", "z_nodes", "_stack")

    def __init__(self, radial_count: int, angular_count: int):
        if not all(isinstance(count, numbers.Integral) for count in (radial_count, angular_count)):
            raise ValueError("quadrature sizes must be integers")
        if radial_count < 1:
            raise ValueError("need at least one radial node")
        if angular_count < 3:
            raise ValueError("need at least three angular nodes")
        t, self.ring_weights = _laguerre_rule(int(radial_count))
        self.radial_nodes = t
        self.angular_count = int(angular_count)
        phi = 2.0 * np.pi * np.arange(angular_count) / angular_count
        self.z_nodes = (np.sqrt(t)[:, None] * np.exp(1j * phi)[None, :]).ravel()
        self._stack = None

    @classmethod
    def default(cls, n_levels: int) -> "QuadratureScheme":
        """2N radial and 4N+1 angular nodes, the one rule the CLI uses.
        2N rings and 2N+1 angles integrate every overlap of the first N
        levels exactly; the extra angles are margin, and no charge
        aliases.  Past N = 268 the radial rule raises ``ValueError``."""
        return cls(2 * n_levels, 4 * n_levels + 1)

    def _radial_stack(self, space: FockSpace) -> np.ndarray:
        """The R real radial matrices D(sqrt(t_r)), shape (R, N, N); D at
        sqrt(t_r) e^(i phi) scales entry mn by e^(i(m-n) phi), at -sqrt(t_r) by (-1)^(m-n).
        Kept read-only: a smaller space reads the top-left block, the same entries."""
        if self._stack is None or self._stack.shape[1] < space.dim:
            self._stack = displacement_stack(space, np.sqrt(self.radial_nodes)).real
            self._stack.setflags(write=False)
        return self._stack[:, : space.dim, : space.dim]

    def _radial_column(self, space: FockSpace) -> np.ndarray:
        """Column 0 of the radial matrices, <n|sqrt(t_r)>, shape (R, N): R * N entries."""
        return _coherent_columns(space.dim, np.sqrt(self.radial_nodes)).real

    def _ring_gram(self, mats: np.ndarray) -> np.ndarray:
        """The node sum (1/2pi) integral vec(M) vec(M)^† dx dy, where
        M = e^(i(m-n) phi_a) mats[r] at node (r, a) and (m, n) indexes the
        last two axes of ``mats`` (shape (R, M, M')).

        Only pairs of entries whose charges m - n agree mod A survive the
        angular sum.  Real, shape (M*M', M*M').
        """
        rings, rows, cols = mats.shape
        charge = np.subtract.outer(np.arange(rows), np.arange(cols)).ravel() % self.angular_count
        vecs = mats.reshape(rings, rows * cols)
        return np.where(charge[:, None] == charge, (vecs.T * self.ring_weights) @ vecs, 0.0)

    def xy_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian nodes under the z = (y - ix)/sqrt(2) convention."""
        x = -np.sqrt(2.0) * self.z_nodes.imag
        y = np.sqrt(2.0) * self.z_nodes.real
        return x, y

    def __repr__(self) -> str:
        return f"QuadratureScheme(radial={len(self.radial_nodes)}, angular={self.angular_count})"
