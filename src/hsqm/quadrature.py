"""Phase-plane quadrature: radial Gauss-Laguerre x uniform angular rule.

With z = (y - ix)/sqrt(2) and t = |z|^2 = (x^2 + y^2)/2 the plane measure
is dx dy = dt dphi, so integrands of the Fock-overlap kind
e^(-t) * poly(t) * e^(i k phi) are integrated exactly once the radial
rule has enough nodes for the polynomial degree and the angular count
exceeds |k|.  The rule for N, 2N rings of 4N+1 angles, integrates every
overlap of the first N levels exactly, so all quadrature "error" in this
package is truncation error of the operators, not of the rule.

Every node lies on a circle, z = sqrt(t_r) e^(i phi_a), and the closed form
of the displacement (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)) gives

    D(r e^(i phi))_mn = e^(i (m - n) phi) D(r)_mn,   D(r) real,

so a stack over the K = R * A nodes is R real radial matrices times a
phase per charge c = m - n.  Charges of the first N levels differ by at
most 2N - 2 < A, so the sum of e^(i (c - c') phi_a) over the A uniform
angles is A when c = c' and 0 otherwise, exactly: frame and Gram sums
keep only entries of equal charge, one diagonal m - n = c, each weighted
by its ring.  So the rule is stored as R rings, sum_r ring_weights[r]
(2pi/A) sum_a f(z_(r,a)) ~ integral f dx dy; the K nodes exist only for
black-box integrands.

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
t = 2,100), which covers N = 268.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .fock import _T_MAX, FockSpace, _coherent_columns, _half_log_factorials, _laguerre_functions, _step_coefficients
from .fock import _step_table, displacement_stack

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


class QuadratureScheme:
    """Product rule over the phase plane for spaces of up to N levels: 2N
    rings of 4N+1 uniform angles.  sum_r ring_weights[r] (2pi/A) sum_a f(z_(r,a))
    approximates  integral f dx dy  (= 2 * integral f d^2 z); ``z_nodes``
    lists the K = R * A nodes ring by ring, for black-box integrands.
    Past N = 268 the radial rule raises ``ValueError``."""

    __slots__ = ("n_levels", "radial_nodes", "ring_weights", "angular_count", "z_nodes", "_stack")

    def __init__(self, n_levels: int):
        if not isinstance(n_levels, numbers.Integral):
            raise ValueError("the truncation N of a quadrature rule must be an integer")
        if n_levels < 1:
            raise ValueError("a quadrature rule needs N >= 1")
        self.n_levels = int(n_levels)
        t, self.ring_weights = _laguerre_rule(2 * self.n_levels)
        self.radial_nodes = t
        self.angular_count = 4 * self.n_levels + 1
        phi = 2.0 * np.pi * np.arange(self.angular_count) / self.angular_count
        self.z_nodes = (np.sqrt(t)[:, None] * np.exp(1j * phi)[None, :]).ravel()
        self._stack = None

    def _levels(self, space: FockSpace) -> int:
        """N of ``space``; a space with more levels than the rule covers raises ``ValueError``."""
        if space.dim > self.n_levels:
            raise ValueError(f"a space of {space.dim} levels exceeds the quadrature rule for N = {self.n_levels}")
        return space.dim

    def _radial_stack(self, space: FockSpace) -> np.ndarray:
        """The R real radial matrices D(sqrt(t_r)), shape (R, N, N); D at
        sqrt(t_r) e^(i phi) scales entry mn by e^(i(m-n) phi), at -sqrt(t_r) by (-1)^(m-n).
        Built once at the rule's N, read-only; a smaller space reads its top-left block."""
        n = self._levels(space)
        if self._stack is None:
            self._stack = displacement_stack(FockSpace(self.n_levels), np.sqrt(self.radial_nodes)).real
            self._stack.setflags(write=False)
        return self._stack[:, :n, :n]

    def _radial_column(self, space: FockSpace) -> np.ndarray:
        """Column 0 of the radial matrices, <n|sqrt(t_r)>, shape (R, N): R * N entries."""
        return _coherent_columns(self._levels(space), np.sqrt(self.radial_nodes)).real

    def _charge_diagonals(self, space: FockSpace, count: int) -> np.ndarray:
        """Magnitudes h_p^k(t_r) on the diagonals m - n = +-k of the radial
        matrices (entry mn is h_p^|m-n|(t_r), p = min(m, n), times (-1)^(m-n)
        when m < n), for k < ``count`` and p < N: shape (count, N, R), 0 where
        p + k >= N.  One recurrence over the orders; the bits of the stack."""
        n = self._levels(space)
        r = np.sqrt(self.radial_nodes)
        t = r**2  # squared from the labels sqrt(t_r), as the closed form does, for its bits
        log_h0 = np.multiply.outer(np.arange(count), np.log(r))
        log_h0 -= _half_log_factorials(n)[:count, None]
        log_h0 -= t / 2.0
        steps = tuple(np.ascontiguousarray(table[:, :count, None]) for table in _step_table(n))
        diagonals = _laguerre_functions(t, log_h0, steps).transpose(1, 0, 2)
        diagonals[np.add.outer(np.arange(count), np.arange(n)) >= n] = 0.0
        return diagonals

    def xy_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian nodes under the z = (y - ix)/sqrt(2) convention."""
        x = -np.sqrt(2.0) * self.z_nodes.imag
        y = np.sqrt(2.0) * self.z_nodes.real
        return x, y

    def __repr__(self) -> str:
        return f"QuadratureScheme({self.n_levels})"
