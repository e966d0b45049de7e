"""Weyl operators and the Wigner map between B2(H_N) and phase space.

The Weyl operator is U(x, y) = exp(-i(xQ + yP)), which coincides with
the displacement D(alpha) at alpha = (y - ix)/sqrt(2); that convention
is fixed once here and shared with the quadrature module.

The Wigner map

    (W X)(x, y) = (2 pi)^(-1/2) Tr[U(x, y)† X]

is unitary from B2(H_N) onto its image in L^2 of the plane, with inverse
W^(-1) f = (2 pi)^(-1/2) * integral U(x, y) f(x, y) dx dy (weakly).
Pointwise values reduce to entries of the displacement closed form: only
the nonzero entries X_mn enter the trace, so K points cost K * nnz(X)
closed-form entries, never K full N x N matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fock import FockSpace, Operator, _closed_form_entries, _closed_form_support, displacement, identity
from .hs_space import SuperOp, hs_inner, vee
from .quadrature import QuadratureScheme

__all__ = [
    "PhasePoint",
    "PhaseFunction",
    "wigner_function",
    "wigner_inverse",
    "unitarity_residual",
    "lifted_unitaries",
]

#: Signature of phase-space functions: f(x, y) -> complex, vectorized over
#: equal-shaped coordinate arrays.
PhaseFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PhasePoint:
    """Point of the phase plane; carries the Weyl label z = (y - ix)/sqrt(2)."""

    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("phase coordinates must be finite")

    @property
    def z(self) -> complex:
        return (self.y - 1j * self.x) / math.sqrt(2.0)


def _z_of_xy(x, y):
    # 1j * inf is nan + inf j: the closed form, not a warning, rejects it
    with np.errstate(invalid="ignore"):
        return (np.asarray(y) - 1j * np.asarray(x)) / math.sqrt(2.0)


def wigner_function(x: Operator) -> PhaseFunction:
    """The whole map W X as a vectorized phase-space function.

    The support of X is found once, here; each evaluation computes the
    closed form only at those entries.
    """
    rows, cols = np.nonzero(x.mat)
    coeffs = x.mat[rows, cols]
    support = _closed_form_support(rows, cols, x.space.dim)

    def f(xs, ys):
        zs = np.atleast_1d(_z_of_xy(xs, ys)).ravel()
        entries = _closed_form_entries(zs, support)
        np.conj(entries, out=entries)
        vals = np.einsum("kp,p->k", entries, coeffs) / math.sqrt(2.0 * math.pi)
        return vals.reshape(np.shape(np.asarray(xs))) if np.ndim(xs) else vals[0]

    return f


def _grid_values(f: PhaseFunction, scheme: QuadratureScheme) -> np.ndarray:
    xs, ys = scheme.xy_nodes()
    vals = np.asarray(f(xs, ys), dtype=complex)
    if vals.shape != xs.shape:
        raise ValueError(f"phase function must return shape {xs.shape} on coordinate arrays, got {vals.shape}")
    return vals


def wigner_inverse(f: PhaseFunction, scheme: QuadratureScheme, space: FockSpace) -> Operator:
    """Quadrature evaluation of W^(-1) f.

    Exact (to rounding) whenever f is the W-image of an operator whose
    support fits the scheme; for anything else the round-trip residual
    is the diagnostic, nothing fails silently.

    The node values are transformed ring by ring to one coefficient per
    charge c = m - n, which multiplies the radial matrices D(sqrt(t_r))
    (see :mod:`hsqm.quadrature`).
    """
    count = scheme.angular_count
    vals = _grid_values(f, scheme).reshape(-1, count)
    n = space.dim
    phi = 2.0 * np.pi * np.arange(count) / count
    node_weights = scheme.ring_weights * (2.0 * np.pi / count)
    per_charge = (vals @ np.exp(1j * np.outer(phi, np.arange(1 - n, n)))) * node_weights[:, None]
    charge = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    mat = np.einsum("rmn,rmn->mn", per_charge[:, charge], scheme._radial_stack(space))
    return Operator(space, mat / math.sqrt(2.0 * math.pi))


def unitarity_residual(x: Operator, y: Operator, scheme: QuadratureScheme) -> float:
    """| integral conj(W X) (W Y) dx dy  -  <X|Y> |."""
    if x.space != y.space:
        raise ValueError("operators live on different Fock spaces")
    gram = scheme._ring_gram(scheme._radial_stack(x.space))
    quad = x.mat.ravel().conj() @ gram @ y.mat.ravel()
    return float(abs(quad - hs_inner(x, y)))


def lifted_unitaries(space: FockSpace, p: PhasePoint) -> tuple[SuperOp, SuperOp]:
    """The two commuting unitaries U(x,y) induces on B2(H_N).

    In the operator picture they are left multiplication by U and right
    multiplication by U: (U ∨ I)(X) = U X and (I ∨ U†)(X) = X U.
    """
    u = displacement(space, p.z)
    return vee(u, identity(space)), vee(identity(space), u.dag())
