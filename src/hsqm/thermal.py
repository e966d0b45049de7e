"""Coherent states displaced from the oscillator Gibbs purification.

The Gibbs density rho_beta purifies to Phi_beta = rho_beta^(1/2), a unit
vector of B2(H_N) that is cyclic and separating for the left algebra.
Displacing it gives the thermal coherent family

    |z> = D(z) Phi_beta,

which is the left-lifted Weyl orbit of the purification.  The family is
total, and its frame operator under (1/2pi) dx dy is *right
multiplication by rho_beta*, not the identity: by Schur's lemma the
frame operator of a reducible Weyl action lands in the commutant of the
left algebra, and the weight picked out by Phi_beta is the Gibbs
density itself.  Both residuals are exposed: the deviation from the
identity (large, by the above) and the deviation from the Gibbs-weighted
frame operator (truncation-level small).

Assembly is block-diagonal by charge: on the polar quadrature nodes the
family is R radial states times a phase e^(i(m-n) phi), and the angular
sum keeps only entries of equal charge m - n, so each residual is one
small real product per charge diagonal, on the levels <= N/4 alone.

The Tomita map of the thermal state reflects the family through the
origin: S(|z>) = |-z>, exactly, since D(z)† = D(-z).  The mirrored
family needs no assembly of its own: D(-r) is D(r) times the charge
sign (-1)^(m-n), a signature matrix S, so its frame operator is S F S
and each residual equals the family's (S fixes the diagonal reference
and preserves the 2-norm).
"""

from __future__ import annotations

import math

import numpy as np

from . import hs_space
from .fock import FockSpace, Operator, ThermalSpec, _gibbs_weights, displacement_stack
from .hs_space import hs_norm
from .modular import ModularData, tomita_s
from .quadrature import QuadratureScheme

__all__ = [
    "safe_radius",
    "resolution_operator",
    "resolution_residual",
    "frame_operator_residual",
    "s_beta_reflection",
    "cs_overlap",
]


def safe_radius(space: FockSpace) -> float:
    """Largest |z| at which a displaced low state keeps its column mass
    inside the truncation (empirical sqrt(N)/4 rule)."""
    return math.sqrt(space.dim) / 4.0


def _safe_displacements(space: FockSpace, zs: list[complex]) -> np.ndarray:
    """D(z) for each label, shape (K, N, N), from one displacement stack.
    Rejects labels outside the safe disc, where truncation would make the
    norm contract unverifiable."""
    zs = np.asarray(zs, dtype=complex)
    radius = float(np.max(np.abs(zs)))
    if radius > safe_radius(space):
        raise ValueError(
            f"|z| = {radius:.3f} exceeds the safe displacement radius "
            f"{safe_radius(space):.3f} for dim {space.dim}"
        )
    return displacement_stack(space, zs)


def _displaced_purifications(space: FockSpace, spec: ThermalSpec, zs: list[complex]) -> np.ndarray:
    """D(z) Phi_beta for each label inside the safe disc, shape (K, N, N)."""
    # D(z) @ Phi_beta scales column n of D(z) by sqrt(lambda_n)
    return _safe_displacements(space, zs) * np.sqrt(_gibbs_weights(space, spec))


def resolution_operator(space: FockSpace, spec: ThermalSpec, scheme: QuadratureScheme) -> tuple[np.ndarray, ...]:
    """The block columns (levels <= N/4) of the assembly G of
    (1/2pi) * integral |z><z| dx dy on B2(H_N), as ``(blocks, charges)``:
    block i is G on the diagonal m - n = c = charges[i], row p the entry with
    min(m, n) = p < N - |c|, column j the block entry with min(m, n) = j
    <= N/4 - |c|, real and 0 past those; every other entry is 0.  The
    reflected family |-z> assembles to S G S, S = (-1)^(m-n).
    """
    n, levels = space.dim, hs_space._block_levels(space)
    charges = np.concatenate([levels, -levels[:0:-1]])
    kets = np.arange(n) + np.maximum(-charges, 0)[:, None]  # level n of the entry |m><n| on row p
    # real magnitudes: the sign (-1)^c of c < 0 cancels in G; D(sqrt(t_r)) @ diag(sqrt(lambda))
    states = scheme._charge_diagonals(space, levels.size)[np.abs(charges)]
    states *= np.sqrt(_gibbs_weights(space, spec))[kets % n, None]
    ring = scheme.ring_weights * (levels < levels.size - np.abs(charges)[:, None])[:, :, None]
    return states @ (states[:, : levels.size] * ring).transpose(0, 2, 1), charges


def _largest_norm(blocks: np.ndarray) -> float:
    """Largest 2-norm in a stack of real column blocks (..., P, Q), from their Q x Q Grams."""
    return math.sqrt(max(np.linalg.eigvalsh(np.swapaxes(blocks, -1, -2) @ blocks)[..., -1].max(), 0.0))


def _right_weight_deviation(
    space: FockSpace, spec: ThermalSpec, scheme: QuadratureScheme, weights: np.ndarray
) -> float:
    """Operator-norm distance between the assembled family and right
    multiplication by diag(weights) (dense form kron(I, diag(weights)), with
    weights[l] on entry m*N + l), on levels <= N/4: the largest over the charges."""
    deviation, charges = resolution_operator(space, spec, scheme)
    diag = np.arange(deviation.shape[2])
    kets = diag + np.maximum(-charges, 0)[:, None]
    deviation[:, diag, diag] -= np.where(diag < diag.size - np.abs(charges)[:, None], weights[kets % space.dim], 0.0)
    return _largest_norm(deviation)


def resolution_residual(
    space: FockSpace,
    spec: ThermalSpec,
    scheme: QuadratureScheme,
) -> float:
    """Operator-norm deviation of the assembled family from the identity,
    restricted to inputs supported on levels <= N/4.

    The mathematical value of the assembled integral is right
    multiplication by rho_beta, so this residual is of order
    max |lambda_b - 1| over the block: order one.  It is reported as a
    diagnostic; see :func:`frame_operator_residual` for the residual
    against the true frame operator.
    """
    return _right_weight_deviation(space, spec, scheme, np.ones(space.dim))


def frame_operator_residual(
    space: FockSpace,
    spec: ThermalSpec,
    scheme: QuadratureScheme,
) -> float:
    """Deviation of the assembled family from its closed-form frame
    operator, right multiplication by the Gibbs density (dense form
    kron(I, rho_beta)), on inputs supported on levels <= N/4;
    truncation-level small there."""
    lam = _gibbs_weights(space, spec)
    return _right_weight_deviation(space, spec, scheme, lam)


def s_beta_reflection(md: ModularData, z: complex) -> float:
    """HS distance between S(|z>) and |-z> for |±z> = D(±z) Phi, Phi =
    rho^(1/2); zero up to truncation for any faithful rho, since
    S(D(z) Phi) = D(z)† Phi = D(-z) Phi."""
    plus, minus = (Operator(md.space, m) for m in _safe_displacements(md.space, [z, -z]) @ md.sqrt_rho.mat)
    return hs_norm(tomita_s(md)(plus) - minus)


def cs_overlap(space: FockSpace, spec: ThermalSpec, z1: complex, z2: complex) -> complex:
    """<z1|z2> computed directly from the two states."""
    a, b = _displaced_purifications(space, spec, [z1, z2])
    return complex(np.vdot(a, b))
