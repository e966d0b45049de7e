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

Assembly is block-sparse by charge: on the polar quadrature nodes the
family is R radial states times a phase e^(i(m-n) phi), and the angular
sum keeps only entries whose charges m - n agree mod A.  The residuals
assemble only the M columns of the block they check, one (N^2 x R) @
(R x M) real product, not a sum over all K = R * A nodes.

The Tomita map of the thermal state reflects the family through the
origin: S(|z>) = |-z>, exactly, since D(z)† = D(-z).
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockSpace, Operator, ThermalSpec, displacement, gibbs_density
from .hs_space import block_indices, hs_norm
from .modular import ModularData, tomita_s
from .quadrature import QuadratureScheme

__all__ = [
    "thermal_vector",
    "thermal_cs",
    "safe_radius",
    "resolution_operator",
    "resolution_residual",
    "frame_operator_residual",
    "s_beta_reflection",
    "cs_overlap",
]


def thermal_vector(space: FockSpace, spec: ThermalSpec) -> Operator:
    """Phi_beta = rho_beta^(1/2): diagonal, positive, unit HS norm."""
    rho = gibbs_density(space, spec)
    return Operator(space, np.diag(np.sqrt(np.diag(rho.mat).real)).astype(complex))


def safe_radius(space: FockSpace) -> float:
    """Largest |z| at which a displaced low state keeps its column mass
    inside the truncation (empirical sqrt(N)/4 rule)."""
    return math.sqrt(space.dim) / 4.0


def thermal_cs(space: FockSpace, spec: ThermalSpec, z: complex) -> Operator:
    """|z> = D(z) Phi_beta, itself the vector of B2(H_N): a displaced
    Gibbs purification with unit HS norm (up to truncation).

    Rejects labels outside the safe disc, where truncation would make
    the norm contract unverifiable.
    """
    if abs(z) > safe_radius(space):
        raise ValueError(
            f"|z| = {abs(z):.3f} exceeds the safe displacement radius "
            f"{safe_radius(space):.3f} for dim {space.dim}"
        )
    return displacement(space, z) @ thermal_vector(space, spec)


def resolution_operator(
    space: FockSpace, spec: ThermalSpec, scheme: QuadratureScheme, mirrored: bool = False, max_level: int | None = None
) -> np.ndarray:
    """Quadrature assembly of (1/2pi) * integral |z><z| dx dy as a dense
    superoperator on B2(H_N): a real N^2 x N^2 array acting on row-major
    vectorized X; ``mirrored`` uses the reflected family |-z>.  A
    ``max_level`` assembles only the columns ``block_indices(space, max_level)``.

    Assembled from the R radial states D(sqrt(t_r)) Phi_beta, not the
    K = R * A node states: the angular sum keeps only entries whose
    charges m - n agree mod A, so the matrix is block-sparse by charge
    (see :mod:`hsqm.quadrature`).  The radial states are real, so the
    assembled matrix is real too; the reflected family is that stack
    times the charge sign (-1)^(m-n).
    """
    sqrt_lam = np.sqrt(np.diag(gibbs_density(space, spec).mat).real)
    sign = (-1.0) ** np.add.outer(np.arange(space.dim), np.arange(space.dim)) if mirrored else 1.0
    states = scheme._radial_stack(space) * (sqrt_lam * sign)  # D(±sqrt(t_r)) @ diag(sqrt(lambda))
    return scheme._ring_gram(states, None if max_level is None else block_indices(space, max_level))


def _column_block_norm(block: np.ndarray) -> float:
    """Operator 2-norm of a real column block D, sqrt(lambda_max(D^T D)) from its small Gram."""
    return math.sqrt(max(np.linalg.eigvalsh(block.T @ block)[-1], 0.0))


def _right_weight_deviation(
    space: FockSpace,
    spec: ThermalSpec,
    scheme: QuadratureScheme,
    mirrored: bool,
    weights: np.ndarray,
) -> float:
    """Operator-norm distance between the assembled family and right
    multiplication by diag(weights) (dense form kron(I, diag(weights))),
    on levels <= N/4, from the M x M Gram D^T D."""
    max_level = space.dim // 4
    cols = block_indices(space, max_level)
    deviation = resolution_operator(space, spec, scheme, mirrored, max_level)
    # the reference is diagonal: entry n*N + l carries weights[l]
    deviation[cols, np.arange(cols.size)] -= weights[cols % space.dim]
    return _column_block_norm(deviation)


def resolution_residual(
    space: FockSpace,
    spec: ThermalSpec,
    scheme: QuadratureScheme,
    mirrored: bool = False,
) -> float:
    """Operator-norm deviation of the assembled family from the identity,
    restricted to inputs supported on levels <= N/4.

    The mathematical value of the assembled integral is right
    multiplication by rho_beta, so this residual is of order
    max |lambda_b - 1| over the block: order one.  It is reported as a
    diagnostic; see :func:`frame_operator_residual` for the residual
    against the true frame operator.
    """
    return _right_weight_deviation(space, spec, scheme, mirrored, np.ones(space.dim))


def frame_operator_residual(
    space: FockSpace,
    spec: ThermalSpec,
    scheme: QuadratureScheme,
    mirrored: bool = False,
) -> float:
    """Deviation of the assembled family from its closed-form frame
    operator, right multiplication by the Gibbs density (dense form
    kron(I, rho_beta)), on inputs supported on levels <= N/4;
    truncation-level small there."""
    lam = np.diag(gibbs_density(space, spec).mat).real
    return _right_weight_deviation(space, spec, scheme, mirrored, lam)


def s_beta_reflection(space: FockSpace, spec: ThermalSpec, z: complex) -> float:
    """HS distance between S(|z>) and |-z>; zero up to truncation since
    S(D(z) Phi_beta) = D(z)† Phi_beta = D(-z) Phi_beta."""
    md = ModularData.from_thermal(space, spec)
    s_map = tomita_s(md)
    plus = thermal_cs(space, spec, z)
    minus = thermal_cs(space, spec, -z)
    return hs_norm(s_map(plus) - minus)


def cs_overlap(space: FockSpace, spec: ThermalSpec, z1: complex, z2: complex) -> complex:
    """<z1|z2> computed directly from the two states."""
    a = thermal_cs(space, spec, z1)
    b = thermal_cs(space, spec, z2)
    return complex(np.vdot(a.mat, b.mat))
