"""Typed errors at the library's boundaries: every guard raises with its message."""

import math

import numpy as np
import pytest

from hsqm.commutant import AlgebraBasis, AlgebraGens, intersection_dimension
from hsqm.fock import (
    FockSpace,
    Operator,
    ThermalSpec,
    displacement,
    displacement_stack,
    annihilation,
    creation,
    identity,
    osc_hamiltonian,
)
from hsqm.hs_space import SuperOp, basis_element, vee
from hsqm.landau import (
    LandauParams,
    chiral_frequencies,
    husimi,
    lll_overlap,
    lll_state,
    project_hol,
    reproducing_kernel,
)
from hsqm.modular import AntilinearMap, ModularData, kms_residual, modular_conjugation, state_eval
from hsqm.quadrature import QuadratureScheme
from hsqm.wigner import unitarity_residual, wigner_function

SP, OTHER = FockSpace(3), FockSpace(4)
DEFAULT = LandauParams(mass=1.0, omega0=1.0, omega_c=1.0, theta=0.1)


def _md():
    return ModularData.from_thermal(SP, ThermalSpec(1.0, 1.0))


def _set_entries(op):
    op.mat = np.zeros((3, 3))


# -- non-finite labels -----------------------------------------------------

NON_FINITE = {
    "displacement_stack": lambda v: displacement_stack(SP, [0.5, v]),
    "displacement_stack_imag": lambda v: displacement_stack(SP, [complex(0.5, v)]),
    "displacement": lambda v: displacement(SP, v),
    "wigner_function_x": lambda v: wigner_function(basis_element(SP, 1, 0))(v, 0.0),
    "wigner_function_y": lambda v: wigner_function(basis_element(SP, 1, 0))(np.zeros(2), np.array([0.5, v])),
    "lll_state": lambda v: lll_state(2, v),
    "lll_overlap": lambda v: lll_overlap(2, complex(0.3, v)),
    "reproducing_kernel_z": lambda v: reproducing_kernel(SP, v, 0.5),
    "reproducing_kernel_z_prime": lambda v: reproducing_kernel(SP, 0.5, complex(0.1, v)),
    "husimi_plus": lambda v: husimi(DEFAULT, 1.0, v, 0.0),
    "husimi_minus": lambda v: husimi(DEFAULT, 1.0, 0.0, np.array([0.5, complex(0.1, v)])),
    "project_hol": lambda v: project_hol(lambda w: w, QuadratureScheme.default(4), complex(v, 0.2)),
    "kms_residual": lambda v: kms_residual(_md(), creation(SP) @ annihilation(SP), identity(SP), v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_label_raises(call, value):
    with pytest.raises(ValueError, match="must be finite"):
        call(value)


# -- guards on shapes, spaces and parameters --------------------------------

GUARDS = {
    "AlgebraGens-empty": (ValueError, "need at least one generator", lambda: AlgebraGens(3, [])),
    "AlgebraGens-shape": (ValueError, "generator has wrong shape", lambda: AlgebraGens(3, [np.eye(2)])),
    "intersection_dimension-dims": (
        ValueError,
        "algebras act on different dimensions",
        lambda: intersection_dimension(AlgebraBasis(2, np.eye(2)), AlgebraBasis(3, np.eye(3))),
    ),
    "Operator-immutable": (AttributeError, "Operator is immutable", lambda: _set_entries(identity(SP))),
    "Operator-matmul-spaces": (ValueError, "different Fock spaces", lambda: identity(SP) @ identity(OTHER)),
    "Operator-add-spaces": (ValueError, "different Fock spaces", lambda: identity(SP) + identity(OTHER)),
    "Operator-sub-spaces": (ValueError, "different Fock spaces", lambda: identity(SP) - identity(OTHER)),
    "osc_hamiltonian-zero": (ValueError, "omega must be positive", lambda: osc_hamiltonian(SP, 0.0)),
    "osc_hamiltonian-negative": (ValueError, "omega must be positive", lambda: osc_hamiltonian(SP, -1.0)),
    "SuperOp-shape": (ValueError, "sandwich factors have wrong shape", lambda: SuperOp(SP, np.eye(3), np.eye(4))),
    "SuperOp-call-spaces": (
        ValueError,
        "operator lives on a different Fock space",
        lambda: vee(identity(SP), identity(SP))(identity(OTHER)),
    ),
    "LandauParams-omega0": (ValueError, "omega0 must be nonnegative", lambda: LandauParams(1.0, -1.0, 1.0, 0.1)),
    "LandauParams-hbar-zero": (
        ValueError,
        "hbar must be positive",
        lambda: LandauParams(1.0, 1.0, 1.0, 0.1, hbar=0.0),
    ),
    "LandauParams-hbar-negative": (
        ValueError,
        "hbar must be positive",
        lambda: LandauParams(1.0, 1.0, 1.0, 0.1, hbar=-1.0),
    ),
    # omega0^2 / omega_c overflows to inf in omega_c_tilde, with no OverflowError
    "chiral_frequencies-inf": (
        ValueError,
        "overflow double precision in the chiral frequencies",
        lambda: chiral_frequencies(LandauParams(1.0, 1e150, 1e-10, 1e-160)),
    ),
    "lll_overlap-negative": (ValueError, "angular index must be nonnegative", lambda: lll_overlap(-1, 0.5)),
    "AntilinearMap-shape": (
        ValueError,
        "sandwich factors have wrong shape",
        lambda: AntilinearMap(SP, np.eye(3), np.eye(4)),
    ),
    "AntilinearMap-call-spaces": (
        ValueError,
        "operator lives on a different Fock space",
        lambda: modular_conjugation(SP)(identity(OTHER)),
    ),
    "ModularData-hamiltonian-space": (
        ValueError,
        "Hamiltonian lives on a different Fock space",
        lambda: ModularData(Operator(SP, np.eye(3) / 3.0), 1.0, osc_hamiltonian(OTHER, 1.0)),
    ),
    "kms_residual-a-space": (
        ValueError,
        "operators live on a different Fock space",
        lambda: kms_residual(_md(), identity(OTHER), identity(SP), 0.5),
    ),
    "kms_residual-b-space": (
        ValueError,
        "operators live on a different Fock space",
        lambda: kms_residual(_md(), identity(SP), identity(OTHER), 0.5),
    ),
    "state_eval-space": (
        ValueError,
        "operator lives on a different Fock space",
        lambda: state_eval(_md(), identity(OTHER)),
    ),
    "unitarity_residual-spaces": (
        ValueError,
        "different Fock spaces",
        lambda: unitarity_residual(identity(SP), identity(OTHER), QuadratureScheme.default(4)),
    ),
}


@pytest.mark.parametrize("error, message, call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_typed_error(error, message, call):
    with pytest.raises(error, match=message):
        call()
