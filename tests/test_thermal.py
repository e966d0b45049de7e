import math

import numpy as np
import pytest

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement, gibbs_density
from hsqm.hs_space import basis_element, hs_norm
from hsqm.quadrature import QuadratureScheme
from hsqm.thermal import (
    cs_overlap,
    frame_operator_residual,
    resolution_operator,
    resolution_residual,
    s_beta_reflection,
    safe_radius,
    thermal_cs,
    thermal_vector,
)


def test_thermal_vector_ground_limit():
    sp = FockSpace(8)
    phi = thermal_vector(sp, ThermalSpec(1.0, math.inf))
    assert hs_norm(phi - basis_element(sp, 0, 0)) == 0.0


def test_thermal_vector_norm_and_entries():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.2)
    phi = thermal_vector(sp, spec)
    assert hs_norm(phi) == pytest.approx(1.0, abs=1e-14)
    analytic = np.sqrt((1 - math.exp(-1.2)) * np.exp(-1.2 * np.arange(20)))
    rel = np.abs(np.diag(phi.mat).real - analytic) / analytic
    assert np.max(rel) <= math.exp(-0.9 * 20 * 1.2)


def test_cs_at_origin_and_safety():
    sp = FockSpace(16)
    spec = ThermalSpec(1.0, 0.9)
    cs = thermal_cs(sp, spec, 0.0)
    assert isinstance(cs, Operator)
    assert hs_norm(cs - thermal_vector(sp, spec)) == 0.0
    with pytest.raises(ValueError):
        thermal_cs(sp, spec, 1.5 * safe_radius(sp))


def test_ground_limit_is_canonical_cs():
    sp = FockSpace(24)
    z = 0.8 - 0.3j
    cs = thermal_cs(sp, ThermalSpec(1.0, math.inf), z)
    n = np.arange(24)
    canonical = np.exp(-abs(z) ** 2 / 2.0) * z**n / np.sqrt(
        np.array([math.factorial(k) for k in range(24)], dtype=float)
    )
    assert np.allclose(cs.mat[:, 0], canonical, atol=1e-12)
    assert np.max(np.abs(cs.mat[:, 1:])) == 0.0


def test_cs_norm_in_safe_disc():
    # norm defect is the displaced thermal tail ~ e^{-N w b}; measured:
    # 1e-10 holds across the disc once the tail weight is cold enough
    sp = FockSpace(24)
    cold = ThermalSpec(1.0, 2.0)
    for z in (0.5, 1.0j, safe_radius(sp) * 0.99):
        assert hs_norm(thermal_cs(sp, cold, z)) == pytest.approx(1.0, abs=1e-10)
    warm = ThermalSpec(1.0, 1.0)
    sp32 = FockSpace(32)
    for z in (0.5, 1.0j):
        assert hs_norm(thermal_cs(sp32, warm, z)) == pytest.approx(1.0, abs=1e-10)


def test_expansion_coefficients_vs_scaled_displacement():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.0)
    z = 0.4 - 0.3j
    state = thermal_cs(sp, spec, z)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    d = displacement(sp, z).mat
    for j in range(6):
        for i in range(6):
            assert state.mat[j, i] == pytest.approx(d[j, i] * math.sqrt(lam[i]), abs=1e-8)


def test_overlap_law():
    sp = FockSpace(32)
    spec = ThermalSpec(1.0, 0.8)
    rho = gibbs_density(sp, spec).mat
    z1, z2 = 0.4 + 0.2j, -0.3 + 0.5j
    direct = cs_overlap(sp, spec, z1, z2)
    phase = np.exp(-1j * (z1 * np.conj(z2)).imag)
    closed = phase * np.trace(rho @ displacement(sp, z2 - z1).mat)
    assert direct == pytest.approx(closed, abs=1e-10)


@pytest.mark.parametrize("mirrored", [False, True])
def test_frame_operator_residual_small(mirrored):
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(24)
    assert frame_operator_residual(sp, spec, scheme, mirrored=mirrored) <= 1e-5


def test_identity_residual_equals_gibbs_weight_gap():
    # the assembled family resolves right multiplication by the Gibbs
    # density; its distance from the identity on the block is exactly
    # the largest weight gap |lambda_b - 1|
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(24)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    predicted = max(abs(lam[b] - 1.0) for b in range(sp.dim // 4 + 1))
    got = resolution_residual(sp, spec, scheme)
    assert got == pytest.approx(predicted, abs=1e-5)


def test_resolution_matrix_elements():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(20)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    dense = resolution_operator(sp, spec, scheme)
    v11 = basis_element(sp, 1, 1).mat.ravel()
    diag11 = complex(v11.conj() @ dense @ v11)
    assert diag11 == pytest.approx(lam[1], abs=1e-10)
    # mismatched angular phases integrate to zero
    v01, v10 = basis_element(sp, 0, 1).mat.ravel(), basis_element(sp, 1, 0).mat.ravel()
    assert abs(complex(v10.conj() @ dense @ v01)) <= 1e-10


def test_ground_limit_restricted_identity():
    # in the ground-state limit the |psi><0| corner carries the classical
    # coherent-state completeness
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 60.0)
    scheme = QuadratureScheme.default(20)
    dense = resolution_operator(sp, spec, scheme)
    v00 = basis_element(sp, 0, 0).mat.ravel()
    assert complex(v00.conj() @ dense @ v00) == pytest.approx(1.0, abs=1e-8)
    v30 = basis_element(sp, 3, 0).mat.ravel()
    assert complex(v30.conj() @ dense @ v30) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("z", [0.0, 0.5, 0.45j, -0.3 + 0.2j])
def test_reflection(z):
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 0.8)
    assert s_beta_reflection(sp, spec, z) <= 1e-9
