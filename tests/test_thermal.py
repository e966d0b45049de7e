import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement, displacement_stack, gibbs_density
from hsqm.hs_space import basis_element, block_indices, hs_norm
from hsqm.modular import ModularData
from hsqm.quadrature import QuadratureScheme
from hsqm.thermal import (
    _column_block_norm,
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


def _mirrored_block(sp, spec, scheme, max_level):
    """Columns block_indices(sp, max_level) of the mirrored family's frame,
    (1/2pi) integral |-z><-z| dx dy, assembled from its own radial stack
    D(-sqrt(t_r)), whose phases (-1)^(m-n) come from the closed form."""
    sqrt_lam = np.sqrt(np.diag(gibbs_density(sp, spec).mat).real)
    states = displacement_stack(sp, -np.sqrt(scheme.radial_nodes)).real * sqrt_lam
    return scheme._ring_gram(states, block_indices(sp, max_level))


def _mirrored_deviation_norm(sp, spec, scheme, weights):
    """Restricted 2-norm of the mirrored family's deviation from kron(I, diag(weights)) on levels <= N/4."""
    cols = block_indices(sp, sp.dim // 4)
    deviation = _mirrored_block(sp, spec, scheme, sp.dim // 4)
    deviation[cols, np.arange(cols.size)] -= weights[cols % sp.dim]
    return _column_block_norm(deviation)


@pytest.mark.parametrize("mirrored", [False, True])
def test_frame_operator_residual_small(mirrored):
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(24)
    if mirrored:
        lam = np.diag(gibbs_density(sp, spec).mat).real
        assert _mirrored_deviation_norm(sp, spec, scheme, lam) <= 1e-5
    else:
        assert frame_operator_residual(sp, spec, scheme) <= 1e-5


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
    assert s_beta_reflection(ModularData.from_thermal(sp, spec), z) <= 1e-9


# -- residuals at block cost ---------------------------------------------------
#
# The residuals assemble only the block's columns and take the operator
# norm from the small Gram D^T D.  The schemes are the FRAME_CASES of
# test_landau.py: the default rule and the aliased A = 3, 4, 5, 8.


def _scheme_sizes(n):
    yield 2 * n, 4 * n + 1
    for count in (3, 4, 5, 8):
        if count < 2 * n - 1:
            yield 2 * n, count


FRAME_CASES = [(n, *sizes) for n in (4, 6, 8) for sizes in _scheme_sizes(n)]


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_block_columns_match_full_operator(n, radial, angular, mirrored):
    # an entry is one R-term dot product with positive ring weights, so
    # two summation orders differ by at most R eps sqrt(G_ii G_jj)
    # (Cauchy-Schwarz), within R eps max diag(G).  Not bitwise: numpy
    # sends the one-column product (max_level = 0) to GEMV, which sums in
    # another order than the full GEMM.  The mirrored family's columns,
    # from its own stack, are those of S G S with S the charge sign.
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme = QuadratureScheme(radial, angular)
    full = resolution_operator(sp, spec, scheme)
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n)).ravel() if mirrored else np.ones(n * n)
    bound = radial * np.finfo(float).eps * np.max(np.diag(full))
    for max_level in range(n):
        cols = block_indices(sp, max_level)
        if mirrored:
            block = _mirrored_block(sp, spec, scheme, max_level)
        else:
            block = resolution_operator(sp, spec, scheme, max_level)
        assert block.shape == (n * n, (max_level + 1) ** 2)
        assert np.max(np.abs(block - sign[:, None] * full[:, cols] * sign[cols])) <= bound


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_mirrored_residuals_equal_direct(n, radial, angular):
    # the mirror's charge signs form a signature matrix S: its deviation
    # is S D S on the block, with the same 2-norm as the family's
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme = QuadratureScheme(radial, angular)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    for weights, residual in ((np.ones(n), resolution_residual), (lam, frame_operator_residual)):
        direct = residual(sp, spec, scheme)
        assert _mirrored_deviation_norm(sp, spec, scheme, weights) == pytest.approx(direct, rel=1e-15, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 24),
    omega=st.floats(0.1, 4.0),
    beta=st.floats(0.05, 6.0),
    angular=st.sampled_from([None, 3, 4, 5]),
    data=st.data(),
)
def test_residual_gram_norm_matches_dense_norm(n, omega, beta, angular, data):
    # sqrt of the top eigenvalue of D^T D against the SVD norm of D itself,
    # on a drawn block of resolution_operator and on the N/4 block, where
    # the public residuals must give the same value
    max_level = data.draw(st.integers(0, n - 1), label="max_level")
    sp = FockSpace(n)
    spec = ThermalSpec(omega, beta)
    scheme = QuadratureScheme.default(n) if angular is None else QuadratureScheme(2 * n, angular)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    for weights, residual in ((np.ones(n), resolution_residual), (lam, frame_operator_residual)):
        for level in (max_level, n // 4):
            cols = block_indices(sp, level)
            deviation = resolution_operator(sp, spec, scheme, level)
            deviation[cols, np.arange(cols.size)] -= weights[cols % n]
            norm = _column_block_norm(deviation)
            assert norm == pytest.approx(np.linalg.norm(deviation, 2), rel=1e-13, abs=0.0)
        assert residual(sp, spec, scheme) == norm


@pytest.mark.parametrize("n", [5, 9])
def test_max_level_is_checked(n):
    # a negative max_level is an empty block, never a vacuous 0.0; from
    # N on, every level is kept
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(n)
    for bad in (-1, -2, -n):
        with pytest.raises(ValueError, match="max_level"):
            resolution_operator(sp, spec, scheme, bad)
    top = resolution_operator(sp, spec, scheme, n - 1)
    for level in (n, 50):
        assert np.array_equal(resolution_operator(sp, spec, scheme, level), top)
