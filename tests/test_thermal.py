import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement_stack, gibbs_density
from hsqm.hs_space import basis_element, hs_norm
from hsqm.modular import ModularData
from hsqm.quadrature import QuadratureScheme
from hsqm.thermal import (
    _displaced_purifications,
    cs_overlap,
    frame_operator_residual,
    resolution_operator,
    resolution_residual,
    s_beta_reflection,
    safe_radius,
)
from block_oracle import block_indices, column_block_norm, dense_block, ring_gram
from node_weights import rule


def _thermal_cs(space, spec, z):
    """|z> = D(z) Phi_beta, the state whose overlaps cs_overlap takes."""
    return Operator(space, _displaced_purifications(space, spec, [z])[0])


# The thermal vector Phi_beta = rho_beta^(1/2) is the family at z = 0.


def test_thermal_vector_ground_limit():
    sp = FockSpace(8)
    phi = _thermal_cs(sp, ThermalSpec(1.0, math.inf), 0.0)
    assert hs_norm(phi - basis_element(sp, 0, 0)) == 0.0


def test_thermal_vector_norm_and_entries():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.2)
    phi = _thermal_cs(sp, spec, 0.0)
    assert hs_norm(phi) == pytest.approx(1.0, abs=1e-14)
    analytic = np.sqrt((1 - math.exp(-1.2)) * np.exp(-1.2 * np.arange(20)))
    rel = np.abs(np.diag(phi.mat).real - analytic) / analytic
    assert np.max(rel) <= math.exp(-0.9 * 20 * 1.2)
    # the same vector as the modular data's cyclic and separating vector
    assert hs_norm(phi - ModularData.from_thermal(sp, spec).sqrt_rho) <= 1e-15


def test_cs_at_origin_and_safety():
    sp = FockSpace(16)
    spec = ThermalSpec(1.0, 0.9)
    cs = _thermal_cs(sp, spec, 0.0)
    # D(0) is the identity, so |0> is diag(sqrt(lambda)), the entrywise
    # root of the diagonal density, to the bit
    assert hs_norm(cs - Operator(sp, np.sqrt(gibbs_density(sp, spec).mat))) == 0.0
    with pytest.raises(ValueError, match="exceeds the safe displacement radius"):
        cs_overlap(sp, spec, 0.0, 1.5 * safe_radius(sp))


def test_ground_limit_is_canonical_cs():
    sp = FockSpace(24)
    z = 0.8 - 0.3j
    cs = _thermal_cs(sp, ThermalSpec(1.0, math.inf), z)
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
        assert hs_norm(_thermal_cs(sp, cold, z)) == pytest.approx(1.0, abs=1e-10)
    warm = ThermalSpec(1.0, 1.0)
    sp32 = FockSpace(32)
    for z in (0.5, 1.0j):
        assert hs_norm(_thermal_cs(sp32, warm, z)) == pytest.approx(1.0, abs=1e-10)


def test_expansion_coefficients_vs_scaled_displacement():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.0)
    z = 0.4 - 0.3j
    state = _thermal_cs(sp, spec, z)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    d = displacement_stack(sp, [z])[0]
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
    closed = phase * np.trace(rho @ displacement_stack(sp, [z2 - z1])[0])
    assert direct == pytest.approx(closed, abs=1e-10)


def _level_block(sp, max_level):
    """Row-major indices n*N + l of the |n><l| with n, l <= max_level, for
    blocks other than the library's fixed N/4 one."""
    keep = np.arange(max_level + 1)
    return (keep[:, None] * sp.dim + keep[None, :]).ravel()


def _family_states(sp, spec, scheme, mirrored=False):
    """The R radial states of the family, D(sqrt(t_r)) Phi_beta, or of the
    mirrored family from its own radial stack D(-sqrt(t_r)), whose phases
    (-1)^(m-n) come from the closed form."""
    sqrt_lam = np.sqrt(np.diag(gibbs_density(sp, spec).mat).real)
    radii = -np.sqrt(scheme.radial_nodes) if mirrored else np.sqrt(scheme.radial_nodes)
    return displacement_stack(sp, radii).real * sqrt_lam


def _mirrored_deviation_norm(sp, spec, scheme, weights):
    """Restricted 2-norm of the mirrored family's deviation from kron(I, diag(weights)) on levels <= N/4."""
    cols = block_indices(sp)
    deviation = ring_gram(scheme, _family_states(sp, spec, scheme, mirrored=True))[:, cols]
    deviation[cols, np.arange(cols.size)] -= weights[cols % sp.dim]
    return column_block_norm(deviation)


@pytest.mark.parametrize("mirrored", [False, True])
def test_frame_operator_residual_small(mirrored):
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme(24)
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
    scheme = QuadratureScheme(24)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    predicted = max(abs(lam[b] - 1.0) for b in range(sp.dim // 4 + 1))
    got = resolution_residual(sp, spec, scheme)
    assert got == pytest.approx(predicted, abs=1e-5)


def _element(sp, block, bra, ket):
    """<bra| G |ket> for basis elements |n><l| of the block, given as (n, l),
    read from the block columns G[:, block_indices(sp)]."""
    column = list(block_indices(sp)).index(ket[0] * sp.dim + ket[1])
    return block[bra[0] * sp.dim + bra[1], column]


def test_resolution_matrix_elements():
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme(20)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    block = dense_block(sp, spec, scheme)
    assert block.shape == (20 * 20, (20 // 4 + 1) ** 2)
    assert _element(sp, block, (1, 1), (1, 1)) == pytest.approx(lam[1], abs=1e-10)
    # mismatched angular phases integrate to zero
    assert abs(_element(sp, block, (1, 0), (0, 1))) <= 1e-10


def test_ground_limit_restricted_identity():
    # in the ground-state limit the |psi><0| corner carries the classical
    # coherent-state completeness
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 60.0)
    scheme = QuadratureScheme(20)
    block = dense_block(sp, spec, scheme)
    assert _element(sp, block, (0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-8)
    assert _element(sp, block, (3, 0), (3, 0)) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("z", [0.0, 0.5, 0.45j, -0.3 + 0.2j])
def test_reflection(z):
    sp = FockSpace(24)
    spec = ThermalSpec(1.0, 0.8)
    assert s_beta_reflection(ModularData.from_thermal(sp, spec), z) <= 1e-9


# -- residuals at block cost ---------------------------------------------------
#
# The residuals assemble the block's columns one charge diagonal at a time
# and take the largest operator norm over the charges, each from its small
# Gram D^T D.  The schemes are the FRAME_CASES of test_landau.py: the rule
# for N (2N rings, 4N+1 angles), at even and odd N.


FRAME_CASES = [(n, 2 * n, 4 * n + 1) for n in (4, 5, 6, 8)]


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_block_columns_match_full_operator(n, radial, angular, mirrored):
    # the full N^2 x N^2 assembly is the oracle here; the library sums each
    # charge class of the block columns on its own.  An entry is one R-term
    # dot product with positive ring weights, so two summation orders
    # differ by at most R eps sqrt(G_ii G_jj) (Cauchy-Schwarz), within
    # R eps max diag(G) (measured: 0.041 of it).  The mirrored family,
    # from its own stack, assembles to S G S with S the charge sign.
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme = rule(n, radial, angular)
    full = ring_gram(scheme, _family_states(sp, spec, scheme, mirrored))
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n)).ravel() if mirrored else np.ones(n * n)
    bound = radial * np.finfo(float).eps * np.max(np.diag(full))
    cols = block_indices(sp)
    assert np.max(np.abs(sign[:, None] * dense_block(sp, spec, scheme) * sign[cols] - full[:, cols])) <= bound


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_resolution_operator_layout(n, radial, angular):
    # one block per charge c of the block columns, c = 0..N/4 then -N/4..-1:
    # row p is the entry of diagonal c with min(m, n) = p, column j the block
    # entry with min(m, n) = j, so that column j of a block sits on row j;
    # rows past the diagonal's N - |c| entries and columns past its
    # N/4 + 1 - |c| block entries are 0
    sp = FockSpace(n)
    blocks, charges = resolution_operator(sp, ThermalSpec(1.0, 0.7), rule(n, radial, angular))
    b = n // 4
    assert charges.tolist() == [*range(b + 1), *range(-b, 0)]
    assert blocks.shape == (2 * b + 1, n, b + 1)
    for block, c in zip(blocks, charges):
        assert np.all(block[: n - abs(c), : b + 1 - abs(c)] != 0)
        assert not block[n - abs(c) :].any() and not block[:, b + 1 - abs(c) :].any()


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_mirrored_residuals_equal_direct(n, radial, angular):
    # the mirror's charge signs form a signature matrix S: its deviation
    # is S D S on the block, with the same 2-norm as the family's.  The
    # mirror is summed densely and the family per charge class, so the two
    # agree within the entry bound R eps max diag(G) of
    # test_block_columns_match_full_operator (measured: 0.124 of it)
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme = rule(n, radial, angular)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    bound = radial * np.finfo(float).eps * np.max(np.diag(ring_gram(scheme, _family_states(sp, spec, scheme))))
    for weights, residual in ((np.ones(n), resolution_residual), (lam, frame_operator_residual)):
        direct = residual(sp, spec, scheme)
        assert abs(_mirrored_deviation_norm(sp, spec, scheme, weights) - direct) <= bound


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 24),
    omega=st.floats(0.1, 4.0),
    beta=st.floats(0.05, 6.0),
    data=st.data(),
)
def test_residual_gram_norm_matches_dense_norm(n, omega, beta, data):
    # sqrt of the top eigenvalue of D^T D against the SVD norm of D itself,
    # on a drawn block of the family's frame and on the library's N/4
    # block, where the public residuals, from the same entries by charge
    # class, must give the same value to rel 1e-13
    max_level = data.draw(st.integers(0, n - 1), label="max_level")
    sp = FockSpace(n)
    spec = ThermalSpec(omega, beta)
    scheme = QuadratureScheme(n)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    states = _family_states(sp, spec, scheme)
    for weights, residual in ((np.ones(n), resolution_residual), (lam, frame_operator_residual)):
        for cols, deviation in (
            (_level_block(sp, max_level), ring_gram(scheme, states)[:, _level_block(sp, max_level)]),
            (block_indices(sp), dense_block(sp, spec, scheme)),
        ):
            deviation[cols, np.arange(cols.size)] -= weights[cols % n]
            norm = column_block_norm(deviation)
            assert norm == pytest.approx(np.linalg.norm(deviation, 2), rel=1e-13, abs=0.0)
        assert residual(sp, spec, scheme) == pytest.approx(norm, rel=1e-13, abs=0.0)
