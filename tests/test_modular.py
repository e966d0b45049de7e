import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hsqm import modular
from hsqm.commutant import AlgebraGens, algebra_span, span_contains
from hsqm.fock import FockSpace, Operator, ThermalSpec, annihilation, creation, identity, osc_hamiltonian
from hsqm.hs_space import SuperOp, basis_element, hs_norm, vee
from hsqm.modular import (
    AntilinearMap,
    ModularData,
    delta_power,
    kms_residual,
    modular_conjugation,
    modular_flow,
    polar_check,
    state_eval,
    tomita_s,
)
from flow_rotation import SPECS, TOL, flow_rotation_deviation


def _random_faithful(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T + 0.5 * np.eye(n)
    rho /= np.trace(rho).real
    return ModularData(Operator(FockSpace(n), rho), beta=1.0)


def _random_op(n, seed):
    rng = np.random.default_rng(seed)
    return Operator(FockSpace(n), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_maximally_mixed_is_trivial():
    sp = FockSpace(5)
    md = ModularData(Operator(sp, np.eye(5) / 5.0), beta=1.0)
    x = _random_op(5, 0)
    assert hs_norm(delta_power(md, 1.0)(x) - x) <= 1e-14
    assert polar_check(md) == 0.0


def test_modular_spectrum_thermal():
    sp = FockSpace(6)
    spec = ThermalSpec(1.0, 0.9)
    md = ModularData.from_thermal(sp, spec)
    delta = delta_power(md, 1.0)
    for n, l in ((0, 3), (2, 1), (5, 0)):
        x = basis_element(sp, n, l)
        ratio = math.exp(-(n - l) * 0.9)
        assert hs_norm(delta(x) - ratio * x) <= 1e-13 * ratio
    phi = md.sqrt_rho
    assert hs_norm(delta(phi) - phi) <= 1e-14


def test_conjugation():
    sp = FockSpace(4)
    j = modular_conjugation(sp)
    assert hs_norm(j(basis_element(sp, 1, 3)) - basis_element(sp, 3, 1)) == 0
    x = _random_op(4, 3)
    assert hs_norm(j(j(x)) - x) == 0
    # antilinearity
    assert hs_norm(j(1j * basis_element(sp, 0, 0)) - (-1j) * basis_element(sp, 0, 0)) == 0


def test_tomita_s_factors_and_involution():
    sp = FockSpace(7)
    md = ModularData.from_thermal(sp, ThermalSpec(1.0, 0.6))
    s = tomita_s(md)
    for j_idx, i_idx in ((4, 1), (0, 5), (3, 3)):
        out = s(basis_element(sp, j_idx, i_idx))
        expect = math.exp(-(j_idx - i_idx) * 0.6 / 2.0)
        assert out.mat[i_idx, j_idx] == pytest.approx(expect, rel=1e-13)
        assert np.count_nonzero(out.mat) == 1
    phi = md.sqrt_rho
    assert hs_norm(s(phi) - phi) <= 1e-14
    x = _random_op(7, 5)
    assert hs_norm(s(s(x)) - x) <= 1e-12 * hs_norm(x)


def test_tomita_defining_property():
    md = _random_faithful(6, 12)
    phi = md.sqrt_rho
    s = tomita_s(md)
    for seed in range(3):
        a = _random_op(6, 100 + seed)
        assert hs_norm(s(a @ phi) - a.dag() @ phi) <= 1e-12


def _polar_reference(md):
    """polar_check as the plain loop: both sides applied to every |a><b|."""
    s, j, half = tomita_s(md), modular_conjugation(md.space), delta_power(md, 0.5)
    worst = 0.0
    for a in range(md.space.dim):
        for b in range(md.space.dim):
            x = basis_element(md.space, a, b)
            worst = max(worst, hs_norm(s(x) - j(half(x))))
    return worst


@pytest.mark.parametrize("n", range(4, 13))
def test_polar_check_matches_reference_thermal(n):
    for omega_beta in (0.3, 1.0, 2.5):
        md = ModularData.from_thermal(FockSpace(n), ThermalSpec(1.0, omega_beta))
        assert polar_check(md) == _polar_reference(md) == 0.0


def _scaled_tomita(md):
    s = tomita_s(md)
    return AntilinearMap(md.space, s.left * (1.0 + 1e-6), s.right)


def _scaled_delta_power(md, power):
    sup = delta_power(md, power)
    return SuperOp(md.space, sup.left * (1.0 + 1e-6), sup.right)


@pytest.mark.parametrize("name, scaled", [("tomita_s", _scaled_tomita), ("delta_power", _scaled_delta_power)])
@pytest.mark.parametrize("make_md", [lambda: ModularData.from_thermal(FockSpace(8), ThermalSpec(1.0, 0.7)),
                                     lambda: _random_faithful(6, 21)])
def test_polar_check_sees_a_perturbed_side(monkeypatch, name, scaled, make_md):
    # scaling one side's factor by 1 + 1e-6 moves that side by 1e-6 of its
    # own size, so the check must report 1e-6 of the largest |S(|a><b|)|
    md = make_md()
    s = tomita_s(md)
    size = max(
        hs_norm(s(basis_element(md.space, a, b))) for a in range(md.space.dim) for b in range(md.space.dim)
    )
    monkeypatch.setattr(modular, name, scaled)
    assert polar_check(md) == pytest.approx(1e-6 * size, rel=1e-6)


@pytest.mark.parametrize(
    "make_md",
    [
        lambda: ModularData(Operator(FockSpace(5), np.eye(5) / 5.0), beta=1.0),
        lambda: ModularData.from_thermal(FockSpace(8), ThermalSpec(1.0, 0.7)),
        lambda: _random_faithful(6, 21),
    ],
)
def test_polar_decomposition(make_md):
    assert polar_check(make_md()) <= 1e-12


def test_polar_check_memory_is_quadratic():
    # the closed form holds N x N arrays only (2.4 MB peak measured); one
    # image row of the plain loop would be 16 N^3 bytes, 33.5 MB at N = 128
    n = 128
    md = ModularData.from_thermal(FockSpace(n), ThermalSpec(1.0, 20.0 / (n - 1)))
    tracemalloc.start()
    try:
        assert polar_check(md) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 7), st.floats(1e-2, 1.0), st.integers(0, 2**32 - 1))
def test_polar_decomposition_generated_density(n, eps, seed):
    # rho = M M† + eps I, normalized: non-diagonal, so ModularData takes the
    # eigh path; eps keeps the eigenvalue ratio near 1e-4 or above, far from
    # the 1e-14 faithfulness floor
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T + eps * np.eye(n)
    rho /= np.trace(rho).real
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) > 0
    md = ModularData(Operator(FockSpace(n), rho), beta=1.0)
    assert polar_check(md) <= 1e-12
    assert abs(polar_check(md) - _polar_reference(md)) <= 1e-15


def test_delta_half_and_f_map():
    md = _random_faithful(5, 33)
    x = _random_op(5, 34)
    half = delta_power(md, 0.5)
    direct = md.rho_power(0.5) @ x.mat @ md.rho_power(-0.5)
    assert np.allclose(half(x).mat, direct, atol=1e-12)


def test_antilinear_composition_rules():
    md = _random_faithful(4, 44)
    s = tomita_s(md)
    j = modular_conjugation(md.space)
    x = _random_op(4, 45)
    # J after Delta^{1/2} equals S as a closed-form composition
    composed = j.after_linear(delta_power(md, 0.5))
    assert hs_norm(composed(x) - s(x)) <= 1e-12
    # S is an involution: S(S(X)) = X
    assert hs_norm(s(s(x)) - x) <= 1e-11


def test_flow_group_and_invariance():
    md = _random_faithful(6, 55)
    x = (1.0 / hs_norm(_random_op(6, 56))) * _random_op(6, 56)
    assert hs_norm(modular_flow(md, 0.0)(x) - x) <= 1e-14
    lhs = modular_flow(md, 0.3)(modular_flow(md, 0.4)(x))
    rhs = modular_flow(md, 0.7)(x)
    assert hs_norm(lhs - rhs) <= 1e-12
    assert abs(state_eval(md, modular_flow(md, 1.1)(x)) - state_eval(md, x)) <= 1e-12


@pytest.mark.parametrize("omega, beta", SPECS)
def test_flow_rotates_displacements(omega, beta):
    # sigma_t(D(z)) = D(e^(-i omega beta t) z), entrywise under truncation
    assert flow_rotation_deviation(omega, beta) <= TOL


def test_kms_trivial_and_diagonal():
    sp = FockSpace(6)
    md = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0))
    eye = identity(sp)
    assert kms_residual(md, eye, eye, 0.7) <= 1e-14
    d1 = Operator(sp, np.diag(np.arange(6.0)))
    d2 = Operator(sp, np.diag(np.arange(6.0) ** 2))
    assert kms_residual(md, d1, d2, 0.4) <= 1e-12


def test_kms_number_position():
    sp = FockSpace(10)
    md = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0))
    position = (annihilation(sp) + creation(sp)) * (1.0 / math.sqrt(2.0))  # Q = (a + a†)/sqrt(2)
    assert kms_residual(md, creation(sp) @ annihilation(sp), position, 0.5) <= 1e-10


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_kms_non_diagonal_density(seed):
    # the derived Hamiltonian -ln(rho)/beta of a non-diagonal density takes
    # the eigenvector path in the default Hamiltonian and in the energy
    # basis of kms_residual
    md = _random_faithful(6, seed)
    rho = md.rho.mat
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) > 1e-3
    a = _random_op(6, seed + 1)
    b = _random_op(6, seed + 2)
    a, b = (1.0 / hs_norm(a)) * a, (1.0 / hs_norm(b)) * b
    for t in (-1.0, -0.3, 0.0, 0.5, 1.2):
        assert kms_residual(md, a, b, t) <= 1e-10


def test_kms_rejects_mismatched_hamiltonian():
    sp = FockSpace(5)
    rho = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0)).rho
    with pytest.raises(ValueError, match="Gibbs state"):
        ModularData(rho, beta=1.0, hamiltonian=osc_hamiltonian(sp, 2.0))


_KMS_TIMES = (-1.0, -0.5, 0.0, 0.5, 1.0)


@pytest.mark.parametrize("offset", [-1e3, 0.0, 1e3])
def test_gibbs_pairing_is_offset_invariant(offset):
    # e^{-beta E} under- or overflows at |E| ~ 1e3; the check and the flow
    # use E - E_min, so H + c I is the same Gibbs pairing for every c
    sp = FockSpace(8)
    rho = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0)).rho
    md = ModularData(rho, beta=1.0, hamiltonian=osc_hamiltonian(sp, 1.0) + offset * identity(sp))
    a = _random_op(8, 41)
    b = _random_op(8, 42)
    a, b = (1.0 / hs_norm(a)) * a, (1.0 / hs_norm(b)) * b
    res = kms_residual(md, a, b, _KMS_TIMES)
    assert res.shape == (5,)
    assert np.all(np.isfinite(res)) and np.all(res <= 1e-10)


def test_gibbs_check_rejects_wrong_hamiltonian_at_large_offset():
    sp = FockSpace(8)
    rho = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0)).rho
    with pytest.raises(ValueError, match="Gibbs state"):
        ModularData(rho, beta=1.0, hamiltonian=osc_hamiltonian(sp, 2.0) + 1e3 * identity(sp))


def _expm_kms_residual(md, a, b, t):
    """|Tr[rho A e^{izH} B e^{-izH}] - Tr[rho e^{itH} B e^{-itH} A]| at
    z = t + i beta, with H rebuilt from the stored energies."""
    evecs = np.eye(md.space.dim) if md._ham_evecs is None else md._ham_evecs
    ham = (evecs * md._ham_evals) @ evecs.conj().T
    z = t + 1j * md.beta
    lhs = np.trace(md.rho.mat @ a.mat @ expm(1j * z * ham) @ b.mat @ expm(-1j * z * ham))
    rhs = np.trace(md.rho.mat @ expm(1j * t * ham) @ b.mat @ expm(-1j * t * ham) @ a.mat)
    return abs(lhs - rhs)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7), st.booleans(), st.sampled_from(["energies", "beta"]), st.integers(0, 2**32 - 1))
def test_kms_residual_matches_expm_reference_off_the_pairing(n, diagonal, broken, seed):
    # with the pairing broken after construction the residual is ~1e-3, not
    # rounding noise, so this checks the batched energy-basis formula itself
    if diagonal:
        md = ModularData.from_thermal(FockSpace(n), ThermalSpec(1.0, 0.6))
    else:
        md = _random_faithful(n, seed)
    if broken == "energies":
        md._ham_evals = md._ham_evals * 1.01
    else:
        md.beta = md.beta * 1.01
    a = _random_op(n, seed + 1)
    b = _random_op(n, seed + 2)
    a, b = (1.0 / hs_norm(a)) * a, (1.0 / hs_norm(b)) * b
    expected = [_expm_kms_residual(md, a, b, t) for t in _KMS_TIMES]
    assert min(expected) > 1e-6
    np.testing.assert_allclose(kms_residual(md, a, b, _KMS_TIMES), expected, rtol=1e-10, atol=0)


def test_state_eval():
    sp = FockSpace(6)
    spec = ThermalSpec(1.0, 0.8)
    md = ModularData.from_thermal(sp, spec)
    assert state_eval(md, identity(sp)) == pytest.approx(1.0, abs=1e-14)
    a = _random_op(6, 77)
    phi = md.sqrt_rho
    assert state_eval(md, a) == pytest.approx(np.vdot(phi.mat, vee(a, identity(sp))(phi).mat), abs=1e-13)
    lam0 = md.rho.mat[0, 0].real
    assert state_eval(md, basis_element(sp, 0, 0)) == pytest.approx(lam0, abs=1e-15)


def test_conjugated_left_algebra_lands_in_right():
    sp = FockSpace(3)
    j = modular_conjugation(sp)
    right = algebra_span(
        AlgebraGens(
            9,
            [
                vee(identity(sp), _random_op(3, 91)).to_dense(),
                vee(identity(sp), _random_op(3, 92)).to_dense(),
            ],
        )
    )
    # J (A v I) J computed densely by acting on the basis
    for seed in (93, 94):
        a = _random_op(3, seed)
        cols = np.empty((9, 9), dtype=complex)
        for k in range(9):
            e = np.zeros((3, 3), dtype=complex)
            e[divmod(k, 3)] = 1.0
            cols[:, k] = j(vee(a, identity(sp))(j(Operator(sp, e)))).mat.ravel()
        assert span_contains(right, cols)


def test_faithfulness_guard():
    sp = FockSpace(4)
    lam = np.array([0.5, 0.3, 0.2, 1e-16])
    lam /= lam.sum()
    with pytest.raises(ValueError, match="faithful"):
        ModularData(Operator(sp, np.diag(lam).astype(complex)), beta=1.0)


def test_density_validation():
    sp = FockSpace(3)
    with pytest.raises(ValueError, match="Hermitian"):
        ModularData(Operator(sp, np.array([[0.5, 1, 0], [0, 0.3, 0], [0, 0, 0.2]])), beta=1.0)
    with pytest.raises(ValueError, match="trace"):
        ModularData(Operator(sp, np.diag([0.5, 0.3, 0.3])), beta=1.0)
    with pytest.raises(ValueError):
        ModularData(Operator(sp, np.diag([0.5, 0.3, 0.2])), beta=-1.0)


def test_antilinear_map_scalar_rule():
    sp = FockSpace(3)
    m = AntilinearMap(sp, np.eye(3), np.eye(3))
    x = _random_op(3, 7)
    assert hs_norm(m((2 - 3j) * x) - np.conj(2 - 3j) * m(x)) <= 1e-13
