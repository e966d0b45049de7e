import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from hsqm import commutant
from hsqm.commutant import (
    AlgebraBasis,
    AlgebraGens,
    algebra_span,
    check_cyclic,
    check_separating,
    commutant_basis,
    intersection_dimension,
    is_factor,
    span_contains,
)
from hsqm.fock import FockSpace, annihilation, creation, identity
from hsqm.hs_space import vee


def _matrix_units(d):
    return [np.eye(d)[:, [i]] @ np.eye(d)[[j], :] for i in range(d) for j in range(d)]


def _left_right_spans(n):
    sp = FockSpace(n)
    eye = identity(sp)
    left = [vee(annihilation(sp), eye).to_dense(), vee(creation(sp), eye).to_dense()]
    right = [vee(eye, annihilation(sp)).to_dense(), vee(eye, creation(sp)).to_dense()]
    return (
        algebra_span(AlgebraGens(n * n, left)),
        algebra_span(AlgebraGens(n * n, right)),
    )


def test_span_scalars():
    assert algebra_span(AlgebraGens(4, [np.eye(4)])).size == 1


def test_span_full_matrix_units():
    alg = algebra_span(AlgebraGens(3, _matrix_units(3)))
    assert alg.size == 9


def test_span_generic_diagonal():
    alg = algebra_span(AlgebraGens(3, [np.diag([1.0, 2.0, 3.0])]))
    assert alg.size == 3


@pytest.mark.parametrize(
    "base, d",
    [(2, 9), (2, 10), (2, 11), (2, 12), (2, 13), (2, 20), (3, 11), (3, 15), (3, 20), (3, 22), (5, 14)],
)
def test_span_of_geometric_diagonal_is_diagonal(base, d):
    # one diagonal generator with distinct entries generates the diagonal
    # algebra, whatever the spread of its entries
    alg = algebra_span(AlgebraGens(d, [np.diag(float(base) ** np.arange(d))]))
    assert alg.size == d
    assert not is_factor(alg)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_span_closure_is_scale_free(scale):
    shift = np.eye(4, k=1)
    assert algebra_span(AlgebraGens(4, [scale * shift])).size == 16
    assert algebra_span(AlgebraGens(4, [scale * np.diag([1.0, 2.0, 3.0, 4.0])])).size == 4


def test_commutant_rejects_non_unital_span():
    # span{E_11} is a *-algebra without the identity; its twirl would
    # return span{E_11} instead of the commutant span{E_11, E_22}
    with pytest.raises(ValueError, match="identity"):
        commutant_basis(AlgebraBasis(2, [np.diag([1.0, 0.0])]))


def test_commutant_rejects_span_not_closed_under_adjoints():
    with pytest.raises(ValueError, match="adjoints"):
        commutant_basis(AlgebraBasis(2, [np.eye(2) / np.sqrt(2), np.eye(2, k=1)]))


def test_span_rejects_stack_without_rank_gap():
    # two eigenvalues 3e-11 apart: the commutator stack has a singular
    # value just under the rank cutoff, so the rank is not well defined
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = q @ np.diag([1.0, 1.0 + 3e-11, 2.0]) @ q.conj().T
    with pytest.raises(ValueError, match="rank gap"):
        algebra_span(AlgebraGens(3, [g]))


def test_span_rejects_generator_outside_result(monkeypatch):
    # a commutant solve that lost directions must not pass as the span
    monkeypatch.setattr(commutant, "commutant_basis", lambda alg: AlgebraBasis(alg.dim, [np.eye(alg.dim) / np.sqrt(alg.dim)]))
    with pytest.raises(ValueError, match="outside"):
        algebra_span(AlgebraGens(3, [np.diag([1.0, 2.0, 3.0])]))


def test_commutant_of_full_is_scalars():
    alg = algebra_span(AlgebraGens(3, _matrix_units(3)))
    comm = commutant_basis(alg)
    assert comm.size == 1
    assert span_contains(comm, np.eye(3) / np.sqrt(3))


def test_left_commutant_is_right():
    left, right = _left_right_spans(3)
    comm = commutant_basis(left)
    assert comm.size == 9
    assert all(span_contains(right, m) for m in comm.basis)
    # and symmetrically
    comm_r = commutant_basis(right)
    assert comm_r.size == 9
    assert all(span_contains(left, m) for m in comm_r.basis)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_right_duality_sizes(n):
    left, right = _left_right_spans(n)
    assert left.size == n * n and right.size == n * n
    assert commutant_basis(left).size == n * n
    assert commutant_basis(right).size == n * n
    assert is_factor(left) and is_factor(right)


def test_double_commutant_fixed_point():
    cases = [
        algebra_span(AlgebraGens(3, _matrix_units(3))),
        algebra_span(AlgebraGens(3, [np.diag([1.0, 2.0, 3.0])])),
        algebra_span(AlgebraGens(4, [np.diag([1.0, 1.0, 2.0, 3.0])])),
        _left_right_spans(2)[0],
    ]
    rng = np.random.default_rng(31)
    for d in (2, 3, 6):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        cases.append(algebra_span(AlgebraGens(d, [g])))
    for alg in cases:
        double = commutant_basis(commutant_basis(alg))
        assert double.size == alg.size
        assert all(span_contains(double, m) for m in alg.basis)
        assert all(span_contains(alg, m) for m in double.basis)


def test_is_factor():
    assert is_factor(algebra_span(AlgebraGens(3, _matrix_units(3))))
    diag = algebra_span(AlgebraGens(3, [np.diag([1.0, 2.0, 3.0])]))
    assert not is_factor(diag)
    assert intersection_dimension(diag, commutant_basis(diag)) == 3


def test_cyclic_separating_basics():
    full = algebra_span(AlgebraGens(3, _matrix_units(3)))
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    assert check_cyclic(full, phi)

    scalars = algebra_span(AlgebraGens(3, [np.eye(3)]))
    assert check_separating(scalars, np.array([1.0, 0.0, 0.0]))


def test_thermal_vector_cyclic_separating_for_left_algebra():
    left, _ = _left_right_spans(3)
    weights = np.array([0.5, 0.3, 0.2])
    phi = np.diag(np.sqrt(weights)).ravel()
    assert check_cyclic(left, phi)
    assert check_separating(left, phi)

    deficient = np.diag(np.sqrt([0.7, 0.3, 0.0])).ravel()
    assert not check_separating(left, deficient)


def test_full_weight_thermal_separating_n4():
    left, _ = _left_right_spans(4)
    w = np.exp(-0.9 * np.arange(4))
    w /= w.sum()
    phi = np.diag(np.sqrt(w)).ravel()
    assert check_separating(left, phi)


def test_cyclic_separating_duality_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        alg = algebra_span(AlgebraGens(d, [g]))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        assert check_separating(alg, phi) == check_cyclic(commutant_basis(alg), phi)


def _gaussian(rng, shape, real):
    x = rng.standard_normal(shape)
    return x if real else x + 1j * rng.standard_normal(shape)


def _rotated_block_algebra(blocks, seed, real=False):
    """Two random generators of Q (⊕ M_{n_i} ⊗ I_{m_i}) Q†, Q a random
    complex unitary (real orthogonal, with real blocks, if ``real``)."""
    rng = np.random.default_rng(seed)
    d = sum(n * m for n, m in blocks)
    q, _ = np.linalg.qr(_gaussian(rng, (d, d), real))
    gens = []
    for _ in range(2):
        parts = [np.kron(_gaussian(rng, (n, n), real), np.eye(m)) for n, m in blocks]
        gens.append(q @ block_diag(*parts) @ q.conj().T)
    return AlgebraGens(d, gens)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3).filter(
        lambda blocks: 2 <= sum(n * m for n, m in blocks) <= 12
    ),
    st.integers(0, 2**32 - 1),
)
def test_commutant_of_rotated_block_algebra(blocks, seed):
    # exact oracle: dim A = sum n_i^2, dim A' = sum m_i^2, A'' = A, and A
    # is a factor iff it has one block
    alg = algebra_span(_rotated_block_algebra(blocks, seed))
    comm = commutant_basis(alg)
    assert alg.size == sum(n * n for n, _ in blocks)
    assert comm.size == sum(m * m for _, m in blocks)
    for x in comm.basis:
        for g in alg.basis:
            assert np.linalg.norm(x @ g - g @ x) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(g)
    double = commutant_basis(comm)
    assert double.size == alg.size
    assert intersection_dimension(double, alg) == alg.size
    assert is_factor(alg) == (len(blocks) == 1)


def _projector(alg):
    rows = np.vstack([m.ravel()[None, :] for m in alg.basis])
    return rows.T @ rows.conj()


@pytest.mark.parametrize("blocks", [((2, 1), (1, 2)), ((2, 2),), ((1, 1), (1, 1), (2, 1))])
def test_intersection_and_containment_match_projector_reference(blocks):
    # reference: eigenvalues of P_a P_b P_a near 1, and the projection as a
    # sum over basis elements
    alg = algebra_span(_rotated_block_algebra(blocks, 11))
    comm = commutant_basis(alg)
    pa, pc = _projector(alg), _projector(comm)
    assert intersection_dimension(alg, comm) == int(np.sum(np.linalg.eigvalsh(pa @ pc @ pa) > 0.5))
    rng = np.random.default_rng(12)
    d = alg.dim
    for mat in [*comm.basis, rng.standard_normal((d, d)), np.eye(d)]:
        v = mat.ravel()
        reference = np.linalg.norm(v - pa @ v) <= 1e-10 * max(np.linalg.norm(v), 1.0)
        assert span_contains(alg, mat) == reference


_block_structures = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3).filter(
    lambda blocks: 2 <= sum(n * m for n, m in blocks) <= 10
)


@settings(max_examples=25, deadline=None)
@given(_block_structures, st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
def test_real_algebra_matches_its_complex_phase(blocks, seed, theta):
    # the same generators times a unit phase generate the same algebra, on
    # the complex path; span, commutant and double commutant must agree
    real = _rotated_block_algebra(blocks, seed, real=True)
    phased = AlgebraGens(real.dim, [np.exp(1j * theta) * g for g in real.generators])
    algs = []
    for gens in (real, phased):
        alg = algebra_span(gens)
        comm = commutant_basis(alg)
        algs.append((alg, comm, commutant_basis(comm)))
    assert [a.basis.dtype for a in algs[0]] == [np.float64] * 3
    assert [a.basis.dtype for a in algs[1]] == [np.complex128] * 3
    for a, b in zip(*algs):
        assert a.size == b.size
        assert np.max(np.abs(_projector(a) - _projector(b))) <= 1e-12


def _ladder_generator():
    sp = FockSpace(3)
    return vee(annihilation(sp), identity(sp)).to_dense()


@pytest.mark.parametrize(
    "gens, dtype",
    [
        ([np.diag([1.0, 2.0, 3.0]), np.eye(3, k=1)], np.float64),
        ([np.arange(9).reshape(3, 3)], np.float64),
        ([np.eye(3, k=1).astype(complex), np.diag([1.0, 2.0, 3.0])], np.float64),
        ([_ladder_generator()], np.float64),
        ([np.diag([1.0, 2.0, 3.0]), np.eye(3, k=1) + 1e-3j * np.eye(3, k=-1)], np.complex128),
        ([1j * np.diag([1.0, 2.0, 3.0])], np.complex128),
    ],
    ids=["real", "integer", "zero-imag-complex", "to-dense", "complex", "imaginary"],
)
def test_field_follows_the_generators(gens, dtype):
    # real, integer and zero-imaginary complex generators stay in float64;
    # any nonzero imaginary part makes the whole lab complex
    alg = algebra_span(AlgebraGens(len(gens[0]), gens))
    comm = commutant_basis(alg)
    assert {g.dtype for g in AlgebraGens(len(gens[0]), gens).generators} == {np.dtype(dtype)}
    assert alg.basis.dtype == comm.basis.dtype == commutant_basis(comm).basis.dtype == dtype


def test_commutant_is_solved_once(monkeypatch):
    alg = algebra_span(_rotated_block_algebra(((2, 1), (1, 2)), 4))
    comm = commutant_basis(alg)
    assert commutant_basis(alg) is comm
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    assert not is_factor(alg)
    assert calls == []
    # the double commutant is solved from A', never taken to be A
    assert commutant_basis(comm) is not alg and len(calls) == 1


def test_basis_is_frozen():
    source = np.array([np.eye(2) / np.sqrt(2)])
    alg = AlgebraBasis(2, source)
    comm = commutant_basis(alg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.basis = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match="read-only"):
        alg.basis[0, 0, 0] = 0.0
    # the basis is a copy: the caller's array stays writable and detached
    source[0, 0, 1] = 1.0
    assert np.array_equal(alg.basis[0], np.eye(2) / np.sqrt(2))
    assert commutant_basis(alg) is comm and comm.size == 4
