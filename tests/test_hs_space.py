import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm.fock import FockSpace, Operator, annihilation, creation, identity
from hsqm.hs_space import (
    SuperOp,
    basis_element,
    hs_norm,
    vee,
)


def _random_op(space, rng):
    n = space.dim
    return Operator(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_basis_element():
    sp = FockSpace(5)
    e = basis_element(sp, 0, 0).mat
    assert e[0, 0] == 1 and np.count_nonzero(e) == 1
    for n in range(5):
        for l in range(5):
            assert hs_norm(basis_element(sp, n, l)) == 1.0
    with pytest.raises(IndexError):
        basis_element(sp, 5, 0)


def test_basis_completeness_and_gram():
    sp = FockSpace(3)
    total = np.zeros((9, 9), dtype=complex)
    for n in range(3):
        for l in range(3):
            v = basis_element(sp, n, l).mat.ravel()
            total += np.outer(v, v.conj())
    assert np.allclose(total, np.eye(9))

    gram = np.array(
        [
            [np.vdot(basis_element(sp, a, b).mat, basis_element(sp, c, d).mat) for c in range(3) for d in range(3)]
            for a in range(3)
            for b in range(3)
        ]
    )
    assert np.array_equal(gram, np.eye(9))


def test_vectorization_convention():
    sp = FockSpace(4)
    v = basis_element(sp, 2, 1).mat.ravel()
    assert v[2 * 4 + 1] == 1 and np.count_nonzero(v) == 1


def test_vee_identity_and_laws():
    sp = FockSpace(4)
    rng = np.random.default_rng(11)
    x = _random_op(sp, rng)
    assert hs_norm(vee(identity(sp), identity(sp))(x) - x) == 0

    a, b = _random_op(sp, rng), _random_op(sp, rng)
    # adjoint law (A ∨ B)* = A† ∨ B† against the inner-product definition
    y = _random_op(sp, rng)
    lhs = np.vdot(x.mat, vee(a, b)(y).mat)
    rhs = np.vdot(vee(a.dag(), b.dag())(x).mat, y.mat)
    assert lhs == pytest.approx(rhs, abs=1e-12)

    # product law (A ∨ B)(A2 ∨ B2) = (A A2) ∨ (B B2)
    a2, b2 = _random_op(sp, rng), _random_op(sp, rng)
    composed = vee(a, b)(vee(a2, b2)(x))
    product = vee(a @ a2, b @ b2)(x)
    assert hs_norm(composed - product) <= 1e-13 * hs_norm(product)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_dense_form_of_sums_products_and_adjoints(seed, n):
    # the factors of a product (A1 A2, B1 B2) and of an adjoint (A†, B†)
    # give the product and conjugate transpose of the dense forms, and
    # the dense forms of two sandwiches add as their images do
    sp = FockSpace(n)
    rng = np.random.default_rng(seed)
    (a1, b1), (a2, b2) = ((_random_op(sp, rng).mat, _random_op(sp, rng).mat) for _ in range(2))
    d1, d2 = (vee(Operator(sp, a), Operator(sp, b)).to_dense() for a, b in ((a1, b1), (a2, b2)))
    cases = [
        (SuperOp(sp, a1 @ a2, b1 @ b2), d1 @ d2),
        (SuperOp(sp, a1.conj().T, b1.conj().T), d1.conj().T),
        (SuperOp(sp, (a1 @ a2).conj().T, (b1 @ b2).conj().T), (d1 @ d2).conj().T),
    ]
    x = _random_op(sp, rng)
    for sup, dense in cases:
        got = sup.to_dense()
        assert got.shape == (n * n, n * n)
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
        image = sup(x).mat.ravel()
        assert np.max(np.abs(got @ x.mat.ravel() - image)) <= 1e-13 * np.max(np.abs(image))
    image = (SuperOp(sp, a1, b1)(x) + SuperOp(sp, a2, b2)(x)).mat.ravel()
    assert np.max(np.abs((d1 + d2) @ x.mat.ravel() - image)) <= 1e-13 * np.max(np.abs(image))


def test_left_right_actions_commute():
    sp = FockSpace(4)
    rng = np.random.default_rng(9)
    a = annihilation(sp)
    b = _random_op(sp, rng)
    x = _random_op(sp, rng)
    # left multiplication by A is A ∨ I, right multiplication by B is I ∨ B†
    left, right = vee(a, identity(sp)), vee(identity(sp), b.dag())
    lhs = left(right(x))
    rhs = right(left(x))
    assert hs_norm(lhs - rhs) <= 1e-13 * max(hs_norm(lhs), 1)
    assert np.max(np.abs(lhs.mat - a.mat @ x.mat @ b.mat)) <= 1e-13 * max(hs_norm(lhs), 1)

    dense_comm = left.to_dense() @ right.to_dense() - right.to_dense() @ left.to_dense()
    assert np.max(np.abs(dense_comm)) <= 1e-13


def test_ladder_actions_on_rank_one():
    sp = FockSpace(6)
    a = annihilation(sp)
    # left lowering of the ket index
    out = vee(a, identity(sp))(basis_element(sp, 3, 2))
    assert out.mat[2, 2] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(out.mat) == 1
    # right action X -> X a = (I ∨ a†)(X) raises the bra index with sqrt(n+1)
    out = vee(identity(sp), a.dag())(basis_element(sp, 3, 2))
    assert out.mat[3, 3] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(out.mat) == 1


def test_hs_norm_cases():
    sp = FockSpace(4)
    assert hs_norm(basis_element(sp, 1, 3)) == 1.0
    assert hs_norm(2.0 * basis_element(sp, 0, 0)) == 2.0
    rng = np.random.default_rng(4)
    x = _random_op(sp, rng)
    assert hs_norm(x) == pytest.approx(math.sqrt(np.sum(np.abs(x.mat) ** 2)), rel=1e-14)


def test_superop_validation():
    sp = FockSpace(3)
    with pytest.raises(ValueError):
        SuperOp(sp, np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        vee(identity(FockSpace(3)), identity(FockSpace(4)))
