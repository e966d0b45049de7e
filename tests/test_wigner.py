import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm import cli
from hsqm.fock import (
    FockSpace,
    Operator,
    ThermalSpec,
    displacement_stack,
    gibbs_density,
    identity,
    osc_hamiltonian,
)
from hsqm.hs_space import basis_element, hs_norm, vee
from hsqm.quadrature import QuadratureScheme
from hsqm.wigner import _z_of_xy, wigner_function, wigner_inverse
from block_oracle import ring_gram


def _weyl(sp, x, y):
    """The matrix of U(x, y) = D((y - ix)/sqrt(2))."""
    return displacement_stack(sp, [_z_of_xy(x, y)])[0]


def test_weyl_at_origin():
    sp = FockSpace(10)
    assert np.allclose(_weyl(sp, 0.0, 0.0), np.eye(10))


def test_weyl_vacuum_element():
    sp = FockSpace(16)
    assert _weyl(sp, 1.0, 0.0)[0, 0] == pytest.approx(math.exp(-0.25), abs=1e-14)
    assert _weyl(sp, 0.7, -1.1)[0, 0] == pytest.approx(math.exp(-(0.7**2 + 1.1**2) / 4.0), abs=1e-14)


def test_weyl_adjoint_is_reflection():
    sp = FockSpace(14)
    x, y = 0.8, -0.5
    u, v = _weyl(sp, x, y), _weyl(sp, -x, -y)
    half = sp.dim // 2
    assert np.max(np.abs((u.conj().T - v)[:half, :half])) <= 1e-12


def test_weyl_composition_phase():
    sp = FockSpace(24)
    a1, a2 = _z_of_xy(0.5, 0.2), _z_of_xy(-0.3, 0.6)
    phase = np.exp(1j * (a1 * np.conj(a2)).imag)
    d1, d2, d12 = displacement_stack(sp, [a1, a2, a1 + a2])
    prod = d1 @ d2
    target = phase * d12
    half = sp.dim // 2
    assert np.max(np.abs((prod - target)[:half, :half])) <= 1e-10
    assert abs(abs(phase) - 1.0) <= 1e-15


def test_transform_of_vacuum_projector():
    sp = FockSpace(12)
    x00 = basis_element(sp, 0, 0)
    assert wigner_function(x00)(0.0, 0.0) == pytest.approx((2 * math.pi) ** -0.5, abs=1e-14)
    for x, y in ((1.0, 0.0), (0.4, -0.9)):
        expect = (2 * math.pi) ** -0.5 * math.exp(-(x**2 + y**2) / 4.0)
        assert wigner_function(x00)(x, y) == pytest.approx(expect, abs=1e-13)


def test_transform_matches_displacement_entries():
    sp = FockSpace(20)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x, y = rng.uniform(-1.5, 1.5, 2)
        x, y = float(x), float(y)
        d = _weyl(sp, x, y)
        n, l = rng.integers(0, 8, 2)
        got = wigner_function(basis_element(sp, int(n), int(l)))(x, y)
        expect = np.conj(d[n, l]) / math.sqrt(2 * math.pi)
        assert got == pytest.approx(expect, abs=1e-13)


def _stack_transform(x, xs, ys):
    """W X at the points through full displacement matrices."""
    zs = (np.asarray(ys) - 1j * np.asarray(xs)) / math.sqrt(2.0)
    stack = displacement_stack(x.space, zs)
    return np.einsum("kmn,mn->k", stack.conj(), x.mat) / math.sqrt(2.0 * math.pi)


def _disc_points(rng, n_levels, count):
    radius = math.sqrt(n_levels) / 4.0 * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(0.0, 2.0 * math.pi, count)
    return radius * np.cos(angle), radius * np.sin(angle)


def test_support_transform_of_matrix_units_is_exact():
    # one entry of the closed form per point: the same bits as the full
    # displacement matrices give
    rng = np.random.default_rng(31)
    for n_levels in (2, 7, 16):
        sp = FockSpace(n_levels)
        xs, ys = _disc_points(rng, n_levels, 40)
        xs[0] = ys[0] = 0.0
        for n in range(n_levels):
            for l in range(n_levels):
                x = basis_element(sp, n, l)
                assert np.array_equal(wigner_function(x)(xs, ys), _stack_transform(x, xs, ys))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_support_transform_of_sparse_operator(n_levels, density, seed):
    rng = np.random.default_rng(seed)
    sp = FockSpace(n_levels)
    keep = rng.uniform(size=(n_levels, n_levels)) < density
    mat = np.where(keep, rng.uniform(-1, 1, keep.shape) + 1j * rng.uniform(-1, 1, keep.shape), 0.0)
    x = Operator(sp, mat)
    xs, ys = _disc_points(rng, n_levels, 25)
    assert np.max(np.abs(wigner_function(x)(xs, ys) - _stack_transform(x, xs, ys))) <= 1e-14


def test_support_transform_of_dense_operator():
    sp = FockSpace(24)
    rng = np.random.default_rng(37)
    mat = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    x = Operator(sp, mat / np.linalg.norm(mat))
    xs, ys = QuadratureScheme(24).xy_nodes()
    assert np.max(np.abs(wigner_function(x)(xs, ys) - _stack_transform(x, xs, ys))) <= 1e-14


def test_support_transform_shapes():
    sp = FockSpace(6)
    zero = wigner_function(Operator(sp, np.zeros((6, 6))))
    xs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    vals = zero(xs, -xs)
    assert vals.shape == (3, 4) and np.all(vals == 0)
    assert np.ndim(zero(0.5, -0.2)) == 0 and zero(0.5, -0.2) == 0
    one = wigner_function(basis_element(sp, 2, 1))(0.3, -0.4)
    assert np.ndim(one) == 0
    assert one == _stack_transform(basis_element(sp, 2, 1), [0.3], [-0.4])[0]


def test_round_trips():
    sp = FockSpace(24)
    scheme = QuadratureScheme(24)
    for n, l in ((0, 0), (1, 2)):
        x = basis_element(sp, n, l)
        back = wigner_inverse(wigner_function(x), scheme, sp)
        assert hs_norm(back - x) <= 1e-6

    zero = wigner_inverse(lambda xs, ys: np.zeros_like(np.asarray(xs), dtype=complex), scheme, sp)
    assert hs_norm(zero) == 0.0


def test_inverse_rejects_scalar_only_function():
    # phase functions are evaluated on the whole node grid at once; one
    # scalar back for the grid is an error, not a value to broadcast
    with pytest.raises(ValueError):
        wigner_inverse(lambda xs, ys: 1.0, QuadratureScheme(8), FockSpace(8))


def test_round_trip_mixed_operator():
    sp = FockSpace(24)
    scheme = QuadratureScheme(24)
    rng = np.random.default_rng(23)
    low = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = np.zeros((24, 24), dtype=complex)
    mat[:6, :6] = low
    x = Operator(sp, mat)
    back = wigner_inverse(wigner_function(x), scheme, sp)
    assert hs_norm(back - x) <= 1e-6 * hs_norm(x)


def _unitarity_residual(n_levels, scheme, ab, cd):
    """| integral conj(W X) (W Y) dx dy - Tr[X† Y] | for X = |a><b| and
    Y = |c><d|: the deviation of one entry of the Gram matrix of the
    Wigner images (the matrix ``hsqm wigner`` checks) from the identity."""
    gram = ring_gram(scheme, scheme._radial_stack(FockSpace(n_levels)))
    (a, b), (c, d) = ab, cd
    return abs(gram[a * n_levels + b, c * n_levels + d] - float(ab == cd))


def test_unitarity_residuals():
    scheme = QuadratureScheme(24)
    assert _unitarity_residual(24, scheme, (0, 0), (0, 0)) <= 1e-8
    assert _unitarity_residual(24, scheme, (0, 1), (1, 0)) <= 1e-8
    assert _unitarity_residual(32, QuadratureScheme(32), (5, 5), (5, 5)) <= 1e-6


@pytest.mark.parametrize("n", [6, 10, 16, 24])
def test_unitarity_row_matches_full_gram(n, tmp_path):
    # hsqm wigner checks the N/2 Gram one charge at a time; the full ring
    # Gram is the oracle.  An entry is one R-term sum with positive ring
    # weights, so two summation orders differ by at most R eps max diag(G)
    out = tmp_path / "out.csv"
    assert cli.main(["wigner", "--N", str(n), "--out", str(out)]) == 0
    rows = csv.DictReader(out.read_text().splitlines())
    printed = next(float(r["value"]) for r in rows if r["name"] == "unitarity_gram_max_dev")
    scheme = QuadratureScheme(n)
    gram = ring_gram(scheme, scheme._radial_stack(FockSpace(n // 2)))
    full = np.max(np.abs(gram - np.eye((n // 2) ** 2)))
    assert abs(printed - full) <= len(scheme.radial_nodes) * np.finfo(float).eps * np.max(np.diag(gram))


def test_lifted_expansion_coefficients():
    # displaced purification coefficients match the scaled conjugate
    # transform values of the basis elements
    sp = FockSpace(20)
    spec = ThermalSpec(1.0, 1.0)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    x, y = 0.6, 0.3
    moved = _weyl(sp, x, y) * np.sqrt(lam)  # D(z) Phi_beta, Phi_beta = diag(sqrt(lambda))
    for j, i in ((0, 0), (2, 1), (4, 3)):
        coeff = moved[j, i]  # <|j><i| | D(z) Phi_beta>
        pred = math.sqrt(2 * math.pi) * math.sqrt(lam[i]) * np.conj(
            wigner_function(basis_element(sp, j, i))(x, y)
        )
        assert coeff == pytest.approx(pred, abs=1e-8)


def test_oscillator_eigenrelation_in_operator_picture():
    sp = FockSpace(9)
    h = osc_hamiltonian(sp, 1.3)
    left = vee(h, identity(sp))
    right = vee(identity(sp), h)
    for n, l in ((0, 0), (3, 1), (5, 7)):
        x = basis_element(sp, n, l)
        assert hs_norm(left(x) - 1.3 * (n + 0.5) * x) <= 1e-13
        assert hs_norm(right(x) - 1.3 * (l + 0.5) * x) <= 1e-13


def test_pairwise_unitarity():
    # the full Gram matrix is assembled in the acceptance suite; spot
    # check a few pairs here
    scheme = QuadratureScheme(12)
    for ab, cd in (((0, 0), (0, 0)), ((1, 2), (1, 2)), ((2, 1), (3, 0)), ((4, 4), (0, 0))):
        assert _unitarity_residual(12, scheme, ab, cd) <= 1e-8
