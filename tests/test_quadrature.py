import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement_stack, gibbs_density
from hsqm.hs_space import basis_element
from hsqm.landau import LandauParams, husimi_trace_residual, project_hol, tensor_resolution_residual
from hsqm.quadrature import QuadratureScheme, _laguerre_rule
from hsqm.thermal import frame_operator_residual, resolution_operator, resolution_residual
from hsqm.wigner import wigner_function, wigner_inverse
from block_oracle import block_indices, dense_block, ring_gram
from node_weights import folded, grid, node_weights


def test_validation():
    with pytest.raises(ValueError, match="needs N >= 1"):
        QuadratureScheme(0)
    with pytest.raises(ValueError, match="needs N >= 1"):
        QuadratureScheme(-4)


@pytest.mark.parametrize("sizes", [(4.5,), (8.0,), (8.5,), ("8",), (None,)])
def test_non_integral_sizes_are_rejected(sizes):
    # the one size of the rule is the truncation N
    with pytest.raises(ValueError, match="must be an integer"):
        QuadratureScheme(*sizes)


def test_numpy_integer_sizes():
    for n_levels in (np.int64(8), np.int32(8)):
        q = QuadratureScheme(n_levels)
        assert type(q.n_levels) is int and q.n_levels == 8
        assert type(q.angular_count) is int and q.angular_count == 33
        assert q.z_nodes.size == 16 * 33 and q.ring_weights.size == 16
        assert np.array_equal(q.ring_weights, QuadratureScheme(8).ring_weights)


def test_defaults_and_adequacy():
    # 2N rings and 4N+1 angles: no two charges of the first N levels alias
    q = QuadratureScheme(10)
    assert q.n_levels == 10
    assert len(q.radial_nodes) == 20
    assert q.angular_count == 41
    # the radial rule reaches the 2N rings up to N = 268
    assert len(QuadratureScheme(268).radial_nodes) == 536
    with pytest.raises(ValueError, match="radial rule is limited"):
        QuadratureScheme(269)


def test_plane_gaussian():
    q = QuadratureScheme(8)
    vals = np.exp(-np.abs(q.z_nodes) ** 2)  # e^{-(x^2+y^2)/2}
    assert np.sum(node_weights(q) * vals) == pytest.approx(2 * math.pi, rel=1e-13)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_radial_moments(k):
    # integral over the plane of t^k e^{-t} dt dphi = 2 pi k!, on the R = 12 rule
    t, ring = _laguerre_rule(12)
    got = 2 * math.pi * np.sum(ring * t**k * np.exp(-t))
    assert got == pytest.approx(2 * math.pi * math.factorial(k), rel=1e-12)


@pytest.mark.parametrize("radial, rtol", [(12, 1e-13), (32, 1e-13), (64, 1e-13), (128, 1e-13), (200, 1e-12)])
def test_rule_matches_50_digit_table(radial, rtol):
    # tests/reference/make_tables.py; scipy's own ring weights miss 1e-13
    # from R = 32 and underflow to 0 at R = 200
    table = json.loads((Path(__file__).parent / "reference" / "laguerre_rule.json").read_text())[str(radial)]
    t, ring = _laguerre_rule(radial)
    assert np.allclose(t, np.array(table["nodes"], dtype=float), rtol=rtol, atol=0.0)
    assert np.allclose(ring, np.array(table["ring_weights"], dtype=float), rtol=rtol, atol=0.0)


def test_rule_at_r512():
    t, ring = _laguerre_rule(512)
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(ring)) and np.all(ring > 0)
    # integral of t^2 e^-t dt = 2; e^-t underflows on the outer rings
    assert np.sum(ring * np.exp(-t) * t**2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError, match="radial rule is limited"):
        _laguerre_rule(600)


def test_angular_exactness():
    q = QuadratureScheme(3)  # 6 rings of 13 angles
    t = np.abs(q.z_nodes) ** 2
    base = np.exp(-t)
    for k in range(1, 13):
        phase = (q.z_nodes / np.abs(q.z_nodes)) ** k
        assert abs(np.sum(node_weights(q) * base * phase)) <= 1e-12


def test_xy_convention():
    q = QuadratureScheme(4)
    x, y = q.xy_nodes()
    z = (y - 1j * x) / math.sqrt(2)
    assert np.allclose(z, q.z_nodes)


def test_radial_stack_is_kept_and_read_by_smaller_spaces():
    # each entry is the untruncated matrix element, so the top-left block
    # of the kept stack is the stack a smaller space builds, to the bit
    scheme = QuadratureScheme(16)
    kept = scheme._radial_stack(FockSpace(16))
    assert not kept.flags.writeable
    for n in (2, 5, 8, 16):
        block = scheme._radial_stack(FockSpace(n))
        assert np.shares_memory(block, kept)
        assert np.array_equal(block, QuadratureScheme(16)._radial_stack(FockSpace(n)))


def test_charge_diagonals_are_the_stack_magnitudes():
    # the magnitudes on the diagonals m - n = +-k of the radial matrices, to
    # the bit, with the (-1)^k sign of the m < n side; 0 past the matrix
    scheme = QuadratureScheme(12)
    for n, count in ((12, 12), (9, 4), (6, 1)):
        stack = scheme._radial_stack(FockSpace(n))
        diagonals = scheme._charge_diagonals(FockSpace(n), count)
        assert diagonals.shape == (count, n, len(scheme.radial_nodes))
        for k in range(count):
            p = np.arange(n - k)
            below = stack[:, p + k, p].T
            assert np.array_equal(diagonals[k, : n - k], below)
            assert np.array_equal(stack[:, p, p + k].T, (-1.0) ** k * below)
            assert not diagonals[k, n - k :].any()


SPACE_CALLS = {
    "resolution_operator": lambda sp, q: resolution_operator(sp, ThermalSpec(1.0, 1.0), q)[0],
    "tensor_resolution_residual": tensor_resolution_residual,
    "wigner_inverse": lambda sp, q: wigner_inverse(wigner_function(basis_element(sp, 0, 0)), q, sp).mat,
}


@pytest.mark.parametrize("call", SPACE_CALLS.values(), ids=SPACE_CALLS.keys())
def test_space_larger_than_the_rule_raises(call):
    # the rule for N = 8 covers spaces of up to 8 levels and no more
    q = QuadratureScheme(8)
    assert np.all(np.isfinite(call(FockSpace(8), q)))
    with pytest.raises(ValueError, match="a space of 9 levels exceeds the quadrature rule for N = 8"):
        call(FockSpace(9), q)


# -- polar path against brute force ------------------------------------------
#
# ring_gram (the full frame, an oracle for resolution_operator's block
# columns and for the per-charge Gram of the Wigner images that the
# unitarity contract reads) and wigner_inverse build their node sums from
# R radial matrices and the equal-charge rule; the references below sum
# over all K = R*A' node matrices directly, on the 2N rings of the rule
# for N, odd N too.  A' = 4N+1 is the rule's own grid; the coarser
# A' < 2N - 1, odd and even, fold charges that differ by a multiple of A'
# (the mirror's sign (-1)^(c - c') too at c - c' = +-A').  On those grids
# every pair of charges that is not folded, and every pair of equal
# charges, must still give the library's value.


def _polar_cases():
    for n in (4, 5, 6, 8):
        yield n, 2 * n, 4 * n + 1
        for count in (3, 4, 5, 8):
            if count < 2 * n - 1:
                yield n, 2 * n, count


POLAR_CASES = list(_polar_cases())


def _random_operator(sp, seed):
    rng = np.random.default_rng(seed)
    n = sp.dim
    return Operator(sp, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _node_sum_by_frequency(stack, weights, terms, angular):
    """(1/sqrt(2pi)) sum_k w_k g(z_k) D(z_k) over the (q, g) in ``terms``,
    g of the one angular frequency q: each term kept on the diagonal
    m - n = -q, where its node sum is exact on every grid.  On every
    diagonal that the A' angles separate from -q the term must vanish."""
    n = stack.shape[1]
    charge = np.subtract.outer(np.arange(n), np.arange(n))
    total = np.zeros((n, n), dtype=complex)
    for q, values in terms:
        part = np.einsum("k,kmn->mn", weights * values, stack) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(part[(charge + q) % angular != 0]), initial=0.0) <= 1e-13
        total += np.where(charge == -q, part, 0.0)
    return total


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
@pytest.mark.parametrize("mirrored", [False, True])
def test_resolution_operator_matches_node_sum(n, radial, angular, mirrored):
    # the mirrored family |-z> summed over the nodes -z is the family's
    # frame G conjugated by the charge sign S = (-1)^(m-n): S G S.  The
    # full G from the radial states is the oracle; the library assembles
    # its columns block_indices(sp) alone.  Both match the node sum on
    # every entry but the folded pairs, which are far from 0
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme, z, w = grid(n, radial, angular)
    sqrt_lam = np.sqrt(np.diag(gibbs_density(sp, spec).mat).real)
    stack = displacement_stack(sp, -z if mirrored else z)
    vecs = (stack * sqrt_lam).reshape(len(z), n * n)
    reference = (vecs.T * (w / (2 * math.pi))) @ vecs.conj()
    fold = folded(np.subtract.outer(np.arange(n), np.arange(n)).ravel(), angular)
    assert fold.any() == (angular < 2 * n - 1)
    if fold.any():
        assert np.max(np.abs(reference[fold])) >= 1e-3
    reference[fold] = 0.0
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n)).ravel() if mirrored else np.ones(n * n)
    got = sign[:, None] * ring_gram(scheme, scheme._radial_stack(sp) * sqrt_lam) * sign
    assert np.max(np.abs(got - reference)) <= 1e-13
    cols = block_indices(sp)
    block = sign[:, None] * dense_block(sp, spec, scheme) * sign[cols]
    assert np.max(np.abs(block - reference[:, cols])) <= 1e-13


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
def test_wigner_inverse_matches_node_sum(n, radial, angular):
    # f has the angular frequencies -2..2, split off by 5 rotations; a
    # W-image of charge c alone has the frequency -c
    sp = FockSpace(n)
    scheme, z, w = grid(n, radial, angular)
    stack = displacement_stack(sp, z)

    def f(xs, ys):  # every angular frequency, not a W-image
        return np.exp(-(xs**2 + ys**2) / 3.0) * (xs + 1j * ys**2 + 0.5)

    def f_at(nodes):
        return f(-math.sqrt(2.0) * nodes.imag, math.sqrt(2.0) * nodes.real)

    turns = np.exp(2j * math.pi * np.arange(5) / 5)
    parts = [(q, sum(f_at(z * u) * u ** (-q) for u in turns) / 5) for q in range(-2, 3)]
    assert np.max(np.abs(sum(g for _, g in parts) - f_at(z))) <= 1e-13
    reference = _node_sum_by_frequency(stack, w, parts, angular)
    assert np.max(np.abs(wigner_inverse(f, scheme, sp).mat - reference)) <= 1e-13

    x = _random_operator(sp, n)
    charge = np.subtract.outer(np.arange(n), np.arange(n))
    images = [
        (-c, np.einsum("kmn,mn->k", stack.conj(), np.where(charge == c, x.mat, 0.0)) / math.sqrt(2 * math.pi))
        for c in range(1 - n, n)
    ]
    reference = _node_sum_by_frequency(stack, w, images, angular)
    assert np.max(np.abs(wigner_inverse(wigner_function(x), scheme, sp).mat - reference)) <= 1e-13


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
def test_unitarity_residual_matches_node_sum(n, radial, angular):
    # the node-sum inner product of the W-images of x and y, charge class
    # by charge class: pairs of unequal charges that the grid separates
    # vanish, and the equal-charge pairs sum to the library's Gram
    sp = FockSpace(n)
    scheme, z, w = grid(n, radial, angular)
    stack = displacement_stack(sp, z)
    x, y = _random_operator(sp, 2 * n), _random_operator(sp, 2 * n + 1)
    charges = np.arange(1 - n, n)
    charge = np.subtract.outer(np.arange(n), np.arange(n))

    def images(op):
        parts = [np.einsum("kmn,mn->k", stack.conj(), np.where(charge == c, op.mat, 0.0)) for c in charges]
        return np.array(parts) / math.sqrt(2 * math.pi)

    pairs = (images(x).conj() * w) @ images(y).T
    separated = ~folded(charges, angular) & ~np.eye(charges.size, dtype=bool)
    assert np.max(np.abs(pairs[separated])) <= 1e-13
    inner = np.vdot(x.mat, y.mat)
    reference = abs(np.trace(pairs) - inner)
    gram = ring_gram(scheme, scheme._radial_stack(sp))
    assert abs(abs(x.mat.ravel().conj() @ gram @ y.mat.ravel() - inner) - reference) <= 1e-13


# -- every rule the library accepts gives a finite number --------------------
#
# The CLI integrates a space of N levels on QuadratureScheme(N); a larger
# rule covers a smaller space too.  The calls behind each phase-plane
# subcommand are checked on both, warnings as errors.

_PARAMS, _SPEC = LandauParams(1.0, 1.0, 2.0, 0.1), ThermalSpec(1.0, 1.0)
SCHEME_CALLS = {
    "husimi": lambda sp, q: [husimi_trace_residual(_PARAMS, 1.0, q)],
    "resolution": lambda sp, q: [
        resolution_residual(sp, _SPEC, q), frame_operator_residual(sp, _SPEC, q), tensor_resolution_residual(sp, q)
    ],
    "wigner": lambda sp, q: wigner_inverse(wigner_function(basis_element(sp, 1, 2)), q, sp).mat,
    "kernel": lambda sp, q: [project_hol(lambda w: w**3, q, 0.7 - 0.3j)],
}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SCHEME_CALLS)), st.integers(4, 12), st.data())
def test_generated_scheme_reports_or_rejects(command, n, data):
    # the calls of ``command`` on the rule for a drawn N >= n report finite
    # values, or the rule is rejected with the radial rule's ValueError
    levels = data.draw(st.one_of(st.integers(n, 3 * n), st.just(269)), label="levels")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if levels > 268:
            with pytest.raises(ValueError, match="radial rule is limited"):
                QuadratureScheme(levels)
            return
        values = SCHEME_CALLS[command](FockSpace(n), QuadratureScheme(levels))
    assert np.all(np.isfinite(values))
