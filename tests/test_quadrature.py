import json
import math
from pathlib import Path

import numpy as np
import pytest

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement_stack, gibbs_density
from hsqm.hs_space import hs_inner
from hsqm.quadrature import QuadratureScheme, _laguerre_rule
from hsqm.thermal import resolution_operator
from hsqm.wigner import unitarity_residual, wigner_function, wigner_inverse
from node_weights import node_weights


def test_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(0, 5)
    with pytest.raises(ValueError):
        QuadratureScheme(4, 2)


@pytest.mark.parametrize("sizes", [(8, 4.5), (8.0, 5), (8.5, 5), ("8", 5), (8, None)])
def test_non_integral_sizes_are_rejected(sizes):
    # a float angular count used to record int(A) angles but build ceil(A)
    with pytest.raises(ValueError, match="integers"):
        QuadratureScheme(*sizes)


def test_numpy_integer_sizes():
    q = QuadratureScheme(np.int64(8), np.int32(5))
    assert type(q.angular_count) is int and q.angular_count == 5
    assert q.z_nodes.size == 40 and q.ring_weights.size == 8
    assert np.array_equal(q.ring_weights, QuadratureScheme(8, 5).ring_weights)


def test_defaults_and_adequacy():
    q = QuadratureScheme.default(10)
    assert len(q.radial_nodes) == 20
    assert q.angular_count == 41
    assert q.adequate_for(10)
    assert not q.adequate_for(11)


def test_plane_gaussian():
    q = QuadratureScheme.default(8)
    vals = np.exp(-np.abs(q.z_nodes) ** 2)  # e^{-(x^2+y^2)/2}
    assert np.sum(node_weights(q) * vals) == pytest.approx(2 * math.pi, rel=1e-13)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_radial_moments(k):
    # integral over the plane of t^k e^{-t} dt dphi = 2 pi k!
    q = QuadratureScheme(12, 9)
    t = np.abs(q.z_nodes) ** 2
    got = np.sum(node_weights(q) * t**k * np.exp(-t))
    assert got == pytest.approx(2 * math.pi * math.factorial(k), rel=1e-12)


@pytest.mark.parametrize("radial, rtol", [(12, 1e-13), (32, 1e-13), (64, 1e-13), (128, 1e-13), (200, 1e-12)])
def test_rule_matches_50_digit_table(radial, rtol):
    # tests/reference/make_tables.py; scipy's own ring weights miss 1e-13
    # from R = 32 and underflow to 0 at R = 200
    table = json.loads((Path(__file__).parent / "reference" / "laguerre_rule.json").read_text())[str(radial)]
    q = QuadratureScheme(radial, 5)
    assert np.allclose(q.radial_nodes, np.array(table["nodes"], dtype=float), rtol=rtol, atol=0.0)
    assert np.allclose(q.ring_weights, np.array(table["ring_weights"], dtype=float), rtol=rtol, atol=0.0)


def test_rule_at_r512():
    t, ring = _laguerre_rule(512)
    assert np.all(np.isfinite(t)) and np.all(np.isfinite(ring)) and np.all(ring > 0)
    # integral of t^2 e^-t dt = 2; e^-t underflows on the outer rings
    assert np.sum(ring * np.exp(-t) * t**2) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError, match="radial rule is limited"):
        QuadratureScheme(600, 5)


def test_angular_exactness():
    q = QuadratureScheme(6, 9)
    t = np.abs(q.z_nodes) ** 2
    base = np.exp(-t)
    for k in range(1, 9):
        phase = (q.z_nodes / np.abs(q.z_nodes)) ** k
        assert abs(np.sum(node_weights(q) * base * phase)) <= 1e-12


def test_xy_convention():
    q = QuadratureScheme(4, 5)
    x, y = q.xy_nodes()
    z = (y - 1j * x) / math.sqrt(2)
    assert np.allclose(z, q.z_nodes)


# -- polar path against brute force ------------------------------------------
#
# resolution_operator, wigner_inverse and unitarity_residual build their
# node sums from R radial matrices and the mod-A charge rule; the
# references below sum over all K = R*A node matrices directly.  Aliased
# schemes (A < 2N - 1) with odd and even A exercise charges that differ
# by A, and the mirror sign (-1)^(c - c') at c - c' = +-A.


def _polar_cases():
    for n in (4, 6, 8):
        yield n, 2 * n, 4 * n + 1
        for count in (3, 4, 5, 8):
            if count < 2 * n - 1:
                yield n, 2 * n, count


POLAR_CASES = list(_polar_cases())


def _random_operator(sp, seed):
    rng = np.random.default_rng(seed)
    n = sp.dim
    return Operator(sp, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
@pytest.mark.parametrize("mirrored", [False, True])
def test_resolution_operator_matches_node_sum(n, radial, angular, mirrored):
    # the mirrored family |-z> summed over the nodes -z is the family's
    # frame G conjugated by the charge sign S = (-1)^(m-n): S G S
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 0.7)
    scheme = QuadratureScheme(radial, angular)
    sqrt_lam = np.sqrt(np.diag(gibbs_density(sp, spec).mat).real)
    stack = displacement_stack(sp, -scheme.z_nodes if mirrored else scheme.z_nodes)
    vecs = (stack * sqrt_lam).reshape(len(scheme.z_nodes), n * n)
    reference = (vecs.T * (node_weights(scheme) / (2 * math.pi))) @ vecs.conj()
    sign = (-1.0) ** np.add.outer(np.arange(n), np.arange(n)).ravel() if mirrored else np.ones(n * n)
    got = sign[:, None] * resolution_operator(sp, spec, scheme) * sign
    assert np.max(np.abs(got - reference)) <= 1e-13


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
def test_wigner_inverse_matches_node_sum(n, radial, angular):
    sp = FockSpace(n)
    scheme = QuadratureScheme(radial, angular)
    stack = displacement_stack(sp, scheme.z_nodes)

    def f(xs, ys):  # every angular frequency, not a W-image
        return np.exp(-(xs**2 + ys**2) / 3.0) * (xs + 1j * ys**2 + 0.5)

    xs, ys = scheme.xy_nodes()
    reference = np.einsum("k,kmn->mn", node_weights(scheme) * f(xs, ys), stack) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(wigner_inverse(f, scheme, sp).mat - reference)) <= 1e-13

    x = _random_operator(sp, n)
    vals = np.einsum("kmn,mn->k", stack.conj(), x.mat) / math.sqrt(2 * math.pi)
    reference = np.einsum("k,kmn->mn", node_weights(scheme) * vals, stack) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(wigner_inverse(wigner_function(x), scheme, sp).mat - reference)) <= 1e-13


@pytest.mark.parametrize("n, radial, angular", POLAR_CASES)
def test_unitarity_residual_matches_node_sum(n, radial, angular):
    sp = FockSpace(n)
    scheme = QuadratureScheme(radial, angular)
    stack = displacement_stack(sp, scheme.z_nodes)
    x, y = _random_operator(sp, 2 * n), _random_operator(sp, 2 * n + 1)
    vx = np.einsum("kmn,mn->k", stack.conj(), x.mat) / math.sqrt(2 * math.pi)
    vy = np.einsum("kmn,mn->k", stack.conj(), y.mat) / math.sqrt(2 * math.pi)
    reference = abs(np.sum(node_weights(scheme) * vx.conj() * vy) - hs_inner(x, y))
    assert abs(unitarity_residual(x, y, scheme) - reference) <= 1e-13
