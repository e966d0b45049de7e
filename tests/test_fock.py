import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_genlaguerre, gammaln

from hsqm.fock import (
    FockSpace,
    Operator,
    ThermalSpec,
    _closed_form_entries,
    _closed_form_support,
    _coherent_columns,
    annihilation,
    creation,
    displacement_stack,
    gibbs_density,
    osc_hamiltonian,
)
from hsqm.quadrature import QuadratureScheme, _laguerre_rule

REFERENCE = Path(__file__).parent / "reference"


def test_space_validation():
    with pytest.raises(ValueError):
        FockSpace(1)
    with pytest.raises(ValueError):
        Operator(FockSpace(3), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Operator(FockSpace(2), np.array([[np.nan, 0], [0, 0]]))


def test_annihilation_entries():
    a2 = annihilation(FockSpace(2)).mat
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    assert np.array_equal(a2, expected)

    a4 = annihilation(FockSpace(4)).mat
    assert a4[2, 3] == pytest.approx(math.sqrt(3))


def test_ladder_commutator_safe_block():
    sp = FockSpace(8)
    a = annihilation(sp).mat
    comm = a @ a.conj().T - a.conj().T @ a
    # truncation corrupts only the top level
    assert np.max(np.abs(comm[:7, :7] - np.eye(7))) <= 1e-14
    assert comm[7, 7] == pytest.approx(-7.0)


def test_creation_is_adjoint():
    sp = FockSpace(6)
    assert np.array_equal(creation(sp).mat, annihilation(sp).mat.conj().T)
    # (a†)^2 |0> / sqrt(2!) = |2>
    sp4 = FockSpace(4)
    adag = creation(sp4).mat
    vec = np.zeros(4)
    vec[0] = 1.0
    out = adag @ adag @ vec / math.sqrt(2.0)
    assert np.allclose(out, np.eye(4)[2])
    assert creation(FockSpace(6)).mat[3, 2] == pytest.approx(math.sqrt(3))


def test_osc_hamiltonian():
    h = osc_hamiltonian(FockSpace(4), 1.0).mat
    assert np.allclose(np.diag(h), [0.5, 1.5, 2.5, 3.5])
    assert osc_hamiltonian(FockSpace(5), 2.0).mat[3, 3] == pytest.approx(7.0)

    a = annihilation(FockSpace(16)).mat
    # the quadratures Q = (a + a†)/sqrt(2) and P = (a - a†)/(i sqrt(2))
    q, p = (a + a.T) / math.sqrt(2.0), -1j * (a - a.T) / math.sqrt(2.0)
    direct = 0.5 * (p @ p + q @ q) * 1.3
    h16 = osc_hamiltonian(FockSpace(16), 1.3).mat
    assert np.max(np.abs((direct - h16)[:14, :14])) <= 1e-12


def test_displacement_identity_and_vacuum():
    sp = FockSpace(12)
    assert np.allclose(displacement_stack(sp, [0.0])[0], np.eye(12))
    for n in (2, 5, 12, 64):
        # exactly, not to the recurrence's rounding
        assert np.array_equal(displacement_stack(FockSpace(n), np.array([0.3, 0.0, -1j]))[1], np.eye(n))
    # vacuum matrix element against the exponential-series oracle
    assert displacement_stack(sp, [1.0])[0, 0, 0] == pytest.approx(math.exp(-0.5), abs=1e-14)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 0.5 + 0.5j, -0.2 + 0.9j, 1j])
def test_displacement_vs_expm_oracle(alpha):
    sp = FockSpace(40)
    d = displacement_stack(sp, [alpha])[0]
    gen = alpha * creation(sp).mat - np.conj(alpha) * annihilation(sp).mat
    oracle = expm(gen)
    assert np.linalg.norm((d - oracle)[:10, :10]) <= 1e-8


@pytest.mark.parametrize("alpha", [0.4, 0.9j, 0.7 - 0.5j])
def test_displacement_inverse_on_safe_block(alpha):
    # measured truncation behavior: the 1e-8 block identity needs the
    # label well inside the safe disc once N >= 32; at the disc rim the
    # deviation is ~1e-3 at any truncation
    sp = FockSpace(32)
    assert abs(alpha) <= math.sqrt(sp.dim) / 4
    d, d_inverse = displacement_stack(sp, [alpha, -alpha])
    prod = d @ d_inverse
    half = sp.dim // 2
    assert np.max(np.abs(prod[:half, :half] - np.eye(half))) <= 1e-8


def test_displacement_inverse_small_label_small_space():
    sp = FockSpace(20)
    d, d_inverse = displacement_stack(sp, [0.4, -0.4])
    prod = d @ d_inverse
    assert np.max(np.abs(prod[:10, :10] - np.eye(10))) <= 1e-8


def test_coherent_column_values():
    # <m|w> = e^(-|w|^2/2) w^m / sqrt(m!), column 0 of D(w), at a complex w
    assert np.array_equal(_coherent_columns(6, 0.0)[0], np.eye(6)[0])
    w = (1.1 - 0.4j) / math.sqrt(2.0)
    expect = w**3 / math.sqrt(6.0) * math.exp(-abs(w) ** 2 / 2.0)
    assert _coherent_columns(4, w)[0, 3] == pytest.approx(expect, abs=1e-14)
    total = np.sum(np.abs(_coherent_columns(60, 0.8 - 0.4j)[0]) ** 2)
    assert total == pytest.approx(1.0, abs=1e-13)


def test_gibbs_density():
    sp = FockSpace(5)
    frozen = gibbs_density(sp, ThermalSpec(1.0, math.inf)).mat
    assert np.allclose(np.diag(frozen).real, [1, 0, 0, 0, 0])

    sp30 = FockSpace(30)
    g = gibbs_density(sp30, ThermalSpec(1.0, math.log(2.0))).mat
    lam = np.diag(g).real
    # geometric weights 2^-(n+1), renormalized over 30 levels
    assert lam[0] == pytest.approx(0.5 / (1 - 2.0**-30), abs=1e-15)
    assert lam[3] / lam[5] == pytest.approx(4.0, rel=1e-14)

    for n in (4, 9, 23):
        g = gibbs_density(FockSpace(n), ThermalSpec(2.0, 0.3)).mat
        assert abs(np.trace(g).real - 1.0) <= 1e-14
        assert np.all(np.diag(g).real > 0)


def test_thermal_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        ThermalSpec(1.0, -2.0)


def test_displacement_stack_finite_at_large_n():
    # |alpha|^|m-n| alone overflows here; the log-space closed form must
    # stay finite and unitary on the safe block
    sp = FockSpace(600)
    alpha = math.sqrt(sp.dim) / 4 * np.exp(0.7j)
    d = displacement_stack(sp, np.array([alpha]))[0]
    assert np.all(np.isfinite(d))
    block = d[:, : sp.dim // 4 + 1]
    assert np.max(np.abs(block.conj().T @ block - np.eye(block.shape[1]))) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)
)
def test_weyl_relation_on_safe_block(r1, phi1, r2, phi2):
    # D(a) D(b) = e^(i Im(a conj(b))) D(a + b); |a|, |b| <= sqrt(N)/8 keeps
    # a + b inside the safe disc, checked on levels <= N/4
    sp = FockSpace(24)
    rad = math.sqrt(sp.dim) / 8
    a, b = rad * r1 * np.exp(1j * phi1), rad * r2 * np.exp(1j * phi2)
    da, db, dab = displacement_stack(sp, np.array([a, b, a + b]))
    keep = sp.dim // 4 + 1
    phase = np.exp(1j * (a * np.conj(b)).imag)
    assert np.max(np.abs((da @ db - phase * dab)[:keep, :keep])) <= 1e-12


# -- the closed form against oracles -------------------------------------------
#
# The library computes |<m|D(a)|n>| by a normalized Laguerre recurrence.
# The oracles are scipy's generalized Laguerre polynomials (the closed form
# as written) and committed mpmath values (tests/reference/make_tables.py).


def _scipy_closed_form(n_levels, alphas):
    """<m|D(a)|n> = sqrt(n!/m!) a^(m-n) e^(-|a|^2/2) L_n^(m-n)(|a|^2) for m >= n,
    and D(a)† = D(-a) for m < n, shape (K, N, N)."""
    m, n = np.indices((n_levels, n_levels))
    lo, k = np.minimum(m, n), np.abs(m - n)
    alphas = np.asarray(alphas, dtype=complex)[:, None, None]
    r = np.abs(alphas)
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(lo + k + 1)) + k * np.log(np.where(r > 0, r, 1.0)) - r**2 / 2
    unit = np.where(r > 0, alphas / np.where(r > 0, r, 1.0), 0.0)
    return np.where(m >= n, unit, -unit.conj()) ** k * np.exp(log_mag) * eval_genlaguerre(lo, k, r**2)


@pytest.mark.parametrize("n_levels", [2, 3, 8, 17, 32, 64])
def test_closed_form_matches_scipy_oracle(n_levels):
    rng = np.random.default_rng(n_levels)
    t = QuadratureScheme(n_levels).radial_nodes
    inside = math.sqrt(n_levels) * rng.uniform(size=8) * np.exp(2j * math.pi * rng.uniform(size=8))
    alphas = np.concatenate([np.sqrt(t) * np.exp(2j * math.pi * rng.uniform(size=t.size)), inside, [0.0]])
    got = displacement_stack(FockSpace(n_levels), alphas)
    assert np.max(np.abs(got - _scipy_closed_form(n_levels, alphas))) <= 1e-13


def test_closed_form_matches_mpmath_table():
    samples = json.loads((REFERENCE / "displacement_entries.json").read_text())
    assert {s["N"] for s in samples} == {32, 64, 128}
    for n_levels in (32, 64, 128):
        rows = [s for s in samples if s["N"] == n_levels]
        alphas = np.array([complex(*map(float, s["alpha"])) for s in rows])
        expected = np.array([complex(*map(float, s["value"])) for s in rows])
        support = _closed_form_support(np.array([s["m"] for s in rows]), np.array([s["n"] for s in rows]), n_levels)
        # entry p of label p: the diagonal of the (K, P) table
        got = np.diagonal(_closed_form_entries(alphas, support))
        assert np.max(np.abs(got - expected)) <= 1e-14


def test_closed_form_empty_support():
    support = _closed_form_support(np.array([], dtype=int), np.array([], dtype=int), 6)
    assert _closed_form_entries(np.array([0.5, 0.0, 1j]), support).shape == (3, 0)


def test_stack_at_n256_on_the_outermost_rings():
    # t up to 2,003 on the R = 512 rule: e^(-t/2) alone underflows there
    t, _ = _laguerre_rule(512)
    stack = displacement_stack(FockSpace(256), np.sqrt(t[-16:]))
    assert np.all(np.isfinite(stack))
    assert np.max(np.linalg.norm(stack, axis=1)) <= 1 + 1e-12
