import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from hsqm.fock import FockSpace, displacement_stack
from hsqm.hs_space import basis_element, block_indices
from hsqm.landau import (
    LandauParams,
    TensorState,
    apply_chiral_ladder,
    apply_hamiltonian,
    chiral_frequencies,
    classical_frame,
    diagonal_cs_channel,
    husimi,
    husimi_trace_residual,
    lll_overlap,
    lll_projector,
    lll_state,
    partition,
    project_hol,
    reproducing_kernel,
    spectrum,
    tensor_basis_state,
    tensor_cs,
    tensor_resolution_residual,
    uncertainty_report,
)
from hsqm.quadrature import QuadratureScheme
from hsqm.thermal import _column_block_norm, safe_radius
from node_weights import node_weights

DEFAULT = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        LandauParams(mass=0.0, omega0=1.0, omega_c=2.0, theta=0.1)
    with pytest.raises(ValueError):
        LandauParams(mass=1.0, omega0=1.0, omega_c=0.0, theta=0.1)
    with pytest.raises(ValueError):
        LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=-0.5)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mass", "omega0", "omega_c", "theta", "hbar"])
def test_params_reject_non_finite(field, value):
    kwargs = {"mass": 1.0, "omega0": 1.0, "omega_c": 2.0, "theta": 0.1, "hbar": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LandauParams(**kwargs)


def test_chiral_frequencies_flat_limit():
    f = chiral_frequencies(LandauParams(mass=1.0, omega0=0.0, omega_c=2.0, theta=0.0))
    assert f.Omega == pytest.approx(1.0)
    assert f.Omega_plus == pytest.approx(2.0)
    assert f.Omega_minus == pytest.approx(0.0, abs=1e-15)
    assert f.zeta == pytest.approx(1.0)


def test_chiral_frequencies_commutative():
    p = LandauParams(mass=1.3, omega0=0.7, omega_c=1.1, theta=0.0)
    f = chiral_frequencies(p)
    omega = math.sqrt(0.7**2 + 1.1**2 / 4)
    assert f.Omega_tilde == pytest.approx(omega, rel=1e-15)
    assert f.omega_c_tilde == pytest.approx(1.1, rel=1e-15)
    assert f.Omega_plus == pytest.approx(omega + 0.55, rel=1e-14)
    assert f.Omega_minus == pytest.approx(omega - 0.55, rel=1e-14)


def test_chiral_frequencies_invalid_regime():
    # discriminant 1 - theta + theta^2/16 is negative between its roots
    with pytest.raises(ValueError, match="discriminant"):
        chiral_frequencies(LandauParams(mass=1.0, omega0=0.0, omega_c=2.0, theta=2.0))
    # finite inputs whose discriminant overflows to inf - inf = nan
    with pytest.raises(ValueError, match="discriminant"):
        chiral_frequencies(LandauParams(mass=1e300, omega0=0.0, omega_c=2.0, theta=1e300))
    # finite inputs whose closed forms overflow: a typed error, not OverflowError
    for field, value in (("mass", 1e300), ("omega_c", 1e200), ("omega0", 1e200), ("hbar", 1e-300), ("theta", 1e300)):
        with pytest.raises(ValueError, match="overflow"):
            chiral_frequencies(dataclasses.replace(DEFAULT, **{field: value}))


def test_spectrum_closed_forms():
    f = chiral_frequencies(DEFAULT)
    table = spectrum(DEFAULT, 6)
    assert table[0, 0] == pytest.approx(f.Omega_tilde, rel=1e-14)

    p0 = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.0)
    omega = math.sqrt(2.0)
    t0 = spectrum(p0, 6)
    for i in range(6):
        for j in range(6):
            expect = omega * (i + j + 1) + 2.0 * (i - j) / 2.0
            assert t0[i, j] == pytest.approx(expect, rel=1e-12)

    flat = spectrum(LandauParams(mass=1.0, omega0=0.0, omega_c=2.0, theta=0.0), 5)
    assert np.max(np.abs(flat - flat[:, :1])) == 0.0  # degenerate in n_minus


def test_spectrum_overflow_raises_without_warning():
    # the frequencies are finite at hbar = 1e307, the energy table is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(spectrum(dataclasses.replace(DEFAULT, hbar=1e306), 8)))
        with pytest.raises(ValueError, match="overflow double precision"):
            spectrum(dataclasses.replace(DEFAULT, hbar=1e307), 8)


def test_hamiltonian_eigenrelation():
    sp = FockSpace(8)
    table = spectrum(DEFAULT, 8)
    for n_plus, n_minus, m_plus, m_minus in ((0, 0, 0, 0), (2, 1, 5, 3), (7, 7, 0, 7)):
        st = tensor_basis_state(sp, n_plus, n_minus, m_plus, m_minus)
        out = apply_hamiltonian(DEFAULT, st)
        assert np.max(np.abs(out.coeffs - table[n_plus, n_minus] * st.coeffs)) <= 1e-12 * abs(
            table[n_plus, n_minus]
        )


def test_hamiltonian_hermitian():
    sp = FockSpace(5)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5,) * 4) + 1j * rng.standard_normal((5,) * 4)
    b = rng.standard_normal((5,) * 4) + 1j * rng.standard_normal((5,) * 4)
    sa, sb = TensorState(sp, a), TensorState(sp, b)
    lhs = sa.inner(apply_hamiltonian(DEFAULT, sb))
    rhs = apply_hamiltonian(DEFAULT, sa).inner(sb)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 6),
    st.sampled_from([DEFAULT, LandauParams(mass=2.0, omega0=0.5, omega_c=3.0, theta=0.0, hbar=0.7)]),
)
def test_apply_hamiltonian_matches_sector_matrices(seed, n, params):
    # reference: left multiplication of each ket index by the sector
    # matrix diag(hbar O_± (n + 1/2))
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    f = chiral_frequencies(params)
    levels = np.arange(n) + 0.5
    hp = np.diag(params.hbar * f.Omega_plus * levels)
    hm = np.diag(params.hbar * f.Omega_minus * levels)
    reference = np.einsum("xn,nmab->xmab", hp, c) + np.einsum("xa,nmab->nmxb", hm, c)
    got = apply_hamiltonian(params, TensorState(FockSpace(n), c)).coeffs
    assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_chiral_ladder_algebra():
    sp = FockSpace(7)
    st = tensor_basis_state(sp, 2, 3, 1, 1)
    for sector in "+-":
        up_down = apply_chiral_ladder(apply_chiral_ladder(st, sector, True), sector, False)
        down_up = apply_chiral_ladder(apply_chiral_ladder(st, sector, False), sector, True)
        assert np.max(np.abs((up_down.coeffs - down_up.coeffs) - st.coeffs)) <= 1e-14
    # cross-sector ladders commute
    a = apply_chiral_ladder(apply_chiral_ladder(st, "+", False), "-", True)
    b = apply_chiral_ladder(apply_chiral_ladder(st, "-", True), "+", False)
    assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0


def test_tensor_cs_vacuum_and_norm():
    sp = FockSpace(10)
    vac = tensor_cs(sp, 0.0, 0.0)
    assert vac.coeffs[0, 0, 0, 0] == 1.0
    assert vac.norm() == pytest.approx(1.0, abs=1e-15)

    big = tensor_cs(FockSpace(24), 0.7, -0.5 + 0.4j)
    assert big.norm() == pytest.approx(1.0, abs=1e-10)

    with pytest.raises(ValueError):
        tensor_cs(sp, 2.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 4, 6, 8, 12, 16, 24)),
    st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi), st.floats(0.0, 0.999), st.floats(0.0, 2 * math.pi),
)
def test_tensor_cs_factorizes(n, rp, ap, rm, am):
    # per-sector power series z^n conj(z)^m / sqrt(n! m!) times the double
    # Gaussian, at labels anywhere inside the safe disc
    sp = FockSpace(n)
    bound = safe_radius(sp)
    zp, zm = bound * rp * complex(math.cos(ap), math.sin(ap)), bound * rm * complex(math.cos(am), math.sin(am))
    k = np.arange(n)
    up = zp**k / np.sqrt(np.exp(gammaln(k + 1)))
    um = zm**k / np.sqrt(np.exp(gammaln(k + 1)))
    pref = math.exp(-(abs(zp) ** 2 + abs(zm) ** 2))
    expect = pref * np.einsum("n,m,a,b->nmab", up, up.conj(), um, um.conj())
    assert np.max(np.abs(tensor_cs(sp, zp, zm).coeffs - expect)) <= 1e-14


def test_vacuum_built_from_raising():
    sp = FockSpace(6)
    st = tensor_basis_state(sp, 0, 0)
    built = st
    for _ in range(2):
        built = apply_chiral_ladder(built, "+", True)
    for _ in range(3):
        built = apply_chiral_ladder(built, "-", True)
    norm = math.sqrt(math.factorial(2) * math.factorial(3))
    target = tensor_basis_state(sp, 2, 3)
    assert np.max(np.abs(built.coeffs / norm - target.coeffs)) <= 1e-14


def test_husimi_closed_form_values():
    beta = 1.0
    f = chiral_frequencies(DEFAULT)
    nbar_p = 1.0 / math.expm1(beta * f.Omega_plus)
    nbar_m = 1.0 / math.expm1(beta * f.Omega_minus)
    assert husimi(DEFAULT, beta, 0.0, 0.0) == pytest.approx(1.0 / (nbar_p + 1) / (nbar_m + 1), rel=1e-12)

    # ground-state limit is the double Gaussian
    z = 0.8 - 0.1j
    assert husimi(DEFAULT, 200.0, z, 0.3) == pytest.approx(
        math.exp(-abs(z) ** 2) * math.exp(-0.09), rel=1e-10
    )


def test_husimi_matches_truncated_density_oracle():
    beta = 1.0
    f = chiral_frequencies(DEFAULT)
    n_levels = 20
    n = np.arange(n_levels)
    z_plus, z_minus = 0.6 - 0.2j, 0.3 + 0.4j

    # direct sum over the truncated eigenbasis with closed-form partition
    def oracle(zp, zm):
        q_p, q_m = math.exp(-beta * f.Omega_plus), math.exp(-beta * f.Omega_minus)
        z_part = (math.exp(-beta * f.Omega_plus / 2) / (1 - q_p)) * (
            math.exp(-beta * f.Omega_minus / 2) / (1 - q_m)
        )
        tp, tm = abs(zp) ** 2, abs(zm) ** 2
        weights_p = np.exp(-beta * f.Omega_plus * (n + 0.5)) * tp**n / np.exp(gammaln(n + 1))
        weights_m = np.exp(-beta * f.Omega_minus * (n + 0.5)) * tm**n / np.exp(gammaln(n + 1))
        return math.exp(-tp - tm) * weights_p.sum() * weights_m.sum() / z_part

    rng = np.random.default_rng(41)
    for _ in range(25):
        zp = complex(*rng.uniform(-1, 1, 2))
        zm = complex(*rng.uniform(-1, 1, 2))
        assert husimi(DEFAULT, beta, zp, zm) == pytest.approx(oracle(zp, zm), abs=1e-8)
    assert husimi(DEFAULT, beta, z_plus, z_minus) > 0


def test_husimi_positive_and_factorizes():
    grid = np.linspace(-3, 3, 15)
    f0 = husimi(DEFAULT, 1.0, 0.0, 0.0)
    for x in grid:
        for y in grid:
            v = husimi(DEFAULT, 1.0, complex(x, y), 0.7j)
            assert v >= 0.0
    # product structure
    a = husimi(DEFAULT, 1.0, 0.5, 0.0) * husimi(DEFAULT, 1.0, 0.0, 0.6) / f0
    assert husimi(DEFAULT, 1.0, 0.5, 0.6) == pytest.approx(a, rel=1e-12)


def test_husimi_array_matches_scalar_calls():
    rng = np.random.default_rng(8)
    z_plus = rng.uniform(-4, 4, (9, 1)) + 1j * rng.uniform(-4, 4, (9, 1))
    z_minus = rng.uniform(-4, 4, (1, 7)) + 1j * rng.uniform(-4, 4, (1, 7))
    for beta in (0.2, 1.0, 3.0):
        got = husimi(DEFAULT, beta, z_plus, z_minus)
        assert got.shape == (9, 7)
        scalar = [[husimi(DEFAULT, beta, complex(zp), complex(zm)) for zm in z_minus[0]] for zp in z_plus[:, 0]]
        np.testing.assert_allclose(got, scalar, rtol=1e-14, atol=0)


def test_husimi_flat_sector_rejected():
    flat = LandauParams(mass=1.0, omega0=0.0, omega_c=2.0, theta=0.0)
    grid = np.linspace(-1.0, 1.0, 5) + 0.5j
    with pytest.raises(ValueError):
        husimi(flat, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        husimi(flat, 1.0, grid, grid)
    with pytest.raises(ValueError):
        partition(flat, 1.0)
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            husimi(DEFAULT, beta, grid, 0.0)


def test_partition_closed_forms():
    # choose parameters with beta * Omega_plus = ln 2
    f = chiral_frequencies(DEFAULT)
    beta = math.log(2.0) / f.Omega_plus
    z_plus, _ = partition(DEFAULT, beta)
    assert z_plus == pytest.approx(math.sqrt(2.0), rel=1e-14)

    zp_cold, zm_cold = partition(DEFAULT, 50.0)
    assert zp_cold == pytest.approx(math.exp(-50.0 * f.Omega_plus / 2.0), rel=1e-10)

    # sector sums against the geometric tail bound (kept above rounding)
    beta = 0.9
    zp, zm = partition(DEFAULT, beta)
    n_max = 10
    direct = sum(math.exp(-beta * f.Omega_plus * (k + 0.5)) for k in range(n_max))
    assert abs(direct - zp) <= math.exp(-beta * f.Omega_plus * n_max)


def test_husimi_trace_residual():
    scheme = QuadratureScheme.default(12)
    assert husimi_trace_residual(DEFAULT, 1.0, scheme) <= 1e-10
    assert husimi_trace_residual(DEFAULT, 2.0, scheme) <= 1e-10
    other = LandauParams(mass=0.8, omega0=0.5, omega_c=1.7, theta=0.2)
    assert husimi_trace_residual(other, 0.7, scheme) <= 1e-10


def _husimi_trace_residual_on_grid(p, beta, scheme):
    """The trace residual summed over every (ring, angle) node."""
    freq = chiral_frequencies(p)
    s = (-math.expm1(-beta * p.hbar * freq.Omega_plus), -math.expm1(-beta * p.hbar * freq.Omega_minus))
    t, m = scheme.radial_nodes, scheme.angular_count
    phases = np.exp(2j * np.pi * np.arange(m) / m)
    sector_vals = []
    for which, scale in enumerate(s):
        zs = np.sqrt(t / scale)[:, None] * phases[None, :]
        pair = (zs, 0.0) if which == 0 else (0.0, zs)
        vals = husimi(p, beta, *pair) / s[1 - which]
        weights = node_weights(scheme).reshape(-1, m) / (2 * math.pi * scale)
        sector_vals.append(float(np.sum(weights * vals)))
    return abs(sector_vals[0] * sector_vals[1] - 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.5), st.floats(0.02, 0.5), st.floats(0.5, 1.5),
    st.floats(0.2, 3.0), st.sampled_from((8, 12, 16, 20, 24, 28, 32)),
)
def test_husimi_trace_residual_generated_params(mass, omega0, omega_c, theta, hbar, beta, n):
    # the region the benchmark draws husimi tasks from: both chiral
    # frequencies positive; one evaluation per ring matches the sum over
    # every node of the rings
    p = LandauParams(mass=mass, omega0=omega0, omega_c=omega_c, theta=theta, hbar=hbar)
    try:
        freq = chiral_frequencies(p)
    except ValueError:
        assume(False)
    assume(freq.Omega_plus > 0 and freq.Omega_minus > 0)
    scheme = QuadratureScheme.default(n)
    residual = husimi_trace_residual(p, beta, scheme)
    assert residual <= 1e-10
    assert abs(residual - _husimi_trace_residual_on_grid(p, beta, scheme)) <= 1e-15


def test_lll_state_values():
    assert lll_state(0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)
    z = 1.1 - 0.4j
    expect = (z / math.sqrt(2)) ** 3 / math.sqrt(2 * math.pi * 6) * math.exp(-abs(z) ** 2 / 4)
    assert lll_state(3, z) == pytest.approx(expect, abs=1e-14)
    for m in (1, 2, 5):
        assert lll_overlap(m, 0.0) == 0.0
    total = sum(abs(lll_overlap(m, 0.8 - 0.4j)) ** 2 for m in range(60))
    assert total == pytest.approx(1.0, abs=1e-13)


def test_lll_projector():
    sp = FockSpace(6)
    proj = lll_projector(sp)
    for m in range(6):
        kept = proj(basis_element(sp, 0, m))
        assert np.array_equal(kept.mat, basis_element(sp, 0, m).mat)
        killed = proj(basis_element(sp, 1, m))
        assert np.max(np.abs(killed.mat)) == 0.0
    # idempotent and self-adjoint in dense form
    dense = proj.to_dense()
    assert np.allclose(dense @ dense, dense)
    assert np.allclose(dense, dense.conj().T)
    assert np.linalg.matrix_rank(dense) == 6


def test_projector_coherent_elements():
    sp = FockSpace(32)
    z, zp = 0.7 - 0.2j, -0.4 + 0.5j
    elem = sum(lll_overlap(m, z) * np.conj(lll_overlap(m, zp)) for m in range(sp.dim))
    expect = math.exp(-(abs(z) ** 2 + abs(zp) ** 2) / 2.0) * np.exp(z * np.conj(zp))
    assert elem == pytest.approx(expect, abs=1e-13)


def test_reproducing_kernel():
    sp = FockSpace(32)
    assert reproducing_kernel(sp, 0.5 + 0.1j, 0.0) == 1.0
    assert reproducing_kernel(sp, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = complex(*rng.uniform(-1, 1, 2))
        zp = complex(*rng.uniform(-1, 1, 2))
        assert reproducing_kernel(sp, z, zp) == pytest.approx(np.exp(z * np.conj(zp)), abs=1e-12)


def test_project_hol_fixes_monomials():
    scheme = QuadratureScheme.default(16)
    z0 = 0.7 - 0.3j
    for k in range(11):
        got = project_hol(lambda w, k=k: w**k, scheme, z0)
        assert got == pytest.approx(z0**k, abs=1e-8)


def test_uncertainty_vacuum_sector():
    for theta in (0.1, 0.5, 2.0):
        p = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=theta)
        rep = uncertainty_report(p, basis_element(FockSpace(12), 0, 0))
        assert rep["var_X"] == pytest.approx(theta / 2.0, abs=1e-12)
        assert rep["var_Y"] == pytest.approx(theta / 2.0, abs=1e-12)
        assert rep["var_PX"] == pytest.approx(1.0 / theta, abs=1e-12)
        assert rep["var_PY"] == pytest.approx(1.0 / theta, abs=1e-12)
        assert rep["product_X_Y"] ** 2 == pytest.approx(theta**2 / 4.0, abs=1e-12)
        assert rep["product_X_PX"] ** 2 == pytest.approx(0.5, abs=1e-12)
        assert rep["product_Y_PY"] ** 2 == pytest.approx(0.5, abs=1e-12)
        assert rep["product_PX_PY"] ** 2 == pytest.approx(1.0 / theta**2, abs=1e-12)


def test_uncertainty_excited_states():
    p = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.4)
    sp = FockSpace(12)
    # position variances grow with the bra index of the state
    rep = uncertainty_report(p, basis_element(sp, 3, 2))
    assert rep["var_X"] == pytest.approx(0.4 * 2.5, abs=1e-12)
    # momentum variances grow with both indices
    assert rep["var_PX"] == pytest.approx((3 + 2 + 1) / 0.4, abs=1e-11)


def test_uncertainty_rejects_zero_theta():
    p = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.0)
    with pytest.raises(ValueError):
        uncertainty_report(p, basis_element(FockSpace(6), 0, 0))


def test_tensor_resolution_endpoint():
    sp = FockSpace(6)
    scheme = QuadratureScheme.default(6)
    assert tensor_resolution_residual(sp, scheme) <= 1e-5
    # larger space goes through the sector bound
    sp16 = FockSpace(16)
    assert tensor_resolution_residual(sp16, QuadratureScheme.default(16)) <= 1e-5


def test_diagonal_cs_channel_is_not_identity():
    # the plain diagonal coherent family smooths rather than resolves:
    # closed-form elements (n+m)! / (2^(n+m+1) n! m!).  The e^{-2t}
    # integrand is not of Laguerre-weight type, so convergence here is
    # spectral rather than exact; 64 radial nodes reach rounding level.
    sp = FockSpace(6)
    chan = diagonal_cs_channel(sp, QuadratureScheme(64, 13))
    assert chan[0, 0].real == pytest.approx(0.5, abs=1e-12)
    idx10 = 1 * 6 + 0
    assert chan[idx10, idx10].real == pytest.approx(0.25, abs=1e-12)
    idx11 = 1 * 6 + 1
    assert chan[idx11, idx11].real == pytest.approx(2.0 / 8.0, abs=1e-12)


# -- polar path against brute force ------------------------------------------
#
# The frames are built from R radial columns and the mod-A charge rule;
# the references below are the direct K = R*A node sums.  Aliased schemes
# (A < 2N - 1) exercise charges that differ by A.


def _scheme_sizes(n):
    yield 2 * n, 4 * n + 1
    for count in (3, 4, 5, 8):
        if count < 2 * n - 1:
            yield 2 * n, count


FRAME_CASES = [(n, *sizes) for n in (4, 6, 8) for sizes in _scheme_sizes(n)]


def _node_vectors(sp, scheme):
    """Rows <n|z_k> over every node, and the node weights / 2 pi."""
    return displacement_stack(sp, scheme.z_nodes)[:, :, 0], node_weights(scheme) / (2 * math.pi)


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_classical_and_sector_frames_match_node_sum(n, radial, angular):
    sp = FockSpace(n)
    scheme = QuadratureScheme(radial, angular)
    coh, w = _node_vectors(sp, scheme)
    reference = (coh.T * w) @ coh.conj()
    frame = classical_frame(sp, scheme)
    assert np.isrealobj(frame)
    assert np.max(np.abs(frame - reference)) <= 1e-13


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_frames_from_column_zero_match_full_stack(n, radial, angular):
    # the closed form on the support (n, 0) only gives the same bits as
    # column 0 of the full radial stack, and so the same frames
    sp = FockSpace(n)
    scheme = QuadratureScheme(radial, angular)
    stack = scheme._radial_stack(sp)
    c = stack[:, :, 0]
    assert np.array_equal(scheme._radial_column(sp), c)
    assert np.array_equal(classical_frame(sp, scheme), scheme._ring_gram(stack[:, :, :1]))
    assert np.array_equal(diagonal_cs_channel(sp, scheme), scheme._ring_gram(c[:, :, None] * c[:, None, :]))


@pytest.mark.parametrize("n, radial, angular", FRAME_CASES)
def test_diagonal_cs_channel_matches_node_sum(n, radial, angular):
    sp = FockSpace(n)
    scheme = QuadratureScheme(radial, angular)
    coh, w = _node_vectors(sp, scheme)
    vecs = np.einsum("kn,km->knm", coh, coh.conj()).reshape(len(w), n * n)
    reference = (vecs.T * w) @ vecs.conj()
    chan = diagonal_cs_channel(sp, scheme)
    assert np.isrealobj(chan)
    assert np.max(np.abs(chan - reference)) <= 1e-13


@pytest.mark.parametrize(
    "n, max_level", [(n, None) for n in range(4, 10)] + [(6, 2), (7, 3), (8, 1), (9, 2)]
)
def test_tensor_resolution_residual_matches_full_kron(n, max_level):
    # the sector operator is kron(P, P) sliced to the block columns; up to
    # N^4 = 4096 the two-sector residual is exact, above it the triangle
    # bound.  Kronning only the block columns of P must not move a bit, and
    # the norm from the column Gram must agree with the SVD norm.
    # the public residual is fixed at the N/4 block; the other blocks check
    # the kron of block columns and the Gram norm alone
    sp = FockSpace(n)
    level = n // 4 if max_level is None else max_level
    cols = block_indices(sp, level)
    for radial, angular in _scheme_sizes(n):
        scheme = QuadratureScheme(radial, angular)
        frame = classical_frame(sp, scheme)
        sector = np.kron(frame, frame)[:, cols]
        eye = np.eye(n * n)[:, cols]
        deviation = np.kron(sector, sector) - np.kron(eye, eye) if n**4 <= 4096 else sector - eye
        r, svd_r = _column_block_norm(deviation), float(np.linalg.norm(deviation, 2))
        assert r == pytest.approx(svd_r, rel=1e-14, abs=0.0)
        reference = r if n**4 <= 4096 else r * (1.0 + r) + r
        if level == n // 4:
            assert tensor_resolution_residual(sp, scheme) == reference
