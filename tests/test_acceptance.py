"""Acceptance suite: one test per delivery criterion, each printing a
PASS/FAIL line with its measured numbers (run with ``pytest -v -s``).

Criterion 5's resolution-of-identity half checks the identity through
the canonical dual frame D(z) rho_beta^(-1/2): the displaced-purification
family is not tight, its frame operator is right multiplication by
rho_beta.  The test also asserts that frame operator and that the
unweighted identity residual equals the Gibbs weight gap.  See the test
and the README numerical notes.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

from hsqm.commutant import AlgebraGens, algebra_span, commutant_basis, intersection_dimension, is_factor, span_contains
from hsqm.fock import (
    FockSpace,
    Operator,
    ThermalSpec,
    annihilation,
    creation,
    displacement,
    displacement_stack,
    gibbs_density,
    identity,
)
from hsqm.hs_space import basis_element, hs_norm, vee
from hsqm.landau import (
    LandauParams,
    chiral_frequencies,
    husimi,
    husimi_trace_residual,
    project_hol,
    reproducing_kernel,
    spectrum,
    uncertainty_report,
)
from hsqm.modular import ModularData, kms_residual, polar_check, tomita_s
from hsqm.quadrature import QuadratureScheme
from hsqm.thermal import resolution_operator, s_beta_reflection, safe_radius
from hsqm.wigner import wigner_function, wigner_inverse
from node_weights import node_weights

from scipy.special import gammaln


def _report(tag, ok, detail):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_c01_modular_polar_decomposition():
    t0 = time.perf_counter()
    worst_polar = 0.0
    worst_factor = 0.0
    for n in (6, 12, 16):
        sp = FockSpace(n)
        for wb in (0.4, 1.0, 2.0):
            md = ModularData.from_thermal(sp, ThermalSpec(1.0, wb))
            worst_polar = max(worst_polar, polar_check(md))
            s_map = tomita_s(md)
            for j in range(n):
                for i in range(n):
                    got = s_map(basis_element(sp, j, i)).mat[i, j]
                    expect = math.exp(-(j - i) * wb / 2.0)
                    worst_factor = max(worst_factor, abs(got - expect) / expect)
    elapsed = time.perf_counter() - t0
    ok = worst_polar <= 1e-12 and worst_factor <= 1e-13 and elapsed < 1.0
    _report(
        "01",
        ok,
        f"polar residual {worst_polar:.2e} (<=1e-12), eigen-factor rel err "
        f"{worst_factor:.2e} (<=1e-13), runtime {elapsed:.2f}s (<1s)",
    )
    assert worst_polar <= 1e-12
    assert worst_factor <= 1e-13
    assert elapsed < 1.0


def test_c02_kms_boundary_condition():
    t0 = time.perf_counter()
    n = 10
    sp = FockSpace(n)
    md = ModularData.from_thermal(sp, ThermalSpec(1.0, 1.0))
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2.0
        b = (b + b.conj().T) / 2.0
        op_a = Operator(sp, a / np.linalg.norm(a, 2))
        op_b = Operator(sp, b / np.linalg.norm(b, 2))
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            worst = max(worst, kms_residual(md, op_a, op_b, t))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("02", ok, f"max residual {worst:.2e} (<=1e-10), runtime {elapsed:.2f}s (<5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c03_commutant_duality():
    t0 = time.perf_counter()
    for n in (2, 3):
        sp = FockSpace(n)
        eye = identity(sp)
        left = algebra_span(
            AlgebraGens(
                n * n,
                [vee(annihilation(sp), eye).to_dense(), vee(creation(sp), eye).to_dense()],
            )
        )
        right = algebra_span(
            AlgebraGens(
                n * n,
                [vee(eye, annihilation(sp)).to_dense(), vee(eye, creation(sp)).to_dense()],
            )
        )
        comm = commutant_basis(left)
        assert comm.size == n * n
        assert all(span_contains(right, m) for m in comm.basis)
        assert intersection_dimension(left, comm) == 1
        assert is_factor(left)
        double = commutant_basis(comm)
        assert double.size == left.size
        assert all(span_contains(left, m) for m in double.basis)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report("03", ok, f"commutant dims N^2, center dim 1, bicommutant fixed; runtime {elapsed:.2f}s (<10s)")
    assert elapsed < 10.0


def test_c04_wigner_unitarity_and_round_trip():
    t0 = time.perf_counter()
    n = 24
    sp = FockSpace(n)
    scheme = QuadratureScheme.default(n)
    half = n // 2

    stack = displacement_stack(sp, scheme.z_nodes)
    block = [(a, b) for a in range(half) for b in range(half)]
    vecs = np.array([stack[:, a, b].conj() for a, b in block]) / math.sqrt(2 * math.pi)
    gram = (vecs * node_weights(scheme)[None, :]) @ vecs.conj().T
    gram_dev = float(np.max(np.abs(gram - np.eye(len(block)))))

    rng = np.random.default_rng(77)
    low = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    mat = np.zeros((n, n), dtype=complex)
    mat[:half, :half] = low / np.linalg.norm(low)
    x = Operator(sp, mat)
    back = wigner_inverse(wigner_function(x), scheme, sp)
    round_trip = hs_norm(back - x)

    elapsed = time.perf_counter() - t0
    ok = gram_dev <= 1e-6 and round_trip <= 1e-6 and elapsed < 30.0
    _report(
        "04",
        ok,
        f"Gram max dev {gram_dev:.2e} (<=1e-6), round-trip {round_trip:.2e} (<=1e-6), "
        f"runtime {elapsed:.1f}s (<30s)",
    )
    assert gram_dev <= 1e-6
    assert round_trip <= 1e-6
    assert elapsed < 30.0


def test_c05a_thermal_cs_resolution_identity():
    # The family |z> = D(z) Phi_beta is not a tight frame: its frame
    # operator F = (1/2pi) int |z><z| dx dy is right multiplication by
    # rho_beta, dense kron(I, rho_beta) (see hsqm.thermal).  It resolves
    # the identity through its canonical dual frame
    # |z~> = F^-1 |z> = D(z) rho_beta^(-1/2):
    #     (1/2pi) int |z><z~| dx dy = F F^-1 = 1,
    # in dense form dense @ kron(I, diag(1/lambda)) - I.  This is checked
    # on inputs supported on levels <= N/4, where lambda_b >= lambda_{N/4}
    # keeps the dual well defined, at N=32, omega*beta=1, for the family
    # and its mirror |-z>, assembled here from its own radial stack
    # D(-sqrt(t_r)).  The two facts the dual rests on are asserted too:
    # the assembly equals kron(I, rho_beta), and the unweighted identity
    # residual equals the Gibbs weight gap 1 - lambda_{N/4}.
    n = 32
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 1.0)
    scheme = QuadratureScheme.default(n)
    lam = np.diag(gibbs_density(sp, spec).mat).real
    gap = 1.0 - lam[n // 4]
    keep = np.arange(n // 4 + 1)
    cols = (keep[:, None] * n + keep[None, :]).ravel()  # row-major |k><l| -> k*N + l
    weight = np.tile(lam, n)[cols]  # diagonal of kron(I, diag(lambda)) on the block
    eye = np.eye(n * n)[:, cols]

    def block_norm(diff):
        return float(np.linalg.norm(diff, 2))

    mirror_states = displacement_stack(sp, -np.sqrt(scheme.radial_nodes)).real * np.sqrt(lam)
    blocks = {
        "family": resolution_operator(sp, spec, scheme)[:, cols],
        "mirror": scheme._ring_gram(mirror_states, cols),
    }
    rows = {}
    for name, block in blocks.items():
        rows[name] = (
            block_norm(block / weight - eye),  # dual-frame identity
            block_norm(block - eye * weight),  # frame operator kron(I, rho_beta)
            block_norm(block - eye),  # unweighted identity (diagnostic)
        )

    ok = all(dual <= 1e-5 and frame <= 1e-5 and abs(raw - gap) <= 1e-5 for dual, frame, raw in rows.values())
    (dual, frame, raw), (dual_m, frame_m, raw_m) = rows["family"], rows["mirror"]
    _report(
        "05a",
        ok,
        f"dual-frame identity residual {dual:.2e} / mirrored {dual_m:.2e} (<=1e-5); "
        f"frame-operator residual {frame:.2e} / mirrored {frame_m:.2e} (<=1e-5); "
        f"unweighted identity residual {raw:.6f} / mirrored {raw_m:.6f} "
        f"(= Gibbs weight gap 1 - lambda_{n // 4} = {gap:.6f} within 1e-5)",
    )
    for dual, frame, raw in rows.values():
        assert dual <= 1e-5
        assert frame <= 1e-5
        assert abs(raw - gap) <= 1e-5


def test_c05b_thermal_cs_reflection():
    n = 32
    sp = FockSpace(n)
    spec = ThermalSpec(1.0, 1.0)
    md = ModularData.from_thermal(sp, spec)
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0, safe_radius(sp))
        phi = rng.uniform(0, 2 * math.pi)
        z = r * complex(math.cos(phi), math.sin(phi))
        worst = max(worst, s_beta_reflection(md, z))
    ok = worst <= 1e-9
    _report("05b", ok, f"max reflection residual {worst:.2e} (<=1e-9) over 10 random labels")
    assert worst <= 1e-9


def test_c06_landau_spectrum():
    p0 = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.0)
    omega = math.sqrt(2.0)
    table = spectrum(p0, 8)
    worst = 0.0
    for i in range(8):
        for j in range(8):
            expect = omega * (i + j + 1) + 2.0 * (i - j) / 2.0
            worst = max(worst, abs(table[i, j] - expect) / abs(expect))
    assert worst <= 1e-12

    flat = spectrum(LandauParams(mass=1.0, omega0=0.0, omega_c=2.0, theta=0.0), 8)
    degeneracy_exact = float(np.max(np.abs(flat - flat[:, :1])))
    ok = worst <= 1e-12 and degeneracy_exact == 0.0
    _report("06", ok, f"theta=0 closed form rel err {worst:.2e} (<=1e-12), flat degeneracy exact")
    assert degeneracy_exact == 0.0


def test_c07_husimi():
    p = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=0.1)
    beta = 1.0
    f = chiral_frequencies(p)
    n_levels = 20
    n = np.arange(n_levels)

    def oracle(zp, zm):
        q_p, q_m = math.exp(-beta * f.Omega_plus), math.exp(-beta * f.Omega_minus)
        z_part = (math.exp(-beta * f.Omega_plus / 2) / (1 - q_p)) * (
            math.exp(-beta * f.Omega_minus / 2) / (1 - q_m)
        )
        tp, tm = abs(zp) ** 2, abs(zm) ** 2
        wp = np.exp(-beta * f.Omega_plus * (n + 0.5)) * tp**n / np.exp(gammaln(n + 1))
        wm = np.exp(-beta * f.Omega_minus * (n + 0.5)) * tm**n / np.exp(gammaln(n + 1))
        return math.exp(-tp - tm) * wp.sum() * wm.sum() / z_part

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        zp = complex(*rng.uniform(-1, 1, 2))
        zm = complex(*rng.uniform(-1, 1, 2))
        worst = max(worst, abs(husimi(p, beta, zp, zm) - oracle(zp, zm)))

    trace_res = husimi_trace_residual(p, beta, QuadratureScheme.default(12))

    grid = np.linspace(-3, 3, 41)
    min_val = min(husimi(p, beta, complex(x, y), 0.4j) for x in grid for y in grid)

    ok = worst <= 1e-8 and trace_res <= 1e-10 and min_val >= 0.0
    _report(
        "07",
        ok,
        f"closed-vs-truncated max dev {worst:.2e} (<=1e-8), trace residual "
        f"{trace_res:.2e} (<=1e-10), grid minimum {min_val:.2e} (>=0)",
    )
    assert worst <= 1e-8
    assert trace_res <= 1e-10
    assert min_val >= 0.0


def test_c08_lll_kernel():
    sp = FockSpace(32)
    rng = np.random.default_rng(31415)
    worst_k = 0.0
    for _ in range(20):
        z = complex(*rng.uniform(-1, 1, 2))
        zp = complex(*rng.uniform(-1, 1, 2))
        worst_k = max(worst_k, abs(reproducing_kernel(sp, z, zp) - np.exp(z * np.conj(zp))))

    scheme = QuadratureScheme.default(16)
    z0 = 0.6 - 0.4j
    worst_m = 0.0
    for k in range(11):
        worst_m = max(worst_m, abs(project_hol(lambda w, k=k: w**k, scheme, z0) - z0**k))

    ok = worst_k <= 1e-12 and worst_m <= 1e-8
    _report(
        "08",
        ok,
        f"kernel max dev {worst_k:.2e} (<=1e-12), monomial projection max dev {worst_m:.2e} (<=1e-8)",
    )
    assert worst_k <= 1e-12
    assert worst_m <= 1e-8


def test_c09_uncertainty_table():
    worst = 0.0
    sp = FockSpace(12)
    vacuum = basis_element(sp, 0, 0)
    for theta in (0.1, 0.5, 2.0):
        p = LandauParams(mass=1.0, omega0=1.0, omega_c=2.0, theta=theta)
        rep = uncertainty_report(p, vacuum)
        checks = {
            "var_X": theta / 2.0,
            "var_Y": theta / 2.0,
            "var_PX": 1.0 / theta,
            "var_PY": 1.0 / theta,
        }
        for key, expect in checks.items():
            worst = max(worst, abs(rep[key] - expect))
        worst = max(worst, abs(rep["product_X_Y"] ** 2 - theta**2 / 4.0))
        worst = max(worst, abs(rep["product_X_PX"] ** 2 - 0.5))
    ok = worst <= 1e-12
    _report("09", ok, f"max deviation from the closed forms {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_c10_displacement_oracle():
    sp = FockSpace(40)
    a = annihilation(sp).mat
    adag = creation(sp).mat
    rng = np.random.default_rng(9)
    worst = 0.0
    alphas = [1.0, 1.0j, -0.7 + 0.7j] + [complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(5)]
    for alpha in alphas:
        assert abs(alpha) <= 1.0
        d = displacement(sp, alpha).mat
        oracle = expm(alpha * adag - np.conj(alpha) * a)
        worst = max(worst, float(np.linalg.norm((d - oracle)[:10, :10])))
    ok = worst <= 1e-8
    _report("10", ok, f"max Frobenius dev on the 10x10 block {worst:.2e} (<=1e-8)")
    assert worst <= 1e-8
