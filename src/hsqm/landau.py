"""Charged particle on the noncommutative plane with a harmonic trap.

The model is a constant perpendicular magnetic field plus an isotropic
harmonic potential, with position commutators [x^i, x^j] = i theta e^ij.
A chiral decomposition turns it into two commuting oscillators with
dressed frequencies Omega~_± = Omega~ ± omega~_c / 2, realized on the
tensor product of two quantum (Hilbert-Schmidt) spaces with basis
|n+, n-; m+, m-) = |n+><m+| (x) |n-><m-|.

Provided here: the dressed frequencies and spectrum, the chiral
Hamiltonians (number operators on the ket indices) and ladder action,
tensor coherent states, the thermal Husimi distribution and partition
functions, the lowest-level projector with its reproducing kernel
e^(z conj(z')), holomorphic projection, the position / momentum
uncertainty table of the right-action quadratures, and the sector
resolution X -> P X P of the classical frame P.

Conventions: hbar is explicit in the dynamical quantities; the
lowest-level wavefunctions use the magnetic length l0 = 1.

Every coherent vector <n|z> = e^(-|z|^2/2) z^n / sqrt(n!) is column 0 of
the closed-form D(z), computed on that column alone, and every
phase-plane frame is summed ring by ring through the polar identity of
:mod:`hsqm.quadrature` (R real radial vectors and the mod-A charge rule),
not over the K = R * A nodes; the frames come out real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import FockSpace, Operator, _coherent_columns, annihilation, identity
from .hs_space import SuperOp, basis_element, vee
from .quadrature import QuadratureScheme
from .thermal import _column_block_norm, safe_radius

__all__ = [
    "LandauParams",
    "ChiralFrequencies",
    "TensorState",
    "chiral_frequencies",
    "spectrum",
    "apply_hamiltonian",
    "tensor_basis_state",
    "tensor_cs",
    "apply_chiral_ladder",
    "husimi",
    "partition",
    "husimi_trace_residual",
    "lll_state",
    "lll_overlap",
    "lll_projector",
    "reproducing_kernel",
    "project_hol",
    "uncertainty_report",
    "classical_frame",
    "tensor_resolution_residual",
    "diagonal_cs_channel",
]


@dataclass(frozen=True)
class LandauParams:
    """Physical inputs: mass, trap and cyclotron frequencies,
    noncommutativity area theta, and hbar."""

    mass: float
    omega0: float
    omega_c: float
    theta: float
    hbar: float = 1.0

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if not (self.mass > 0):
            raise ValueError("mass must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if not (self.omega_c > 0):
            raise ValueError("omega_c must be positive")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class ChiralFrequencies:
    """Derived frequencies of the chiral decomposition.

    Omega_plus/Omega_minus satisfy Omega_± = Omega_tilde ± omega_c_tilde/2
    exactly; zeta is the inverse-length scale of the chiral ladders.
    """

    Omega: float
    zeta: float
    Omega_tilde: float
    omega_c_tilde: float
    Omega_plus: float
    Omega_minus: float


def chiral_frequencies(p: LandauParams) -> ChiralFrequencies:
    """Closed forms of the dressed frequencies.

    The discriminant 1 - M w_c theta/2 + (M Omega theta/4)^2 must be
    positive for the ladder scale to be real.  omega_c_tilde is the
    first-order-in-theta dressing of the cyclotron frequency; for large
    theta it can push Omega_minus negative, which downstream operations
    guard against rather than re-derive.  Parameters whose closed forms
    overflow double precision raise ``ValueError`` too.
    """
    try:
        omega_sq = p.omega0**2 + p.omega_c**2 / 4.0
        omega = math.sqrt(omega_sq)
        disc = 1.0 - p.mass * p.omega_c * p.theta / 2.0 + (p.mass * omega * p.theta / 4.0) ** 2
        if not disc > 0:
            raise ValueError(f"parameters outside model validity (discriminant {disc:.3e} <= 0)")
        zeta = ((p.mass * omega / p.hbar) ** 2 / disc) ** 0.25
    except OverflowError:
        raise ValueError("parameters overflow double precision in the chiral frequencies") from None
    omega_tilde = omega * math.sqrt(disc)
    omega_c_tilde = p.omega_c * (1.0 - (p.omega_c / 4.0 + p.omega0**2 / p.omega_c) * p.mass * p.theta)
    freq = ChiralFrequencies(
        Omega=omega,
        zeta=zeta,
        Omega_tilde=omega_tilde,
        omega_c_tilde=omega_c_tilde,
        Omega_plus=omega_tilde + omega_c_tilde / 2.0,
        Omega_minus=omega_tilde - omega_c_tilde / 2.0,
    )
    if not all(math.isfinite(getattr(freq, f.name)) for f in fields(freq)):
        raise ValueError("parameters overflow double precision in the chiral frequencies")
    return freq


def spectrum(p: LandauParams, n_max: int) -> np.ndarray:
    """Energy grid E[n+, n-] = hbar O+ (n+ + 1/2) + hbar O- (n- + 1/2);
    a grid that overflows double precision raises ``ValueError``."""
    freq = chiral_frequencies(p)
    n = np.arange(n_max)
    with np.errstate(over="ignore", invalid="ignore"):
        e_plus = p.hbar * freq.Omega_plus * (n + 0.5)
        e_minus = p.hbar * freq.Omega_minus * (n + 0.5)
        table = e_plus[:, None] + e_minus[None, :]
    if not np.all(np.isfinite(table)):
        raise ValueError("energies overflow double precision in the spectrum")
    return table


# -- tensor quantum space -------------------------------------------------


class TensorState:
    """Coefficients c[n+, m+, n-, m-] on the two-sector quantum basis."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: FockSpace, coeffs: np.ndarray):
        n = space.dim
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.shape != (n, n, n, n):
            raise ValueError(f"expected coefficient shape {(n,) * 4}, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs.view(float))):
            raise ValueError("coefficients must be finite")
        self.space = space
        self.coeffs = coeffs

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "TensorState") -> complex:
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(self.coeffs, other.coeffs))

    def __sub__(self, other: "TensorState") -> "TensorState":
        return TensorState(self.space, self.coeffs - other.coeffs)

    def __repr__(self) -> str:
        return f"TensorState(dim={self.space.dim})"


def tensor_basis_state(space: FockSpace, n_plus: int, n_minus: int, m_plus: int = 0, m_minus: int = 0) -> TensorState:
    c = np.zeros((space.dim,) * 4, dtype=complex)
    c[n_plus, m_plus, n_minus, m_minus] = 1.0
    return TensorState(space, c)


_KET_AXIS = {"+": 0, "-": 2}


def apply_chiral_ladder(state: TensorState, sector: str, raising: bool) -> TensorState:
    """Chiral ladder on the ket index of one sector.

    A_± lowers n_± with sqrt(n); its adjoint raises with sqrt(n+1); the
    top level truncates.
    """
    axis = _KET_AXIS[sector]
    n = state.space.dim
    c = np.moveaxis(state.coeffs, axis, 0)
    out = np.zeros_like(c)
    root = np.sqrt(np.arange(1.0, n))
    if raising:
        out[1:] = root[:, None, None, None] * c[:-1]
    else:
        out[:-1] = root[:, None, None, None] * c[1:]
    return TensorState(state.space, np.moveaxis(out, 0, axis))


def apply_hamiltonian(p: LandauParams, state: TensorState) -> TensorState:
    """(H+ (x) 1 + 1 (x) H-) with H_± = hbar O_± (N + 1/2) on the ket index n_±:
    every |n±><m±| is an eigenvector, of :func:`spectrum` energy E[n+, n-]."""
    return TensorState(state.space, spectrum(p, state.space.dim)[:, None, :, None] * state.coeffs)


def tensor_cs(space: FockSpace, z_plus: complex, z_minus: complex) -> TensorState:
    """Coherent state of the chiral pair.

    Coefficients factor into per-sector terms <n|z> conj(<m|z>), so they
    are z^n conj(z)^m / sqrt(n! m!) with the double Gaussian prefactor
    e^(-(|z+|^2 + |z-|^2)); unit norm in exact arithmetic.
    """
    bound = safe_radius(space)
    if abs(z_plus) > bound or abs(z_minus) > bound:
        raise ValueError(f"coherent labels must stay inside the safe disc |z| <= {bound:.3f}")
    plus, minus = _coherent_columns(space.dim, [z_plus, z_minus])
    coeffs = np.multiply.outer(np.outer(plus, plus.conj()), np.outer(minus, minus.conj()))
    return TensorState(space, coeffs)


# -- thermal phase-space density ------------------------------------------


def _sector_gaps(p: LandauParams, beta: float) -> tuple[float, float]:
    if not (beta > 0) or not np.isfinite(beta):
        raise ValueError("beta must be positive and finite")
    freq = chiral_frequencies(p)
    if freq.Omega_minus <= 0 or freq.Omega_plus <= 0:
        raise ValueError("both chiral frequencies must be positive (flat sector diverges)")
    return beta * p.hbar * freq.Omega_plus, beta * p.hbar * freq.Omega_minus


def husimi(
    p: LandauParams, beta: float, z_plus: complex | np.ndarray, z_minus: complex | np.ndarray
) -> float | np.ndarray:
    """Diagonal coherent-state element of the Gibbs density:

        [1 - e^(-b h O+)] e^(-(1 - e^(-b h O+)) |z+|^2) * (same with -),

    equivalently the product of two oscillator Husimi distributions with
    mean occupations n_± = 1/(e^(b h O_±) - 1).  z_plus and z_minus may be
    arrays; the result broadcasts over them.  Non-finite labels raise
    ``ValueError``."""
    if not (np.isfinite(z_plus).all() and np.isfinite(z_minus).all()):
        raise ValueError("coherent labels must be finite")
    g_plus, g_minus = _sector_gaps(p, beta)
    s_plus = -math.expm1(-g_plus)
    s_minus = -math.expm1(-g_minus)
    return (
        s_plus
        * np.exp(-s_plus * np.abs(z_plus) ** 2)
        * s_minus
        * np.exp(-s_minus * np.abs(z_minus) ** 2)
    )


def partition(p: LandauParams, beta: float) -> tuple[float, float]:
    """Geometric-series partition functions of the two sectors."""
    g_plus, g_minus = _sector_gaps(p, beta)
    z_plus = math.exp(-g_plus / 2.0) / -math.expm1(-g_plus)
    z_minus = math.exp(-g_minus / 2.0) / -math.expm1(-g_minus)
    return z_plus, z_minus


def husimi_trace_residual(p: LandauParams, beta: float, scheme: QuadratureScheme) -> float:
    """|(1/pi^2) double-integral of the Husimi density - 1|.

    The radial variable of each sector is rescaled by its Gaussian width
    so the Gauss-Laguerre rule integrates the factor exactly; the density
    is radial, so each ring is evaluated once and carries the scheme's
    ring weight.  The two sector integrals multiply because the density
    factorizes.
    """
    g_plus, g_minus = _sector_gaps(p, beta)
    s = (-math.expm1(-g_plus), -math.expm1(-g_minus))
    sector_vals = []
    for which, scale in enumerate(s):
        radii = np.sqrt(scheme.radial_nodes / scale)
        pair = (radii, 0.0) if which == 0 else (0.0, radii)
        vals = husimi(p, beta, *pair) / s[1 - which]
        sector_vals.append(float(np.sum(scheme.ring_weights / scale * vals)))
    return abs(sector_vals[0] * sector_vals[1] - 1.0)


# -- lowest level and reproducing kernel ----------------------------------


def lll_state(m: int, z_plus: complex) -> complex:
    """Lowest-level wavefunction of angular index m at the point z_plus,
    with magnetic length 1:  (2 pi m!)^(-1/2) (z/sqrt(2))^m e^(-|z|^2/4),
    the coherent overlap at z/sqrt(2) over sqrt(2 pi)."""
    return lll_overlap(m, complex(z_plus) / math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)


def lll_overlap(m: int, z_tilde: complex) -> complex:
    """Coherent overlap form <m|z> = e^(-|z|^2/2) z^m / sqrt(m!), entry m
    of column 0 of D(z)."""
    if m < 0:
        raise ValueError("angular index must be nonnegative")
    return complex(_coherent_columns(m + 1, z_tilde)[0, m])


def lll_projector(space: FockSpace) -> SuperOp:
    """Orthogonal projector onto the n=0 row of the quantum space:
    X -> |0><0| X; rank N on the truncation."""
    e00 = basis_element(space, 0, 0)
    return vee(e00, identity(space))


def reproducing_kernel(space: FockSpace, z: complex, z_prime: complex) -> complex:
    """The truncated exponential series sum_(m<N) (z conj(z'))^m / m!,
    summed term by term: the Gaussian-weight reproducing kernel
    e^(z conj(z')) up to the truncation tail.  Non-finite labels raise
    ``ValueError``.
    """
    if not (np.isfinite(z) and np.isfinite(z_prime)):
        raise ValueError("kernel labels must be finite")
    w = complex(z) * np.conj(z_prime)
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for m in range(space.dim):
        total += term
        term *= w / (m + 1)
    return total


def project_hol(f, scheme: QuadratureScheme, z: complex) -> complex:
    """Holomorphic projection (1/pi) integral e^(z conj(w)) f(w) e^(-|w|^2) d^2w.

    Reproduces holomorphic polynomials of degree within the scheme's
    exactness range: project_hol(w -> w^k)(z) = z^k.  The black box f is
    evaluated on every node; each ring's sum is weighted by ring_weights / A.
    A non-finite z raises ``ValueError``.
    """
    if not np.isfinite(z):
        raise ValueError("projection point must be finite")
    ws = scheme.z_nodes
    vals = np.asarray(f(ws), dtype=complex)
    kernel = np.exp(z * ws.conj()) * np.exp(-np.abs(ws) ** 2)
    rings = (kernel * vals).reshape(-1, scheme.angular_count).sum(axis=1)
    return complex(rings @ (scheme.ring_weights / scheme.angular_count))


# -- uncertainties of the right-action quadratures ------------------------


def uncertainty_report(p: LandauParams, state: Operator) -> dict:
    """Means, variances and uncertainty products of the noncommutative
    position and momentum quadratures in the given quantum state.

    Positions act by right multiplication with the ladder combination,
    momenta by the commutator (right minus left action):

        X = sqrt(theta/2) (a_R + a_R†),     P_X = -i hbar/sqrt(2 theta) [a_R - a_R†, .],
        Y = i sqrt(theta/2) (a_R† - a_R),   P_Y = -hbar/sqrt(2 theta) [a_R + a_R†, .].

    theta = 0 makes the momentum scale singular and is rejected.
    """
    if p.theta <= 0:
        raise ValueError("theta must be positive for the uncertainty table")
    momentum = p.hbar * p.hbar / p.theta
    if not (math.isfinite(momentum * momentum) and math.isfinite(p.theta * p.theta)):
        raise ValueError("uncertainty products theta^2 or (hbar^2/theta)^2 overflow double precision")
    psi = state.mat / np.linalg.norm(state.mat)
    a = annihilation(state.space).mat
    adag = a.conj().T
    sq = math.sqrt(p.theta / 2.0)
    sp = p.hbar / math.sqrt(2.0 * p.theta)

    def op_x(m):
        return sq * (m @ a + m @ adag)

    def op_y(m):
        return 1j * sq * (m @ adag - m @ a)

    def op_px(m):
        c = a - adag
        return -1j * sp * (m @ c - c @ m)

    def op_py(m):
        d = a + adag
        return -sp * (m @ d - d @ m)

    report: dict[str, float] = {}
    variances = {}
    for name, op in (("X", op_x), ("Y", op_y), ("PX", op_px), ("PY", op_py)):
        first = op(psi)
        mean = np.vdot(psi, first)
        second = np.vdot(psi, op(first))
        var = second.real - mean.real**2
        report[f"mean_{name}"] = float(mean.real)
        report[f"var_{name}"] = float(var)
        variances[name] = var
    for a_name, b_name in (("X", "Y"), ("X", "PX"), ("Y", "PY"), ("PX", "PY")):
        report[f"product_{a_name}_{b_name}"] = float(
            math.sqrt(max(variances[a_name], 0.0) * max(variances[b_name], 0.0))
        )
    return report


# -- coherent-state completeness on the quantum space ---------------------


def classical_frame(space: FockSpace, scheme: QuadratureScheme) -> np.ndarray:
    """(1/2 pi) integral |z><z| dx dy over normalized coherent vectors of
    the configuration space; the identity up to truncation tails.

    <n|z> is column 0 of D(z), so the frame is the ring Gram of the
    radial columns: real, and nonzero only where n = m (mod A)."""
    return scheme._ring_gram(scheme._radial_column(space)[:, :, None])


def tensor_resolution_residual(space: FockSpace, scheme: QuadratureScheme) -> float:
    """Deviation of the two-sector resolution from the identity on the
    block of states with all four indices <= N/4.

    Each sector resolves as the sandwich X -> P X P of the classical frame
    P, dense form kron(P, P) (P is real), whose block columns are the
    krons of P's block columns.  For small spaces the full tensor
    operator is formed; otherwise the sector deviations are combined
    into the exact triangle bound r+ (1 + r-) + r-."""
    n = space.dim
    keep = np.arange(n // 4 + 1)
    p = classical_frame(space, scheme)[:, keep]
    e = np.eye(n)[:, keep]
    sector, eye = np.kron(p, p), np.kron(e, e)
    if n**4 <= 4096:
        return _column_block_norm(np.kron(sector, sector) - np.kron(eye, eye))
    r = _column_block_norm(sector - eye)
    return r * (1.0 + r) + r


def diagonal_cs_channel(space: FockSpace, scheme: QuadratureScheme) -> np.ndarray:
    """Frame operator of the diagonal coherent family |z><z| viewed as
    vectors of the quantum space: a Husimi-smoothing channel, not the
    identity (its |0><0| diagonal element is 1/2).

    |z><z| has entries <n|z> conj(<m|z>) of charge n - m, so the channel
    is the ring Gram of the radial outer products: real."""
    c = scheme._radial_column(space)
    return scheme._ring_gram(c[:, :, None] * c[:, None, :])
