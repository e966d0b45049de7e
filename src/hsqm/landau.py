"""Charged particle on the noncommutative plane with a harmonic trap.

The model is a constant perpendicular magnetic field plus an isotropic
harmonic potential, with position commutators [x^i, x^j] = i theta e^ij.
A chiral decomposition turns it into two commuting oscillators with
dressed frequencies Omega~_± = Omega~ ± omega~_c / 2, realized on the
tensor product of two quantum (Hilbert-Schmidt) spaces with basis
|n+, n-; m+, m-) = |n+><m+| (x) |n-><m-|.

Provided here: the dressed frequencies and spectrum, the thermal Husimi
distribution and partition functions, the lowest-level reproducing
kernel e^(z conj(z')), holomorphic projection, the position / momentum
uncertainty table of the right-action quadratures, and the residual of
the sector resolution X -> P X P of the classical frame P.

Conventions: hbar is explicit in the dynamical quantities.

Every coherent vector <n|z> = e^(-|z|^2/2) z^n / sqrt(n!) is column 0 of
the closed-form D(z), computed on that column alone, and every
phase-plane frame is summed ring by ring through the polar identity of
:mod:`hsqm.quadrature` (R real radial vectors, entries of equal charge
only), not over the K = R * A nodes; the frames come out real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import hs_space
from .fock import FockSpace, Operator, annihilation
from .quadrature import QuadratureScheme

__all__ = [
    "LandauParams",
    "ChiralFrequencies",
    "chiral_frequencies",
    "spectrum",
    "husimi",
    "partition",
    "husimi_trace_residual",
    "reproducing_kernel",
    "project_hol",
    "uncertainty_report",
    "tensor_resolution_residual",
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
    first-order-in-theta dressing of the cyclotron frequency; it can push
    Omega_minus negative (at omega0 = 0, every 0 < M w_c theta < 2 does):
    the thermal functions reject that, ``spectrum`` does not.  Parameters whose
    closed forms overflow double precision raise ``ValueError`` too.
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
    ``ValueError``, and so does a beta so small that the prefactor s+ s-
    (each s about b h O) falls below the smallest normal double."""
    if not (np.isfinite(z_plus).all() and np.isfinite(z_minus).all()):
        raise ValueError("coherent labels must be finite")
    g_plus, g_minus = _sector_gaps(p, beta)
    s_plus = -math.expm1(-g_plus)
    s_minus = -math.expm1(-g_minus)
    if s_plus * s_minus < np.finfo(float).tiny:
        raise ValueError(f"beta = {beta:g} is too small: the Husimi prefactor s+ s- underflows double precision")
    return (
        s_plus
        * np.exp(-s_plus * np.abs(z_plus) ** 2)
        * s_minus
        * np.exp(-s_minus * np.abs(z_minus) ** 2)
    )


def partition(p: LandauParams, beta: float) -> tuple[float, float]:
    """Geometric-series partition functions of the two sectors; a value
    that overflows double precision raises ``ValueError``."""
    g_plus, g_minus = _sector_gaps(p, beta)
    z_plus = math.exp(-g_plus / 2.0) / -math.expm1(-g_plus)
    z_minus = math.exp(-g_minus / 2.0) / -math.expm1(-g_minus)
    if not (math.isfinite(z_plus) and math.isfinite(z_minus)):
        raise ValueError("partition functions overflow double precision")
    return z_plus, z_minus


def husimi_trace_residual(p: LandauParams, beta: float, scheme: QuadratureScheme) -> float:
    """|(1/pi^2) double-integral of the Husimi density - 1|.

    The radial variable of each sector is rescaled by its Gaussian width
    so the Gauss-Laguerre rule integrates the factor exactly; the density
    is radial, so each ring is evaluated once and carries the scheme's
    ring weight.  The two sector integrals multiply because the density
    factorizes.  A beta so small that the rescaled nodes overflow raises
    ``ValueError``.
    """
    g_plus, g_minus = _sector_gaps(p, beta)
    s = (-math.expm1(-g_plus), -math.expm1(-g_minus))
    sector_vals = []
    for which, scale in enumerate(s):
        with np.errstate(over="ignore"):
            rescaled = scheme.radial_nodes / scale
        if not np.all(np.isfinite(rescaled)):
            raise ValueError(f"beta = {beta:g} is too small: the rescaled radial nodes overflow double precision")
        radii = np.sqrt(rescaled)
        pair = (radii, 0.0) if which == 0 else (0.0, radii)
        vals = husimi(p, beta, *pair) / s[1 - which]
        sector_vals.append(float(np.sum(scheme.ring_weights / scale * vals)))
    return abs(sector_vals[0] * sector_vals[1] - 1.0)


# -- lowest level and reproducing kernel ----------------------------------


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


def tensor_resolution_residual(space: FockSpace, scheme: QuadratureScheme) -> float:
    """Deviation of the two-sector resolution from the identity on the
    block of states with all four indices <= N/4.

    Each sector resolves as X -> P X P, dense form kron(P, P), with P the
    real classical frame, diagonal (the angular sum keeps equal charges
    only), so its deviation r is max |f_a f_b - 1| over a, b <= N/4, with
    f = diag(P) from the ring Gram of the radial columns.  The sectors
    combine into the exact bound r+ (1 + r-) + r-, at every N."""
    column = scheme._radial_column(space)
    f = np.diagonal((column.T * scheme.ring_weights) @ column)[hs_space._block_levels(space)]
    r = float(np.max(np.abs(np.multiply.outer(f, f) - 1.0)))
    return r * (1.0 + r) + r
