"""Truncated Fock space primitives.

A single bosonic mode is kept on its lowest ``N`` number states
|0>, ..., |N-1>.  Everything downstream (the Hilbert-Schmidt calculus,
modular objects, phase-space maps) is built from the dense operators
returned here: ladder operators, quadratures, the oscillator
Hamiltonian, Weyl displacement operators, and Gibbs densities.

Truncation discipline: a ladder operator of level-raising degree ``k``
is only trustworthy on the block of levels ``0 .. N-1-k``; identities
are asserted on such "safe blocks" throughout the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

__all__ = [
    "FockSpace",
    "Operator",
    "ThermalSpec",
    "annihilation",
    "creation",
    "position",
    "momentum",
    "number",
    "identity",
    "osc_hamiltonian",
    "displacement",
    "displacement_stack",
    "gibbs_density",
]


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space with levels |0> .. |dim-1>."""

    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise ValueError(f"Fock space needs dim >= 2, got {self.dim!r}")


class Operator:
    """Dense complex square matrix attached to a :class:`FockSpace`.

    Doubles as an element of the Hilbert-Schmidt space B2(H_N); the
    inner product lives in :mod:`hsqm.hs_space`.
    """

    __slots__ = ("space", "mat")

    def __init__(self, space: FockSpace, mat: np.ndarray):
        mat = np.ascontiguousarray(mat, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise ValueError(f"expected {(space.dim, space.dim)} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Operator is immutable")

    def dag(self) -> "Operator":
        """Hermitian adjoint."""
        return Operator(self.space, self.mat.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def _same_space(self, other: "Operator") -> None:
        if self.space != other.space:
            raise ValueError("operators live on different Fock spaces")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_space(other)
        return Operator(self.space, self.mat - other.mat)

    def __mul__(self, c: complex) -> "Operator":
        return Operator(self.space, self.mat * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.mat)

    def __repr__(self) -> str:
        return f"Operator(dim={self.space.dim})"


@dataclass(frozen=True)
class ThermalSpec:
    """Oscillator frequency and inverse temperature of a Gibbs state.

    ``beta`` may be ``math.inf`` (ground-state limit).
    """

    omega: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.omega > 0):
            raise ValueError("omega must be positive")
        if not (self.beta > 0):
            raise ValueError("beta must be positive")


def identity(space: FockSpace) -> Operator:
    return Operator(space, np.eye(space.dim))


def annihilation(space: FockSpace) -> Operator:
    """Ladder-down operator: a|n> = sqrt(n)|n-1> on retained levels."""
    return Operator(space, np.diag(np.sqrt(np.arange(1.0, space.dim)), k=1))


def creation(space: FockSpace) -> Operator:
    """Adjoint of :func:`annihilation`."""
    return annihilation(space).dag()


def number(space: FockSpace) -> Operator:
    return Operator(space, np.diag(np.arange(float(space.dim))))


def position(space: FockSpace) -> Operator:
    """Q = (a + a†)/sqrt(2); Hermitian."""
    a = annihilation(space).mat
    return Operator(space, (a + a.conj().T) / math.sqrt(2.0))


def momentum(space: FockSpace) -> Operator:
    """P = (a - a†)/(i sqrt(2)); Hermitian."""
    a = annihilation(space).mat
    return Operator(space, -1j * (a - a.conj().T) / math.sqrt(2.0))


def osc_hamiltonian(space: FockSpace, omega: float) -> Operator:
    """Harmonic oscillator Hamiltonian, diagonal with levels omega*(n + 1/2)."""
    if not (omega > 0):
        raise ValueError("omega must be positive")
    return Operator(space, np.diag(omega * (np.arange(space.dim) + 0.5)))


def _closed_form_support(rows: np.ndarray, cols: np.ndarray, n_levels: int) -> tuple[np.ndarray, ...]:
    """Index tables of the closed form on the entries (rows[p], cols[p]).

    An entry's magnitude depends only on the pair (lo, k) = (min(m, n),
    |m - n|), so it is computed once per distinct pair and gathered
    through ``pair``; its phase depends only on the charge m - n, computed
    once per distinct value in ``charges`` and gathered through ``charge``.
    """
    pairs, pair = np.unique(np.minimum(rows, cols) * n_levels + np.abs(rows - cols), return_inverse=True)
    charges, charge = np.unique(rows - cols, return_inverse=True)
    lo, k = np.divmod(pairs, n_levels)
    # log sqrt(min!/max!), through log-gamma
    log_ratio = 0.5 * (gammaln(lo + 1) - gammaln(lo + k + 1))
    # per-pair and per-charge values as columns against the labels' row
    return lo[:, None], k[:, None], log_ratio[:, None], pair, charges[:, None], charge


@functools.lru_cache(maxsize=16)
def _full_support(n_levels: int) -> tuple[np.ndarray, ...]:
    """:func:`_closed_form_support` of all N x N entries, row-major,
    read-only and shared."""
    rows, cols = np.divmod(np.arange(n_levels * n_levels), n_levels)
    tables = _closed_form_support(rows, cols, n_levels)
    for table in tables:
        table.setflags(write=False)
    return tables


def _closed_form_entries(alphas: np.ndarray, support: tuple[np.ndarray, ...]) -> np.ndarray:
    """Entries <m|D(a)|n> at the (m, n) of ``support`` for every label in
    the 1-d complex array ``alphas``, shape (K, P).

    The factor sqrt(n!/m!) |a|^|m-n| e^(-|a|^2/2) is formed in log
    space inside one exponential, so it stays finite where |a|^|m-n| alone
    would overflow (large N); the phase (a/|a|)^(m-n), with the sign
    (-1)^|m-n| of the m < n entries, is taken per charge m - n.
    """
    lo, k, log_ratio, pair, charges, charge = support
    r = np.abs(alphas)
    nonzero = r > 0
    # a unit phase of 0 at a = 0 zeroes every charge but c = 0 (0**0 = 1);
    # the angle, unlike a / |a|, stays finite for subnormal labels
    unit = np.where(nonzero, np.exp(1j * np.angle(alphas)), 0.0)
    # tables run over (charge or pair, label), so each gather below copies
    # whole rows; the result is returned as its (K, P) transpose
    phase = np.where(charges >= 0, unit, -unit.conj()) ** np.abs(charges)

    t = r**2
    mag = log_ratio + k * np.log(np.where(nonzero, r, 1.0))
    mag -= t / 2.0
    np.exp(mag, out=mag)
    mag *= eval_genlaguerre(lo, k, t)

    entries = phase[charge]
    entries *= mag[pair]
    return entries.T


def displacement_stack(space: FockSpace, alphas: np.ndarray) -> np.ndarray:
    """Matrices of D(alpha) for a whole array of labels, shape (K, N, N).

    Entries come from the associated-Laguerre closed form

        <m|D(a)|n> = sqrt(n!/m!) a^(m-n) e^(-|a|^2/2) L_n^(m-n)(|a|^2),  m >= n,

    with the m < n entries filled from D(a)† = D(-a).  Each entry is the
    exact (untruncated) matrix element, so there is no exponential
    truncation artifact per entry; it stays finite at large N (see
    :func:`_closed_form_entries`).  a = 0 gives the identity exactly.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    n_levels = space.dim
    return _closed_form_entries(alphas, _full_support(n_levels)).reshape(-1, n_levels, n_levels)


def displacement(space: FockSpace, alpha: complex) -> Operator:
    """Weyl displacement operator D(alpha) = exp(alpha a† - conj(alpha) a).

    Unitary up to truncation; see :func:`displacement_stack` for the
    entrywise closed form used.
    """
    if not np.isfinite(alpha):
        raise ValueError("displacement label must be finite")
    return Operator(space, displacement_stack(space, np.array([alpha]))[0])


def gibbs_density(space: FockSpace, spec: ThermalSpec) -> Operator:
    """Oscillator Gibbs density, diagonal with weights prop. to e^(-n w b).

    The weights are renormalized over the retained levels so the trace
    is 1 at any truncation; the analytic prefactor (1 - e^(-w b)) is
    recovered as N grows.
    """
    exponents = np.zeros(space.dim)
    exponents[1:] = -np.arange(1, space.dim) * spec.omega * spec.beta
    weights = np.exp(exponents)
    weights /= weights.sum()
    return Operator(space, np.diag(weights).astype(complex))
