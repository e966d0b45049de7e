"""Truncated Fock space primitives.

A single bosonic mode is kept on its lowest ``N`` number states
|0>, ..., |N-1>.  Everything downstream (the Hilbert-Schmidt calculus,
modular objects, phase-space maps) is built from the dense operators
returned here: ladder operators, the oscillator Hamiltonian, stacks of
Weyl displacement operators, and Gibbs densities.

Truncation discipline: a ladder operator of level-raising degree ``k``
is only trustworthy on the block of levels ``0 .. N-1-k``; identities
are asserted on such "safe blocks" throughout the test suite.

Displacement entries are exact (untruncated) matrix elements.  Their
magnitude is the normalized Laguerre function

    h_n^k(t) = sqrt(n!/(n+k)!) t^(k/2) e^(-t/2) L_n^k(t),   t = |a|^2,

with |h| <= 1, computed in numpy by the three-term recurrence in n

    h_(n+1) = ((2n+1+k-t) h_n - sqrt(n(n+k)) h_(n-1)) / sqrt((n+1)(n+1+k)),

from h_0^k = exp(k log|a| - t/2 - log(k!)/2), with log k! from the exact
integer factorials.  Each label carries one log shift, fixed before the
loop, so that e^(-t/2) does not underflow at large t (N = 256 on the
R = 512 radial rule reaches t = 2,003); small labels run unshifted.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockSpace",
    "Operator",
    "ThermalSpec",
    "annihilation",
    "creation",
    "identity",
    "osc_hamiltonian",
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

    Doubles as an element of the Hilbert-Schmidt space B2(H_N); see
    :mod:`hsqm.hs_space`.
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


def osc_hamiltonian(space: FockSpace, omega: float) -> Operator:
    """Harmonic oscillator Hamiltonian, diagonal with levels omega*(n + 1/2)."""
    if not (omega > 0):
        raise ValueError("omega must be positive")
    return Operator(space, np.diag(omega * (np.arange(space.dim) + 0.5)))


#: The recurrence runs on h e^shift with one shift per label,
#: clip(t/2 - _SHIFT_FREE, 0, _SHIFT_MAX): h_0 starts no lower than
#: e^-_SHIFT_FREE up to t = _T_MAX, and since |h| <= 1 no value exceeds
#: e^_SHIFT_MAX / scale (1/scale is below 30 for n <= 537).  Labels with
#: t <= 2 _SHIFT_FREE run unshifted.
_SHIFT_FREE = 350.0
_SHIFT_MAX = 700.0
_T_MAX = 2.0 * (_SHIFT_FREE + _SHIFT_MAX)


@functools.lru_cache(maxsize=16)
def _half_log_factorials(n_levels: int) -> np.ndarray:
    """(1/2) log k! for k < n_levels, from the exact integer factorials."""
    factorials = itertools.accumulate(range(1, n_levels), operator.mul, initial=1)
    table = np.array([0.5 * math.log(f) for f in factorials])
    table.setflags(write=False)
    return table


def _step_coefficients(n_count: int, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope, intercept and scale of the normalized Laguerre recurrence at
    n < n_count and the given orders, tables indexed [n, order].

    The recurrence h_(n+1) = p_n h_n - b_n h_(n-1), with
    p_n = a_n ((2n + 1 + k) - t), a_n = 1/sqrt((n+1)(n+1+k)) and
    b_n = sqrt(n(n+k)) a_n, runs on g_n = h_n / scale_n, with
    scale_(n+1) = b_n scale_(n-1) and scale_0 = scale_1 = 1, so that a step
    is two operations:  g_n = (intercept_n - slope_n t) g_(n-1) - g_(n-2).
    Row n = 0 has slope and intercept 0.
    """
    n, k = np.arange(n_count, dtype=float)[:, None], np.asarray(orders, dtype=float)
    a = 1.0 / np.sqrt((n + 1.0) * (n + 1.0 + k))
    b = np.sqrt(n * (n + k)) * a
    scale = np.ones((n_count, k.size))
    scale[2::2] = np.cumprod(b[1::2], axis=0)[: (n_count - 1) // 2]
    scale[3::2] = np.cumprod(b[2::2], axis=0)[: (n_count - 2) // 2]
    slope = np.zeros_like(scale)
    slope[1:] = a[:-1] * scale[:-1] / scale[1:]
    return slope, slope * (2.0 * n - 1.0 + k), scale


@functools.lru_cache(maxsize=16)
def _step_table(n_levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_step_coefficients` of every n, k < N, read-only and shared."""
    tables = _step_coefficients(n_levels, np.arange(n_levels))
    for table in tables:
        table.setflags(write=False)
    return tables


def _laguerre_functions(t: np.ndarray, log_h0: np.ndarray, steps: tuple[np.ndarray, ...]) -> np.ndarray:
    """Normalized Laguerre functions h_n^k(t) = sqrt(n!/(n+k)!) t^(k/2) e^(-t/2) L_n^k(t)
    at every n and order of ``steps`` (:func:`_step_coefficients`, shape
    (n, orders, 1) each) and every label t: shape (n, orders, len(t)),
    started from log h_0 = ``log_h0`` (shape (orders, len(t))).

    Each label runs scaled by its own e^shift, removed after the loop (see
    ``_SHIFT_FREE``).
    """
    slope, intercept, scale = steps
    g = slope * -t
    g += intercept
    shifted = (t > 2.0 * _SHIFT_FREE).any()
    if shifted:
        shift = np.clip(t / 2.0 - _SHIFT_FREE, 0.0, _SHIFT_MAX)
        log_h0 = log_h0 + shift
    np.exp(log_h0, out=g[0])
    if len(g) > 1:
        g[1] *= g[0]
    for below, here, above in zip(g, g[1:], g[2:]):
        above *= here
        above -= below
    g *= scale
    if shifted:
        g *= np.exp(-shift)
    return g


def _closed_form_support(rows: np.ndarray, cols: np.ndarray, n_levels: int) -> tuple:
    """Index tables of the closed form on the entries (rows[p], cols[p]).

    An entry's magnitude is the normalized Laguerre function h_lo^k(|a|^2)
    of its (lo, k) = (min(m, n), |m - n|), computed by one recurrence in n
    up to the largest lo, vectorized over the distinct orders k in
    ``orders``, and gathered through ``flat``; its phase depends only on the
    charge m - n, computed once per distinct value in ``charges`` and
    gathered through ``charge``.
    """
    lo, k = np.minimum(rows, cols), np.abs(rows - cols)
    orders, order = np.unique(k, return_inverse=True)
    n_count = lo.max(initial=0) + 1
    steps = tuple(np.ascontiguousarray(table[:n_count, orders, None]) for table in _step_table(n_levels))
    charges, charge = np.unique(rows - cols, return_inverse=True)
    return orders, _half_log_factorials(n_levels)[orders], steps, lo * orders.size + order, charges[:, None], charge


def _read_only(support: tuple) -> tuple:
    """A cached support, its arrays read-only and shared."""
    orders, half_log_fact, steps, flat, charges, charge = support
    for table in (orders, half_log_fact, *steps, flat, charges, charge):
        table.setflags(write=False)
    return support


@functools.lru_cache(maxsize=16)
def _full_support(n_levels: int) -> tuple:
    """:func:`_closed_form_support` of all N x N entries, row-major."""
    rows, cols = np.divmod(np.arange(n_levels * n_levels), n_levels)
    return _read_only(_closed_form_support(rows, cols, n_levels))


@functools.lru_cache(maxsize=16)
def _column_support(n_levels: int) -> tuple:
    """:func:`_closed_form_support` of column 0."""
    return _read_only(_closed_form_support(np.arange(n_levels), np.zeros(n_levels, int), n_levels))


def _closed_form_entries(alphas: np.ndarray, support: tuple) -> np.ndarray:
    """Entries <m|D(a)|n> at the (m, n) of ``support`` for every label in
    the 1-d complex array ``alphas``, shape (K, P).

    The magnitude is h_lo^k(|a|^2) (:func:`_laguerre_functions`), started
    from h_0^k = |a|^k e^(-|a|^2/2) / sqrt(k!) in log space; the phase
    (a/|a|)^(m-n), with the sign (-1)^|m-n| of the m < n entries, is taken
    per charge m - n.  A zero label gives exactly the identity.  A
    non-finite label raises ``ValueError``.
    """
    if not np.isfinite(alphas).all():
        raise ValueError("displacement labels must be finite")
    orders, half_log_fact, steps, flat, charges, charge = support
    r = np.abs(alphas)
    nonzero = r > 0
    # a unit phase of 0 at a = 0 zeroes every charge but c = 0 (0**0 = 1);
    # the angle, unlike a / |a|, stays finite for subnormal labels
    unit = np.where(nonzero, np.exp(1j * np.angle(alphas)), 0.0)
    # tables run over (charge or entry, label), so each gather below copies
    # whole rows; the result is returned as its (K, P) transpose
    phase = np.where(charges >= 0, unit, -unit.conj()) ** np.abs(charges)

    t = r**2
    log_h0 = np.multiply.outer(orders, np.log(np.where(nonzero, r, 1.0)))
    log_h0 -= half_log_fact[:, None]
    log_h0 -= t / 2.0
    entries = phase[charge]
    entries *= _laguerre_functions(t, log_h0, steps).reshape(-1, alphas.size)[flat]
    if not nonzero.all():
        # h_n^0(0) = 1 exactly, which the recurrence meets only to rounding
        entries[:, ~nonzero] = charges[charge] == 0
    return entries.T


def _coherent_columns(n_levels: int, alphas: np.ndarray) -> np.ndarray:
    """Column 0 of D(a), the coherent vectors <n|a> for n < n_levels, per label: shape (K, N)."""
    return _closed_form_entries(np.atleast_1d(np.asarray(alphas, dtype=complex)), _column_support(n_levels))


def displacement_stack(space: FockSpace, alphas: np.ndarray) -> np.ndarray:
    """Matrices of the Weyl displacement operator
    D(alpha) = exp(alpha a† - conj(alpha) a) for a whole array of labels,
    shape (K, N, N); unitary up to truncation.

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


def _gibbs_weights(space: FockSpace, spec: ThermalSpec) -> np.ndarray:
    """The N Gibbs weights, prop. to e^(-n w b), renormalized over the
    retained levels so they sum to 1 at any truncation; the analytic
    prefactor (1 - e^(-w b)) is recovered as N grows."""
    exponents = np.zeros(space.dim)
    exponents[1:] = -np.arange(1, space.dim) * spec.omega * spec.beta
    weights = np.exp(exponents)
    weights /= weights.sum()
    return weights


def gibbs_density(space: FockSpace, spec: ThermalSpec) -> Operator:
    """Oscillator Gibbs density, diagonal with the weights of :func:`_gibbs_weights`."""
    return Operator(space, np.diag(_gibbs_weights(space, spec)).astype(complex))
