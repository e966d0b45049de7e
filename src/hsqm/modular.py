"""Tomita-Takesaki modular objects for a faithful density on H_N.

A faithful density rho turns B2(H_N) into a standard form with cyclic
and separating vector Phi = rho^(1/2).  The objects realized here:

* the Tomita map       S(X) = rho^(-1/2) X† rho^(1/2),  S(A Phi) = A† Phi,
* modular conjugation  J(X) = X†,
* modular operator     Delta(X) = rho X rho^(-1), with S = J Delta^(1/2),
* modular flow         sigma_t(A) = rho^(it) A rho^(-it),
* the KMS boundary condition of the Heisenberg flow of the stored
  Hamiltonian at the stored inverse temperature.

Complex powers of rho use its spectral decomposition; eigenvalues are
real and strictly positive (faithfulness is enforced), so there is no
branch ambiguity.
"""

from __future__ import annotations

import numpy as np

from .fock import FockSpace, Operator, ThermalSpec, gibbs_density, osc_hamiltonian
from .hs_space import SuperOp, vee

__all__ = [
    "ModularData",
    "AntilinearMap",
    "modular_operator",
    "modular_conjugation",
    "tomita_s",
    "delta_power",
    "polar_check",
    "modular_flow",
    "kms_residual",
    "state_eval",
]

_FAITHFUL_FLOOR = 1e-14


def _eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues of a Hermitian matrix and its eigenvectors, or None in
    place of the eigenvectors when the matrix is already diagonal."""
    if np.all(mat - np.diag(np.diag(mat)) == 0):
        return np.diag(mat).real.copy(), None
    return np.linalg.eigh(mat)


def _spectral(evecs: np.ndarray | None, w: np.ndarray) -> np.ndarray:
    """V diag(w) V† for the eigenvectors of :func:`_eig`."""
    if evecs is None:
        return np.diag(w)
    return (evecs * w) @ evecs.conj().T


class AntilinearMap:
    """Conjugate-linear map on B2(H_N) of the sandwich form X -> L X† R.

    Carried as the linear part Y -> L Y^T R together with the entrywise
    conjugation flag (the two compose to the adjoint inside).  Checks
    map(cX) = conj(c) map(X) by construction.
    """

    __slots__ = ("space", "left", "right")

    def __init__(self, space: FockSpace, left: np.ndarray, right: np.ndarray):
        self.space = space
        self.left = np.ascontiguousarray(left, dtype=complex)
        self.right = np.ascontiguousarray(right, dtype=complex)
        n = space.dim
        if self.left.shape != (n, n) or self.right.shape != (n, n):
            raise ValueError("sandwich factors have wrong shape")

    def __call__(self, x: Operator) -> Operator:
        if x.space != self.space:
            raise ValueError("operator lives on a different Fock space")
        return Operator(self.space, self.left @ x.mat.conj().T @ self.right)

    # Explicit composition rule; returns the closed form.

    def after_linear(self, sup: SuperOp) -> "AntilinearMap":
        """self ∘ (A ∨ B): antilinear with factors (L B, A† R)."""
        return AntilinearMap(self.space, self.left @ sup.right, sup.left.conj().T @ self.right)

    def __repr__(self) -> str:
        return f"AntilinearMap(dim={self.space.dim})"


class ModularData:
    """Faithful density with its inverse temperature and Hamiltonian.

    The spectral decomposition of rho is cached at construction and the
    object is immutable afterwards.  Densities with an eigenvalue below
    1e-14 of the largest are rejected as non-faithful rather than
    regularized: the modular objects need rho invertible, and silently
    flooring eigenvalues would mask modeling errors.  A supplied
    Hamiltonian must have rho as its Gibbs state at beta; a derived one,
    -(1/beta) ln(rho), lives on rho's own eigenvectors.
    """

    __slots__ = ("space", "rho", "beta", "_evals", "_evecs", "_ham_evals", "_ham_evecs")

    def __init__(self, rho: Operator, beta: float, hamiltonian: Operator | None = None):
        if not (beta > 0) or not np.isfinite(beta):
            raise ValueError("beta must be positive and finite")
        mat = rho.mat
        scale = np.linalg.norm(mat)
        if np.linalg.norm(mat - mat.conj().T) > 1e-12 * max(scale, 1.0):
            raise ValueError("density must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > 1e-10 or abs(np.trace(mat).imag) > 1e-12:
            raise ValueError("density must have unit trace")

        evals, evecs = _eig(mat)
        if np.min(evals) < _FAITHFUL_FLOOR * np.max(evals):
            raise ValueError(
                "density is not faithful at working precision "
                f"(min/max eigenvalue ratio {np.min(evals) / np.max(evals):.3e})"
            )

        self.space = rho.space
        self.rho = rho
        self.beta = float(beta)
        self._evals = evals
        self._evecs = evecs

        if hamiltonian is None:
            # Gibbs convention: H = -(1/beta) ln(rho) on rho's eigenvectors, so e^{-beta H} = rho.
            self._ham_evals, self._ham_evecs = -np.log(evals) / self.beta, evecs
        elif hamiltonian.space != rho.space:
            raise ValueError("Hamiltonian lives on a different Fock space")
        else:
            self._ham_evals, self._ham_evecs = _eig(hamiltonian.mat)
            boltz = np.exp(-self.beta * self._ham_evals)
            if np.linalg.norm(mat - _spectral(self._ham_evecs, boltz / boltz.sum())) > 1e-10:
                raise ValueError("density is not the Gibbs state of the stored Hamiltonian")

    @classmethod
    def from_thermal(cls, space: FockSpace, spec: ThermalSpec) -> "ModularData":
        """Oscillator Gibbs data at the given frequency and temperature."""
        return cls(gibbs_density(space, spec), spec.beta, osc_hamiltonian(space, spec.omega))

    # -- spectral helpers ---------------------------------------------

    def rho_power(self, z: complex) -> np.ndarray:
        """Principal power rho^z through the cached eigendecomposition."""
        return _spectral(self._evecs, self._evals.astype(complex) ** z)

    def ham_phase(self, z: complex) -> np.ndarray:
        """e^{i z H} for complex time z."""
        return _spectral(self._ham_evecs, np.exp(1j * z * self._ham_evals.astype(complex)))

    @property
    def sqrt_rho(self) -> Operator:
        """Phi = rho^(1/2), the cyclic and separating vector in B2."""
        return Operator(self.space, self.rho_power(0.5))


def modular_operator(md: ModularData) -> SuperOp:
    """Delta : X -> rho X rho^(-1); positive with spectrum {l_n / l_m}."""
    return delta_power(md, 1.0)


def delta_power(md: ModularData, s: complex) -> SuperOp:
    """Delta^s : X -> rho^s X rho^(-s) for complex s (s = it: the modular flow)."""
    left = Operator(md.space, md.rho_power(s))
    right = Operator(md.space, md.rho_power(-np.conj(s)))  # adjoint inside vee
    return vee(left, right)


def modular_conjugation(space: FockSpace) -> AntilinearMap:
    """J(X) = X†; antiunitary with J^2 = id and J(rho^(1/2)) = rho^(1/2)."""
    eye = np.eye(space.dim)
    return AntilinearMap(space, eye, eye)


def tomita_s(md: ModularData) -> AntilinearMap:
    """S(X) = rho^(-1/2) X† rho^(1/2); satisfies S(A Phi) = A† Phi."""
    return AntilinearMap(md.space, md.rho_power(-0.5), md.rho_power(0.5))


def _rank_one_images(m: AntilinearMap, a: int) -> np.ndarray:
    """m(|a><b|) for every b, stacked as [b, i, j] = L[i, b] R[a, j]."""
    return m.left.T[:, :, None] * m.right[a][None, None, :]


def polar_check(md: ModularData) -> float:
    """Max basis-wise HS distance between S and J Delta^(1/2).

    Both sides are antilinear sandwiches X -> L X† R (J Delta^(1/2) by the
    composition rule), evaluated independently on every |a><b|, one row a
    of N^3 entries at a time; the polar decomposition S = J Delta^(1/2)
    makes the result vanish to rounding.
    """
    s_map = tomita_s(md)
    j_half = modular_conjugation(md.space).after_linear(delta_power(md, 0.5))
    worst = 0.0
    for a in range(md.space.dim):
        diff = _rank_one_images(s_map, a) - _rank_one_images(j_half, a)
        worst = max(worst, float(np.max(np.linalg.norm(diff, axis=(1, 2)))))
    return worst


def modular_flow(md: ModularData, t: float) -> SuperOp:
    """sigma_t = Delta^(it) : A -> rho^(it) A rho^(-it), a one-parameter
    group that leaves the state Tr[rho .] invariant."""
    return delta_power(md, 1j * t)


def kms_residual(md: ModularData, a: Operator, b: Operator, t: float) -> float:
    """Deviation from the thermal boundary condition at time t.

    With the Heisenberg flow alpha_z(B) = e^{izH} B e^{-izH} of the
    stored Hamiltonian, a Gibbs density e^{-beta H}/Z satisfies

        Tr[rho A alpha_{t + i beta}(B)] = Tr[rho alpha_t(B) A]

    exactly (:class:`ModularData` checks the pairing once, at
    construction); the returned residual is the absolute difference of
    the two traces.  A non-finite t raises ``ValueError``.
    """
    if a.space != md.space or b.space != md.space:
        raise ValueError("operators live on a different Fock space")
    if not np.isfinite(t):
        raise ValueError("KMS time must be finite")
    rho = md.rho.mat

    def flow(mat: np.ndarray, z: complex) -> np.ndarray:
        u = md.ham_phase(z)
        uinv = md.ham_phase(-z)
        return u @ mat @ uinv

    lhs = np.trace(rho @ a.mat @ flow(b.mat, t + 1j * md.beta))
    rhs = np.trace(rho @ flow(b.mat, t) @ a.mat)
    return float(abs(lhs - rhs))


def state_eval(md: ModularData, a: Operator) -> complex:
    """Tr[rho A]; equals <Phi | (A ∨ I)(Phi)> for Phi = rho^(1/2)."""
    if a.space != md.space:
        raise ValueError("operator lives on a different Fock space")
    return complex(np.trace(md.rho.mat @ a.mat))
