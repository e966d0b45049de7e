#
# Ladder operators, quadratures and displacement on a truncated Fock space:
# where truncation bites and where the closed forms stay exact.
#
import numpy as np

from hsqm import FockSpace, annihilation, creation, displacement, osc_hamiltonian, position, momentum

N = 16
space = FockSpace(N)
a = annihilation(space)
adag = creation(space)

print(f"Truncated Fock space with {N} levels")
print("=" * 60)

comm = (a @ adag - adag @ a).mat
print("\n[a, a†] on the retained levels (diagonal):")
print(np.round(np.diag(comm).real, 12))
print("-> identity everywhere except the top level, where the")
print("   truncation absorbs the commutator.")

h = osc_hamiltonian(space, 1.0)
q, p = position(space), momentum(space)
direct = 0.5 * (p @ p + q @ q)
print("\nOscillator Hamiltonian vs (P^2 + Q^2)/2, first diagonal entries:")
print("  closed form:", np.diag(h.mat).real[:6])
print("  quadratures:", np.round(np.diag(direct.mat).real[:6], 12))
print("  top two levels disagree (quadrature products reach past the cut):")
print("  ", np.diag(h.mat).real[-2:], "vs", np.round(np.diag(direct.mat).real[-2:], 6))

alpha = 0.6 + 0.3j
d = displacement(space, alpha)
# D = exp(-iH) for the Hermitian H = i(alpha a† - conj(alpha) a), by its eigenbasis
energies, basis = np.linalg.eigh(1j * (alpha * adag.mat - np.conj(alpha) * a.mat))
oracle = (basis * np.exp(-1j * energies)) @ basis.conj().T
print(f"\nDisplacement D({alpha}) from the Laguerre closed form vs expm:")
print("  max entry deviation on the lower half:",
      f"{np.max(np.abs((d.mat - oracle)[:8, :8])):.2e}")
print("  vacuum survival |<0|D|0>| =", f"{abs(d.mat[0, 0]):.6f}",
      "= exp(-|alpha|^2/2) =", f"{np.exp(-abs(alpha)**2 / 2):.6f}")

npop = d.mat[:, 0]
print("\nDisplaced vacuum photon distribution (Poisson |alpha|^2):")
for n in range(5):
    bar = "#" * int(60 * abs(npop[n]) ** 2)
    print(f"  n={n}: {abs(npop[n])**2:.4f} {bar}")
