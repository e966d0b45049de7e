#
# The Wigner map sends operators to phase-space functions unitarily;
# its inverse reconstructs the operator from quadrature samples.
#
import math

import numpy as np

from hsqm import (
    FockSpace,
    QuadratureScheme,
    basis_element,
    hs_norm,
    unitarity_residual,
    wigner_function,
    wigner_inverse,
)

N = 20
space = FockSpace(N)
scheme = QuadratureScheme.default(N)
print(f"Fock levels: {N}; quadrature: {scheme}")
print("=" * 60)

x00 = basis_element(space, 0, 0)
print("\nTransform of the vacuum projector along y = 0:")
for xv in (0.0, 1.0, 2.0, 3.0):
    val = wigner_function(x00)(xv, 0.0).real
    gauss = math.exp(-xv**2 / 4) / math.sqrt(2 * math.pi)
    print(f"  x={xv:.0f}: {val:.6f}   [Gaussian {gauss:.6f}]")

print("\nUnitarity: quadrature inner products vs Tr[X† Y]")
pairs = (((0, 0), (0, 0)), ((2, 1), (2, 1)), ((0, 1), (1, 0)), ((3, 3), (1, 1)))
for (a, b), (c, d) in pairs:
    res = unitarity_residual(basis_element(space, a, b), basis_element(space, c, d), scheme)
    print(f"  <W|{a}{b}>,<W|{c}{d}>: residual {res:.2e}")

print("\nRound trip through phase space for a random low-level operator:")
rng = np.random.default_rng(42)
low = rng.standard_normal((N // 2, N // 2)) + 1j * rng.standard_normal((N // 2, N // 2))
mat = np.zeros((N, N), dtype=complex)
mat[: N // 2, : N // 2] = low / np.linalg.norm(low)
from hsqm import Operator

op = Operator(space, mat)
back = wigner_inverse(wigner_function(op), scheme, space)
print("  reconstruction error:", f"{hs_norm(back - op):.2e}")
print("  (the integrand is of Laguerre-weight type, so the rule is exact")
print("   and the error is pure floating point)")
