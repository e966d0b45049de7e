#
# Coherent states displaced from the Gibbs purification: reflection under
# the Tomita map, and what the family actually resolves.
#
import numpy as np

from hsqm import FockSpace, QuadratureScheme, ThermalSpec, gibbs_density, hs_norm
from hsqm.thermal import (
    frame_operator_residual,
    resolution_operator,
    resolution_residual,
    s_beta_reflection,
    thermal_cs,
    thermal_vector,
)

N, omega, beta = 24, 1.0, 1.0
space = FockSpace(N)
spec = ThermalSpec(omega, beta)
scheme = QuadratureScheme.default(N)

print(f"Displaced Gibbs purification on {N} levels, omega*beta = {omega * beta}")
print("=" * 64)

phi = thermal_vector(space, spec)
print("\nPurification Phi = rho^(1/2): unit vector of B2(H), diagonal:")
print("  first amplitudes:", np.round(np.diag(phi.mat).real[:5], 4))

cs = thermal_cs(space, spec, 0.7 + 0.2j)
print("\n|z> = D(z) Phi at z = 0.7+0.2j:")
print("  norm:", f"{hs_norm(cs):.12f}")

print("\nTomita reflection S|z> = |-z> (exact up to truncation):")
for z in (0.4, 0.9j, 0.5 - 0.5j):
    print(f"  z={z}: residual {s_beta_reflection(space, spec, z):.2e}")

print("\nWhat does the family resolve?")
print("  The frame operator of {D(z) Phi} under (1/2pi) dx dy is right")
print("  multiplication by the Gibbs density, not the identity: the")
print("  weight each column carries survives the integral.")
ident = resolution_residual(space, spec, scheme)
frame = frame_operator_residual(space, spec, scheme)
lam = np.diag(gibbs_density(space, spec).mat).real
print(f"  deviation from the identity (low block):    {ident:.6f}")
print(f"  predicted max |lambda_b - 1| on the block:  {max(abs(lam[: N // 4 + 1] - 1)):.6f}")
print(f"  deviation from kron(I, rho):                {frame:.2e}")

dense = resolution_operator(space, spec, scheme)
print("\n  diagonal elements of the assembled operator vs Gibbs weights:")
for b in range(4):
    idx = 0 * N + b
    print(f"    |0><{b}|: {dense[idx, idx]:.6f}   lambda_{b} = {lam[b]:.6f}")
