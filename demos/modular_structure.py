#
# Tomita-Takesaki objects of a thermal state, realized on the space of
# Hilbert-Schmidt operators: S = J Delta^(1/2), the modular flow, and
# the thermal boundary condition.
#
import numpy as np

from hsqm import (
    FockSpace,
    ModularData,
    Operator,
    ThermalSpec,
    basis_element,
    delta_power,
    hs_norm,
    kms_residual,
    modular_conjugation,
    modular_flow,
    polar_check,
    state_eval,
    tomita_s,
)

N, omega, beta = 10, 1.0, 0.9
space = FockSpace(N)
md = ModularData.from_thermal(space, ThermalSpec(omega, beta))

print(f"Thermal state on {N} levels, omega*beta = {omega * beta}")
print("=" * 60)

print("\nPolar decomposition S = J Delta^(1/2):")
print("  max residual over the operator basis:", f"{polar_check(md):.2e}")

s = tomita_s(md)
print("\nTomita map on rank-one basis elements |j><i| -> factor * |i><j|:")
for j, i in ((3, 0), (0, 3), (5, 2)):
    out = s(basis_element(space, j, i))
    print(f"  (j,i)=({j},{i}): factor {out.mat[i, j].real:.6f}"
          f"   [exp(-(j-i) w b / 2) = {np.exp(-(j - i) * omega * beta / 2):.6f}]")

delta = delta_power(md, 1.0)  # the modular operator
x = basis_element(space, 4, 1)
ratio = hs_norm(delta(x)) / hs_norm(x)
print("\nModular operator eigenvalue on |4><1|:",
      f"{ratio:.6f}  [exp(-(4-1) w b) = {np.exp(-3 * omega * beta):.6f}]")

rng = np.random.default_rng(0)
m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
m = (m + m.conj().T) / 2
m /= np.linalg.norm(m, 2)
obs = Operator(space, m)

print("\nModular flow: group law and state invariance")
flow_resid = hs_norm(modular_flow(md, 0.3)(modular_flow(md, 0.4)(obs)) - modular_flow(md, 0.7)(obs))
inv_resid = abs(state_eval(md, modular_flow(md, 0.8)(obs)) - state_eval(md, obs))
print(f"  sigma_0.3 o sigma_0.4 vs sigma_0.7: {flow_resid:.2e}")
print(f"  Tr[rho sigma_t(A)] - Tr[rho A]:     {inv_resid:.2e}")

print("\nThermal boundary condition at several times:")
rng2 = np.random.default_rng(1)
m2 = rng2.standard_normal((N, N)) + 1j * rng2.standard_normal((N, N))
m2 = (m2 + m2.conj().T) / 2
m2 /= np.linalg.norm(m2, 2)
obs2 = Operator(space, m2)
times = (-1.0, 0.0, 0.5, 1.0)
for t, residual in zip(times, kms_residual(md, obs, obs2, times)):
    print(f"  t={t:+.1f}: residual {residual:.2e}")

j = modular_conjugation(space)
print("\nModular conjugation squares to the identity:",
      f"{hs_norm(j(j(obs)) - obs):.2e}")
