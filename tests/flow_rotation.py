"""The direction of the modular flow, truncation-exact.

For the oscillator Gibbs state rho^(it) is the diagonal phase
e^(-i omega beta t n) up to a scalar, and entry mn of D(z) carries the
phase (z/|z|)^(m-n).  So sigma_t(D(z)) = D(e^(-i omega beta t) z) holds
entrywise on H_N, with no Hamiltonian and no truncation leak; a flow
run backwards or at the wrong rate rotates z the wrong way.
"""

import cmath

import numpy as np

from hsqm.fock import FockSpace, Operator, ThermalSpec, displacement_stack
from hsqm.modular import ModularData, modular_flow

N = 24
SPECS = ((1.0, 1.0), (1.5, 0.4))
LABELS = (0.3 + 0.2j, -0.5j, 0.9)
TIMES = (0.3, -1.7, 2.5)
TOL = 1e-13


def flow_rotation_deviation(omega: float, beta: float) -> float:
    """The largest entry of sigma_t(D(z)) - D(e^(-i omega beta t) z) over
    the labels and times above, at N = 24."""
    space = FockSpace(N)
    md = ModularData.from_thermal(space, ThermalSpec(omega, beta))
    worst = 0.0
    for z in LABELS:
        d = Operator(space, displacement_stack(space, [z])[0])
        for t in TIMES:
            diff = modular_flow(md, t)(d).mat - displacement_stack(space, [cmath.exp(-1j * omega * beta * t) * z])[0]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst
