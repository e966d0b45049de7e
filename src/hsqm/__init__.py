"""Quantum mechanics in the Hilbert-Schmidt picture on truncated Fock spaces.

Subpackages by theme:

* :mod:`hsqm.fock` -- ladder operators, displacement stacks, Gibbs states;
* :mod:`hsqm.hs_space` -- the B2(H) norm and basis, and the A ∨ B superoperator calculus;
* :mod:`hsqm.commutant` -- finite-dimensional von Neumann algebra tooling;
* :mod:`hsqm.modular` -- Tomita-Takesaki objects S, J, Delta, modular flow, KMS checks;
* :mod:`hsqm.wigner` -- Weyl operators and the Wigner map with its inverse;
* :mod:`hsqm.thermal` -- coherent states displaced from the Gibbs purification;
* :mod:`hsqm.landau` -- the noncommutative Landau model with harmonic trap;
* :mod:`hsqm.quadrature` -- the radial Gauss-Laguerre x angular product rule.
"""

from .commutant import *  # noqa: F403
from .fock import *  # noqa: F403
from .hs_space import *  # noqa: F403
from .landau import *  # noqa: F403
from .modular import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .thermal import *  # noqa: F403
from .wigner import *  # noqa: F403

__version__ = "0.1.0"
