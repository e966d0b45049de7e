"""The value rule of the known-red rows of ``hsqm resolution``.

The ``*_identity_residual`` rows measure the unweighted identity
diagnostic, red by design: the family resolves right multiplication by
rho_beta, so on the block of levels <= N/4 its distance from the
identity is the Gibbs weight gap 1 - lambda_{N//4}.  A red row can still
be wrong, so its printed value must lie within the printed frame
residual of that gap, the rule ``benchmarks/checks.py`` applies too.
"""

import csv

from hsqm.fock import FockSpace, ThermalSpec, _gibbs_weights

PAIRS = {"hiho_identity_residual": "hiho_frame_residual", "xaxa_identity_residual": "xaxa_frame_residual"}


def known_red_excess(raw: bytes, n: int, omega: float = 1.0, beta: float = 1.0) -> dict:
    """For each identity row of a ``resolution --N n`` CSV, how far its
    value lies from 1 - lambda_{n//4} beyond the frame residual; the rule
    holds when every excess is <= 0."""
    rows = {r["name"]: float(r["value"]) for r in csv.DictReader(raw.decode().splitlines()) if r["kind"] == "row"}
    gap = 1.0 - _gibbs_weights(FockSpace(n), ThermalSpec(omega, beta))[n // 4]
    return {ident: abs(rows[ident] - gap) - rows[frame] for ident, frame in PAIRS.items()}
