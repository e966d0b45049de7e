"""Per-task correctness oracle.

Every task output is checked after the timed phase; a task fails on an
exit status of 2, a non-finite output cell, or any red contract other
than the two known-red identity-form contracts of ``resolution`` (c05a),
which must stay red at their closed-form reference value.  Library
tasks are checked against closed forms or independent oracles.

``accuracy`` collects log10(threshold / residual) of every passing
residual contract, so a speed-up that costs digits is visible.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import WIGNER_ROW

#: c05a: the displaced-purification family resolves kron(I, rho_beta), not
#: the identity, so these two contracts are red by design.  Each is paired
#: with the frame residual that bounds its distance from the reference.
KNOWN_RED = {"hiho_identity_residual": "hiho_frame_residual", "xaxa_identity_residual": "xaxa_frame_residual"}
COMMUTATION_TOL = 1e-10
CS_OVERLAP_TOL = 1e-8
WIGNER_ROW_TOL = 1e-10
#: Failure codes of the conjugated-null-vector defect of commutant_basis on
#: complex algebras (it returns vh[rank:], the entrywise conjugates of the
#: null vectors): the "commutant" does not commute, and is_factor is wrong
#: for multi-block algebras.  Only complex (rotated) algebras show it.
KNOWN_DEFECT_CODES = frozenset({"commutation", "is_factor"})


@dataclass
class Verdict:
    ok: bool = True
    reasons: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    expected_red: int = 0
    known_defect: bool = False

    def fail(self, code: str, detail: str = "") -> None:
        self.ok = False
        self.reasons.append((code, detail))

    def residual(self, code: str, value: float, threshold: float) -> None:
        if not (value <= threshold):
            self.fail(code, f"{value:.3e} > {threshold:.1e}")
        elif value > 0:
            self.accuracy.append(math.log10(threshold / value))


def _nonfinite(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def _gibbs_weights(n: int, omega_beta: float) -> np.ndarray:
    w = np.exp(-np.arange(n) * omega_beta)
    return w / w.sum()


def _option(argv: list, flag: str, default: float) -> float:
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def check_cli(argv: list, code: int, out: str, err: str) -> Verdict:
    v = Verdict()
    if code == 2:
        v.fail("exit_2", err.strip()[:200])
        return v
    if code not in (0, 1):
        v.fail("exit_status", str(code))
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        v.fail("no_output")
    if any(_nonfinite(cell) for row in rows for cell in row.values() if cell):
        v.fail("non_finite")
    contracts = {r["name"]: r for r in rows if r.get("kind") == "contract"}
    all_ok = True
    for name, c in contracts.items():
        ok = c["ok"] == "true"
        all_ok &= ok
        if argv[0] == "resolution" and name in KNOWN_RED:
            continue
        if not ok:
            v.fail("red_contract", f"{name}={c['value']}")
            continue
        # residual contracts have thresholds in (0, 1); the commutant
        # command's equality contracts carry integer or boolean thresholds
        try:
            value, threshold = float(c["value"]), float(c["threshold"])
        except ValueError:
            continue
        if 0.0 < threshold < 1.0:
            v.residual(name, value, threshold)
    if argv[0] == "resolution":
        _check_known_red(v, argv, contracts)
    if (code == 0) != all_ok:
        v.fail("exit_status", f"exit {code} with contracts ok={all_ok}")
    return v


def _check_known_red(v: Verdict, argv: list, contracts: dict) -> None:
    """c05a stays red at 1 - lambda_{N//4}, the distance of the true frame
    operator from the identity on the restricted block; the assembled
    value may differ from it by at most the frame residual."""
    n = int(argv[argv.index("--N") + 1])
    omega_beta = _option(argv, "--omega", 1.0) * _option(argv, "--beta", 1.0)
    reference = 1.0 - _gibbs_weights(n, omega_beta)[n // 4]
    for ident, frame in KNOWN_RED.items():
        if ident not in contracts or frame not in contracts:
            v.fail("known_red_missing", ident)
        elif contracts[ident]["ok"] == "true":
            v.fail("known_red_green", f"{ident} passed; c05a cannot hold")
        elif abs(float(contracts[ident]["value"]) - reference) > float(contracts[frame]["value"]) + 1e-12:
            v.fail("known_red_value", f"{ident}={contracts[ident]['value']} vs reference {reference:.17g}")
        else:
            v.expected_red += 1


def cs_overlap_reference(p: dict) -> complex:
    """<z1|z2> = e^{i Im(conj(z1) z2)} exp(-|z2 - z1|^2 (n_bar + 1/2))."""
    z1, z2 = complex(*p["z1"]), complex(*p["z2"])
    n_bar = 1.0 / math.expm1(p["omega"] * p["beta"])
    return cmath.exp(1j * (z1.conjugate() * z2).imag) * math.exp(-abs(z2 - z1) ** 2 * (n_bar + 0.5))


def check_cs_overlap(p: dict, value: complex) -> Verdict:
    v = Verdict()
    v.residual("cs_overlap_abs_err", abs(value - cs_overlap_reference(p)), CS_OVERLAP_TOL)
    return v


def wigner_row_reference(p: dict) -> np.ndarray:
    """(2 pi)^(-1/2) conj(<n|D(alpha)|l>) from the spectral exponential of
    the generator alpha a† - conj(alpha) a on a truncation 40 levels
    larger, independent of the library's Laguerre closed form."""
    m = p["N"] + 40
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    ref = []
    for y in WIGNER_ROW:
        alpha = (y - 1j * p["x"]) / math.sqrt(2.0)
        # the generator is anti-Hermitian: exp(G) = V exp(-i w) V† for iG = V w V†
        w, vecs = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
        d = (vecs[p["n"]] * np.exp(-1j * w)) @ vecs[p["l"]].conj()
        ref.append(np.conj(d))
    return np.array(ref) / math.sqrt(2.0 * math.pi)


def check_wigner_row(reference: np.ndarray, values) -> Verdict:
    v = Verdict()
    values = np.asarray(values)
    if values.shape != reference.shape or not np.all(np.isfinite(values)):
        v.fail("non_finite" if values.shape == reference.shape else "shape")
        return v
    v.residual("wigner_row_abs_err", float(np.max(np.abs(values - reference))), WIGNER_ROW_TOL)
    return v


def check_algebra(params: dict, out: dict) -> Verdict:
    """Exact oracle for  A = ⊕ M_{n_i} ⊗ I_{m_i}:  dim A = Σ n_i²,
    dim A' = Σ m_i², A'' = A, factor iff one block, A' commutes with A."""
    v = Verdict()
    blocks = params["blocks"]
    span = sum(n * n for n, _ in blocks)
    comm = sum(m * m for _, m in blocks)
    for key, expect in (("span_dim", span), ("commutant_dim", comm), ("double_commutant_dim", span)):
        if out[key] != expect:
            v.fail(key, f"{out[key]} != {expect}")
    if out["is_factor"] != (len(blocks) == 1):
        v.fail("is_factor", f"returned {out['is_factor']} for {len(blocks)} block(s)")
    if not all(out["generators_in_double_commutant"]):
        v.fail("double_commutant_contains")
    worst = 0.0
    for x in out["commutant_basis"]:
        nx = np.linalg.norm(x)
        for g in out["generators"]:
            worst = max(worst, float(np.linalg.norm(x @ g - g @ x) / (nx * np.linalg.norm(g))))
    v.residual("commutation", worst, COMMUTATION_TOL)
    codes = {code for code, _ in v.reasons}
    v.known_defect = bool(params["rotated"] and codes and codes <= KNOWN_DEFECT_CODES)
    return v
