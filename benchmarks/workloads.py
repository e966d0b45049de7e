"""Seeded task generator for the hsqm benchmark.

A *round* is the fixed task mix of one workload; its inputs are drawn
from ``numpy.random.default_rng`` seeded with the workload seed, so the
same seed gives the same round.  Every parameter is drawn inside the
region where the command's contracts are attainable (see the constants
below), so the library only ever receives generated, valid inputs.

The mix itself (which commands, at which N or block structure, how
many of each) and its order are fixed per workload; only the parameters
are seeded.  A run repeats the round a fixed number of times, derived
from ``--seconds`` and the round's cost at the baseline, so every run
of a workload times the same amount of work, its median and tail fall
at the same ranks, and its allocation sequence (hence peak RSS) does
not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hsqm import FockSpace, landau, thermal

WORKLOADS = ("phase_space", "algebra", "small_contracts")

# -- valid regions -----------------------------------------------------------

#: modular/kms: (N-1) * omega * beta <= 30 keeps the smallest Gibbs weight
#: above e^-30 ~ 9e-14, inside ModularData's 1e-14 faithfulness floor.
MODULAR_EXPONENT = (0.5, 30.0)
#: kernel: the truncated series sum_{m<N} (z conj z')^m / m! meets the
#: 1e-12 contract only from N = 20 on (2e-10 at N = 16, 1e-14 at N = 20).
KERNEL_MIN_N = 20
#: cs_overlap: omega*beta range on which the truncated Gibbs purification
#: matches the closed form below to CS_OVERLAP_TOL for N >= 16 and
#: |z| <= safe_radius(N) (worst measured: 6e-10 at N = 16, omega*beta = 2).
CS_OMEGA_BETA = (2.5, 5.0)
CS_N = (16, 20, 24, 28, 32)
#: wigner row: 21 points on the CLI's own grid span.
WIGNER_ROW = np.linspace(-3.0, 3.0, 21)

# -- workload mixes ------------------------------------------------------------

#: phase_space: (N, copies of each of `resolution` and `wigner`).  The
#: median falls among the N=16 tasks and the tail among the N=24 ones.
PHASE_MIX = ((16, 10), (24, 5), (32, 1))
#: algebra: block structures ((n_i, m_i), ...) of  ⊕ M_{n_i} ⊗ I_{m_i},
#: each generated once real and once conjugated by a complex unitary, at
#: d = 4 .. 10.  With the ladder pair that makes 11 pairs of equal cost,
#: so the median falls inside one pair's group.
ALGEBRA_BLOCKS = (
    ((2, 2),),
    ((1, 1), (1, 3)),
    ((2, 2), (1, 2)),
    ((3, 2),),
    ((3, 1), (2, 1), (1, 2)),
    ((2, 2), (2, 2)),
    ((4, 2),),
    ((3, 3),),
    ((2, 3), (1, 3)),
    ((3, 2), (2, 2)),
)
#: algebra: the left and right ladder algebras {a, a†} ∨ I and I ∨ {a, a†}
#: on B2(H_N), densified from SuperOps inside the task as the CLI
#: `commutant` command does; both are M_N ⊗ I_N up to a permutation.
LADDER_N = 3
#: small_contracts: truncations for the CLI stream.
SMALL_N = (8, 12, 16, 20, 24, 28, 32)
SMALL_LIBRARY_TASKS = 10

#: Seconds one round takes at the baseline (2 vCPUs, 2 BLAS threads); a
#: run repeats the round round(seconds / this) times, at least once.
ROUND_SECONDS = {"phase_space": 29.0, "algebra": 3.0, "small_contracts": 1.5}


@dataclass
class Task:
    """One unit of benchmark work.

    ``kind`` is ``cli`` (one ``hsqm.cli.main(argv)`` call), ``cs_overlap``,
    ``wigner_row``, ``algebra`` or ``ladder`` (library call sequences).  ``params`` is
    JSON-able; ``arrays`` holds generated matrices (algebra generators).
    """

    kind: str
    label: str
    params: dict
    arrays: list = field(default_factory=list)

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label, "params": self.params}


def _num(x: float) -> str:
    return format(float(x), ".17g")


def cli_task(command: str, n: int, **options) -> Task:
    argv = [command, "--N", str(n)]
    for key, value in options.items():
        argv += ["--" + key.replace("_", "-"), _num(value)]
    return Task("cli", f"{command} N={n}", {"argv": argv})


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal slices of [lo, hi],
    in random order: covers the whole range every round."""
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * rng.permutation(u)


def _landau_params(rng: np.random.Generator) -> dict:
    """Landau parameters with a positive discriminant and both chiral
    frequencies positive (the husimi/partition validity region)."""
    while True:
        p = {
            "mass": rng.uniform(0.5, 2.0),
            "omega0": rng.uniform(0.5, 2.0),
            "omega_c": rng.uniform(0.5, 2.5),
            "theta": rng.uniform(0.02, 0.5),
            "hbar": rng.uniform(0.5, 1.5),
        }
        try:
            freq = landau.chiral_frequencies(landau.LandauParams(**p))
        except ValueError:
            continue
        if freq.Omega_plus > 0 and freq.Omega_minus > 0:
            return p


def _disc_point(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform())
    return complex(r * np.exp(2j * math.pi * rng.uniform()))


def _unitary(rng: np.random.Generator, d: int, complex_: bool) -> np.ndarray:
    """Haar-random unitary (complex) or orthogonal (real) matrix."""
    z = rng.standard_normal((d, d))
    if complex_:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def algebra_task(blocks, rng: np.random.Generator, rotated: bool) -> Task:
    """Two random generators of ⊕ M_{n_i} ⊗ I_{m_i}, conjugated by a random
    orthogonal matrix (real algebra) or complex unitary (``rotated``)."""
    d = sum(n * m for n, m in blocks)
    q = _unitary(rng, d, rotated)
    gens = []
    for _ in range(2):
        g = np.zeros((d, d))
        offset = 0
        for n, m in blocks:
            g[offset : offset + n * m, offset : offset + n * m] = np.kron(rng.standard_normal((n, n)), np.eye(m))
            offset += n * m
        gens.append(q @ g @ q.conj().T)
    shape = "+".join(f"M{n}xI{m}" for n, m in blocks)
    label = f"algebra d={d} {shape} {'complex' if rotated else 'real'}"
    params = {"dim": d, "blocks": [list(b) for b in blocks], "rotated": rotated}
    return Task("algebra", label, params, gens)


def _phase_space(rng: np.random.Generator) -> list[Task]:
    tasks = []
    for n, copies in PHASE_MIX:
        omegas = _strata(rng, copies, 0.5, 2.0)
        betas = _strata(rng, copies, 0.25, 2.0)
        for omega, beta in zip(omegas, betas):
            tasks.append(cli_task("resolution", n, omega=omega, beta=beta))
            tasks.append(cli_task("wigner", n))
    return tasks


def _algebra(rng: np.random.Generator) -> list[Task]:
    n = LADDER_N
    tasks = [
        Task("ladder", f"ladder {side} N={n}", {"N": n, "side": side, "dim": n * n, "blocks": [[n, n]], "rotated": False})
        for side in ("left", "right")
    ]
    for blocks in ALGEBRA_BLOCKS:
        for rotated in (False, True):
            tasks.append(algebra_task(blocks, rng, rotated))
    return tasks


def _small_contracts(rng: np.random.Generator) -> list[Task]:
    tasks = []
    for command in ("kms", "modular"):
        exponents = _strata(rng, len(SMALL_N), *MODULAR_EXPONENT)
        for n, exponent in zip(SMALL_N, exponents):
            omega = rng.uniform(0.5, 2.0)
            tasks.append(cli_task(command, n, omega=omega, beta=exponent / ((n - 1) * omega)))
    for n in SMALL_N:
        tasks.append(cli_task("spectrum", n, **_landau_params(rng)))
        tasks.append(cli_task("uncertainty", n, **_landau_params(rng)))
        tasks.append(cli_task("husimi", n, beta=rng.uniform(0.2, 3.0), **_landau_params(rng)))
    for n in SMALL_N:
        if n >= KERNEL_MIN_N:
            tasks.append(cli_task("kernel", n))
    for i, omega_beta in enumerate(_strata(rng, SMALL_LIBRARY_TASKS, *CS_OMEGA_BETA)):
        n = CS_N[i % len(CS_N)]
        omega = rng.uniform(0.5, 2.0)
        radius = thermal.safe_radius(FockSpace(n))
        z1, z2 = _disc_point(rng, radius), _disc_point(rng, radius)
        params = {"N": n, "omega": omega, "beta": omega_beta / omega, "z1": [z1.real, z1.imag], "z2": [z2.real, z2.imag]}
        tasks.append(Task("cs_overlap", f"cs_overlap N={n}", params))
    for i in range(SMALL_LIBRARY_TASKS):
        n = SMALL_N[i % len(SMALL_N)]
        level, col = (int(v) for v in rng.integers(0, n, 2))
        params = {"N": n, "n": level, "l": col, "x": rng.uniform(-3.0, 3.0)}
        tasks.append(Task("wigner_row", f"wigner_row N={n}", params))
    return tasks


_BUILDERS = {"phase_space": _phase_space, "algebra": _algebra, "small_contracts": _small_contracts}


def make_round(workload: str, seed: int) -> list[Task]:
    """The seeded task list of one round, mixed by a fixed permutation."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    tasks = _BUILDERS[workload](np.random.default_rng([int(seed), WORKLOADS.index(workload)]))
    return [tasks[i] for i in np.random.default_rng(0).permutation(len(tasks))]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def warmup_task(workload: str) -> Task:
    """Small untimed task run once during set-up, on the workload's path."""
    if workload == "phase_space":
        return cli_task("wigner", 16)
    if workload == "algebra":
        return algebra_task(((2, 2),), np.random.default_rng(0), False)
    if workload == "small_contracts":
        return cli_task("kms", 8)
    raise ValueError(f"unknown workload {workload!r}")
