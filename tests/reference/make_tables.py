"""Write the high-precision reference tables of the radial rule and the
displacement closed form, with mpmath (not a dependency of hsqm):

    python tests/reference/make_tables.py

laguerre_rule.json: for each R, the nodes t_r of the R-point
Gauss-Laguerre rule and its ring weights w_r e^(t_r), to 50 digits.  Each
node is a Newton-polished zero of L_R at 80 digits; each weight comes from
the derivative formula w = t / ((R + 1) L_(R+1)(t))^2, independent of the
Christoffel sums the library uses.

displacement_entries.json: sampled entries <m|D(a)|n> at labels on the
default rings (R = 2N, A = 4N + 1) of N = 32, 64 and 128, from mpmath's
own generalized Laguerre function at 50 digits, rounded to 20.  Half the
samples sit on the ring nearest the entry's turning point t = 2(m + n) + 1,
where the entries are largest.

kernel_series.json: the truncated series sum_(m<24) (z conj(z'))^m / m!
at the 20 label pairs (z, z') of tests/golden/kernel.csv (the default
``hsqm kernel``, N = 24), summed at 60 digits and written to 50.
"""

import csv
import json
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).parent
RULE_SIZES = (12, 32, 64, 128, 200)
ENTRY_SIZES = (32, 64, 128)
ENTRIES_PER_SIZE = 80
SEED = 20240801
KERNEL_GOLDEN = HERE.parent / "golden" / "kernel.csv"
KERNEL_TERMS = 24


def laguerre_pair(n, t):
    """(L_n(t), L_(n-1)(t)) by the three-term recurrence at the working precision."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 - t) * cur - j * prev) / (j + 1)
    return cur, prev


def rule(radial_count):
    """Nodes and ring weights of the R-point rule, as mpf."""
    mpmath.mp.dps = 80
    n = np.arange(radial_count, dtype=float)
    guesses = np.linalg.eigvalsh(np.diag(2.0 * n + 1.0) + np.diag(n[1:], -1))
    nodes, weights = [], []
    for guess in guesses:
        t = mpmath.mpf(float(guess))
        for _ in range(100):
            value, below = laguerre_pair(radial_count, t)
            step = t * value / (radial_count * (value - below))  # L / L', from t L_R' = R (L_R - L_(R-1))
            t -= step
            if abs(step) < mpmath.mpf(10) ** -75 * t:
                break
        else:
            raise RuntimeError(f"Newton did not converge at R = {radial_count}")
        above, _ = laguerre_pair(radial_count + 1, t)
        nodes.append(t)
        weights.append(t / ((radial_count + 1) * above) ** 2 * mpmath.exp(t))
    assert all(b - a > 0 for a, b in zip(nodes, nodes[1:]))
    return nodes, weights


def entry(m, n, alpha):
    """<m|D(alpha)|n> for an exact float label, as a Python complex."""
    mpmath.mp.dps = 50
    a = mpmath.mpc(alpha.real, alpha.imag)
    if m < n:  # D(a)_mn = conj(D(-a)_nm)
        return entry(n, m, -alpha).conjugate()
    t = abs(a) ** 2
    value = (
        mpmath.sqrt(mpmath.factorial(n) / mpmath.factorial(m))
        * a ** (m - n)
        * mpmath.exp(-t / 2)
        * mpmath.laguerre(n, m - n, t)
    )
    return complex(value)


def kernel_series():
    """The series at each (z, z') row of the kernel golden, labels read as exact floats."""
    mpmath.mp.dps = 60
    pairs = []
    for row in csv.DictReader(KERNEL_GOLDEN.read_text().splitlines()):
        if row["kind"] != "row" or not row["re_z"]:
            continue
        z, zp = (mpmath.mpc(float(row[f"re_{k}"]), float(row[f"im_{k}"])) for k in ("z", "zp"))
        w = z * mpmath.conj(zp)
        value = mpmath.fsum(w**m / mpmath.factorial(m) for m in range(KERNEL_TERMS))
        pairs.append(
            {"z": [row["re_z"], row["im_z"]], "zp": [row["re_zp"], row["im_zp"]],
             "value": [mpmath.nstr(part, 50, min_fixed=-1, max_fixed=-1) for part in (value.real, value.imag)]}
        )
    return pairs


def main():
    rules = {}
    for radial_count in RULE_SIZES:
        nodes, weights = rule(radial_count)
        rules[str(radial_count)] = {
            "nodes": [mpmath.nstr(t, 50, min_fixed=-1, max_fixed=-1) for t in nodes],
            "ring_weights": [mpmath.nstr(w, 50, min_fixed=-1, max_fixed=-1) for w in weights],
        }
    (HERE / "laguerre_rule.json").write_text(json.dumps(rules, indent=1) + "\n")

    rng = np.random.default_rng(SEED)
    samples = []
    for n_levels in ENTRY_SIZES:
        nodes = np.array([float(t) for t in rule(2 * n_levels)[0]])
        count = 4 * n_levels + 1
        for i in range(ENTRIES_PER_SIZE):
            m, n = (int(v) for v in rng.integers(0, n_levels, 2))
            ring = int(rng.integers(nodes.size)) if i % 2 else int(np.argmin(np.abs(nodes - (2 * (m + n) + 1))))
            phi = 2.0 * np.pi * int(rng.integers(count)) / count
            alpha = complex(np.sqrt(nodes[ring]) * np.exp(1j * phi))
            value = entry(m, n, alpha)
            samples.append(
                {"N": n_levels, "m": m, "n": n, "alpha": [repr(alpha.real), repr(alpha.imag)],
                 "value": [format(value.real, ".20g"), format(value.imag, ".20g")]}
            )
    (HERE / "displacement_entries.json").write_text(json.dumps(samples, indent=0) + "\n")
    (HERE / "kernel_series.json").write_text(json.dumps(kernel_series(), indent=0) + "\n")


if __name__ == "__main__":
    main()
