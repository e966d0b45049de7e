"""Command-line front end.

Every subcommand emits one flat table (CSV or JSON) and appends the
residual contracts it checked as extra rows; the exit status is 0 only
if every checked contract holds (1 otherwise, 2 for an invalid
configuration).  Output is deterministic byte-for-byte for a fixed
configuration: fixed seeds, fixed summation orders, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import commutant as vn
from . import landau, modular, thermal, wigner
# displacement_stack is not called here; the benchmark tracer (benchmarks/spans.py) patches this binding
from .fock import FockSpace, Operator, ThermalSpec, annihilation, creation, displacement_stack, identity  # noqa: F401
from .hs_space import basis_element, hs_norm, vee
from .quadrature import QuadratureScheme

_SEED = 20240801


# -- configuration ---------------------------------------------------------


def _landau_params(args) -> landau.LandauParams:
    return landau.LandauParams(
        mass=args.mass, omega0=args.omega0, omega_c=args.omega_c, theta=args.theta, hbar=args.hbar
    )


def _scheme(args, n_levels: int) -> QuadratureScheme:
    radial = args.radial_nodes if args.radial_nodes is not None else 2 * n_levels
    angular = args.angular_nodes if args.angular_nodes is not None else 4 * n_levels + 1
    if not args.allow_small and (radial < 2 * n_levels or angular < 2 * n_levels + 1):
        raise ValueError(
            f"quadrature sizes below defaults for N={n_levels}; pass --allow-small to override"
        )
    return QuadratureScheme(radial, angular)


def _check(contracts, name, value, threshold):
    contracts.append(
        {"kind": "contract", "name": name, "value": float(value), "threshold": threshold, "ok": bool(value <= threshold)}
    )


def _check_equal(contracts, name, value, expected):
    contracts.append(
        {"kind": "contract", "name": name, "value": value, "threshold": expected, "ok": bool(value == expected)}
    )


# -- subcommands -----------------------------------------------------------


def _cmd_spectrum(args):
    params = _landau_params(args)
    table = landau.spectrum(params, 8)
    rows = [
        {"kind": "row", "n_plus": i, "n_minus": j, "energy": float(table[i, j])}
        for i in range(table.shape[0])
        for j in range(table.shape[1])
    ]
    return rows, []


def _cmd_husimi(args):
    params = _landau_params(args)
    grid = np.linspace(-4.0, 4.0, 41)
    q = landau.husimi(params, args.beta, grid[:, None] + 1j * grid[None, :], 0.0).tolist()
    grid = grid.tolist()
    rows = [
        {"kind": "row", "x": x, "y": y, "q": q[i][j]}
        for i, x in enumerate(grid)
        for j, y in enumerate(grid)
    ]
    contracts = []
    scheme = _scheme(args, args.N)
    _check(contracts, "husimi_trace_residual", landau.husimi_trace_residual(params, args.beta, scheme), 1e-10)
    _check(contracts, "husimi_negativity", max(0.0, -min(r["q"] for r in rows)), 0.0)
    return rows, contracts


def _cmd_resolution(args):
    space = FockSpace(args.N)
    spec = ThermalSpec(args.omega, args.beta)
    scheme = _scheme(args, args.N)
    rows = []
    contracts = []
    for mirrored, tag in ((False, "hiho"), (True, "xaxa")):
        ident = thermal.resolution_residual(space, spec, scheme, mirrored=mirrored)
        frame = thermal.frame_operator_residual(space, spec, scheme, mirrored=mirrored)
        rows.append({"kind": "row", "name": f"{tag}_identity_residual", "value": ident})
        rows.append({"kind": "row", "name": f"{tag}_frame_residual", "value": frame})
        # identity-form contract: not attainable (the family resolves the
        # Gibbs-weighted frame operator); reported honestly, see README
        _check(contracts, f"{tag}_identity_residual", ident, 1e-5)
        _check(contracts, f"{tag}_frame_residual", frame, 1e-5)
    resolv = landau.tensor_resolution_residual(space, scheme)
    rows.append({"kind": "row", "name": "resolv_residual", "value": resolv})
    _check(contracts, "resolv_residual", resolv, 1e-5)
    return rows, contracts


def _cmd_kms(args):
    space = FockSpace(args.N)
    md = modular.ModularData.from_thermal(space, ThermalSpec(args.omega, args.beta))
    rng = np.random.default_rng(_SEED)
    rows = []
    worst = 0.0
    for pair in range(20):
        a = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
        b = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
        a = (a + a.conj().T) / 2.0
        b = (b + b.conj().T) / 2.0
        a /= np.linalg.norm(a, 2)
        b /= np.linalg.norm(b, 2)
        op_a = Operator(space, a)
        op_b = Operator(space, b)
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            res = modular.kms_residual(md, op_a, op_b, t)
            worst = max(worst, res)
            rows.append({"kind": "row", "pair": pair, "t": t, "residual": res})
    contracts = []
    _check(contracts, "kms_max_residual", worst, 1e-10)
    return rows, contracts


def _cmd_modular(args):
    space = FockSpace(args.N)
    spec = ThermalSpec(args.omega, args.beta)
    md = modular.ModularData.from_thermal(space, spec)
    rng = np.random.default_rng(_SEED)
    rows = []
    contracts = []

    polar = modular.polar_check(md)
    rows.append({"kind": "row", "name": "polar_residual", "value": polar})
    _check(contracts, "polar_residual", polar, 1e-12)

    # S(|j><i|)[i, j] = L[i, i] R[j, j] for the factors (L, R) of S; the
    # expected exp(-(j - i) omega beta / 2) keeps the libm digits of math.exp
    s_map = modular.tomita_s(md)
    got = np.outer(np.diag(s_map.left), np.diag(s_map.right))
    n = args.N
    table = np.array([math.exp(-k * args.omega * args.beta / 2.0) for k in range(1 - n, n)])
    expect = table[np.arange(n)[None, :] - np.arange(n)[:, None] + n - 1]
    worst_rel = float(np.max(np.abs(got.real - expect) / expect + np.abs(got.imag) / expect))
    rows.append({"kind": "row", "name": "tomita_factor_max_rel_err", "value": worst_rel})
    _check(contracts, "tomita_factor_max_rel_err", worst_rel, 1e-13)

    x = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
    op_x = Operator(space, x / np.linalg.norm(x))
    grp = hs_norm(
        modular.modular_flow(md, 0.3)(modular.modular_flow(md, 0.4)(op_x))
        - modular.modular_flow(md, 0.7)(op_x)
    )
    rows.append({"kind": "row", "name": "flow_group_residual", "value": grp})
    _check(contracts, "flow_group_residual", grp, 1e-12)

    inv = abs(
        modular.state_eval(md, modular.modular_flow(md, 0.6)(op_x)) - modular.state_eval(md, op_x)
    )
    rows.append({"kind": "row", "name": "state_invariance_residual", "value": inv})
    _check(contracts, "state_invariance_residual", inv, 1e-12)

    for z in (0.25, 0.5j, 0.3 + 0.4j):
        refl = thermal.s_beta_reflection(space, spec, z)
        rows.append({"kind": "row", "name": f"reflection_residual_z={z}", "value": refl})
        _check(contracts, f"reflection_residual_z={z}", refl, 1e-9)
    return rows, contracts


def _cmd_commutant(args):
    if args.N > 5:
        raise ValueError("commutant analysis is limited to N <= 5 (ambient dimension N^4)")
    space = FockSpace(args.N)
    rows = []
    contracts = []
    gens = {
        "left": [vee(annihilation(space), identity(space)), vee(creation(space), identity(space))],
        "right": [
            vee(identity(space), annihilation(space)),
            vee(identity(space), creation(space)),
        ],
    }
    spans = {}
    commutants = {}
    for name, sups in gens.items():
        alg = vn.algebra_span(vn.AlgebraGens(args.N**2, [s.to_dense() for s in sups]))
        spans[name] = alg
        comm = commutants[name] = vn.commutant_basis(alg)
        double = vn.commutant_basis(comm)
        factor = vn.is_factor(alg)
        rows.append(
            {
                "kind": "row",
                "algebra": name,
                "span_dim": alg.size,
                "commutant_dim": comm.size,
                "double_commutant_dim": double.size,
                "factor": factor,
            }
        )
        _check_equal(contracts, f"{name}_span_dim", alg.size, args.N**2)
        _check_equal(contracts, f"{name}_commutant_dim", comm.size, args.N**2)
        _check_equal(contracts, f"{name}_double_commutant_dim", double.size, alg.size)
        _check_equal(contracts, f"{name}_factor", factor, True)
    _check_equal(
        contracts,
        "left_right_mutual_commutant",
        all(vn.span_contains(spans["right"], m) for m in commutants["left"].basis),
        True,
    )
    return rows, contracts


def _cmd_wigner(args):
    space = FockSpace(args.N)
    scheme = _scheme(args, args.N)
    rows = []
    contracts = []

    f00 = wigner.wigner_function(basis_element(space, 0, 0))
    grid = np.linspace(-3.0, 3.0, 21)
    for x in grid:
        vals = f00(np.full_like(grid, x), grid)
        for j, y in enumerate(grid):
            rows.append(
                {
                    "kind": "row",
                    "x": float(x),
                    "y": float(y),
                    "re_f": float(vals[j].real),
                    "im_f": float(vals[j].imag),
                }
            )

    half = args.N // 2
    for n, l in ((0, 0), (1, 2)):
        x_op = basis_element(space, n, l)
        back = wigner.wigner_inverse(wigner.wigner_function(x_op), scheme, space)
        res = hs_norm(back - x_op)
        rows.append({"kind": "row", "name": f"roundtrip_residual_{n}{l}", "value": res})
        _check(contracts, f"roundtrip_residual_{n}{l}", res, 1e-6)

    # Gram matrix of the W-images of |n><l|, n, l < N/2, row-major
    gram = scheme._ring_gram(scheme._radial_stack(space)[:, :half, :half])
    gram_dev = float(np.max(np.abs(gram - np.eye(half * half))))
    rows.append({"kind": "row", "name": "unitarity_gram_max_dev", "value": gram_dev})
    _check(contracts, "unitarity_gram_max_dev", gram_dev, 1e-6)
    return rows, contracts


def _cmd_kernel(args):
    space = FockSpace(args.N)
    scheme = _scheme(args, args.N)
    rng = np.random.default_rng(_SEED)
    rows = []
    contracts = []
    worst = 0.0
    for _ in range(20):
        z, zp = (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        got = landau.reproducing_kernel(space, z, zp)
        expect = np.exp(z * np.conj(zp))
        err = abs(got - expect)
        worst = max(worst, err)
        rows.append(
            {
                "kind": "row",
                "re_z": float(z.real),
                "im_z": float(z.imag),
                "re_zp": float(zp.real),
                "im_zp": float(zp.imag),
                "re_K": float(got.real),
                "im_K": float(got.imag),
                "abs_err": float(err),
            }
        )
    _check(contracts, "kernel_max_abs_err", worst, 1e-12)

    worst_mono = 0.0
    z0 = 0.7 - 0.3j
    for k in range(11):
        got = landau.project_hol(lambda w, k=k: w**k, scheme, z0)
        err = abs(got - z0**k)
        worst_mono = max(worst_mono, err)
        rows.append({"kind": "row", "name": f"monomial_degree_{k}_err", "value": float(err)})
    _check(contracts, "project_hol_max_err", worst_mono, 1e-8)
    return rows, contracts


def _cmd_uncertainty(args):
    params = _landau_params(args)
    space = FockSpace(args.N)
    report = landau.uncertainty_report(params, basis_element(space, 0, 0))
    expected = {
        "var_X": params.theta / 2.0,
        "var_Y": params.theta / 2.0,
        "var_PX": params.hbar**2 / params.theta,
        "var_PY": params.hbar**2 / params.theta,
        "product_X_Y": params.theta / 2.0,
        "product_X_PX": params.hbar / math.sqrt(2.0),
        "product_Y_PY": params.hbar / math.sqrt(2.0),
        "product_PX_PY": params.hbar**2 / params.theta,
    }
    rows = []
    contracts = []
    for key in sorted(report):
        row = {"kind": "row", "name": key, "value": report[key]}
        if key in expected:
            row["expected"] = expected[key]
            _check(contracts, f"{key}_abs_err", abs(report[key] - expected[key]), 1e-12)
        rows.append(row)
    return rows, contracts


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "husimi": _cmd_husimi,
    "resolution": _cmd_resolution,
    "kms": _cmd_kms,
    "modular": _cmd_modular,
    "commutant": _cmd_commutant,
    "wigner": _cmd_wigner,
    "kernel": _cmd_kernel,
    "uncertainty": _cmd_uncertainty,
}


# -- output ----------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _write_csv(rows, out):
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(h)) for h in headers))
    out.write("\n".join(lines) + "\n")


def _write_json(command, config, rows, contracts, ok, out):
    doc = {
        "command": command,
        "config": config,
        "rows": [r for r in rows if r.get("kind") == "row"],
        "contracts": contracts,
        "ok": ok,
    }
    out.write(json.dumps(doc, sort_keys=True, default=_format_cell) + "\n")


# -- entry point -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args does not change it."""
    parser = argparse.ArgumentParser(prog="hsqm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("--N", type=int, default=4 if name == "commutant" else 24)
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--theta", type=float, default=0.1)
        p.add_argument("--omega0", type=float, default=1.0)
        p.add_argument("--omega-c", dest="omega_c", type=float, default=2.0)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--radial-nodes", type=int, default=None)
        p.add_argument("--angular-nodes", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.add_argument("--allow-small", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("command",)}
    try:
        if args.N < 4:
            raise ValueError("truncation N must be at least 4")
        rows, contracts = _COMMANDS[args.command](args)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "command": args.command}) + "\n")
        return 2

    ok = all(c["ok"] for c in contracts)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "csv":
            _write_csv(rows + contracts, out)
        else:
            _write_json(args.command, config, rows, contracts, ok, out)
    finally:
        if args.out:
            out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
