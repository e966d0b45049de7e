"""Command-line front end.

Every subcommand emits one flat table (CSV or JSON) and appends the
residual contracts it checked as extra rows; the exit status is 0 only
if every checked contract holds (1 otherwise, 2 for an invalid
configuration).  A subcommand returns its rows as blocks of equal-length
columns, ``{column: list}``, and its contracts as ``(name, value,
threshold, ok)`` tuples; a ``None`` cell is absent (empty in CSV, no key
in JSON).  Output is deterministic byte-for-byte for a fixed
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
_CONTRACT_COLUMNS = ("name", "value", "threshold", "ok")


# -- configuration ---------------------------------------------------------


def _landau_params(args) -> landau.LandauParams:
    return landau.LandauParams(
        mass=args.mass, omega0=args.omega0, omega_c=args.omega_c, theta=args.theta, hbar=args.hbar
    )


def _scheme(args, n_levels: int) -> QuadratureScheme:
    # the default sizes, without building a default rule a flag replaces
    radial, angular = QuadratureScheme._default_sizes(n_levels)
    scheme = QuadratureScheme(
        radial if args.radial_nodes is None else args.radial_nodes,
        angular if args.angular_nodes is None else args.angular_nodes,
    )
    if not (args.allow_small or scheme.adequate_for(n_levels)):
        raise ValueError(
            f"quadrature sizes below defaults for N={n_levels}; pass --allow-small to override"
        )
    return scheme


def _check(contracts, name, value, threshold):
    contracts.append((name, float(value), threshold, bool(value <= threshold)))


def _check_equal(contracts, name, value, expected):
    contracts.append((name, value, expected, bool(value == expected)))


def _named_checks(checks):
    """The name/value block of (name, value, threshold) triples, each
    also checked as a contract."""
    contracts = []
    for name, value, threshold in checks:
        _check(contracts, name, value, threshold)
    return {"name": [c[0] for c in contracts], "value": [c[1] for c in contracts]}, contracts


# -- subcommands -----------------------------------------------------------


def _cmd_spectrum(args):
    table = landau.spectrum(_landau_params(args), 8)
    n_plus, n_minus = (i.ravel().tolist() for i in np.indices(table.shape))
    return [{"n_plus": n_plus, "n_minus": n_minus, "energy": table.ravel().tolist()}], []


def _cmd_husimi(args):
    params = _landau_params(args)
    grid = np.linspace(-4.0, 4.0, 41)
    x, y = np.meshgrid(grid, grid, indexing="ij")
    q = landau.husimi(params, args.beta, x + 1j * y, 0.0).ravel().tolist()
    contracts = []
    scheme = _scheme(args, args.N)
    _check(contracts, "husimi_trace_residual", landau.husimi_trace_residual(params, args.beta, scheme), 1e-10)
    _check(contracts, "husimi_negativity", max(0.0, -min(q)), 0.0)
    return [{"x": x.ravel().tolist(), "y": y.ravel().tolist(), "q": q}], contracts


def _cmd_resolution(args):
    space = FockSpace(args.N)
    spec = ThermalSpec(args.omega, args.beta)
    scheme = _scheme(args, args.N)
    checks = []
    ident = thermal.resolution_residual(space, spec, scheme)
    frame = thermal.frame_operator_residual(space, spec, scheme)
    # the mirror |-z> has the same residuals: its charge signs (-1)^(m-n)
    # form a signature matrix, which preserves the 2-norm
    for tag in ("hiho", "xaxa"):
        # identity-form contract: not attainable (the family resolves the
        # Gibbs-weighted frame operator); reported honestly, see README
        checks += [(f"{tag}_identity_residual", ident, 1e-5), (f"{tag}_frame_residual", frame, 1e-5)]
    checks.append(("resolv_residual", landau.tensor_resolution_residual(space, scheme), 1e-5))
    block, contracts = _named_checks(checks)
    return [block], contracts


def _cmd_kms(args):
    space = FockSpace(args.N)
    md = modular.ModularData.from_thermal(space, ThermalSpec(args.omega, args.beta))
    rng = np.random.default_rng(_SEED)
    times = (-1.0, -0.5, 0.0, 0.5, 1.0)
    residuals = []
    for _ in range(20):
        a = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
        b = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
        a = (a + a.conj().T) / 2.0
        b = (b + b.conj().T) / 2.0
        a /= np.linalg.norm(a, 2)
        b /= np.linalg.norm(b, 2)
        op_a = Operator(space, a)
        op_b = Operator(space, b)
        residuals += [modular.kms_residual(md, op_a, op_b, t) for t in times]
    contracts = []
    _check(contracts, "kms_max_residual", max(0.0, *residuals), 1e-10)
    pairs = np.repeat(np.arange(20), len(times)).tolist()
    return [{"pair": pairs, "t": list(times) * 20, "residual": residuals}], contracts


def _cmd_modular(args):
    space = FockSpace(args.N)
    spec = ThermalSpec(args.omega, args.beta)
    md = modular.ModularData.from_thermal(space, spec)
    rng = np.random.default_rng(_SEED)
    checks = [("polar_residual", modular.polar_check(md), 1e-12)]

    # S(|j><i|)[i, j] = L[i, i] R[j, j] for the factors (L, R) of S; the
    # expected exp(-(j - i) omega beta / 2) keeps the libm digits of math.exp
    s_map = modular.tomita_s(md)
    got = np.outer(np.diag(s_map.left), np.diag(s_map.right))
    n = args.N
    table = np.array([math.exp(-k * args.omega * args.beta / 2.0) for k in range(1 - n, n)])
    expect = table[np.arange(n)[None, :] - np.arange(n)[:, None] + n - 1]
    worst_rel = float(np.max(np.abs(got.real - expect) / expect + np.abs(got.imag) / expect))
    checks.append(("tomita_factor_max_rel_err", worst_rel, 1e-13))

    x = rng.standard_normal((args.N, args.N)) + 1j * rng.standard_normal((args.N, args.N))
    op_x = Operator(space, x / np.linalg.norm(x))
    grp = hs_norm(
        modular.modular_flow(md, 0.3)(modular.modular_flow(md, 0.4)(op_x))
        - modular.modular_flow(md, 0.7)(op_x)
    )
    checks.append(("flow_group_residual", grp, 1e-12))

    inv = abs(
        modular.state_eval(md, modular.modular_flow(md, 0.6)(op_x)) - modular.state_eval(md, op_x)
    )
    checks.append(("state_invariance_residual", inv, 1e-12))

    for z in (0.25, 0.5j, 0.3 + 0.4j):
        checks.append((f"reflection_residual_z={z}", thermal.s_beta_reflection(md, z), 1e-9))
    block, contracts = _named_checks(checks)
    return [block], contracts


def _cmd_commutant(args):
    if args.N > 5:
        raise ValueError("commutant analysis is limited to N <= 5 (ambient dimension N^4)")
    space = FockSpace(args.N)
    block = {"algebra": [], "span_dim": [], "commutant_dim": [], "double_commutant_dim": [], "factor": []}
    contracts = []
    eye, ops = identity(space), (annihilation(space), creation(space))
    gens = {"left": [vee(op, eye) for op in ops], "right": [vee(eye, op) for op in ops]}
    spans = {}
    for name, sups in gens.items():
        alg = spans[name] = vn.algebra_span(vn.AlgebraGens(args.N**2, [s.to_dense() for s in sups]))
        comm = vn.commutant_basis(alg)
        double = vn.commutant_basis(comm)
        factor = vn.is_factor(alg)
        for column, value in zip(block, (name, alg.size, comm.size, double.size, factor)):
            block[column].append(value)
        _check_equal(contracts, f"{name}_span_dim", alg.size, args.N**2)
        _check_equal(contracts, f"{name}_commutant_dim", comm.size, args.N**2)
        _check_equal(contracts, f"{name}_double_commutant_dim", double.size, alg.size)
        _check_equal(contracts, f"{name}_factor", factor, True)
    _check_equal(
        contracts,
        "left_right_mutual_commutant",
        all(vn.span_contains(spans["right"], m) for m in vn.commutant_basis(spans["left"]).basis),
        True,
    )
    return [block], contracts


def _cmd_wigner(args):
    space = FockSpace(args.N)
    scheme = _scheme(args, args.N)

    grid = np.linspace(-3.0, 3.0, 21)
    x, y = np.meshgrid(grid, grid, indexing="ij")
    f00 = wigner.wigner_function(basis_element(space, 0, 0))(x, y).ravel()
    grid_block = {
        "x": x.ravel().tolist(), "y": y.ravel().tolist(), "re_f": f00.real.tolist(), "im_f": f00.imag.tolist()
    }

    checks = []
    for n, l in ((0, 0), (1, 2)):
        x_op = basis_element(space, n, l)
        back = wigner.wigner_inverse(wigner.wigner_function(x_op), scheme, space)
        checks.append((f"roundtrip_residual_{n}{l}", hs_norm(back - x_op), 1e-6))

    # Gram matrix of the W-images of |n><l|, n, l < N/2, row-major
    half = args.N // 2
    gram = scheme._ring_gram(scheme._radial_stack(FockSpace(half)))
    checks.append(("unitarity_gram_max_dev", float(np.max(np.abs(gram - np.eye(half * half)))), 1e-6))
    block, contracts = _named_checks(checks)
    return [grid_block, block], contracts


def _cmd_kernel(args):
    space = FockSpace(args.N)
    scheme = _scheme(args, args.N)
    rng = np.random.default_rng(_SEED)
    # per pair: real parts of (z, z'), then imaginary parts
    draws = rng.uniform(-1, 1, (20, 2, 2))
    points = draws[:, 0] + 1j * draws[:, 1]
    kernel = []
    errs = []
    for z, zp in points:
        got = landau.reproducing_kernel(space, z, zp)
        kernel.append(complex(got))
        errs.append(float(abs(got - np.exp(z * np.conj(zp)))))
    contracts = []
    _check(contracts, "kernel_max_abs_err", max(0.0, *errs), 1e-12)
    kernel_block = {
        "re_z": points[:, 0].real.tolist(),
        "im_z": points[:, 0].imag.tolist(),
        "re_zp": points[:, 1].real.tolist(),
        "im_zp": points[:, 1].imag.tolist(),
        "re_K": [k.real for k in kernel],
        "im_K": [k.imag for k in kernel],
        "abs_err": errs,
    }

    z0 = 0.7 - 0.3j
    mono = [float(abs(landau.project_hol(lambda w, k=k: w**k, scheme, z0) - z0**k)) for k in range(11)]
    _check(contracts, "project_hol_max_err", max(0.0, *mono), 1e-8)
    mono_block = {"name": [f"monomial_degree_{k}_err" for k in range(11)], "value": mono}
    return [kernel_block, mono_block], contracts


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
    names = sorted(report)
    contracts = []
    for key in names:
        if key in expected:
            _check(contracts, f"{key}_abs_err", abs(report[key] - expected[key]), 1e-12)
    values = [float(report[k]) for k in names]
    return [{"name": names, "value": values, "expected": [expected.get(k) for k in names]}], contracts


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


def _format_column(values) -> list[str]:
    if all(type(v) is float for v in values):
        return [format(v, ".17g") for v in values]
    return [_format_cell(v) for v in values]


def _tagged_blocks(blocks, contracts):
    """(kind, block) pairs: the row blocks, then the contracts as one block."""
    contract_block = dict(zip(_CONTRACT_COLUMNS, map(list, zip(*contracts))))
    return [("row", block) for block in blocks] + [("contract", contract_block)]


def _write_csv(blocks, contracts, out):
    tagged = _tagged_blocks(blocks, contracts)
    headers = list(dict.fromkeys(column for _, block in tagged for column in block))
    lines = [",".join(["kind", *headers])]
    for kind, block in tagged:
        count = len(next(iter(block.values()), ()))
        cells = [_format_column(block[h]) if h in block else [""] * count for h in headers]
        lines += map(",".join, zip([kind] * count, *cells))
    out.write("\n".join(lines) + "\n")


def _write_json(command, config, blocks, contracts, ok, out):
    records = {"row": [], "contract": []}
    for kind, block in _tagged_blocks(blocks, contracts):
        for cells in zip(*block.values()):
            records[kind].append({"kind": kind, **{k: v for k, v in zip(block, cells) if v is not None}})
    doc = dict(command=command, config=config, rows=records["row"], contracts=records["contract"], ok=ok)
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
        blocks, contracts = _COMMANDS[args.command](args)
        out = open(args.out, "w") if args.out else sys.stdout
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "command": args.command}) + "\n")
        return 2

    ok = all(c[3] for c in contracts)
    try:
        if args.format == "csv":
            _write_csv(blocks, contracts, out)
        else:
            _write_json(args.command, config, blocks, contracts, ok, out)
    finally:
        if args.out:
            out.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
