"""Every CLI configuration either reports its contracts or raises a typed error.

A run that exits 0 or 1 writes one JSON document whose numbers are all
finite and which carries every contract row of its subcommand; a run that
exits 2 writes nothing to stdout and exactly one JSON line to stderr.
Warnings are errors: a numerical warning is a fault, not stray text.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqm import cli

CONTRACTS = {
    "spectrum": (),
    "husimi": ("husimi_trace_residual", "husimi_negativity"),
    "resolution": (
        "hiho_identity_residual", "hiho_frame_residual", "xaxa_identity_residual", "xaxa_frame_residual",
        "resolv_residual",
    ),
    "kms": ("kms_max_residual",),
    "modular": (
        "polar_residual", "tomita_factor_max_rel_err", "flow_group_residual", "state_invariance_residual",
        "reflection_residual_z=0.25", "reflection_residual_z=0.5j", "reflection_residual_z=(0.3+0.4j)",
    ),
    "commutant": tuple(
        f"{side}_{name}"
        for side in ("left", "right")
        for name in ("span_dim", "commutant_dim", "double_commutant_dim", "factor")
    ) + ("left_right_mutual_commutant",),
    "wigner": ("roundtrip_residual_00", "roundtrip_residual_12", "unitarity_gram_max_dev"),
    "kernel": ("kernel_max_abs_err", "project_hol_max_err"),
    "uncertainty": tuple(
        f"{key}_abs_err"
        for key in ("product_PX_PY", "product_X_PX", "product_X_Y", "product_Y_PY", "var_PX", "var_PY", "var_X", "var_Y")
    ),
}

PHYSICAL_FLAGS = ("--omega", "--beta", "--theta", "--omega0", "--omega-c", "--mass", "--hbar")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv + ["--format", "json"])
    return code, out.getvalue(), err.getvalue()


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def _check_run(argv):
    """Run one configuration and check its output contract; return the
    exit status and the parsed document (or error line)."""
    code, out, err = _run(argv)
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["command"] == argv[0] and error["error"]
        return code, error
    assert code in (0, 1) and err == ""
    doc = json.loads(out)
    assert all(math.isfinite(v) for v in _numbers(doc))
    names = [c["name"] for c in doc["contracts"]]
    assert sorted(names) == sorted(CONTRACTS[argv[0]])
    assert doc["ok"] is all(c["ok"] for c in doc["contracts"]) is (code == 0)
    return code, doc


_log_uniform = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def _with_flags(argv, values):
    return argv + [arg for flag, value in zip(PHYSICAL_FLAGS, values) for arg in (flag, repr(value))]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(set(CONTRACTS) - {"commutant"})),
    st.integers(4, 12),
    st.tuples(*[_log_uniform] * len(PHYSICAL_FLAGS)),
)
def test_generated_configuration_reports_or_rejects(command, n, values):
    _check_run(_with_flags([command, "--N", str(n)], values))


SCHEME_COMMANDS = ("husimi", "resolution", "wigner", "kernel")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(SCHEME_COMMANDS), st.integers(4, 12), st.data(), st.booleans())
def test_generated_scheme_reports_or_rejects(command, n, data, allow_small):
    # --allow-small admits aliased schemes (A < 2N - 1), where charges that
    # differ by A share a ring sum
    radial = data.draw(st.integers(1, 3 * n), label="radial")
    angular = data.draw(st.integers(1, 5 * n), label="angular")
    argv = [command, "--N", str(n), "--radial-nodes", str(radial), "--angular-nodes", str(angular)]
    code, result = _check_run(argv + ["--allow-small"] * allow_small)
    if angular < 3:
        assert code == 2 and "need at least three angular nodes" in result["error"]
    elif not allow_small and (radial < 2 * n or angular < 2 * n + 1):
        assert code == 2 and "quadrature sizes below defaults" in result["error"]
    else:
        assert code in (0, 1)


@pytest.mark.parametrize("command", SCHEME_COMMANDS)
def test_aliased_schemes_report(command):
    for angular in (3, 4, 5, 8):  # A < 2N - 1 at N = 8, odd and even
        code, _ = _check_run([command, "--N", "8", "--angular-nodes", str(angular), "--allow-small"])
        assert code in (0, 1)


def test_commutant_default_reports_contracts():
    code, doc = _check_run(["commutant"])
    assert code == 0


@pytest.mark.parametrize("n", [4, 5])
@settings(max_examples=2, deadline=None)
@given(st.tuples(*[_log_uniform] * len(PHYSICAL_FLAGS)))
def test_generated_commutant_configuration_reports(n, values):
    # the commutant reads no physical flag; every N it accepts must pass
    code, _ = _check_run(_with_flags(["commutant", "--N", str(n)], values))
    assert code == 0


@pytest.mark.parametrize("n", [-1, 0, 3])
def test_commutant_below_n4_is_rejected(n):
    code, error = _check_run(["commutant", "--N", str(n)])
    assert code == 2 and "truncation N must be at least 4" in error["error"]


def test_spectrum_overflow_is_rejected():
    code, error = _check_run(["spectrum", "--hbar", "1e307"])
    assert code == 2 and "double precision" in error["error"]


def test_kms_non_faithful_density_is_rejected():
    code, error = _check_run(["kms", "--N", "64", "--beta", "2"])
    assert code == 2 and "not faithful" in error["error"]


@pytest.mark.parametrize("command", ["resolution", "wigner", "kernel"])
def test_phase_plane_runs_at_n100(command):
    code, _ = _check_run([command, "--N", "100"])
    assert code in (0, 1)


def test_scheme_flags_replace_the_default_rule():
    # the default 2N = 600 rings lie past the radial rule's reach; the
    # flag's 64 rings must be built in their place, not after them
    code, _ = _check_run(["kernel", "--N", "300", "--radial-nodes", "64", "--allow-small"])
    assert code in (0, 1)
