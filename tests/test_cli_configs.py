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


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(set(CONTRACTS) - {"commutant"})),
    st.integers(4, 12),
    st.tuples(*[_log_uniform] * len(PHYSICAL_FLAGS)),
)
def test_generated_configuration_reports_or_rejects(command, n, values):
    argv = [command, "--N", str(n)]
    for flag, value in zip(PHYSICAL_FLAGS, values):
        argv += [flag, repr(value)]
    _check_run(argv)


def test_commutant_default_reports_contracts():
    code, doc = _check_run(["commutant"])
    assert code == 0


def test_spectrum_overflow_is_rejected():
    code, error = _check_run(["spectrum", "--hbar", "1e307"])
    assert code == 2 and "double precision" in error["error"]


def test_kms_non_faithful_density_is_rejected():
    code, error = _check_run(["kms", "--N", "64", "--beta", "2"])
    assert code == 2 and "not faithful" in error["error"]


@pytest.mark.xfail(strict=True, reason="the phase plane stops at N = 99 (ROADMAP item 3)")
@pytest.mark.parametrize("command", ["resolution", "wigner", "kernel"])
def test_phase_plane_runs_at_n100(command):
    code, _ = _check_run([command, "--N", "100"])
    assert code in (0, 1)
