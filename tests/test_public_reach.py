"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` counts as reached when some file under
``src/hsqm`` or ``benchmarks/`` refers to it: as an attribute
(``ast.Attribute``, e.g. ``thermal.cs_overlap``), or as a bare name it
loads (``ast.Name``) where that name is bound to the hsqm object, that is
in a file that imports it from hsqm (under any alias) or in the module
that defines it.  A local variable that happens to share a public name
does not count, nor does an import on its own, nor the name's ``def`` or
``class`` line.  A public kernel that only its tests call either gets a
CLI contract or it is deleted.  The files are parsed, never imported or
edited.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hsqm"
CALLER_DIRS = (PACKAGE, ROOT / "benchmarks")


def _public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _hsqm_bindings(tree: ast.AST) -> dict[str, str]:
    """Local name -> imported name, for every ``from hsqm... import`` (or a
    relative import inside the package) of the file."""
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hsqm"):
            bindings.update((alias.asname or alias.name, alias.name) for alias in node.names)
    return bindings


def _references(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    bindings = {name: name for name in _public_names(path)}
    bindings.update(_hsqm_bindings(tree))
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bindings:
            seen.add(bindings[node.id])
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
    return seen


@functools.cache
def _reached() -> frozenset[str]:
    return frozenset().union(*(_references(path) for directory in CALLER_DIRS for path in sorted(directory.glob("*.py"))))


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if _public_names(p))


def test_every_module_is_scanned():
    assert MODULES == ["commutant", "fock", "hs_space", "landau", "modular", "quadrature", "thermal", "wigner"]


def test_local_variable_is_not_a_caller(tmp_path):
    # a local that shares a public name is no reference; the imported
    # name, loaded under an alias, is
    path = tmp_path / "caller.py"
    path.write_text("from hsqm.fock import identity as eye\n\ndef f(momentum):\n    return momentum + eye\n")
    assert _references(path) == {"identity"}


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller(module):
    seen = _reached()
    unreached = [name for name in _public_names(PACKAGE / f"{module}.py") if name not in seen]
    assert not unreached, f"hsqm.{module} exports names only tests reach: {unreached}"
