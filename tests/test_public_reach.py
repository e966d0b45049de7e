"""Every public name has a caller outside the tests.

A name in a module's ``__all__`` counts as reached when some file under
``src/hsqm``, ``demos/`` or ``benchmarks/`` refers to it as a bare name
or as an attribute (``ast.Name`` / ``ast.Attribute``); its own ``def``
or ``class`` line does not count.  A public kernel that only its tests
call either gets a contract or a demo, or it is deleted.  The files are
parsed, never imported or edited.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hsqm"
CALLER_DIRS = (PACKAGE, ROOT / "demos", ROOT / "benchmarks")


def _public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _references() -> set[str]:
    seen = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
    return seen


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if _public_names(p))


def test_every_module_is_scanned():
    assert MODULES == ["commutant", "fock", "hs_space", "landau", "modular", "quadrature", "thermal", "wigner"]


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller(module):
    seen = _references()
    unreached = [name for name in _public_names(PACKAGE / f"{module}.py") if name not in seen]
    assert not unreached, f"hsqm.{module} exports names only tests reach: {unreached}"
