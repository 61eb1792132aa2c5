import ast
import importlib
from pathlib import Path

import pytest

import perturb

MODULES = ["arrowhead", "bounds", "cli", "ensembles", "errors", "experiments", "matcore", "rs_solver"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # every name a module lists in __all__ is defined there
    module = importlib.import_module(f"perturb.{name}")
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"perturb.{name}.__all__ lists missing {export!r}"


def test_package_imports_are_exported_by_their_home():
    # each name perturb/__init__.py imports is in its home module's __all__,
    # or, for a module without __all__, one of its public names
    tree = ast.parse(Path(perturb.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "perturb/__init__.py imports only from its own modules"
        module = importlib.import_module(f"perturb.{node.module}")
        exported = getattr(module, "__all__", None)
        for alias in node.names:
            if exported is None:
                assert not alias.name.startswith("_") and hasattr(module, alias.name)
            else:
                assert alias.name in exported, f"{alias.name} is not in perturb.{node.module}.__all__"
            assert getattr(perturb, alias.asname or alias.name) is getattr(module, alias.name)


def test_rs_solver_imports_nothing_from_bounds():
    # the solver sits below bounds: bounds calls solve, so an import the
    # other way would be a cycle
    source = Path(importlib.import_module("perturb.rs_solver").__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            assert module not in (".bounds", "perturb.bounds"), f"from {module} import ..."
            if module in (".", "perturb"):
                assert "bounds" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert "perturb.bounds" not in {alias.name for alias in node.names}
