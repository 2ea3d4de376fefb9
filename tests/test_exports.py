"""Every name that eqc exports is used by the package itself.

Code that only the tests call belongs in the tests, so a name exported by
eqc/__init__.py must be referenced somewhere in src/eqc outside its own
definition and outside __init__.py.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eqc"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


MODULES = _modules()


def _is_used(name: str) -> bool:
    """Whether a loaded name (imports aside) refers to name in some module,
    outside the body of the function or class that defines it."""
    stack = list(MODULES)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


@pytest.mark.parametrize("name", _exported())
def test_exported_name_is_used_in_the_package(name):
    assert _is_used(name), f"eqc exports {name}, but nothing in src/eqc uses it"
