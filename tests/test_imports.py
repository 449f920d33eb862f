"""No module of the package imports a name it never uses.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard ``ast`` module.  The package ``__init__`` is exempt: its
imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mullab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in imported.items())
            if name not in used]


def test_every_module_is_checked():
    assert {"cli.py", "core.py", "learners.py", "transforms.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import (a, b)\nnp.zeros(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]
