"""No module of the package imports a name it never uses, or defines a
private module-level name, private method or private ``self`` attribute
that nothing in the module reads.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard ``ast`` module.  The package ``__init__`` is exempt from
the import check: its imports are the public re-exports.
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


def unused_private_names(source: str) -> list[str]:
    """Functions, classes and constants bound at module level under a
    private name (one leading underscore) that no expression of the module
    reads.  Tests may still reach such a name; the module must use it."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items()
            if name not in read]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_members(source: str) -> list[str]:
    """Private methods (functions in a class body) and private attributes
    (assigned as ``self._name``) whose name no attribute read in the
    module uses.  Tests may still reach such a member; the module must."""
    tree = ast.parse(source)
    defined = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.setdefault(item.name, item.lineno)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name)
              and node.value.id == "self"):
            defined.setdefault(node.attr, node.lineno)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for line, name in
            sorted((line, name) for name, line in defined.items())
            if _private(name) and name not in read]


def test_every_module_is_checked():
    assert {"cli.py", "core.py", "learners.py", "transforms.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_private_names(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_private_names(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_private_members(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_private_members(source) == []


def test_checker_finds_an_unused_private_member():
    source = ("class A:\n"
              "    def __init__(self, other):\n"
              "        self._used, self._stray = 1, 2\n"
              "        self.public = other._elsewhere = 3\n"
              "        self.__mangled = 4\n"
              "    def _helper(self): return self._used\n"
              "    def _gone(self): self._gone_too = 5\n"
              "    def __repr__(self): return ''\n"
              "def f(a): return a._helper()\n")
    assert unused_private_members(source) == [
        "line 3: _stray", "line 7: _gone", "line 7: _gone_too"]


def test_checker_finds_an_unused_private_name():
    source = ("_USED = 1\n_STRAY = {float}\n_a, _b = 2, 3\n__dunder__ = 4\n"
              "def _helper(): return _USED + _a\nclass _Gone: pass\n"
              "def public(): _Gone = 5\n")
    assert unused_private_names(source) == [
        "line 2: _STRAY", "line 3: _b", "line 5: _helper", "line 6: _Gone"]


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import (a, b)\nnp.zeros(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]
