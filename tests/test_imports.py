"""Every module-level import of the package is used.

No linter is installed, so this reads each module's syntax tree: a name
that a top-level import binds must be referred to by some expression of the
module, or by a string annotation.  A word in a docstring or a comment is
not a use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flatcert"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    """Names that expressions load, plus those inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
    used = used_names(tree)
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_level_imports_are_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_unused_import_check_reads_uses_not_words():
    source = ('"""Fraction in a docstring is no use."""\n'
              "from __future__ import annotations\n"
              "import os, re as regex\n"
              "from typing import Sequence, Mapping\n"
              "from fractions import Fraction\n"
              "def f(x: 'Sequence[int]') -> Mapping:\n"
              "    return os.sep  # regex in a comment is no use either\n")
    assert unused_imports(source) == ["regex", "Fraction"]
