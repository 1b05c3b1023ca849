"""No module of the package imports a name it never uses.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import sparsepr

PACKAGE = Path(sparsepr.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of a module and never read in it."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_the_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field as f\n"
              "from .refine import HtpConfig\n"
              "x: dataclass = os.path.join\n")
    assert unused_imports(source) == ["HtpConfig", "f"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 9
    unused = {p.name: names for p in modules
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
