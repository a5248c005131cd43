"""The oracles stay independent: tests/oracles.py imports only the stdlib."""

import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def non_stdlib_imports(source: str) -> list[str]:
    """Every import in source that is relative or outside the stdlib."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found.append("." * node.level + (node.module or ""))
                continue
            names = [node.module]
        else:
            continue
        found.extend(n for n in names if n.split(".")[0] not in sys.stdlib_module_names)
    return found


def test_oracles_import_only_the_stdlib():
    assert non_stdlib_imports(ORACLES.read_text()) == []


def test_non_stdlib_imports_are_flagged():
    assert non_stdlib_imports("import math\nfrom itertools import product") == []
    assert non_stdlib_imports("import orbistack.lattice") == ["orbistack.lattice"]
    assert non_stdlib_imports("from orbistack import embed") == ["orbistack"]
    assert non_stdlib_imports("from . import test_embed") == ["."]
    assert non_stdlib_imports("from .lattice import _dot") == [".lattice"]
    assert non_stdlib_imports("def f():\n    import numpy as np") == ["numpy"]
    assert non_stdlib_imports("from tests import oracles") == ["tests"]
