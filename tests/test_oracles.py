"""The oracles stay independent: tests/oracles.py imports only the stdlib.

Oracles whose package counterpart is gone are checked here directly.
"""

import ast
import sys
from itertools import product
from pathlib import Path

from tests.oracles import can_decompose

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


def test_can_decompose_matches_the_combinations_it_reaches():
    # Every nonnegative combination of these generators with coefficients
    # up to 4 is listed; the targets lie in a box that no coefficient past
    # 4 can reach, since each generator has a positive last entry.
    gens = [(1, 0, 1), (0, 1, 1), (1, 1, 2)]
    reached = {
        tuple(sum(c * g[i] for c, g in zip(coefficients, gens)) for i in range(3))
        for coefficients in product(range(5), repeat=3)
    }
    for target in product(range(4), range(4), range(5)):
        assert can_decompose(target, gens) == (target in reached), target
    assert can_decompose((0, 0), ())
    assert not can_decompose((1, 0), ())
