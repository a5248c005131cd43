"""Source hygiene, read from the source text with the stdlib only.

No module of the package keeps an import it never uses (``__init__``
re-exports on purpose), and the CLI's schema tag is built in one place.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbistack"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports of source that no name in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_module_keeps_an_unused_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 6
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_imports_are_flagged():
    assert unused_imports("import os\nimport re\nre.compile('x')") == ["os"]
    assert unused_imports("import os.path\nos.sep") == []
    assert unused_imports("from math import gcd as g, prod\ng(1, 2)") == ["prod"]
    assert unused_imports("from __future__ import annotations\nx = 1") == []
    assert unused_imports("from typing import Sequence\ndef f(x: Sequence): pass") == []
    assert unused_imports("from itertools import combinations\ndef f(): pass") == ["combinations"]
    # Only module-level imports are checked.
    assert unused_imports("def f():\n    import json") == []


def test_the_schema_tag_is_built_once():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tags = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "schema"]
    assert len(tags) == 1
