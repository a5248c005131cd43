"""Source hygiene, read from the source text with the stdlib only.

No module of the package keeps an import it never uses (``__init__``
re-exports on purpose), no module sorts with a Python key per monomial
(``grlex_key`` is the tests' oracle of the canonical order, which
graded pieces come out in and ``sort_monomials`` puts any other list
in), no ``_``-prefixed top-level function, class or assignment is left
unused, the CLI's schema tag is built in one place, only the function
that reads graded pieces back builds their ``_Columns`` and only
``_points`` packages one as ``Monomials`` (see ``TRUSTED``), every
source and test file parses as the oldest Python that pyproject.toml
allows, ``orbistack.__all__`` lists every public name ``__init__``
imports, once each and each resolving, and importing the CLI leaves
``array``, ``fractions`` and ``decimal`` unloaded.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbistack"


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


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def orphaned_private_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each top-level _-prefixed def, class or assignment no other code reads.

    A name counts as read when some module loads it as a name, as an
    attribute or through a from-import, outside its own definition.
    Dunder names such as __all__ are not private.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    readers: dict[str, set] = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add(id(stmt))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in defined_names(stmt)
        if name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and not readers.get(name, set()) - {id(stmt)}
    ]


def test_no_private_definition_is_orphaned():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 7
    assert orphaned_private_definitions(sources) == []


def test_orphaned_private_definitions_are_flagged():
    assert orphaned_private_definitions({"a.py": "def _f(): pass\ndef g(): pass"}) == ["a.py:_f"]
    # Read by a call in the same module, an attribute or a from-import in another.
    assert orphaned_private_definitions({"a.py": "def _f(): pass\n_f()"}) == []
    assert orphaned_private_definitions({"a.py": "class _C: pass", "b.py": "import a\na._C"}) == []
    assert orphaned_private_definitions({"a.py": "def _f(): pass", "b.py": "from .a import _f"}) == []
    # A definition that only reads itself is still orphaned.
    assert orphaned_private_definitions({"a.py": "def _f(n):\n    return _f(n - 1)"}) == ["a.py:_f"]
    assert orphaned_private_definitions({"a.py": "class _C:\n    def m(self):\n        return _C()"}) == ["a.py:_C"]
    # Nested and public definitions are not checked.
    assert orphaned_private_definitions({"a.py": "def f():\n    def _g(): pass"}) == []
    # Module-level assignments are checked too, plain, annotated or unpacked.
    assert orphaned_private_definitions({"a.py": "_R = {1: 2}\nR = 3"}) == ["a.py:_R"]
    assert orphaned_private_definitions({"a.py": "_N: int = 3\n_a, (_b, c) = 1, (2, 3)\nprint(_a)"}) == [
        "a.py:_N",
        "a.py:_b",
    ]
    assert orphaned_private_definitions({"a.py": "_R = {}", "b.py": "from .a import _R"}) == []
    assert orphaned_private_definitions({"a.py": "_R = 1\ndef f():\n    return _R"}) == []
    # Binding the name again, or reading it only in its own value, is no read.
    assert orphaned_private_definitions({"a.py": "_R = 1\n_R = 2"}) == ["a.py:_R", "a.py:_R"]
    assert orphaned_private_definitions({"a.py": "_R = []\n_S = _R\n_S.append(_S)"}) == []
    assert orphaned_private_definitions({"a.py": "_R = lambda n: _R(n - 1)"}) == ["a.py:_R"]
    assert orphaned_private_definitions({"a.py": "__all__ = []\n__version__ = '1'"}) == []


def sorts_keyed_by(source: str, name: str) -> list[int]:
    """Lines of source calling sorted() or .sort() with a key that mentions name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Name) and func.id == "sorted"
            or isinstance(func, ast.Attribute) and func.attr == "sort"
        ):
            continue
        for kw in node.keywords:
            if kw.arg == "key" and any(
                isinstance(n, ast.Name) and n.id == name
                or isinstance(n, ast.Attribute) and n.attr == name
                for n in ast.walk(kw.value)
            ):
                lines.append(node.lineno)
    return lines


def test_no_module_sorts_by_grlex_key():
    modules = sorted(PACKAGE.glob("*.py"))
    found = {p.name: sorts_keyed_by(p.read_text(), "grlex_key") for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_sorts_keyed_by_grlex_key_are_flagged():
    assert sorts_keyed_by("sorted(xs, key=grlex_key)", "grlex_key") == [1]
    assert sorts_keyed_by("x = 1\nxs.sort(key=lambda g: (g[1], grlex_key(g[0])))", "grlex_key") == [2]
    assert sorts_keyed_by("sorted(xs, reverse=True, key=lattice.grlex_key)", "grlex_key") == [1]
    assert sorts_keyed_by("sorted(xs, key=sum)\ngrlex_key(x)", "grlex_key") == []
    assert sorts_keyed_by("min(xs, key=grlex_key)", "grlex_key") == []


def test_the_schema_tag_is_built_once():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tags = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "schema"]
    assert len(tags) == 1


# The one place in lattice.py (top-level function or class) where each
# column carrier may be built and where _columns may be bound: the
# readback builds a _Columns, which binds its own views, and _points
# packages it as Monomials, which keep them.
TRUSTED = {
    "_Columns": {"_bounded_solutions"},
    "Monomials": {"_points"},
    "_columns": {"_Columns", "_points"},
}


def column_trust_breaches(sources: dict[str, str]) -> list[str]:
    """module:line of each column carrier built or _columns bound outside its place in TRUSTED.

    The CLI prints a _Columns or a Monomials straight from its _columns,
    with no digit scan, so nothing else may build one or bind its
    columns.  A binding is a name or attribute _columns stored or
    deleted, or a setattr or __setattr__ of "_columns".
    """
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {
            id(node): stmt.name
            for stmt in tree.body
            if module == "lattice.py" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
                if name in ("setattr", "__setattr__"):
                    name = "_columns" if any(isinstance(a, ast.Constant) and a.value == "_columns" for a in node.args) else ""
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, (ast.Store, ast.Del)):
                name = node.id if isinstance(node, ast.Name) else node.attr
            else:
                continue
            if name in TRUSTED and owner.get(id(node)) not in TRUSTED[name]:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_only_the_graded_readback_builds_monomials():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "_Columns(columns)" in sources["lattice.py"] and "Monomials(piece)" in sources["lattice.py"]
    assert column_trust_breaches(sources) == []


def test_column_trust_breaches_are_flagged():
    trusted = (
        "def _bounded_solutions():\n    return _Columns(views)\n"
        "def _points(piece):\n    points = Monomials(piece)\n    points._columns = piece._columns\n"
        "class _Columns:\n    def __init__(self, views):\n        self._columns = views\n"
    )
    assert column_trust_breaches({"lattice.py": trusted}) == []
    # The same code anywhere else is flagged, line by line.
    assert column_trust_breaches({"cli.py": trusted}) == ["cli.py:2", "cli.py:4", "cli.py:5", "cli.py:8"]
    # So is each piece of it in lattice.py outside its own place.
    swapped = trusted.replace("_bounded_solutions", "_tmp").replace("def _points", "def _bounded_solutions")
    assert column_trust_breaches({"lattice.py": swapped}) == ["lattice.py:2", "lattice.py:4", "lattice.py:5"]
    assert column_trust_breaches({"lattice.py": trusted.replace("class _Columns", "class _Other")}) == [
        "lattice.py:8",
    ]
    assert column_trust_breaches({"wps.py": "x = lattice.Monomials(p)"}) == ["wps.py:1"]
    assert column_trust_breaches({"cli.py": "x = lattice._Columns(views)"}) == ["cli.py:1"]
    assert column_trust_breaches({"a.py": "setattr(p, '_columns', c)"}) == ["a.py:1"]
    assert column_trust_breaches({"a.py": "object.__setattr__(p, '_columns', c)"}) == ["a.py:1"]
    assert column_trust_breaches({"a.py": "class A:\n    _columns = ()"}) == ["a.py:2"]
    assert column_trust_breaches({"a.py": "p._columns += c\ndel p._columns"}) == ["a.py:1", "a.py:2"]
    # Reading the columns or naming the types is not a breach.
    assert column_trust_breaches({"cli.py": "c = p._columns\nok = type(p) in (Monomials, _Columns)"}) == []


def test_every_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(files) >= 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_syntax_past_python_3_10_is_flagged():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


# Modules a CLI start-up does not need: lattice imports array inside the
# one function that reads graded pieces back, so a run that never
# enumerates one does not load it, and no module of the package uses
# fractions or decimal (which brings in _decimal and numbers).
UNNEEDED_AT_START_UP = ("array", "fractions", "decimal", "_decimal", "numbers")


def test_cli_start_up_leaves_array_fractions_and_decimal_unimported():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # The probe runs again after importing the modules itself, so it is
    # seen to flag each one it looks for.
    code = (
        "import sys, orbistack, orbistack.cli\n"
        f"names = {UNNEEDED_AT_START_UP!r}\n"
        "print([m for m in names if m in sys.modules])\n"
        "import array, decimal, fractions\n"
        "print([m for m in names if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    loaded = f"{list(UNNEEDED_AT_START_UP)}\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n" + loaded, "")


def export_faults(source: str, namespace: dict) -> list[str]:
    """Faults of a package's __all__, given its __init__ source and its namespace.

    A name listed twice, a listed name the namespace does not hold, and a
    public name a module-level import of the source binds but __all__
    does not list are each one fault.
    """
    listed = namespace.get("__all__", [])
    faults = [f"listed twice: {name}" for name, n in Counter(listed).items() if n > 1]
    faults += [f"does not resolve: {name}" for name in listed if name not in namespace]
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        faults += [f"not listed: {name}" for name in bound if not name.startswith("_") and name not in listed]
    return faults


def test_every_export_is_listed_once_and_resolves():
    import orbistack

    source = (PACKAGE / "__init__.py").read_text()
    assert len(orbistack.__all__) >= 50
    assert export_faults(source, vars(orbistack)) == []


def planted_faults(source: str) -> list[str]:
    namespace: dict = {}
    exec(source, namespace)
    return export_faults(source, namespace)


def test_export_faults_are_flagged():
    assert planted_faults("from math import gcd, prod\n__all__ = ['gcd', 'prod']") == []
    assert planted_faults("from math import gcd, prod\n__all__ = ['gcd']") == ["not listed: prod"]
    assert planted_faults("from math import gcd\n__all__ = ['gcd', 'gcd']") == ["listed twice: gcd"]
    # A removed import leaves its string behind in __all__.
    assert planted_faults("from math import gcd\n__all__ = ['gcd', 'lcm']") == ["does not resolve: lcm"]
    assert planted_faults("import os.path, json as j\n__all__ = ['os']") == ["not listed: j"]
    assert planted_faults("from math import gcd as g\n__all__ = ['gcd']") == [
        "does not resolve: gcd",
        "not listed: g",
    ]
    # Private and __future__ imports, and names defined in the module, need no listing.
    assert planted_faults("from __future__ import annotations\nfrom math import gcd as _g\nx = 1\n__all__ = []") == []


def test_the_suite_runs_under_the_address_space_cap():
    # The root conftest.py lowers the soft RLIMIT_AS to 4 GiB and never
    # raises it, so a runaway search ends in MemoryError.
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= 4 << 30
