"""Every lru cache in the package is a module attribute.

Code that measures cold runs in one process (a benchmark pass, a test
counting kernel solves) empties the caches by calling ``cache_clear`` on
every module attribute that has one.  A cache on a nested function, a
method or an instance is not a module attribute, so it would survive
that and quietly warm the next run.  This scans the source with ``ast``.
"""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbistack"
CACHE_DECORATORS = {"lru_cache", "cache"}


def misplaced_caches(source: str) -> list[int]:
    """Line numbers of cache uses anywhere but module-level code.

    Allowed: the decorators of a top-level function and module-level
    statements such as ``f = lru_cache(g)``.  Anything inside a function
    or class body, decorators of methods and nested functions included,
    is reported.
    """
    tree = ast.parse(source)
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHE_DECORATORS
    }

    def is_cache(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names
        return (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )

    allowed = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = stmt.decorator_list
        elif isinstance(stmt, ast.ClassDef):
            scopes = ()
        else:
            scopes = (stmt,)
        for scope in scopes:
            allowed.update(id(n) for n in ast.walk(scope))
    return sorted(n.lineno for n in ast.walk(tree) if is_cache(n) and id(n) not in allowed)


def test_package_caches_are_module_level():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        assert misplaced_caches(path.read_text(encoding="utf-8")) == [], path.name


def test_decorated_functions_are_clearable_module_attributes():
    # What the scan sees matches what cache_clear reaches at run time.
    found = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"orbistack.{path.stem}")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and any(
                "cache" in ast.unparse(d) for d in stmt.decorator_list
            ):
                found += 1
                assert callable(getattr(getattr(module, stmt.name), "cache_clear", None)), stmt.name
    assert found >= 2


def test_misplaced_cache_detector():
    top = (
        "from functools import lru_cache\n"
        "import functools\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x):\n"
        "    return x\n"
        "@functools.cache\n"
        "def g(x):\n"
        "    return x\n"
        "h = lru_cache(maxsize=None)(f)\n"
    )
    assert misplaced_caches(top) == []
    nested = (
        "from functools import lru_cache\n"
        "def outer():\n"
        "    @lru_cache\n"
        "    def inner(x):\n"
        "        return x\n"
        "    return inner\n"
    )
    assert misplaced_caches(nested) == [3]
    method = (
        "import functools\n"
        "class A:\n"
        "    @functools.lru_cache(maxsize=None)\n"
        "    def m(self, x):\n"
        "        return x\n"
    )
    assert misplaced_caches(method) == [3]
    per_instance = (
        "from functools import cache as memo\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self.m = memo(self.compute)\n"
    )
    assert misplaced_caches(per_instance) == [4]
    # A local variable that merely shares the name is not a cache.
    assert misplaced_caches("def f():\n    cache = {}\n    return cache\n") == []
