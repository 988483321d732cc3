"""Each module's ``__all__`` is the package's API, and every name in it is used.

A public name is used when the pipeline (``src/uwbloc``) or the benchmark
(``perfbench``) loads it or looks it up as an attribute; a reference inside
the name's own definition, such as a recursive call, does not count. There
is no exception: an independent reference the tests compare the pipeline
against lives in ``tests/oracles.py``, not in the package.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uwbloc"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def public_names():
    """(module, name) for every name in a module ``__all__``."""
    pairs = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"uwbloc.{path.stem}")
        pairs += [(module, name) for name in getattr(module, "__all__", ())]
    return pairs


def used_names(tree: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names loaded or looked up as attributes in ``tree``, outside their own definition."""
    used = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        used |= used_names(node, inside | {node.name} if defines else inside)
    return used - inside


def test_every_export_exists():
    missing = [f"{m.__name__}.{name}" for m, name in public_names() if not hasattr(m, name)]
    assert not missing, f"listed in __all__ but not defined: {missing}"


def test_package_reexports_nothing():
    # the modules are the API: a list in the package itself would be one more to keep in step
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    assert not hasattr(importlib.import_module("uwbloc"), "__all__")


def test_every_export_is_used_by_the_pipeline_or_the_benchmark():
    used = set()
    for path in CALLERS:
        used |= used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = [f"{m.__name__}.{name}" for m, name in public_names() if name not in used]
    assert not unused, f"exported but used by neither src/uwbloc nor perfbench: {unused}"
