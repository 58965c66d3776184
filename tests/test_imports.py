"""Every name a library module imports is used in that module.

A refactor that deletes the last use of an imported name leaves the import
behind; this guard finds it.  A name counts as used when the module reads it
anywhere, annotations (string annotations too) included.  ``__init__`` is
left out: its imports are the package's public surface.  So are the old
tolerance names that a module keeps importing from the table for its
callers (``test_tolerances``).
"""

import ast
import importlib
import inspect
import pkgutil

import qinstr

# Old names kept as aliases of the tolerance table, read only by callers.
KEPT_ALIASES = {"models": {"MODEL_TOL"}}


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            a = node.args
            yield from (arg.annotation for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if arg)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str, kept: set[str] = frozenset()) -> list[str]:
    """The names that ``source`` imports and never reads, with their lines,
    leaving out the ``kept`` ones."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | kept
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        unused += [f"{name}:{node.lineno}" for name in names if name not in used]
    return unused


def test_every_library_import_is_used():
    found = {}
    for info in pkgutil.iter_modules(qinstr.__path__):
        module = importlib.import_module(f"qinstr.{info.name}")
        if unused := unused_imports(inspect.getsource(module), KEPT_ALIASES.get(info.name, set())):
            found[info.name] = unused
    assert found == {}


def test_the_guard_sees_annotations_and_flags_a_stray_import():
    source = (
        "from __future__ import annotations\n"
        "import copy\n"
        "import numpy as np\n"
        "from .rand import _normals, default_labels\n"
        "from .linalg import Array\n"
        "def f(x: 'Array') -> np.ndarray:\n"
        "    return _normals(x)\n"
    )
    assert unused_imports(source) == ["copy:2", "default_labels:4"]
