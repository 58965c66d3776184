"""The benchmark tracer's span targets resolve, each to its own object.

``perfbench/tracer.py`` wraps library functions by name: a module attribute
for a plain target, and the class's own ``__dict__`` entry for a
``Class.attr`` target.  A rename, a method moved to a base class, or one
function bound under two target names (wrapped twice) would break
``--trace 1`` without failing any library test.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracer import TARGETS  # noqa: E402


def _resolve(module_name: str, path: str) -> object | None:
    """The object the tracer would wrap, or None when it cannot find it."""
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(module, cls_name, object)).get(attr)
    return getattr(module, path, None)


def test_every_target_resolves_on_its_owner():
    missing = [f"{m}:{p}" for m, p, _, _ in TARGETS if _resolve(m, p) is None]
    assert not missing


def test_targets_are_distinct_objects():
    seen: dict[int, str] = {}
    shared = []
    for module_name, path, _, _ in TARGETS:
        obj = _resolve(module_name, path)
        if id(obj) in seen:
            shared.append(f"{seen[id(obj)]} and {path}")
        seen[id(obj)] = path
    assert not shared
