"""The tolerance table in ``qinstr.linalg`` is the one numerical policy.

These guards fail when a tolerance or budget parameter is added to (or
dropped from) the public surface, when a module outside the table defines
its own ``*_TOL`` constant, when a bare threshold literal appears in the
library modules outside the table, or when a check that raises compares a
value with a table entry in a form that a NaN value passes.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import qinstr
from qinstr import linalg

# The defaulted tolerance and budget parameters that some caller sets.
KEPT_KNOBS = {
    "linalg.ensure_hermitian.tol",
    "linalg.is_unitary.tol",
    "observables.obs_coexist_verify.tol",
    "instruments.instr_coexist_verify.tol",
    "instruments.is_identity_instrument.tol",
    "verify.run_suite.tol_scale",
    "verify.run_suites.tol_scale",
}

LIBRARY = ("linalg", "effects", "observables", "instruments", "models")


def _modules():
    return [importlib.import_module(f"qinstr.{info.name}") for info in pkgutil.iter_modules(qinstr.__path__)]


def _functions(owner, module):
    """Functions and methods defined in ``module``, at top level or in its classes."""
    for member in vars(owner).values():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member) and member.__module__ == module.__name__:
            yield member
        elif inspect.isclass(member) and member.__module__ == module.__name__ and owner is module:
            yield from _functions(member, module)


def test_only_the_kept_tolerance_knobs_remain():
    found = set()
    for module in _modules():
        short = module.__name__.rsplit(".", 1)[1]
        for fn in _functions(module, module):
            for p in inspect.signature(fn).parameters.values():
                if p.default is not p.empty and ("tol" in p.name or p.name in ("iters", "attempts")):
                    found.add(f"{short}.{fn.__qualname__}.{p.name}")
    assert found == KEPT_KNOBS


def test_only_the_table_assigns_tol_constants():
    owners = []
    for module in _modules():
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.endswith("_TOL") and module is not linalg:
                    owners.append(f"{module.__name__}.{t.id}")
    assert owners == []


def test_no_bare_threshold_outside_the_table():
    # Thresholds are floats in (0, 1); the table is linalg's module-level
    # assignments.
    stray = []
    for name in LIBRARY:
        tree = ast.parse(inspect.getsource(importlib.import_module(f"qinstr.{name}")))
        for node in tree.body:
            if name == "linalg" and isinstance(node, ast.Assign):
                continue
            stray += [
                f"{name}:{c.lineno}"
                for c in ast.walk(node)
                if isinstance(c, ast.Constant) and type(c.value) is float and 0.0 < c.value < 1.0
            ]
    assert stray == []


def test_old_names_resolve_to_the_table_with_their_values():
    old = {
        ("linalg", "HERM_TOL"): 1e-9,
        ("linalg", "PSD_TOL"): 1e-9,
        ("linalg", "ORTHO_TOL"): 1e-9,
        ("effects", "EFFECT_EIG_TOL"): 1e-9,
        ("effects", "STATE_TRACE_TOL"): 1e-9,
        ("observables", "SUM_TOL"): 1e-8,
        ("instruments", "CHOI_TOL"): 1e-8,
        ("models", "MODEL_TOL"): 1e-7,
    }
    for (name, constant), value in old.items():
        assert getattr(importlib.import_module(f"qinstr.{name}"), constant) == getattr(linalg, constant) == value


def _table_names() -> set[str]:
    """The names of the tolerance table: linalg's module-level upper-case assignments."""
    tree = ast.parse(inspect.getsource(linalg))
    return {
        t.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.isupper()
    }


def open_guards(source: str, table: set[str]) -> list[int]:
    """The lines of the ``if`` statements of ``source`` that raise and compare a value with a
    ``table`` name outside any ``not``: every comparison with a NaN is false, so only a negated
    one (``not residual <= tol``) raises on a NaN."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        negated = {
            id(inner)
            for n in ast.walk(node.test)
            if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not)
            for inner in ast.walk(n.operand)
        }
        if any(
            isinstance(n, ast.Compare)
            and id(n) not in negated
            and any(isinstance(m, ast.Name) and m.id in table for m in ast.walk(n))
            for n in ast.walk(node.test)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_raising_check_on_a_table_entry_fails_on_nan():
    table, found = _table_names(), {}
    for module in _modules():
        if lines := open_guards(inspect.getsource(module), table):
            found[module.__name__] = lines
    assert found == {}


def test_the_guard_sees_a_comparison_that_a_nan_passes():
    source = (
        "def f(x, y):\n"
        "    if x > SUM_TOL:\n"
        "        raise ValueError\n"
        "    if not x <= SUM_TOL:\n"
        "        raise ValueError\n"
        "    if not np.all(y > SUM_TOL) or x > 2 * SUM_TOL:\n"
        "        raise ValueError\n"
        "    if x > SUM_TOL:\n"
        "        return x\n"
        "    if x > y:\n"
        "        raise ValueError\n"
    )
    assert open_guards(source, {"SUM_TOL"}) == [2, 6]


def test_readme_lists_the_table_with_its_values():
    # README's tolerance table: one row `| `NAME` | value | what it bounds |`
    # per entry of linalg's table, with the same value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("The tolerance table (`qinstr.linalg`):", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    listed = {name.strip().strip("`"): float(value) for name, value in rows}
    assert len(listed) == len(rows)
    assert listed == {name: float(getattr(linalg, name)) for name in _table_names()}
