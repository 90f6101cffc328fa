"""Every top-level definition of the package is reached from an entry point.

The entry points are ``src/digitsum/cli.py`` and ``scripts/*.py``.  The roots
are their decorated definitions, which the decorators register as commands,
and every top-level statement that defines nothing, in any module, since it
runs on import.  A definition is reached when a root, or the body of a
definition already reached, loads its name, as a bare name or as an
attribute.  The scan follows names, not imports, so a name defined in two
modules is reached in both once either is.  A use inside the tests does not
count, and a name used only inside its own definition is not reached.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "digitsum"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ENTRY_POINTS = [PACKAGE / "cli.py", *SCRIPTS]


def _defined_name(node: ast.stmt):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _loads(node: ast.AST) -> set[str]:
    """Every identifier loaded in node, as a bare name or as an attribute."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            names.add(child.attr)
    return names


def _statements() -> list[tuple[Path, ast.stmt, str | None]]:
    """(file, top-level statement, the name it defines or None), package and scripts."""
    return [
        (path, statement, _defined_name(statement))
        for path in sorted(PACKAGE.glob("*.py")) + SCRIPTS
        for statement in ast.parse(path.read_text(), filename=str(path)).body
    ]


def unreached_definitions() -> set[tuple[str, str]]:
    """(file name, defined name) of every definition but __all__ that no root reaches."""
    statements = _statements()
    defs = {
        (path.name, name): statement
        for path, statement, name in statements
        if name is not None and name != "__all__"
    }
    reached = {
        (path.name, name)
        for path, statement, name in statements
        if name is not None and path in ENTRY_POINTS and getattr(statement, "decorator_list", [])
    }
    pending = set().union(
        *(_loads(defs[key]) for key in reached),
        *(_loads(statement) for _, statement, name in statements if name is None),
    )
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for key, statement in defs.items():
            if key[1] == name and key not in reached:
                reached.add(key)
                pending |= _loads(statement) - seen
    return set(defs) - reached


def test_scan_sees_the_package():
    names = {name for _, _, name in _statements()}
    assert {"SequenceFn", "weighted_digit_sum", "digit_weighted_sum", "run_all"} <= names
    assert {"_REGISTRY", "EM_ORDER", "_run_thm31"} <= names


def test_every_definition_is_reached():
    assert unreached_definitions() == set()
