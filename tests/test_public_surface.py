"""Every public name of the package is used by the package or its scripts.

Each name in a module's ``__all__`` must be loaded, as a bare name or as an
attribute, somewhere in ``src/digitsum`` or ``scripts`` outside its own
definition.  A use inside the tests does not count.  The names below are
known to be unreached; registering a check for one, or deleting it, means
taking it out of this set, and a new unreached name fails the test.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "digitsum"

UNREACHED = {
    "double_sum_alternate",
    "j_infinity_taylor_coeff",
    "zn_mean_variance",
    "weights_first_moment",
}


def _defined_name(node: ast.stmt):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


def _loads(tree: ast.Module):
    """(top-level name whose definition encloses the load, loaded identifier)."""
    for statement in tree.body:
        owner = _defined_name(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield owner, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield owner, node.attr


def _public_names(tree: ast.Module) -> list[str]:
    for statement in tree.body:
        if _defined_name(statement) == "__all__":
            return list(ast.literal_eval(statement.value))
    return []


def unreached_names() -> set[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    uses = {(path, owner, name) for path, tree in trees.items() for owner, name in _loads(tree)}
    unreached = set()
    for path, tree in trees.items():
        for name in _public_names(tree):
            # a use inside the name's own definition (recursion, say) does not count
            if not any(n == name and (p, o) != (path, name) for p, o, n in uses):
                unreached.add(name)
    return unreached


def test_scan_sees_the_package():
    names = {name for path in PACKAGE.glob("*.py") for name in _public_names(ast.parse(path.read_text()))}
    assert {"SequenceFn", "weighted_digit_sum", "digit_weighted_sum", "run_all"} <= names


def test_every_public_name_is_reached_or_pinned():
    assert unreached_names() == UNREACHED
