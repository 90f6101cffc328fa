"""Every top-level definition of the package is reached from an entry point,
every defaulted parameter is passed by some caller, and a closed form and
its oracle share no code.

The entry point is ``src/digitsum/cli.py``.  The roots are its decorated
definitions, which the decorators register as commands, and every top-level
statement that defines nothing, in any module, since it runs on import.  A
definition is reached when a root, or the body of a definition already
reached, loads its name, as a bare name or as an attribute.  The scan
follows names, not imports, so a name defined in two modules is reached in
both once either is.  A use inside the tests does not count, and a name used
only inside its own definition is not reached.  The independence rule
follows names from one definition by the same scan.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from digitsum import identities

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "digitsum"
ENTRY_POINT = PACKAGE / "cli.py"


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
    """(file, top-level statement, the name it defines or None), package-wide."""
    return [
        (path, statement, _defined_name(statement))
        for path in sorted(PACKAGE.glob("*.py"))
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
        if name is not None and path == ENTRY_POINT and getattr(statement, "decorator_list", [])
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


def _defaulted_parameters(path: Path) -> list[tuple[str, int | None, str]]:
    """(function, position or None if keyword-only, parameter) of every
    defaulted parameter of every function in one file, nested ones too.  A
    method's position counts from the first argument after self or cls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            found.append((node.name, index - skip, arg.arg))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found.append((node.name, None, arg.arg))
    return found


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call passes that parameter, by position or by keyword."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None is **kwargs
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def never_set_parameters() -> set[tuple[str, str, str]]:
    """(file name, function, parameter) of every defaulted parameter of the
    package that no call in the package passes.  Calls match by the called
    name, bare or as an attribute; calls in the tests do not count."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return {
        (path.name, function, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, position, name in _defaulted_parameters(path)
        if not any(_passes(call, position, name) for call in calls.get(function, []))
    }


def test_scan_sees_defaulted_parameters():
    found = {
        (function, position, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, position, name in _defaulted_parameters(path)
    }
    assert ("_level_series", 6, "scale") in found
    assert ("build_report", 5, "terms") in found


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that no caller overrides is a constant, and belongs in the body
    assert never_set_parameters() == set()


def reached_names(file: str, start: str) -> set[str]:
    """Every name that the definition start of one package file loads, or that
    a package definition of a name it reaches loads, followed by name as in
    unreached_definitions."""
    statements = _statements()
    defs: dict[str, list[ast.stmt]] = {}
    for _, statement, name in statements:
        if name is not None:
            defs.setdefault(name, []).append(statement)
    (root,) = [s for path, s, name in statements if path == PACKAGE / file and name == start]
    pending, seen = _loads(root), set()
    while pending:
        name = pending.pop()
        seen.add(name)
        for statement in defs.get(name, []):
            pending |= _loads(statement) - seen
    return seen


# the float oracles: each sums a definition term by term, with no special
# function; thm29-finite's oracle is the kernel with the power weight
ORACLES = [
    ("identities.py", "finite_zeta_diff_direct"),
    ("identities.py", "direct_digit_zeta"),
    ("identities.py", "direct_j_infinity"),
    ("identities.py", "direct_product_log"),
    ("digitseq.py", "_power_weight"),
    ("digitseq.py", "_difference_weight"),
    ("lambert.py", "eta_dirichlet_bridge_check"),
]
CLOSED_FORMS = [
    ("identities.py", name)
    for name in identities.__all__
    if ("identities.py", name) not in ORACLES
] + [("lambert.py", "lambert_gf"), ("lambert.py", "lambert_gf_finite")]
KERNEL = {"digit_weighted_sum", "digit_sum_range", "_inverse_power"}


def defined_in(file: str) -> set[str]:
    """The names that the top-level statements of one package file define."""
    return {name for path, _, name in _statements() if path == PACKAGE / file and name is not None}


def test_independence_scan_sees_the_package():
    assert {"hurwitz_zeta", "digamma", "REL_TOL"} <= defined_in("specfun.py")
    assert "digit_weighted_sum" in reached_names("identities.py", "direct_digit_zeta")
    assert "hurwitz_zeta" in reached_names("identities.py", "infinite_barnes")
    assert ("identities.py", "j_infinity") in CLOSED_FORMS


@pytest.mark.parametrize("file, oracle", ORACLES)
def test_no_oracle_reaches_a_special_function(file, oracle):
    assert reached_names(file, oracle) & defined_in("specfun.py") == set()


@pytest.mark.parametrize("file, closed", CLOSED_FORMS)
def test_no_closed_form_reaches_the_oracle_kernel(file, closed):
    assert reached_names(file, closed) & KERNEL == set()


def test_digamma_reaches_no_hurwitz_zeta():
    assert "hurwitz_zeta" not in reached_names("specfun.py", "digamma")


def test_hurwitz_difference_reaches_no_special_function():
    # one Euler-Maclaurin pass over the pairs, not a difference of two values
    assert reached_names("specfun.py", "hurwitz_difference") & {"hurwitz_zeta", "digamma"} == set()


def _names_in(path: Path) -> set[str]:
    """Every name a file loads, bare or as an attribute, or imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return _loads(tree) | imported


def test_one_blocked_kernel():
    # every brute-force sum goes through digit_weighted_sum, so the block cap
    # and the aligned rows belong to digitseq alone
    private = {"_BLOCK_CAP", "_aligned_rows"}
    named = {path.name: _names_in(path) & private for path in PACKAGE.glob("*.py")}
    assert named.pop("digitseq.py") == private
    assert {file: names for file, names in named.items() if names} == {}


def test_one_report_rule():
    # every float report is judged by build_report's rule, so no runner
    # builds an IdentityReport of its own
    builders = {
        (path.name, name)
        for path, statement, name in _statements()
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "IdentityReport"
    }
    assert builders == {("harness.py", "build_report"), ("harness.py", "exact_report")}
