"""Every public module-level function or class of the package has a use
in the package itself.

A name counts as used when some other top-level statement of a module
in ``src/tailgraph`` reads it (``__init__`` re-exports do not count).
Public entry points that the package never calls are allowed only when
the acceptance tests import them, the benchmark's span recorder wraps
them, or they are command-line commands; that allowlist is computed
here, not written out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tailgraph"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _definitions() -> dict[str, str]:
    """Public top-level def/class name -> module file name."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs[stmt.name] = path.name
    return defs


def _used_in_package() -> set[str]:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in _parse(path).body:
            names = _read_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # recursion is not a use
            used |= names
    return used


def _allowlist() -> set[str]:
    allowed = set()
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tailgraph"):
            allowed |= {alias.name for alias in node.names}
    for stmt in _parse(ROOT / "perfbench" / "spans.py").body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in stmt.targets)):
            allowed |= {row.elts[1].value for row in stmt.value.elts}
    for stmt in _parse(PACKAGE / "cli.py").body:
        if isinstance(stmt, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr in ("command", "group")
                for d in stmt.decorator_list):
            allowed.add(stmt.name)
    return allowed


def test_every_public_definition_has_a_use():
    used = _used_in_package() | _allowlist()
    unused = sorted(f"{module}:{name}" for name, module in _definitions().items()
                    if name not in used)
    assert unused == []
