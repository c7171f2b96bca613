"""Every public module-level function or class of the package has a use
in the package itself.

A name counts as used when some other top-level statement of a module
in ``src/tailgraph`` reads it (``__init__`` re-exports do not count).
Public entry points that the package never calls are allowed only when
the acceptance tests import them, the benchmark's span recorder wraps
them, or they are command-line commands; that allowlist is computed
here, not written out.

Every parameter with a default is also passed by some call in the
package, the tests or the benchmark: a default nothing overrides is a
constant.

Every ``raise`` in the package names a ``TailgraphError`` subclass, so
the command line can map each failure to its exit code, and every name a
module imports is read in that module.
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


def _defaulted_parameters():
    """(module, callee name, parameter, position) of every parameter with a
    default, of every function in the package.  A method is called by its
    name and ``__init__`` by its class name, both without ``self``; the
    position is None for a keyword-only parameter."""
    out = []

    def visit(node, module, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, None)
                continue
            name, skip = child.name, 0
            if in_class is not None:
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 0 if static else 1
                if name == "__init__":
                    name = in_class
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out.extend((module, name, a.arg, k - skip)
                       for k, a in enumerate(positional) if k >= first)
            out.extend((module, name, a.arg, None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None)
            visit(child, module, None)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(_parse(path), path.name, None)
    return out


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the package, the tests and the benchmark, by the
    called name (the last attribute of a dotted call)."""
    calls: dict[str, list[ast.Call]] = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else func.attr if isinstance(func, ast.Attribute)
                            else None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True  # by keyword, or through **
    if position is None:
        return False
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return True  # through *, which may reach any later position
        if k == position:
            return True
    return False


def test_every_defaulted_parameter_is_passed_somewhere():
    calls = _calls()
    unpassed = sorted(
        f"{module}:{name}({param})"
        for module, name, param, position in _defaulted_parameters()
        if not any(_passes(c, param, position) for c in calls.get(name, ())))
    assert unpassed == []


def _error_classes() -> set[str]:
    """TailgraphError and the classes errors.py derives from it."""
    names = {"TailgraphError"}
    for stmt in _parse(PACKAGE / "errors.py").body:
        if isinstance(stmt, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in stmt.bases):
            names.add(stmt.name)
    return names


def _raises() -> list[tuple[str, str | None, str | None]]:
    """(module, enclosing function, raised class name) of every raise in
    the package; the name is None for a bare re-raise."""
    out = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                out.append((module, func, exc.id if isinstance(exc, ast.Name)
                            else None if exc is None else ast.unparse(exc)))
            visit(child, module, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(_parse(path), path.name, None)
    return out


def test_every_raise_is_a_package_error():
    """Two internal invariants of the clique ordering assert, and the
    module ``__getattr__`` protocol requires its AttributeError."""
    typed = _error_classes()
    untyped = sorted(r for r in _raises() if r[2] not in typed)
    assert untyped == [("_scipy.py", "__getattr__", "AttributeError"),
                       ("graphs.py", "_find_chordless_cycle", "AssertionError"),
                       ("graphs.py", "clique_ordering", "AssertionError")]


def test_every_import_is_read():
    """``__init__`` imports to re-export, and ``from __future__`` binds
    nothing the module reads."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.name}:{name}" for name in bound if name not in read]
    assert unread == []


def test_no_family_comparisons_outside_parsing_and_validation():
    """A family is named once, as its model class's ``family`` attribute.
    No module compares a value with a family name: the engine asks a
    clique's record for its family's rules, the separator check compares
    each model's ``matrix``, and ``config`` looks families up in one table
    keyed by those attributes.  So a family name is a string constant
    nowhere else in the package, a comparison's operand included."""
    families = {"gaussian", "husler_reiss"}
    found, declared = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        attributes = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if (isinstance(stmt, ast.Assign)
                            and [ast.unparse(t) for t in stmt.targets] == ["family"]
                            and isinstance(stmt.value, ast.Constant)):
                        attributes.add(id(stmt.value))
                        declared.append((path.name, cls.name, stmt.value.value))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in families
                  and id(node) not in attributes]
    assert found == []
    assert sorted(declared) == [("gaussian.py", "GaussianCopulaModel", "gaussian"),
                                ("husler_reiss.py", "HuslerReissModel", "husler_reiss")]
