"""No module under src/, tests/ or demos/ imports a name it never uses,
no function under src/ takes a parameter it never reads, no module
under src/ defines a name at module level that it never reads, and no
class under src/ defines a private method that src/ never reads.

Every name an ``import`` binds must be read somewhere else in its module,
as a plain name or as the root of a dotted one, or inside a string
annotation.  The package's ``__init__.py`` files import only to
re-export and are skipped, and so are ``from __future__`` imports.

Every parameter of a function or lambda under src/ must be read in its
body, nested functions included.  ``self``, ``cls`` and names starting
with ``_`` are exempt, and so are stubs whose body only raises.

Every name a module under src/ assigns at module level (a type alias
such as ``Columns``, a table such as ``_SCALAR_TEXT``) must be read
somewhere in that module, and so must every module-level ``def`` or
``class`` whose name starts with ``_``.  Public functions and classes
are read by other modules and are exempt.

Every method (or other ``def``) in a class body under src/ whose name
starts with ``_`` and is no dunder such as ``__init__`` must be read as
an attribute (``obj._name``) somewhere under src/, so a helper that a
refactor leaves without callers shows up.  Public methods are exempt.

The caches of a ``polycalc.PointColumns`` (its ``coordinates``,
``grades`` and ``floats`` attributes) are keyed and filled by its own
methods: no module under src/ other than ``polycalc.py`` names them.

No module under src/ imports a private module-level name (a ``def``,
``class`` or assignment at module level whose name starts with ``_``) of
another module of the package, or reads one as ``module._name``.  What
one layer uses of another is public, so the benchmark tracer, which
wraps public names only, charges each call to the layer it runs in.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations such as ``"MultiIndex | None"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        else:
            continue
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    parsed = ast.parse(part.value, mode="eval")
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in bound if name not in used]


def test_no_unused_imports():
    assert FILES
    unused = [entry for path in FILES for entry in _unused_imports(path)]
    assert unused == []


def _only_raises(node: ast.AST) -> bool:
    body = node.body
    if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
        if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            body = body[1:]
    return isinstance(body, list) and len(body) == 1 and isinstance(body[0], ast.Raise)


def _unused_parameters(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if _only_raises(node):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        rel = path.relative_to(ROOT)
        name = getattr(node, "name", "<lambda>")
        unused += [
            f"{rel}:{node.lineno} {name}({p.arg})"
            for p in params
            if p is not None
            and p.arg not in ("self", "cls")
            and not p.arg.startswith("_")
            and p.arg not in read
        ]
    return unused


def test_no_unused_parameters():
    files = [path for path in FILES if path.is_relative_to(ROOT / "src")]
    assert files
    unused = [entry for path in files for entry in _unused_parameters(path)]
    assert unused == []


def _unread_module_names(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            defined += [(n.id, node.lineno) for n in names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                defined.append((node.name, node.lineno))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= _annotation_names(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in defined if name not in read]


def test_no_unread_module_names():
    files = [path for path in FILES if path.is_relative_to(ROOT / "src")]
    assert files
    unread = [entry for path in files for entry in _unread_module_names(path)]
    assert unread == []


def _private_methods(tree: ast.AST) -> list:
    """(class, method, line) of every private, non-dunder def in a class body."""
    return [
        (node.name, item.name, item.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name.startswith("_")
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def test_no_unread_private_methods():
    files = [path for path in FILES if path.is_relative_to(ROOT / "src")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    defined = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path, tree in trees.items()
        for cls, name, line in _private_methods(tree)
    ]
    assert defined
    unread = [entry for entry in defined if entry.rsplit(".", 1)[1] not in read]
    assert unread == []


def test_point_column_caches_are_read_only_in_polycalc():
    files = [path for path in FILES if path.is_relative_to(ROOT / "src") and path.name != "polycalc.py"]
    assert files
    caches = {"coordinates", "grades", "floats", "jets", "ratios"}
    named = [
        f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in caches
    ]
    assert named == []


def _private_module_names(tree: ast.AST) -> set:
    """The names starting with ``_``, dunders aside, a module defines at module level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _imported_module(node: ast.ImportFrom) -> str:
    """The package module an ``import from`` reads, "" for the package itself or another one."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and (node.module or "").startswith("moment_leibniz."):
        return node.module.split(".", 1)[1]
    return ""


def _private_reads(name: str, tree: ast.AST, private: dict) -> list:
    """Where module ``name`` imports or reads another package module's private names."""
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node)
            if module in private and module != name:
                names = [a.name for a in node.names if a.name in private[module]]
                found += [f"{name}:{node.lineno} {module}.{n}" for n in names]
            elif module == "" and (node.level == 1 or node.module == "moment_leibniz"):
                aliases.update({a.asname or a.name: a.name for a in node.names if a.name in private})
        elif isinstance(node, ast.Import):
            for a in node.names:
                module = a.name.split(".", 1)[1] if a.name.startswith("moment_leibniz.") else ""
                if a.asname and module in private:
                    aliases[a.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            if isinstance(value, ast.Name):
                module = aliases.get(value.id, "")
            elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                module = value.attr if value.value.id == "moment_leibniz" else ""
            else:
                module = ""
            if module in private and module != name and node.attr in private[module]:
                found.append(f"{name}:{node.lineno} {module}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "moment_leibniz").glob("*.py")
    }
    private = {name: _private_module_names(tree) for name, tree in trees.items()}
    assert private["polycalc"]
    found = [entry for name, tree in trees.items() for entry in _private_reads(name, tree, private)]
    assert found == []
