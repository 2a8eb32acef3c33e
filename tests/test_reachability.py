"""Every top-level definition in ``src/metra`` is reached from an entry point,
and every name a module imports is read in it.

The entry points are the names in ``metra.__all__``, ``metra.cli.main`` and
the functions ``bench/tracing.py`` wraps (its ``SPANNED`` and ``COUNTED``
tables, read from the file).  The walk starts from them and follows, by name,
every attribute name and every module-level name read in a reached top-level
definition or in module-level code; what an unreached definition reads,
itself included, reaches nothing.  Names are resolved per scope, as Python
resolves them, so a local that shares a definition's name does not reach it;
a name imported inside a function is read.  A top-level function or class
that the walk never reaches is code that only tests call.
"""

from __future__ import annotations

import ast
import symtable
from pathlib import Path

import metra

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "metra"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(nodes) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in nodes
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """The names read in a scope, or in a scope nested in it, that resolve
    to module-level names there."""
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _reads(node: ast.stmt) -> set[str]:
    """The names a top-level statement reads: its module-level names, its
    attribute names and, in a definition, the names its imports bring in.
    The statement is resolved on its own, without the module's ``from
    __future__ import annotations``, so its annotations count as reads."""
    names = _global_reads(symtable.symtable(ast.unparse(node), "<statement>", "exec"))
    names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    if isinstance(node, DEFINITIONS):
        imports = (ast.Import, ast.ImportFrom)
        names |= {a.name for n in ast.walk(node) if isinstance(n, imports) for a in n.names}
    return names


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            for qualnames in ast.literal_eval(node.value).values():
                names.update(q.split(".")[0] for q in qualnames)
    return names


def unreached_definitions() -> list[str]:
    """``module.name`` of every top-level function or class no entry point reaches."""
    definitions, frontier = {}, set(metra.__all__) | {"main"} | _traced_names()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS):
                definitions.setdefault(node.name, []).append((path.stem, _reads(node)))
            else:
                frontier |= _reads(node)
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for _, reads in definitions[name]:
            frontier |= reads
    return sorted(
        f"{module}.{name}"
        for name, found in definitions.items()
        if name not in reached
        for module, _ in found
    )


def test_every_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, f"reached by no entry point: {', '.join(unreached)}"


def _annotation_names(tree) -> set[str]:
    """The names read in the string annotations of ``tree``, such as
    ``"Congruence"``, which an import for type checkers only serves."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= _references([ast.parse(part.value, mode="eval")])
    return names


def unused_imports() -> list[str]:
    """``module.name`` of every name a module other than ``__init__`` (which
    imports to re-export) imports and never reads."""
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _annotation_names(tree)
        unused += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    return unused


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, f"imported and never read: {', '.join(unused)}"


# The int64 guard, the infinity codes and the widening and scaling helpers
# of the scaled mirror: ``extmetric`` alone decides when a mirror leaves int64.
MIRROR_GUARD = {"_MAX_SCALED", "_INT_INF", "_OBJ_INF", "_as_object", "_scale_finite", "_finite_max"}


def mirror_guard_imports() -> list[str]:
    """``module.name`` of every ``MIRROR_GUARD`` name a module other than
    ``extmetric`` imports or reads as an attribute."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "extmetric":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [node.attr] if isinstance(node, ast.Attribute) else []
            found += [f"{path.stem}.{name}" for name in names if name in MIRROR_GUARD]
    return found


def test_only_extmetric_reads_the_mirror_guard():
    found = mirror_guard_imports()
    assert not found, f"outside extmetric: {', '.join(found)}"
