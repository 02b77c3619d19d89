"""A guard against dead code in the library, read off the source with
``ast``: every module-level private function or class of ``src/pdsat`` is
used by the program itself, every public one is exported by ``pdsat`` or
used by the program, and every name a module imports is used in it.

"The program" is ``src/pdsat``, ``tools/`` and ``bench/``; a definition
that only the tests call belongs with them, in ``tests/reference.py``.  A
use is matched by name (a read of the name, an attribute of that name, or
a ``from ... import`` of it), outside the definition's own body."""

import ast
from pathlib import Path

import pdsat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pdsat"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used(node):
    """Every name that ``node`` reads, as a name, an attribute or an
    imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def program_files():
    for folder in (PACKAGE, ROOT / "tools", ROOT / "bench"):
        yield from sorted(folder.glob("*.py"))


def unused_definitions(wanted):
    """The module-level functions and classes of ``src/pdsat`` whose name
    passes ``wanted`` and that the program never uses, each with the
    modules that define it."""
    defined = {}  # name -> the modules that define it
    uses = set()  # (name, the top-level definition it is used from)
    for path in program_files():
        tree = parse(path)
        for node in tree.body:
            name = node.name if isinstance(node, DEFINITIONS) else None
            if name and path.parent == PACKAGE and wanted(name):
                defined.setdefault(name, []).append(path.name)
            uses.update((used, name) for used in names_used(node))
    return {name: modules for name, modules in defined.items()
            if not any(used == name and owner != name
                       for used, owner in uses)}


def test_every_private_definition_has_a_caller_in_the_program():
    unused = unused_definitions(
        lambda name: name.startswith("_") and not name.startswith("__"))
    assert not unused, unused


def test_every_public_definition_is_exported_or_has_a_caller():
    unused = unused_definitions(
        lambda name: not name.startswith("_") and name not in pdsat.__all__)
    assert not unused, unused


def bound_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        yield alias.asname or alias.name.split(".")[0]


def test_every_imported_name_is_used_in_its_module():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        imported = {name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in bound_names(node)}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert not unused, unused
