"""Hygiene of the library source: no dead imports and no dead private names.

Each module of `hmmdiv` is parsed with `ast`. An import must be read in its
module (a re-export counts when `__all__` lists it), and a private
module-level function, class or constant must be read somewhere in the
package: by name, as an attribute, or imported by another module.
"""

import ast
from pathlib import Path

import hmmdiv

SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(hmmdiv.__file__).parent.glob("*.py"))}


def read_names(tree) -> set:
    """The names a module reads, the strings of its `__all__`, and the
    attributes it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def test_every_import_is_read():
    unused = []
    for name, tree in SOURCES.items():
        read = read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_module_name_is_read():
    read = set()
    for tree in SOURCES.values():
        read |= read_names(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    dead = []
    for name, tree in SOURCES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{name}: {d}" for d in defined
                     if d.startswith("_") and not d.startswith("__") and d not in read]
    assert dead == []
