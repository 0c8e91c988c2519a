"""Hygiene of the library source: no dead imports, no dead private names
and no dead public methods.

Each module of `hmmdiv` is parsed with `ast`. An import must be read in its
module (a re-export counts when `__all__` lists it), and a private
module-level function, class or constant must be read somewhere in the
package: by name, as an attribute, or imported by another module. A public
method or property of a class must be read somewhere in the package, or
named in backticks in the README, which is where a caller learns of it.
"""

import ast
import re
from pathlib import Path

import hmmdiv

SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(Path(hmmdiv.__file__).parent.glob("*.py"))}
README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


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


def test_every_public_method_is_read_or_documented():
    read = set().union(*(read_names(tree) for tree in SOURCES.values()))
    named = {word for _, span in re.findall(r"(`+)(.+?)\1", README, re.DOTALL)
             for word in re.findall(r"\w+", span)}
    dead = [f"{name}: {cls.name}.{node.name}"
            for name, tree in SOURCES.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read | named]
    assert dead == []
