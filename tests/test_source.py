"""Hygiene of the library source: no dead imports, no dead private names
and no dead public methods.

Each module of `hmmdiv` is parsed with `ast`. An import must be read in its
module (a re-export counts when `__all__` lists it), and a private
module-level function, class or constant must be read somewhere in the
package: by name, as an attribute, or imported by another module. A public
method or property of a class must be read somewhere in the package, or
named in backticks in the README, which is where a caller learns of it.
A private name in backticks in a module's text (`_x` or `module._x`) must
name something that the package defines or assigns. scipy is imported in
one place only, inside the function that needs it, so that a process that
does not call it loads no scipy.
"""

import ast
import re
from pathlib import Path

import hmmdiv

TEXTS = {path.name: path.read_text(encoding="utf-8")
         for path in sorted(Path(hmmdiv.__file__).parent.glob("*.py"))}
SOURCES = {name: ast.parse(text) for name, text in TEXTS.items()}
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


def test_every_backticked_private_name_is_defined():
    defined = set()
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    stale = [f"{name}: {ref}" for name, text in TEXTS.items()
             for ref in re.findall(r"`(?:\w+\.)?(_\w+)`", text) if ref not in defined]
    assert stale == []


def scipy_imports(node, scope=None):
    """The scipy imports under node, each as the name of the innermost
    function around it, None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "scipy" for module in modules):
            yield scope
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from scipy_imports(child, child.name if inner else scope)


def test_scipy_is_imported_once_inside_a_function():
    sites = [(name, scope) for name, tree in SOURCES.items() for scope in scipy_imports(tree)]
    assert sites == [("fredholm.py", "_ndtr")]
