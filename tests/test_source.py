"""Checks on the package's source text itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "succabs"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, and the line binding it;
    ``from __future__`` imports bind nothing to use."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation: of arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, those in string annotations included."""
    trees = [tree]
    for annotation in annotations(tree):
        trees += [ast.parse(node.value, mode="eval") for node in ast.walk(annotation)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Each top-level function and class the module defines, and its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)}


def read_names(tree: ast.Module) -> set[str]:
    """The names the module reads, and those it imports from another
    module, so that a re-export counts as a read."""
    return used_names(tree) | {alias.name for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom) for alias in node.names}


def unread_names(trees: dict[str, ast.Module]) -> set[str]:
    """``path:line name`` of each top-level function and class that no
    module reads."""
    read = set().union(*map(read_names, trees.values()))
    return {f"{path}:{line} {name}" for path, tree in trees.items()
            for name, line in defined_names(tree).items() if name not in read}


def test_every_top_level_function_and_class_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), p.name)
             for p in sorted(PACKAGE.glob("*.py"))}
    unread = unread_names(trees)
    assert not unread, f"defined under src/succabs but never read: {sorted(unread)}"


def test_the_read_check_counts_calls_and_re_exports():
    trees = {"a.py": ast.parse("def f():\n    pass\ndef g():\n    f()\nclass C:\n    pass\n"
                               "def h():\n    pass\n"),
             "__init__.py": ast.parse("from .a import h\n")}
    assert unread_names(trees) == {"a.py:3 g", "a.py:5 C"}


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"), path)
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path} imports names it never uses: {unused}"


def test_the_check_sees_string_annotations_and_unused_names():
    tree = ast.parse("from typing import IO, Iterable\nimport os.path\n"
                     "def f(x: 'IO[str]') -> None:\n    pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Iterable", "os"}
