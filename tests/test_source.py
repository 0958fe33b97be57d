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
