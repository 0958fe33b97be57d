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


# The names an except clause catches a ValidationError by; a bare one too.
VALIDATION_CATCHES = {"ValidationError", "SuccabsError", "Exception", "BaseException"}


def validation_handlers(tree: ast.AST) -> list[ast.ExceptHandler]:
    """The except clauses under ``tree`` that catch a ``ValidationError``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
            and (node.type is None or VALIDATION_CATCHES & {
                getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)})]


def test_model_io_maps_validation_errors_in_one_place():
    # Each value checks its own rules where it is made; the loader names
    # the section in one helper, and keeps no copy of the row rule.
    tree = ast.parse((PACKAGE / "model_io.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_section_errors")
    lines = [handler.lineno for handler in validation_handlers(helper)]
    assert len(lines) == 1
    assert [handler.lineno for handler in validation_handlers(tree)] == lines
    assert "_check_rows" not in imported_names(tree)


def test_the_handler_check_sees_every_way_to_catch():
    tree = ast.parse("try:\n    f()\nexcept (ValueError, errors.ValidationError):\n    pass\n"
                     "try:\n    f()\nexcept:\n    pass\n"
                     "try:\n    f()\nexcept KeyError:\n    pass\n")
    assert len(validation_handlers(tree)) == 2


def state_writes(tree: ast.Module, name: str) -> set[str]:
    """``line method`` of each assignment to an attribute of ``self`` (a
    method's first argument) in a method of class ``name`` but ``__init__``."""
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
    writes = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        me = method.args.args[0].arg if method.args.args else None
        writes |= {f"{node.lineno} {method.name}" for node in ast.walk(method)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name) and node.value.id == me}
    return writes


def test_decode_runtime_is_built_once():
    # A decoding call's table is built in its constructor, whole; a
    # method that grows it would copy it again each time.
    tree = ast.parse((PACKAGE / "tagger.py").read_text(encoding="utf-8"))
    assert not state_writes(tree, "_DecodeRuntime"), sorted(state_writes(tree, "_DecodeRuntime"))


def test_the_state_check_sees_each_way_to_assign():
    tree = ast.parse("class R:\n    def __init__(self):\n        self.a = 1\n"
                     "    def f(self):\n        self.a += 1\n        self.b, x = 1, 2\n"
                     "        self.a[0] = other.c = 1\n"
                     "    def g(me):\n        for me.d in ():\n            pass\n"
                     "class S:\n    def f(self):\n        self.e = 1\n")
    assert state_writes(tree, "R") == {"5 f", "6 f", "9 g"}


# The two functions of cli.py through which every byte in and out passes.
STREAM_FUNCTIONS = {"_read_text", "_write_text"}


def stream_uses(tree: ast.Module) -> set[str]:
    """``line name`` of each use of standard input or output, or of ``open``,
    outside the functions named in STREAM_FUNCTIONS; ``sys.stderr`` is free."""
    inside = {id(node) for function in tree.body if isinstance(function, ast.FunctionDef)
              and function.name in STREAM_FUNCTIONS for node in ast.walk(function)}
    uses = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sys" and node.attr in ("stdin", "stdout")):
            uses.add(f"{node.lineno} sys.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ("open", "input"):
            uses.add(f"{node.lineno} {node.id}")
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
              and not any(keyword.arg == "file" for keyword in node.keywords)):
            uses.add(f"{node.lineno} print")
    return uses


def test_cli_reads_and_writes_in_one_place_each():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert STREAM_FUNCTIONS <= set(defined_names(tree))
    assert not stream_uses(tree), sorted(stream_uses(tree))


def test_the_stream_check_sees_each_way_in_and_out():
    tree = ast.parse("import sys\n"
                     "def _read_text(path):\n    return open(path).read() + sys.stdin.read()\n"
                     "def f(path):\n    sys.stdout.write(input())\n    print('a')\n"
                     "    print('b', file=sys.stderr)\n    with open(path) as fh:\n"
                     "        return sys.stdin.buffer.read()\n")
    assert stream_uses(tree) == {"5 sys.stdout", "5 input", "6 print", "8 open", "9 sys.stdin"}
