"""Every private function, method, class and module constant of the
package is read somewhere in the package besides its definition, so a
helper whose last caller is deleted fails here instead of lingering.
Names are counted on the syntax tree: a load of a name or an attribute,
never text in a comment or a string."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "simposets"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree, where):
    """(name, place) of each private def or class anywhere in the module,
    and of each private name a module-level statement assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and is_private(node.name):
            yield node.name, f"{where}:{node.lineno}"
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and is_private(name.id):
                        yield name.id, f"{where}:{node.lineno}"


def loads(tree):
    """The names and attribute names the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_no_private_name_is_left_unread():
    defined, read = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += private_definitions(tree, path.name)
        read.update(loads(tree))
    assert defined
    assert [place + " " + name for name, place in defined if not read[name]] == []
