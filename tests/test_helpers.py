"""Every private function or method of the package is referenced.

A private def (``_name``, not a dunder) that no code names is dead: this
reads every module with ``ast`` and collects each name and attribute used
anywhere in the package.  The one exemption is the ``Interpreter._do_<kind>``
statement handlers, which ``Interpreter.run`` reaches by ``getattr``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupspec"


def test_no_unreferenced_private_helpers():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not (name == "dsl.py" and node.name.startswith("_do_"))
        and node.name not in used
    ]
    assert not dead, f"unreferenced private defs: {dead}"
