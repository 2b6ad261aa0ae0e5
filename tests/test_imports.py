"""Every name a package module imports is used in that module, every
name its ``__all__`` lists is bound in it, and no class borrows another
class's function as an attribute.

No linter ships with the test environment, so this reads each module with
``ast``: an imported name must appear as a name in the module's code
(annotations included) or be listed in its ``__all__``.  ``__init__.py``
exists to re-export, so the unused-import test skips it.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupspec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    out[a.asname or a.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    keep = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in keep}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_names_are_bound(path):
    name = "groupspec" if path.name == "__init__.py" else f"groupspec.{path.stem}"
    module = importlib.import_module(name)
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale, f"{path.name}: __all__ names nothing is bound to: {stale}"


def _class_functions(module):
    """(class, attribute, function) for each package function that a class
    of the module binds, through cached_property, staticmethod and
    classmethod too."""
    for cls in vars(module).values():
        if not (isinstance(cls, type) and cls.__module__ == module.__name__):
            continue
        for attr, value in vars(cls).items():
            if isinstance(value, cached_property):
                value = value.func
            elif isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, types.FunctionType) and value.__module__.startswith("groupspec"):
                yield cls, attr, value


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_borrowed_methods(path):
    """A class inherits what it shares; an attribute bound to a function of
    another class or of the module hides which class owns the code."""
    module = importlib.import_module(f"groupspec.{path.stem}")
    borrowed = [
        f"{cls.__name__}.{attr} = {fn.__qualname__}"
        for cls, attr, fn in _class_functions(module)
        if not fn.__qualname__.startswith(f"{cls.__qualname__}.")
    ]
    assert not borrowed, f"{path.name}: borrowed functions {borrowed}"


def test_check_all_leaves_numpy_ma_unimported(tmp_path):
    """``numpy.ma`` costs start-up time and is imported lazily by some numpy
    calls (``np.unique(..., axis=0)``); a full audit needs none of them."""
    code = (
        "import sys\n"
        "from groupspec.cli import main\n"
        f"main(['check', 'all', '--catalog', 'large', '--out', {str(tmp_path / 'all.txt')!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
