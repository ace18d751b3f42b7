"""Every name a guidelab module exports through __all__ resolves, and every name it imports or keeps private is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import guidelab

MODULES = ["guidelab"] + [f"guidelab.{m.name}" for m in pkgutil.iter_modules(guidelab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}, which {name} does not define"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


@pytest.mark.parametrize("path", sorted(Path(guidelab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # Every name a module imports is used as a name in it or exported through its __all__.
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("guidelab" if path.stem == "__init__" else f"guidelab.{path.stem}")
    exported = set(getattr(module, "__all__", ()))
    assert sorted(imported - used - exported) == []


def test_private_names_are_used():
    # Every private module-level function, class and constant is read as a name somewhere in the
    # package, so a helper whose last caller is gone does not linger.
    trees = [ast.parse(path.read_text()) for path in sorted(Path(guidelab.__file__).parent.glob("*.py"))]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(private - read) == []


@pytest.mark.parametrize("path", sorted(Path(guidelab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_another_modules_private_name(path):
    # A private helper stays behind its module's public functions: no `from guidelab.X import _name`.
    tree = ast.parse(path.read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("guidelab")
               for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


@pytest.mark.parametrize("path", sorted(Path(guidelab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_no_public_function_only_forwards_to_another(path):
    # A public function whose body, docstring aside, is `return g(<its own parameters, in order>)` with g a
    # function of the same module is only a second name for g: bind the name (`f = g`), or call g.
    tree = ast.parse(path.read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    forwards = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in functions):
            continue
        if not call.keywords and [getattr(a, "id", None) for a in call.args] == [a.arg for a in node.args.args]:
            forwards.append(f"{node.name} -> {call.func.id}")
    assert forwards == []
