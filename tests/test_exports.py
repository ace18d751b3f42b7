"""Every name a guidelab module exports through __all__ resolves, and every name it imports or keeps private is used."""

import ast
import importlib
import pkgutil
import re
import sys
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


def test_imports_are_stdlib_or_declared_dependencies():
    # Every top-level module imported anywhere in the package, in a function too, is stdlib, guidelab or named in
    # pyproject.toml's dependencies, and every dependency is imported: a dropped one cannot come back unlisted, and
    # a listed one cannot stay on unused.
    tomllib = pytest.importorskip("tomllib")  # stdlib from python 3.11
    pyproject = Path(guidelab.__file__).parents[2] / "pyproject.toml"
    declared = {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
                for spec in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = set()
    for path in Path(guidelab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - sys.stdlib_module_names - {"guidelab"} - declared) == []
    assert sorted(declared - imported) == []


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


# Exported functions whose only reader outside their module is a per-layer hook of the benchmark, which
# times them by name: sampler.steps, par.prompts and par.validate_us.
BENCH_HOOKED = ("par.build_instruction", "par.validate_record", "sampler.ancestral_coeffs")


def test_exported_functions_have_a_reader_outside_their_module():
    # Every module-level function in a module's __all__ is read by name (a Name, an Attribute's attribute or
    # an import alias) in another guidelab module, a demo or the acceptance gate; one with no such reader is
    # a helper of its own module. cli is exempt: its cmd_* functions are run by registry lookup.
    root = Path(guidelab.__file__).parent
    tests = Path(__file__).parent
    paths = sorted(root.glob("*.py")) + sorted((tests.parent / "demos").glob("*.py")) + [tests / "test_acceptance.py"]
    reads = {}
    for path in paths:
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        reads[path] = names
    unread = []
    for path in sorted(root.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        tree = ast.parse(path.read_text())
        exported = set(importlib.import_module(f"guidelab.{path.stem}").__all__)
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name in exported
                    and f"{path.stem}.{node.name}" not in BENCH_HOOKED
                    and not any(node.name in names for other, names in reads.items() if other != path)):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def test_cli_reads_no_config_field():
    # cli holds no config schema: each section is read by the layer that builds from it, the 'par'
    # section by par.endpoint_config from LlmEndpointConfig's own fields.
    tree = ast.parse((Path(guidelab.__file__).parent / "cli.py").read_text())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "field" or getattr(node.func, "attr", None) == "field")]
    assert calls == []


def test_only_config_builds_the_invalid_field_message():
    # "field '<name>' invalid: <reason>" has one home, config.built, which every constructor's refusal goes through.
    found = []
    for path in sorted(Path(guidelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if re.match(r"field '[^']*' invalid: ", text):
                found.append(path.stem)
    assert found == ["config"]


def test_bench_tracer_methods_are_their_classes_own():
    # bench/tracer.py wraps each method of its METHODS table through cls.__dict__[name], so a method that
    # moves to a base class or is deleted stops every traced benchmark run with a KeyError.
    tracer = Path(__file__).parent.parent / "bench" / "tracer.py"
    table = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"])
    missing = [f"{layer}.{cls_name}.{meth}" for layer, classes in table.items()
               for cls_name, methods in classes.items() for meth in methods
               if meth not in vars(getattr(importlib.import_module(f"guidelab.{layer}"), cls_name))]
    assert table and missing == []
