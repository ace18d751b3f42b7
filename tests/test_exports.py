"""Every name a guidelab module exports through __all__ resolves."""

import importlib
import pkgutil

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
