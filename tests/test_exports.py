"""Export lists: every public name a module declares must exist."""

import importlib
import pkgutil

import pytest

import toposcan

MODULES = sorted(
    f"toposcan.{info.name}" for info in pkgutil.iter_modules(toposcan.__path__)
)


@pytest.mark.parametrize("module_name", ["toposcan", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
