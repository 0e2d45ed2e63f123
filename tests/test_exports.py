"""Every name a damped_eb module lists in ``__all__`` exists in it."""
import importlib
import pkgutil

import pytest

import damped_eb

MODULES = ["damped_eb"] + [
    f"damped_eb.{info.name}" for info in pkgutil.iter_modules(damped_eb.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing objects: {missing}"
