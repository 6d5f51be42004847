"""Every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import hartogs

MODULES = ["hartogs"] + [f"hartogs.{m.name}" for m in pkgutil.iter_modules(hartogs.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
