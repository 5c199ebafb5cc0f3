"""Each module's ``__all__`` names exactly its public functions and classes."""
import importlib
import inspect

import pytest

MODULES = ("numkern", "votes", "bounds", "train", "voters", "data", "oracle")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_functions_and_classes(name):
    module = importlib.import_module(f"votecert.{name}")
    exported = {}
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
        exported[attr] = getattr(module, attr)
    defined = {
        attr for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    listed = {
        attr for attr, obj in exported.items()
        if inspect.isfunction(obj) or inspect.isclass(obj)
    }
    assert listed == defined
