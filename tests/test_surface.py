"""Each module's ``__all__`` names exactly its public functions and classes,
and every name the kernel layer exports has a caller in the package."""
import ast
import importlib
import inspect
import pathlib

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


def _numkern_names_used(path: pathlib.Path) -> set:
    """Names that one module reads from numkern: ``alias.name`` for every
    alias it imports numkern under, and names imported from it directly."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "numkern":
                    aliases.add(alias.asname or alias.name)
                elif (node.module or "").endswith("numkern"):
                    used.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_numkern_export_has_a_caller():
    """The kernel layer exports nothing that the rest of the package never calls."""
    numkern = importlib.import_module("votecert.numkern")
    package = pathlib.Path(numkern.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "numkern.py":
            used |= _numkern_names_used(path)
    assert set(numkern.__all__) - used == set()
