"""Each module's ``__all__`` names exactly its public functions and classes,
and every function a module exports has a caller in the package or the
benchmark."""
import ast
import importlib
import inspect
import pathlib
import re

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


def _names_used(path: pathlib.Path, module: str) -> set:
    """Names that one file reads from ``module``: ``alias.name`` for every
    alias it imports the module under, and names imported from it directly."""
    tree = ast.parse(path.read_text())
    aliases, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
                elif (node.module or "").split(".")[-1] == module:
                    used.add(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("name", MODULES)
def test_every_export_has_a_caller(name):
    """A module exports no function that the rest of the package never reads
    and the benchmark never names (``bounds.reconstruct_value`` is called
    there, ``train.adam_step`` and the oracle functions are traced rows).
    Classes are exempt."""
    module = importlib.import_module(f"votecert.{name}")
    package = pathlib.Path(module.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.stem != name:
            used |= _names_used(path, name)
    bench = "\n".join(path.read_text() for path in (package.parents[1] / "bench").glob("*.py"))
    uncalled = {
        attr for attr in module.__all__
        if inspect.isfunction(getattr(module, attr)) and attr not in used
        and not re.search(rf"\b{name}\.{attr}\b|[\"']{attr}[\"']", bench)
    }
    assert uncalled == set()
