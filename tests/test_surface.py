"""Each module's ``__all__`` names exactly its public functions and classes,
every function a module exports has a caller in the package or the
benchmark, every field of a ``*Config`` dataclass and every defaulted
parameter of an exported function is set by one, and every method or
property of an exported class is read by one."""
import ast
import dataclasses
import functools
import importlib
import inspect
import pathlib
import re
import types

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


@functools.lru_cache(maxsize=None)
def _call_nodes(path: pathlib.Path) -> tuple:
    """Every call in the file ``path``, parsed once however many names are
    looked up in it."""
    return tuple(node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call))


def _calls(paths, name: str):
    """The calls of ``name`` in the files ``paths``, as a bare name or as an
    attribute (``module.name``)."""
    for path in paths:
        for node in _call_nodes(path):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None)) == name:
                yield node


def test_every_config_field_has_a_caller():
    """Every field of a ``*Config`` dataclass in the package is passed by
    keyword by some other package module or by the benchmark: a value that
    no caller sets is a module constant, not a knob.  Tests do not count."""
    package = pathlib.Path(importlib.import_module("votecert").__file__).parent
    bench = list((package.parents[1] / "bench").glob("*.py"))
    unset = set()
    for path in package.glob("[!_]*.py"):
        module = importlib.import_module(f"votecert.{path.stem}")
        callers = [p for p in package.glob("*.py") if p != path] + bench
        for cls_name, cls in vars(module).items():
            if (cls_name.endswith("Config") and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                passed = {kw.arg for call in _calls(callers, cls_name) for kw in call.keywords}
                unset |= {f"{path.stem}.{cls_name}.{f.name}" for f in dataclasses.fields(cls)
                          if f.name not in passed}
    assert unset == set()


def test_every_defaulted_parameter_has_a_caller():
    """Every parameter with a default of a function in a module's
    ``__all__`` is passed, by position or by keyword, by some call in the
    package (the module's own included: the oracle batteries pass
    ``stream``) or in the benchmark: a value that no caller sets is a
    constant, not a knob.  Tests do not count."""
    package = pathlib.Path(importlib.import_module("votecert").__file__).parent
    callers = list(package.glob("*.py")) + list((package.parents[1] / "bench").glob("*.py"))
    unset = set()
    for name in MODULES:
        module = importlib.import_module(f"votecert.{name}")
        for attr in module.__all__:
            func = getattr(module, attr)
            if not inspect.isfunction(func):
                continue
            params = inspect.signature(func).parameters
            passed = set()
            for call in _calls(callers, attr):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(kw.arg is None for kw in call.keywords)):
                    passed |= set(params)  # *args or **kwargs may pass any
                passed |= set(list(params)[:len(call.args)]) | {kw.arg for kw in call.keywords}
            unset |= {f"{name}.{attr}.{p.name}" for p in params.values()
                      if p.default is not p.empty and p.name not in passed}
    assert unset == set()


def test_every_class_member_has_a_reader():
    """Every method or property (dunders aside) of a class in a module's
    ``__all__`` is read as ``.name`` somewhere in the package, the class's
    own module included, or in the benchmark: a member that nothing reads
    is dead code.  Tests do not count.  The scan matches names only, so a
    member shares its readers with any other attribute of that name."""
    package = pathlib.Path(importlib.import_module("votecert").__file__).parent
    read = set()
    for path in list(package.glob("*.py")) + list((package.parents[1] / "bench").glob("*.py")):
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute)}
    unread = set()
    for name in MODULES:
        module = importlib.import_module(f"votecert.{name}")
        for attr in module.__all__:
            cls = getattr(module, attr)
            if not inspect.isclass(cls):
                continue
            unread |= {f"{name}.{attr}.{member}" for member, obj in vars(cls).items()
                       if not (member.startswith("__") and member.endswith("__"))
                       and isinstance(obj, (types.FunctionType, property, staticmethod,
                                            classmethod, functools.cached_property))
                       and member not in read}
    assert unread == set()
