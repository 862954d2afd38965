"""The public surface: every exported name resolves, the top level
re-exports each module's ``__all__``, and every error the package exports
has its own CLI exit code."""

import importlib
import pkgutil

import pytest

import pdmetric
from pdmetric import diagram, errors, geodesics, matching, probes, spaces
from pdmetric.cli import _ERROR_EXITS

MODULES = ["pdmetric"] + [f"pdmetric.{m.name}" for m in pkgutil.iter_modules(pdmetric.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


TOP_LEVEL_MODULES = [spaces, diagram, matching, geodesics, probes, errors]


def test_top_level_lists_each_module_list_in_order():
    expected = ["__version__"] + [n for m in TOP_LEVEL_MODULES for n in m.__all__]
    assert pdmetric.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert {"PathLeg", "DEFAULT_NODE_CAP"} <= set(expected)


@pytest.mark.parametrize("module", TOP_LEVEL_MODULES, ids=lambda m: m.__name__)
def test_top_level_names_are_the_module_objects(module):
    assert [n for n in module.__all__ if getattr(pdmetric, n) is not getattr(module, n)] == []


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from pdmetric import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pdmetric.__all__)
    assert all(namespace[n] is getattr(pdmetric, n) for n in namespace)


def test_every_exported_error_has_an_exit_code():
    exported = {getattr(errors, n) for n in errors.__all__} - {errors.PdmetricError}
    assert all(issubclass(e, errors.PdmetricError) for e in exported)
    assert {etype for etype, _ in _ERROR_EXITS} == exported
