"""The public surface: every exported name resolves, and every error the
package exports has its own CLI exit code."""

import importlib
import pkgutil

import pytest

import pdmetric
from pdmetric import errors
from pdmetric.cli import _ERROR_EXITS

MODULES = ["pdmetric"] + [f"pdmetric.{m.name}" for m in pkgutil.iter_modules(pdmetric.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_exported_error_has_an_exit_code():
    exported = {getattr(errors, n) for n in errors.__all__} - {errors.PdmetricError}
    assert all(issubclass(e, errors.PdmetricError) for e in exported)
    assert {etype for etype, _ in _ERROR_EXITS} == exported
