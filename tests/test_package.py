"""Checks that span every module of the package."""

import importlib
import pkgutil

import pytest

import neurodissip

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(neurodissip.__path__, "neurodissip."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks ``from module import *``.
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
