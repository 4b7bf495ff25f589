"""Every name in a module's ``__all__`` resolves, so ``from <module> import *`` works.

A deletion must take its names out of each ``__all__`` that lists them.
"""

import importlib
import pkgutil

import pytest

import gausspack

MODULES = ["gausspack"] + [
    info.name for info in pkgutil.walk_packages(gausspack.__path__, "gausspack.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
