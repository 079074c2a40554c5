"""Every name a module lists in ``__all__`` is defined in that module."""

import importlib
import pkgutil

import pytest

import adjustkit

MODULES = [
    module
    for module in (
        importlib.import_module(f"adjustkit.{info.name}")
        for info in pkgutil.iter_modules(adjustkit.__path__)
    )
    if hasattr(module, "__all__")
]


def test_modules_found():
    assert {m.__name__ for m in MODULES} >= {"adjustkit.criterion", "adjustkit.selection"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
