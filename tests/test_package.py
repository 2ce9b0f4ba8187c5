"""The package's public surface: every library module's ``__all__``, re-exported."""

from __future__ import annotations

import importlib

import pytest

import joinscout

LIBRARY_MODULES = [
    "catalog",
    "errors",
    "executor",
    "fuzzgen",
    "graph",
    "matching",
    "similarity",
    "validation",
]


def test_all_is_the_modules_all_in_order():
    expected = [
        name
        for module in LIBRARY_MODULES
        for name in importlib.import_module(f"joinscout.{module}").__all__
    ]
    assert joinscout.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_names_exist_and_are_the_top_level_objects(module):
    mod = importlib.import_module(f"joinscout.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"joinscout.{module}.__all__ lists missing {name!r}"
        assert getattr(joinscout, name) is getattr(mod, name), name

