"""Every name a flairr module exports through ``__all__`` exists on it."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import flairr

MODULES = ["flairr"] + [
    f"flairr.{info.name}" for info in pkgutil.iter_modules(flairr.__path__)
]


def test_every_module_is_listed():
    assert {"flairr.series", "flairr.session", "flairr.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names what the module lacks"
