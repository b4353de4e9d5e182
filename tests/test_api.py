import importlib
import pkgutil

import pytest

import momentdist as md

_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(md.__path__)
    if hasattr(importlib.import_module(f"momentdist.{m.name}"), "__all__")
)


def test_modules_with_public_lists_found():
    assert {"experiments", "graphs", "learn", "metrics"} <= set(_MODULES)


@pytest.mark.parametrize("name", _MODULES)
def test_public_names_importable_from_package(name):
    module = importlib.import_module(f"momentdist.{name}")
    missing = [attr for attr in module.__all__ if getattr(md, attr, None) is not getattr(module, attr)]
    assert missing == []
