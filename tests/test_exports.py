"""Every name a ``knowgrow`` module exports in ``__all__`` resolves."""
import importlib
import pkgutil

import pytest

import knowgrow


def _exports() -> list[tuple[str, str]]:
    pairs = []
    for info in pkgutil.iter_modules(knowgrow.__path__, "knowgrow."):
        mod = importlib.import_module(info.name)
        pairs += [(info.name, name) for name in getattr(mod, "__all__", ())]
    return pairs


@pytest.mark.parametrize("module, name", _exports())
def test_export_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
