import importlib
import pkgutil

import pytest

import spectral_limits

MODULES = sorted(m.name for m in pkgutil.iter_modules(spectral_limits.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"spectral_limits.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
