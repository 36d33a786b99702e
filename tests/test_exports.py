import importlib
import pkgutil

import pytest

import synthctl

MODULES = sorted(m.name for m in pkgutil.iter_modules(synthctl.__path__))


def test_package_exports_resolve_and_are_sorted():
    missing = [name for name in synthctl.__all__ if not hasattr(synthctl, name)]
    assert missing == []
    assert synthctl.__all__ == sorted(synthctl.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"synthctl.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
