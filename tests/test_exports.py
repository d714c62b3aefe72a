import importlib
import pkgutil

import navpredict


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(navpredict.__path__):
        module = importlib.import_module(f"navpredict.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"navpredict.{info.name}.{name}"
            checked += 1
    assert checked > 50
