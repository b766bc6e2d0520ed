"""The package's public names."""

import importlib
import pkgutil

import pmsflow


def test_public_names_resolve():
    modules = [pmsflow] + [
        importlib.import_module(f"pmsflow.{info.name}")
        for info in pkgutil.iter_modules(pmsflow.__path__)
    ]
    assert len(modules) > 8
    for module in modules:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.{name}"
