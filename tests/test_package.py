"""The package's public names."""

import importlib
import pkgutil
from pathlib import Path

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


def test_every_public_name_is_in_the_readme_library_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in pmsflow.__all__ if f"`{name}`" not in library]
    assert not missing, f"README's Library section does not name {missing}"
