"""The package's public names."""

import importlib
import itertools
import os
import pkgutil
import subprocess
import sys
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


def test_package_names_are_the_library_modules_lists():
    # each library module's __all__ is the one declaration of its names; the
    # package joins them in this order and adds only its version
    modules = ("grid", "energy", "solver", "diagnostics", "initial_data", "reference", "runner")
    lists = [importlib.import_module(f"pmsflow.{name}").__all__ for name in modules]
    assert pmsflow.__all__ == ["__version__", *itertools.chain(*lists)]
    assert len(pmsflow.__all__) == len(set(pmsflow.__all__)), "a name is in two lists"
    # the tools' entry points stay module attributes outside the namespace
    tools = {"acceptance": "run_acceptance", "solver": "operator_norm_bound", "runner": "main"}
    for module, name in tools.items():
        assert callable(getattr(importlib.import_module(f"pmsflow.{module}"), name))
        assert name not in pmsflow.__all__


def test_import_loads_neither_yaml_nor_argparse():
    # runs built through the API parse no YAML and no command line, and the
    # acceptance suite is a tool, so importing the package pays for none
    code = ("import sys, pmsflow; "
            "print(sorted({'yaml', 'argparse', 'pmsflow.acceptance'} & set(sys.modules)))")
    src = str(Path(pmsflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
