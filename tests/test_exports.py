import importlib

import pytest

import cfcg

MODULES = ("cli", "engine", "fraccalc", "problems", "tikhonov")


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    mod = cfcg if module is None else importlib.import_module(f"cfcg.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_exports_every_library_name():
    # the command-line harness is not re-exported
    missing = [name for module in MODULES if module != "cli"
               for name in importlib.import_module(f"cfcg.{module}").__all__
               if name not in cfcg.__all__]
    assert not missing
