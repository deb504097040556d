import importlib

import pytest

import cfcg

MODULES = ("cli", "engine", "fraccalc", "problems", "tikhonov")


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    mod = cfcg if module is None else importlib.import_module(f"cfcg.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
