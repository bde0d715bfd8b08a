import importlib

import pytest


@pytest.mark.parametrize(
    "package",
    ["vqebench", "vqebench.qsim", "vqebench.optimizers", "vqebench.stats", "vqebench.harness"],
)
def test_exports_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
