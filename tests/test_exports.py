import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vqebench

LAZY = ["vqebench", "vqebench.qsim", "vqebench.stats", "vqebench.harness"]


def _loaded_after(code: str) -> list[str]:
    """The `vqebench` modules loaded after `code` runs in a fresh process, so
    that no other test's imports count."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'vqebench'))"
    env = {**os.environ, "PYTHONPATH": str(Path(vqebench.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
    return sorted(out.stdout.decode().split())


@pytest.mark.parametrize(
    "package",
    ["vqebench", "vqebench.qsim", "vqebench.optimizers", "vqebench.stats", "vqebench.harness"],
)
def test_exports_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    # a submodule's name would be rebound to the module when it loads
    assert set(module.__all__) & {m.name for m in pkgutil.iter_modules(module.__path__)} == set()


@pytest.mark.parametrize("package", LAZY)
def test_importing_a_package_loads_none_of_its_modules(package):
    assert _loaded_after(f"import {package}") == sorted({"vqebench", package})


def test_a_name_loads_only_its_own_module():
    # the catalog's noise rules, without the simulator that applies them
    loaded = _loaded_after("import vqebench.qsim; vqebench.qsim.NoiseRule")
    assert "vqebench.qsim.noise" in loaded
    assert "vqebench.qsim.simulate" not in loaded


@pytest.mark.parametrize("package", LAZY)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    # so that `from package import submodule` still falls back to the import
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name
