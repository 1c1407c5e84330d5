"""The package is flat modules: its root imports nothing, and each module imports alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qaoa_landscape

PACKAGE_DIR = Path(qaoa_landscape.__file__).parent
MODULES = ["_kernels", "analytic", "cli", "core", "experiments", "landscape", "optimize",
           "problems", "storage", "structure"]


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that finds the package where this one does."""
    src = str(PACKAGE_DIR.parent)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=False)


def test_the_package_is_ten_flat_modules():
    names = sorted(path.name for path in PACKAGE_DIR.iterdir() if path.name != "__pycache__")
    assert names == ["__init__.py", *(f"{module}.py" for module in MODULES)]


def test_root_import_loads_no_module():
    done = run_python("import qaoa_landscape, sys; "
                      "print(sorted(m for m in sys.modules if m.startswith('qaoa_landscape')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['qaoa_landscape']"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # no import order fixed by the root can hide a cycle
    done = run_python(f"import qaoa_landscape.{module}")
    assert done.returncode == 0, done.stderr
