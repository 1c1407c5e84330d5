"""The package is flat modules: its root imports nothing, and each module imports alone.

Wherever the suite runs, any warning fails it, and a failing test is reported, not an abort.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_a_numpy_warning_is_an_error():
    # pyproject.toml's pytest warning filter, "error", holds wherever the suite runs, so
    # an overflow or invalid value fails tier-1 in place of passing with a warning
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.float64(1e308) * 10


FAILING_AND_PASSING = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(x):
    assert x < 0

def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # under the suite's own warning filters a failing @given test is one failure, and the
    # run goes on; run in tmp_path, so hypothesis writes its database and patches there
    (tmp_path / "test_probe.py").write_text(FAILING_AND_PASSING)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
                           "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, check=False)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
