"""The package and each of its modules import on their own, numpy-only.

Each import runs in a fresh interpreter, so that neither an import cycle nor
a test-only dependency that another import happened to load first can hide.
"""

import pkgutil
import subprocess
import sys

import pytest

import qsatwalk

MODULES = sorted(m.name for m in pkgutil.iter_modules(qsatwalk.__path__))
TEST_ONLY = ("scipy", "hypothesis", "pytest")


@pytest.mark.parametrize("module", ["qsatwalk", *(f"qsatwalk.{m}" for m in MODULES)])
def test_imports_alone_without_test_dependencies(module):
    code = (f"import sys, importlib; importlib.import_module({module!r}); "
            f"print(sorted({{m.split('.')[0] for m in sys.modules}} & {set(TEST_ONLY)!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_list_is_found():
    assert {"channel", "cli", "decision", "densesim", "trajectory"} <= set(MODULES)
