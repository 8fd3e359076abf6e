"""The package imports as documented, in a fresh interpreter each time.

README's Quick start imports from the package root, and every module must
import on its own, so an import cycle between modules fails here rather than
in whichever caller happens to import the modules in a bad order.
"""

import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["blocks", "cli", "config", "evaluate", "head", "postprocess", "profiler",
           "tensor_ops", "weights"]


def run_python(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_module_list_is_complete():
    found = sorted(p.stem for p in (ROOT / "src" / "refinedet_edge").glob("*.py"))
    assert found == sorted(MODULES + ["__init__"])


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module, tmp_path):
    run_python(f"import refinedet_edge.{module}", tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from refinedet_edge import" in code
    assert run_python(code, tmp_path).strip()
