"""Every demo script runs to completion against the package as it is.

Each demo runs in its own interpreter from the repository root with only
`src` on the path, as its docstring says to run it, so a renamed or removed
public name fails here rather than in a reader's terminal.
"""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # an empty glob would parametrize no test at all


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo.relative_to(ROOT))], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
