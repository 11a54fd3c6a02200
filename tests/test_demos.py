"""Every script in ``demos/`` runs to completion against the library.

Each demo runs in a fresh interpreter inside a temporary directory, since
some of them write CSV files to the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pstchain

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    root = os.path.dirname(os.path.dirname(pstchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
