"""Every demo script runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

import maxdirac1d

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_0(path, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxdirac1d.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
