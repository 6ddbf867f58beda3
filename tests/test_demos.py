"""Every script under demos/ runs to completion against the current API."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
                           if p)
    result = subprocess.run([sys.executable, demo], cwd=tmp_path, capture_output=True,
                            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr[-4000:]
