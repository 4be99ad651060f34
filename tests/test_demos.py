"""Smoke test: the narrative demos run to completion from the repo root.

Demos 02-04 import engine functions (make_world, step, run) directly, so
this catches a change to their names or signatures.  Demo 05, a
two-minute sweep, is left out.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

DEMOS = ["01_link_budget.py", "02_control_kernels.py",
         "03_three_user_convergence.py", "04_failure_recovery.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
