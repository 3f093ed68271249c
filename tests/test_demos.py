"""Smoke test: every demo script runs to completion in a fresh interpreter.

The demos call the decision routes directly, so a change of signature or of
behaviour that breaks one shows here.  The random cross-check demo must also
report no disagreement between the routes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if demo.stem == "06_random_crosscheck":
        assert "decision-route disagreements: 0 []" in done.stdout
        assert "rank/balance mismatches: 0 []" in done.stdout
