"""Every demo runs to completion as a subprocess in a scratch directory and
writes nothing into the repository."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache"}


def tree_state(root):
    return {
        path: path.stat().st_mtime_ns
        for path in root.rglob("*")
        if path.is_file() and not SKIP_DIRS.intersection(path.parts)
    }


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    before = tree_state(ROOT)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert tree_state(ROOT) == before
