"""Smoke runs of the scripts in ``scripts/``: each must exit 0 on a small input."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("scan_records.py", ["--limit", "1e6"]),
        ("reproduce_tables.py", ["--outdir", "{tmp}"]),
        ("make_figures.py", ["--outdir", "{tmp}", "--limit", "1e5"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.format(tmp=tmp_path) for a in args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
