"""Runs of the scripts in ``scripts/`` on small inputs, in subprocesses."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(script, args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(kwargs.pop("env", {}))
    argv = [sys.executable, str(ROOT / "scripts" / script), *args]
    return subprocess.run(argv, env=env, text=True, timeout=60, **kwargs)


@pytest.mark.parametrize(
    "script,args",
    [
        ("scan_records.py", ["--limit", "1e6"]),
        ("reproduce_tables.py", ["--outdir", "{tmp}"]),
        ("make_figures.py", ["--outdir", "{tmp}", "--limit", "1e5"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    done = _run_script(script, [a.format(tmp=tmp_path) for a in args], capture_output=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_scan_records_reports_a_closed_pipe(unbuffered):
    # the read end is closed before the script starts, so its first write
    # (or, with buffered stdout, its flush) fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _run_script(
            "scan_records.py", ["--limit", "1e6"], stdout=write_end, stderr=subprocess.PIPE,
            env={"PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (4, "scan_records.py: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "args,message",
    [(["--limit", "2"], "limit must be >= 3"), (["--threads", "0"], "threads must be >= 1")],
)
def test_scan_records_usage_errors(args, message):
    done = _run_script("scan_records.py", args, capture_output=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.endswith(f"scan_records.py: error: {message}\n")
