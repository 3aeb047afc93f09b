"""Runs of the scripts in ``scripts/`` on small inputs, in subprocesses."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(argv, **kwargs):
    """Run ``python argv...`` with ``src/`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(kwargs.pop("env", {}))
    return subprocess.run([sys.executable, *argv], env=env, text=True, timeout=60, **kwargs)


def _run_script(script, args, **kwargs):
    return _run([str(ROOT / "scripts" / script), *args], **kwargs)


def _run_into_closed_pipe(argv, unbuffered):
    # the read end is closed before the program starts, so its first write
    # (or, with buffered stdout, its flush) fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _run(
            argv, stdout=write_end, stderr=subprocess.PIPE, env={"PYTHONUNBUFFERED": unbuffered}
        )
    finally:
        os.close(write_end)


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
    script = str(ROOT / "scripts" / "scan_records.py")
    done = _run_into_closed_pipe([script, "--limit", "1e6"], unbuffered)
    assert (done.returncode, done.stderr) == (4, "scan_records.py: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("args", [["verify", "--limit", "1e3"], ["table1", "--limit", "1e5"]])
def test_cli_reports_a_closed_pipe(args, unbuffered):
    # a short output sits in the buffer until the final flush, a long one fails mid-command
    done = _run_into_closed_pipe(["-m", "gaplab.cli", *args], unbuffered)
    assert (done.returncode, done.stderr) == (4, "gaplab: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "args,message",
    [(["--limit", "2"], "limit must be >= 3")],
)
def test_scan_records_usage_errors(args, message):
    done = _run_script("scan_records.py", args, capture_output=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.endswith(f"scan_records.py: error: {message}\n")


def test_every_mutant_names_one_source_line():
    # the full mutant run is opt-in (scripts/mutants.py); this keeps its list current
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    for mutant in mutants.MUTANTS:
        mutants.locate(ROOT, mutant)  # raises unless the line occurs once
        assert mutant.replacement != mutant.line
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)
        assert mutant.expected == "killed" or mutant.expected.startswith("equivalent: ")
