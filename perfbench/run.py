"""gaplab benchmark runner.

    python3 perfbench/run.py --workload {scan,analyze,windows,emit} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The seed only generates the inputs (limits
and window margins); gaplab never sees it.  Every operation runs in
a fresh worker process (``worker.py``), one at a time, with ``--threads 1``
and the default segment, and its stdout is streamed back through a pipe.
Passes over the workload repeat until S seconds have gone by.  After the
last pass ``check.py`` checks the outputs against independent oracles: every
windows pass (each has its own margins), and the first pass of the CLI
workloads, whose later passes must reproduce it byte for byte.

Times are CPU seconds (user + system) of the worker processes, from
``wait4`` and ``time.process_time``: on a shared machine, wall time also
counts the time a worker waited for a core, which changes from minute to
minute with the load of other tenants.  The wall times go into the detail
line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics from the tracing shim.  The line before it carries the
seed, the generated inputs and the run metadata, which also go to
``.perfbench_work/result-<workload>-<seed>-trace<t>.json``.

This runner imports neither numpy nor gaplab: a worker's peak RSS from
``wait4`` includes the high-water mark of the process that spawned it, so
the runner has to stay smaller than every worker.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUNDLED = "src/gaplab/data/maximal_gaps.txt"

WORKLOADS = ("scan", "analyze", "windows", "emit")
SETUP_SPAWNS = 10
OP_TIMEOUT_S = 120
CHECK_TIMEOUT_S = 150
PIPE_BYTES = 1 << 20
READ_PAUSE_S = 0.002


def make_inputs(workload: str, seed: int) -> dict:
    """What the seed generates: limits and CLI argv, or the records and margins of windows."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("scan", "analyze"):
        limit = 10**9 + rng.randrange(1 << 20)
        if workload == "scan":
            return {"limit": limit, "ops": [["verify", "--limit", str(limit), "--threads", "1"]]}
        top = 10
        return {
            "limit": limit,
            "top": top,
            "ops": [
                ["first-gaps", "--limit", str(limit), "--threads", "1"],
                ["table2", "--limit", str(limit), "--top", str(top), "--threads", "1"],
                ["figure1", "--limit", str(limit), "--ref", BUNDLED, "--threads", "1"],
                ["constants", "--prime-limit", "100000000", "--threads", "1"],
            ],
        }
    if workload == "emit":
        limit = 2 * 10**7 + rng.randrange(1 << 16)
        return {"limit": limit, "ops": [["table1", "--limit", str(limit), "--threads", "1"]]}
    records = []
    for line in (ROOT / BUNDLED).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            g, p = (int(v) for v in line.split())
            if 10**9 <= p < 2 * 10**15:
                records.append([p, g])
    last = len(records) - 1
    return {"records": records, "margins": [50_000 + i * 150_000 // last for i in range(last + 1)]}


def pass_windows(inputs: dict, seed: int, k: int) -> list[list[int]]:
    """``[lo, hi, p_L, g]`` per record for pass ``k``, in ascending p_L.

    Each pass deals the evenly spaced margins to the records in its own
    seeded order: the total width stays fixed, and the latency of a
    mid-sized window (30% apart between the smallest and largest margin)
    is pooled over several margins instead of hanging on one draw.  The
    order of the calls stays ascending: the base-prime cache then holds the
    eight largest windows together at the end, its worst case, instead of a
    peak that depends on which windows a shuffle puts next to each other.
    """
    margins = list(inputs["margins"])
    random.Random(f"windows:{seed}:{k}").shuffle(margins)
    return [[p - m, p + g + m + 1, p, g] for (p, g), m in zip(inputs["records"], margins)]


def worker_ops(workload: str, inputs: dict, seed: int, k: int) -> list[tuple[str, list[str]]]:
    """Worker operations of pass ``k``."""
    if workload == "windows":
        return [("windows", [f"{lo}:{hi}" for lo, hi, _, _ in pass_windows(inputs, seed, k)])]
    return [("cli", argv) for argv in inputs["ops"]]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(kind: str, args: list[str], trace: bool, save: Path | None = None) -> dict:
    """Run one worker; stream its stdout into a digest (and ``save``)."""
    report_path = WORK / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        # numpy's BLAS pool is idle in gaplab, but its threads spin at start-up
        # and would add their CPU time to a single-threaded worker's.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    argv = [sys.executable, str(HERE / "worker.py"), str(report_path), "1" if trace else "0", kind, *args]
    digest, nbytes = hashlib.sha256(), 0
    # One reused buffer: a fresh bytes object per read fragments the heap and
    # raises this process's RSS, which would leak into the workers' figures.
    buf = bytearray(PIPE_BYTES)
    view = memoryview(buf)
    with open(WORK / "worker-stderr.txt", "ab") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
    fd = proc.stdout.fileno()
    with contextlib.suppress(OSError):
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    signal.alarm(OP_TIMEOUT_S)
    try:
        with save.open("wb") if save else contextlib.nullcontext() as fh:
            while n := os.readv(fd, [buf]):
                digest.update(view[:n])
                nbytes += n
                if fh:
                    fh.write(view[:n])
                if n < PIPE_BYTES // 4:
                    # Let the pipe fill: reading each line as it is written
                    # would cost this process a core next to the worker.
                    time.sleep(READ_PAUSE_S)
        signal.alarm(0)
    except _Timeout:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.monotonic()
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    ready, ready_cpu = report.get("ready"), report.get("ready_cpu", 0.0)
    return {
        "exit": proc.returncode,
        # CPU seconds of the worker (user + system): unlike wall time, they
        # leave out the time the worker waited for a core held by another
        # process or, on a VM, by the host.
        "setup_s": None if ready is None else ready_cpu,
        "run_s": usage.ru_utime + usage.ru_stime - ready_cpu,
        "setup_wall_s": None if ready is None else ready - t_spawn,
        "run_wall_s": t_exit - (t_spawn if ready is None else ready),
        "maxrss_kb": usage.ru_maxrss,
        "digest": digest.hexdigest(),
        "out_bytes": nbytes,
        "output": save and str(save),
        "report": report,
    }


def run_pass(ops, trace: bool, save_as: str | None) -> dict:
    results = [
        spawn(kind, args, trace, WORK / f"out-{save_as}-{i}.bin" if save_as else None)
        for i, (kind, args) in enumerate(ops)
    ]
    calls = []
    for (kind, _), r in zip(ops, results):
        calls.extend(r["report"].get("calls", []) if kind == "windows" else [r["run_s"]])
    spans = [s for r in results for s in r["report"].get("spans", [])]
    layers = tracing.layer_metrics(spans) if trace else None
    if trace:
        layers["cli.out_bytes"] = sum(r["out_bytes"] for (kind, _), r in zip(ops, results) if kind == "cli")
    return {
        "trace": trace,
        "run_s": sum(r["run_s"] for r in results),
        "run_wall_s": sum(r["run_wall_s"] for r in results),
        "calls": calls,
        "peak_kb": max(r["maxrss_kb"] for r in results),
        "setup": [r["setup_s"] for r in results if r["setup_s"] is not None],
        "ops": results,
        "argv": [[kind, *args] for kind, args in ops],
        "layers": layers,
        "spans": spans,
    }


def check(workload: str, seed: int, inputs: dict, passes: list[dict]) -> dict:
    """Run check.py on every saved output: all windows passes, else the first pass."""
    job = {"root": str(ROOT), "workload": workload, "seed": seed, "inputs": inputs}
    if workload == "windows":
        job["passes"] = [
            {
                "windows": pass_windows(inputs, seed, k),
                "output": p["ops"][0]["output"],
                "exit": p["ops"][0]["exit"],
                "sizes": p["ops"][0]["report"].get("sizes"),
            }
            for k, p in enumerate(passes)
        ]
    else:
        job["ops"] = [
            {"argv": argv, "output": r["output"], "exit": r["exit"]}
            for argv, r in zip(inputs["ops"], passes[0]["ops"])
        ]
    job_path = WORK / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "check.py"), str(job_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHECK_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"ok": [], "pairs": [0], "notes": [f"checker failed: {proc.stderr[-2000:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_metadata(first_setup: dict) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src_files = sorted(SRC.rglob("*.py"))
    src_digest = hashlib.sha256()
    for path in src_files:
        src_digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": first_setup["report"].get("numpy"),
        "git_sha": git_sha,
        "src_sha256": src_digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
    }


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gaplab" / "__init__.py").is_file() or not (ROOT / BUNDLED).is_file():
        print(f"perfbench: gaplab sources not found under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    for stale in WORK.glob("*"):
        if not stale.name.startswith("result-"):
            stale.unlink()
    signal.signal(signal.SIGALRM, _alarm)
    inputs = make_inputs(args.workload, args.seed)
    windows = args.workload == "windows"

    spawn("setup", [], False)  # warm-up: bytecode caches and page cache
    setup_runs = [spawn("setup", [], False) for _ in range(SETUP_SPAWNS)]
    if any(r["exit"] != 0 or r["setup_s"] is None for r in setup_runs):
        print("perfbench: the worker could not import gaplab, see .perfbench_work/worker-stderr.txt", file=sys.stderr)
        return 2

    passes = []
    t_start = time.monotonic()
    while True:
        k = len(passes)
        ops = worker_ops(args.workload, inputs, args.seed, k)
        passes.append(run_pass(ops, bool(args.trace) and k % 2 == 1, save_as=str(k) if windows or k == 0 else None))
        if time.monotonic() - t_start >= args.seconds and len(passes) >= 1 + args.trace:
            break

    verdict = check(args.workload, args.seed, inputs, passes)
    checked = verdict["ok"]
    attempted = failed = 0
    for k, pas in enumerate(passes):
        if k < len(checked):
            oks = checked[k]
        elif checked:  # a later CLI pass must reproduce the checked first pass byte for byte
            oks = [
                ok and r["digest"] == r0["digest"] and r["exit"] == 0
                for ok, r, r0 in zip(checked[0], pas["ops"], passes[0]["ops"])
            ]
        else:
            oks = [False] * (len(inputs["records"]) if windows else len(inputs["ops"]))
        attempted += len(oks)
        failed += oks.count(False)
        pas["pairs"] = verdict["pairs"][min(k, len(verdict["pairs"]) - 1)]

    untraced = [p for p in passes if not p["trace"]]
    setups = [r["setup_s"] for r in setup_runs] + [s for p in passes for s in p["setup"]]
    calls = [c for p in untraced for c in p["calls"]]
    if args.trace:
        traced = [p for p in passes if p["trace"]]
        names = list(tracing.PER_LAYER) + ["cli.out_bytes"]
        metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        metrics["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(p["run_s"] for p in untraced)
        units = {
            n: "1/s" if n.endswith("_per_s") else "s" if n.endswith("_s") else "B" if n.endswith("_bytes") else "count"
            for n in metrics
        }
    else:
        metrics = {
            "run_cpu_s": statistics.median(p["run_s"] for p in untraced),
            "pairs_per_cpu_s": statistics.median(p["pairs"] / p["run_s"] for p in untraced),
            "call_p50_cpu_s": statistics.median(calls),
            "peak_rss_mb": statistics.median(p["peak_kb"] for p in untraced) / 1024,
            "setup_s": statistics.median(setups),
        }
        units = {
            "run_cpu_s": "s",
            "pairs_per_cpu_s": "1/s",
            "call_p50_cpu_s": "s",
            "peak_rss_mb": "MB",
            "setup_s": "s",
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "passes": [
            {"trace": p["trace"], "run_cpu_s": p["run_s"], "run_wall_s": p["run_wall_s"], "peak_rss_mb": p["peak_kb"] / 1024, "worker_argv": p["argv"]}
            for p in passes
        ],
        "samples": {"passes": len(untraced), "calls": len(calls), "setup": len(setups)},
        # Not an end-to-end metric: on the CLI workloads fewer than ten calls
        # lie beyond it, so it is the slowest call or two, not a percentile.
        "call_p90_cpu_s": p90(calls),
        "wall": {
            "run_s": statistics.median(p["run_wall_s"] for p in untraced),
            "setup_s": statistics.median(
                [r["setup_wall_s"] for r in setup_runs]
                + [r["setup_wall_s"] for p in passes for r in p["ops"] if r["setup_wall_s"] is not None]
            ),
        },
        "failed_frac": failed / attempted,
        "notes": verdict["notes"],
        "meta": dict(run_metadata(setup_runs[0]), runner_maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "metrics": metrics,
    }
    if args.trace:
        detail["spans"] = next(p["spans"] for p in passes if p["trace"])
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for stale in WORK.glob("out-*.bin"):
        stale.unlink()
    detail.pop("spans", None)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
