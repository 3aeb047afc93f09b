"""Independent checks of the outputs saved by the benchmark runner.

    python3 perfbench/check.py JOB.json

JOB names the workload, its generated inputs and the files holding the
saved stdout: of each operation of the first pass, or of every windows pass.  The oracles are sympy (prime counts and
next primes), 40-digit mpmath (every printed square-root difference) and,
for the windows workload, ``gaplab.is_prime`` on every returned value.
Prints one JSON object: ``ok`` (per checked pass, one verdict per operation
or window), ``pairs`` (per checked pass, the consecutive-prime pairs it
delivered) and ``notes`` (what failed, if anything).
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import sympy

mpmath.mp.dps = 40

# 2 * prod_{p > 2} (1 - 1/(p-1)^2)
TWIN_C2 = 2 * mpmath.twinprime
GRANVILLE = 2 * mpmath.exp(-mpmath.euler)
ANDRICA_MAX = "max_A=0.670873479 at=(7,11)"
EMIT_SAMPLES = 64


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sqrt_diff(p: int, q: int):
    return mpmath.sqrt(q) - mpmath.sqrt(p)


def near(text: str, exact, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(mpmath.mpf(text) - exact) <= abs_tol + rel_tol * abs(exact)


def pair_count(limit: int) -> int:
    """Consecutive-prime pairs (p, q) with q < limit."""
    return int(sympy.primepi(limit - 1)) - 1


def split_csv(text: str, header: str, meta: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    for m in meta:
        expect(any(m in c for c in comments), f"metadata {m!r} missing")
    expect(body and body[0] == header, f"column row is not {header!r}")
    return [row.split(",") for row in body[1:]]


def bundled_records(root: Path) -> list[tuple[int, int]]:
    text = (root / "src/gaplab/data/maximal_gaps.txt").read_text()
    return [
        tuple(int(v) for v in ln.split())
        for ln in text.splitlines()
        if ln.strip() and not ln.startswith("#")
    ]


def check_verify(out: bytes, limit: int) -> int:
    n = pair_count(limit)
    want = f"all_below_one=true {ANDRICA_MAX} count={n}\n"
    expect(out.decode() == want, f"verify printed {out[:200]!r}, want {want!r}")
    return n


def check_first_gaps(out: bytes, limit: int, records) -> None:
    rows = split_csv(out.decode(), "d,p_f", [f"limit={limit}"])
    first = {}
    for d, p in rows:
        d, p = int(d), int(p)
        expect(p + d < limit, f"first gap {d} at {p} reaches the limit")
        expect(sympy.nextprime(p) == p + d, f"{p} and {p + d} are not consecutive primes")
        first[d] = p
    expect(list(first) == sorted(first) and len(first) == len(rows), "gap values not ascending")
    for g, p in records:
        if p + g < limit:
            expect(first.get(g) == p, f"record gap {g}: first occurrence {first.get(g)}, want {p}")


def check_table2(out: bytes, limit: int, top: int, records) -> None:
    rows = split_csv(out.decode(), "n,p_n,p_n1,d_n,A_n", [f"limit={limit}", f"top={top}"])
    expect(len(rows) == top, f"{len(rows)} rows, want {top}")
    values = []
    for n, p, q, d, a in rows:
        n, p, q, d = int(n), int(p), int(q), int(d)
        expect(sympy.nextprime(p) == q and q - p == d, f"({p},{q},{d}) is not a prime gap")
        expect(n == sympy.primepi(p), f"index of {p} printed as {n}")
        expect(near(a, sqrt_diff(p, q), abs_tol=5.000001e-8), f"A({p},{q}) printed as {a}")
        values.append((float(a), p))
    expect(values == sorted(values, key=lambda v: (-v[0], v[1])), "rows not in descending A")
    # Brute force below 10^6.  Beyond it every pair has A < G/(2*10^3), with G
    # the largest record gap closing below the limit; the k-th value found
    # must beat that for the prefix to hold the whole top-k.
    small = list(sympy.primerange(2, 10**6))
    best = sorted(
        ((q - p) / (math.sqrt(q) + math.sqrt(p)), p) for p, q in zip(small, small[1:])
    )
    best = sorted(best, key=lambda v: (-v[0], v[1]))[:top]
    g_max = max(g for g, p in records if p + g < limit)
    expect(best[-1][0] > g_max / 2e3, "brute-force prefix too short for this top-k")
    expect([p for _, p in best] == [p for _, p in values], "top-k primes differ from brute force")


def check_figure1(out: bytes, limit: int, records) -> None:
    rows = split_csv(out.decode(), "x,R_empirical,R_predicted", [f"limit={limit}"])
    expect([int(r[0]) for r in rows] == [p for _, p in records], "record rows differ from the bundled table")
    for (g, p), (_, r_emp, r_pred) in zip(records, rows):
        expect(near(r_emp, sqrt_diff(p, p + g), rel_tol=1e-11), f"R({p}) printed as {r_emp}")
        float(r_pred)  # nan where the gap model is undefined; the model itself is not re-derived here


def check_constants(out: bytes) -> None:
    values = dict(line.split("=", 1) for line in out.decode().splitlines())
    expect(sorted(values) == ["C2", "c_prime", "granville_coeff", "tail_bound"], f"keys {sorted(values)}")
    c2 = mpmath.mpf(values["C2"])
    bound = mpmath.mpf(values["tail_bound"])
    expect(0 < bound < 1e-6 and abs(c2 - TWIN_C2) <= bound + 1e-11, f"C2={c2} off by more than {bound}")
    # both printed to 12 significant digits: C2's rounding moves ln C2 by up to 4e-12
    expect(near(values["c_prime"], mpmath.log(c2), abs_tol=1e-11), "c_prime != ln C2")
    expect(near(values["granville_coeff"], GRANVILLE, rel_tol=1e-11), "granville_coeff != 2e^-gamma")


def check_table1(out: bytes, limit: int, seed: int) -> int:
    head = out.split(b"\n", 3)
    expect(head[:3] == [b"# gaplab table1 v0.1.0", f"# limit={limit}".encode(), b"p_n,p_n1,d_n,A_n"],
           f"table1 header {head[:3]!r}")
    body = head[3]
    expect(body.endswith(b"\n"), "table1 output not newline-terminated")
    fields = np.array(body[:-1].replace(b"\n", b",").split(b","))
    expect(fields.size % 4 == 0, "table1 rows do not all have four columns")
    rows = fields.reshape(-1, 4)
    p, q, d = (rows[:, i].astype(np.int64) for i in range(3))
    n = pair_count(limit)
    expect(len(rows) == n, f"{len(rows)} rows, want {n}")
    expect(p[0] == 2 and bool(np.all(p[1:] == q[:-1])), "rows do not chain p_n1 -> next p_n")
    expect(bool(np.all(q - p == d)), "d_n != p_n1 - p_n")
    expect(int(q[-1]) < limit <= sympy.nextprime(int(q[-1])), "last row does not close the range")
    rng = random.Random(seed)
    for i in [0, n - 1] + rng.sample(range(n), EMIT_SAMPLES):
        pi, qi, a = int(p[i]), int(q[i]), rows[i, 3].decode()
        expect(sympy.nextprime(pi) == qi, f"row {i}: {pi} and {qi} are not consecutive primes")
        expect(len(a.split(".")[1]) == 9 and near(a, sqrt_diff(pi, qi), abs_tol=5.000001e-10),
               f"row {i}: A({pi},{qi}) printed as {a}")
    return n


def check_windows(passes) -> tuple[list[list[bool]], list[int], list[str]]:
    """Every pass sieves the same records, each with its own margins.

    Each prime any pass returned around a record is tested with
    ``gaplab.is_prime`` once; a pass must then hold exactly the tested
    primes inside its window, with p_L and p_L + g adjacent.
    """
    from gaplab import is_prime

    records = [(p, g) for _, _, p, g in passes[0]["windows"]]
    notes, arrays = [], []
    for k, pas in enumerate(passes):
        flat = None
        if pas["exit"] == 0 and pas["sizes"] is not None:
            flat = np.frombuffer(Path(pas["output"]).read_bytes(), dtype="<i8")
        if flat is None or flat.size != sum(pas["sizes"]):
            notes.append(f"pass {k}: windows worker exited with {pas['exit']} or returned a short output")
            arrays.append(None)
        else:
            arrays.append(np.split(flat, np.cumsum(pas["sizes"])[:-1]))
    ok = [[False] * len(records) for _ in passes]
    for j, (p, g) in enumerate(records):
        found = [a[j] for a in arrays if a is not None]
        union = np.unique(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)
        primes = union[np.array([is_prime(int(v)) for v in union], dtype=bool)]
        consecutive = sympy.nextprime(p) == p + g
        for k, pas in enumerate(passes):
            if arrays[k] is None:
                continue
            lo, hi = pas["windows"][j][:2]
            arr = arrays[k][j]
            try:
                expect(consecutive, f"{p} + {g} is not the next prime")
                expect(np.array_equal(arr, primes[(primes >= lo) & (primes < hi)]),
                       f"pass {k}: [{lo},{hi}) is not the primes of its window")
                i = int(np.searchsorted(arr, p))
                expect(i + 1 < arr.size and arr[i] == p and arr[i + 1] == p + g,
                       f"pass {k}: record {p}, {p + g} not adjacent in [{lo},{hi})")
                ok[k][j] = True
            except CheckError as exc:
                notes.append(str(exc))
    pairs = [0 if a is None else sum(max(w.size - 1, 0) for w in a) for a in arrays]
    return ok, pairs, notes


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    records = bundled_records(root)
    inputs = job["inputs"]
    limit = inputs.get("limit")
    if job["workload"] == "windows":
        ok, pairs, notes = check_windows(job["passes"])
        print(json.dumps({"ok": ok, "pairs": pairs, "notes": notes}))
        return
    ok, notes, pairs = [], [], 0
    for op in job["ops"]:
        out = Path(op["output"]).read_bytes()
        command = op["argv"][0]
        try:
            expect(op["exit"] == 0, f"{command} exited with {op['exit']}")
            if command == "verify":
                pairs += check_verify(out, limit)
            elif command == "first-gaps":
                check_first_gaps(out, limit, records)
                pairs += pair_count(limit)
            elif command == "table2":
                check_table2(out, limit, inputs["top"], records)
                pairs += pair_count(limit)
            elif command == "figure1":
                check_figure1(out, limit, records)
                pairs += pair_count(limit)
            elif command == "constants":
                check_constants(out)
            elif command == "table1":
                pairs += check_table1(out, limit, job["seed"])
            else:
                raise CheckError(f"no check for {command}")
            ok.append(True)
        except (CheckError, ValueError, IndexError, UnicodeDecodeError) as exc:
            ok.append(False)
            notes.append(f"{command}: {exc}")
    print(json.dumps({"ok": [ok], "pairs": [pairs], "notes": notes}))


if __name__ == "__main__":
    main(sys.argv[1])
