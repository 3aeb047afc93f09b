"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s or check captured output).

Two checks are known-red and kept faithful rather than weakened:

* criterion 3 asserts the published 12-digit kernel maximum
  0.579709161122; the kernel's true maximum is 0.579709161117091...
  (40-digit arithmetic; the published digits exceed the function's actual
  maximum, so they cannot be reproduced by any correct implementation).
* criterion 9f asserts strictly decreasing R across the reference fixture
  for p_L > 100; the genuine published records violate this twelve times
  (first at 1129 -> 1327, where R jumps 0.3258 -> 0.4637).
"""

import contextlib
import math
import time
from importlib import resources

import pytest
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from gaplab import cli, gaps, heuristics, reference, sieve
from tests.conftest import trial_division_primes

LIMIT_1E9 = 10**9


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    text = resources.files("gaplab").joinpath("data/maximal_gaps.txt").read_text()
    path = tmp_path_factory.mktemp("accept") / "maximal_gaps.txt"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def bundled():
    return reference.load_bundled_table()


@pytest.fixture(scope="module")
def record_scan_1e9():
    """Single-threaded record scan to 1e9, timed for criterion 6."""
    t0 = time.perf_counter()
    table = gaps.max_gap_records(LIMIT_1E9)
    return table, time.perf_counter() - t0


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0, f"exit code {rc}"
    return out


def rows_of(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    return lines[1:]


# all 29 published pairs below 114 with their differences at 9 decimals
TABLE1_EXPECTED = [
    (2, 3, 1, "0.317837245"), (3, 5, 2, "0.504017170"), (5, 7, 2, "0.409683334"),
    (7, 11, 4, "0.670873479"), (11, 13, 2, "0.288926485"), (13, 17, 4, "0.517554350"),
    (17, 19, 2, "0.235793318"), (19, 23, 4, "0.436932580"), (23, 29, 6, "0.589333284"),
    (29, 31, 2, "0.182599556"), (31, 37, 6, "0.514998167"), (37, 41, 4, "0.320361707"),
    (41, 43, 2, "0.154314287"), (43, 47, 4, "0.298216076"), (47, 53, 6, "0.424455289"),
    (53, 59, 6, "0.401035859"), (59, 61, 2, "0.129103928"), (61, 67, 6, "0.375103096"),
    (67, 71, 4, "0.240797001"), (71, 73, 2, "0.117853972"), (73, 79, 6, "0.344190672"),
    (79, 83, 4, "0.222239162"), (83, 89, 6, "0.323547553"), (89, 97, 8, "0.414876670"),
    (97, 101, 4, "0.201017819"), (101, 103, 2, "0.099015944"), (103, 107, 4, "0.195188868"),
    (107, 109, 2, "0.096226076"), (109, 113, 4, "0.189839304"),
]

TABLE2_EXPECTED = [
    "4,7,11,4,0.6708735", "30,113,127,14,0.6392819", "9,23,29,6,0.5893333",
    "6,13,17,4,0.5175544", "11,31,37,6,0.5149982", "2,3,5,2,0.5040172",
    "8,19,23,4,0.4369326", "15,47,53,6,0.4244553", "46,199,211,12,0.4191031",
    "34,139,149,10,0.4167295",
]


def test_criterion_01_table1_regression(capsys):
    with criterion("1 table1 reproduces all 29 published rows"):
        t0 = time.perf_counter()
        out = run_cli(capsys, "table1", "--limit", "114")
        elapsed = time.perf_counter() - t0
        expected = [f"{p},{q},{d},{a}" for p, q, d, a in TABLE1_EXPECTED]
        assert rows_of(out) == expected
        assert elapsed < 1.0


def test_criterion_02_table2_regression(capsys):
    with criterion("2 table2 reproduces the 10 published rows in order"):
        t0 = time.perf_counter()
        out = run_cli(capsys, "table2", "--limit", "250", "--top", "10")
        elapsed = time.perf_counter() - t0
        assert rows_of(out) == TABLE2_EXPECTED
        assert elapsed < 1.0


def test_criterion_03_kernel_maximum(capsys):
    with criterion("3 kernel maximum value and location"):
        x_star, _ = heuristics.kernel_argmax(heuristics.r_kernel)
        assert abs(x_star - 9.0) <= 1e-8
        out = run_cli(capsys, "predict", "r_kernel", "9").strip()
        assert out == "0.579709161122", (
            f"printed kernel maximum is {out}; the published value "
            "0.579709161122 mis-states the last two digits -- the true "
            "maximum is 0.57970916111709120989... (40-digit arithmetic), "
            "which is below the published figure, so no correct evaluation "
            "of (1/2) x^(3/4) e^(-sqrt(x)/2) can print it"
        )


def test_criterion_04_twin_constant(capsys):
    with criterion("4 twin constant from the truncated product"):
        t0 = time.perf_counter()
        out = run_cli(capsys, "constants", "--prime-limit", "1e6")
        elapsed = time.perf_counter() - t0
        values = dict(line.split("=") for line in out.splitlines())
        assert abs(float(values["C2"]) - 1.32032363169) <= 1e-6
        assert abs(float(values["c_prime"]) - 0.27787688) <= 1e-6
        estimate = heuristics.twin_constant(10**6)
        with mp.workdps(30):
            true_c2 = float(2 * mp.twinprime)
        assert estimate.tail_bound >= abs(estimate.value - true_c2)
        assert float(values["tail_bound"]) == pytest.approx(estimate.tail_bound, rel=1e-9)
        assert elapsed < 5.0


def test_criterion_05_granville_coefficient(capsys):
    with criterion("5 Granville coefficient rounds to 1.12292"):
        out = run_cli(capsys, "constants", "--prime-limit", "1e3")
        values = dict(line.split("=") for line in out.splitlines())
        assert f"{float(values['granville_coeff']):.5f}" == "1.12292"


def test_criterion_06_records_vs_published(record_scan_1e9, bundled):
    with criterion("6 record scan to 1e9 matches the published prefix"):
        table, elapsed = record_scan_1e9
        expected = [(g, p) for g, p in bundled.records if p + g < LIMIT_1E9]
        assert len(expected) == 30
        assert [(r.g, r.p_L) for r in table.records] == expected
        assert elapsed < 60.0


def test_criterion_07_andrica_verification(capsys):
    with criterion("7 Andrica verification to 1e9"):
        out = run_cli(capsys, "verify", "--limit", "1e9")
        assert out.startswith("all_below_one=true max_A=0.670873479 at=(7,11)")
        assert out.strip().endswith("count=50847533")


def test_criterion_08_reference_scale_stability(bundled):
    with criterion("8 quotient form at the 1.4e18 record vs 30-digit oracle"):
        points = dict(reference.r_points_from_reference(bundled))
        mine = points[1425172824437699411]
        with mp.workdps(30):
            oracle = float(
                mp_sqrt(mpf(1425172824437699411 + 1476))
                - mp_sqrt(mpf(1425172824437699411))
            )
        assert abs(mine - oracle) / oracle <= 1e-14


def test_criterion_09a_sieve_trial_division():
    with criterion("9a sieve equals trial division below 1e5"):
        assert sieve.primes_in_range(0, 10**5).tolist() == trial_division_primes(0, 10**5)


def test_criterion_09b_telescoping():
    with criterion("9b gap sums telescope"):
        for limit in (10, 1000, 10**5):
            primes = sieve.primes_in_range(0, limit)
            total = sum(g.d for g in gaps.gap_stream(limit))
            assert total == int(primes[-1]) - 2


def test_criterion_09c_gauss_identity():
    with criterion("9c pi-form equals Gauss form under forced pi = x/ln x"):
        import numpy as np

        for x in np.geomspace(10.0, 1e15, 300):
            lhs = heuristics.g_wolf(float(x), float(x) / math.log(x))
            rhs = heuristics.g_gauss(float(x))
            assert abs(lhs - rhs) / rhs <= 1e-9


def test_criterion_09d_cramer_composition():
    with criterion("9d kernel over ln^2 x equals the closed Cramer form"):
        import numpy as np

        r_main_cramer, _ = heuristics.MODELS["r_main_cramer"]
        for x in np.geomspace(3.0, 1e15, 1000):
            lhs = r_main_cramer(float(x))
            rhs = heuristics.r_cramer_form(float(x))
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_criterion_09e_expansion_agreement():
    with criterion("9e kernel matches the exact first-occurrence difference"):
        for d in (100.0, 400.0, 2500.0):
            pf = heuristics.pf_wolf(d)
            exact = d / (math.sqrt(pf + d) + math.sqrt(pf))
            assert abs(exact - heuristics.r_kernel(d)) / heuristics.r_kernel(d) <= d**-0.25


def test_criterion_09f_reference_R_strictly_decreasing(bundled):
    with criterion("9f reference R strictly decreasing for p_L > 100"):
        points = [
            (x, r) for x, r in reference.r_points_from_reference(bundled) if x > 100
        ]
        increases = [
            (points[i - 1], points[i])
            for i in range(1, len(points))
            if points[i][1] >= points[i - 1][1]
        ]
        assert not increases, (
            "strict decrease fails for the genuine published records at "
            f"{len(increases)} adjacent pairs, e.g. "
            f"{increases[0][0]} -> {increases[0][1]}; the regularity does "
            "not hold in real data (records clustering at nearly the same "
            "x make R jump upward) and the fixture is kept faithful"
        )


def test_criterion_10_figure_emission(capsys, fixture_path, tmp_path):
    with criterion("10 figure data: 75 rows, byte-identical across runs/threads"):
        fig1 = run_cli(capsys, "figure1", "--limit", "1e5", "--ref", fixture_path)
        assert len(rows_of(fig1)) == 75
        fig2 = run_cli(capsys, "figure2", "--limit", "1e5", "--ref", fixture_path)
        fig2_rows = rows_of(fig2)
        assert len(fig2_rows) == 75
        for row in fig2_rows:
            x, _emp, cram, shanks = row.split(",")
            assert math.isfinite(float(cram))
            if int(x) >= 3:  # both models are defined from x = 3 on
                assert math.isfinite(float(shanks))
        # determinism across repeats and thread counts
        for name in ("figure1", "figure2"):
            outs = []
            for i, threads in enumerate(("1", "4", "1")):
                path = tmp_path / f"{name}-{i}.csv"
                rc = cli.main(
                    [name, "--limit", "1e5", "--ref", fixture_path,
                     "--threads", threads, "--out", str(path)]
                )
                assert rc == 0
                outs.append(path.read_bytes())
            assert outs[0] == outs[1] == outs[2]
