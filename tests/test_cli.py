import contextlib
import io
import math
import time
from bisect import bisect_left
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaplab
from gaplab import cli, gaps, heuristics
from tests.conftest import sieve_segments, trial_division_primes

_TABLE1_ORACLE_LIMIT = 50000
_TABLE1_ORACLE_PRIMES = trial_division_primes(0, _TABLE1_ORACLE_LIMIT)


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    text = resources.files("gaplab").joinpath("data/maximal_gaps.txt").read_text()
    path = tmp_path_factory.mktemp("ref") / "maximal_gaps.txt"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def data_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    return lines[1:]  # drop the column-name row


def test_table1(capsys):
    rc, out = run(capsys, "table1", "--limit", "114")
    assert rc == 0
    rows = data_rows(out)
    assert len(rows) == 29
    assert rows[0] == "2,3,1,0.317837245"
    assert rows[-1] == "109,113,4,0.189839304"
    assert out.startswith("# gaplab table1")


def test_table2(capsys):
    rc, out = run(capsys, "table2", "--limit", "250", "--top", "10")
    assert rc == 0
    rows = data_rows(out)
    assert rows[0] == "4,7,11,4,0.6708735"
    assert rows[1] == "30,113,127,14,0.6392819"
    assert rows[-1] == "34,139,149,10,0.4167295"
    assert len(rows) == 10

    rc, out = run(capsys, "table2", "--limit", "250", "--top", "1")
    assert data_rows(out) == ["4,7,11,4,0.6708735"]


def test_records_plain_and_merged(capsys, fixture_path):
    rc, out = run(capsys, "records", "--limit", "130")
    assert rc == 0
    assert out.splitlines()[1] == "# limit=130 source=computed ref=-"
    rows = data_rows(out)
    assert len(rows) == 6
    assert rows[0].startswith("1,2,3,")
    assert rows[-1].startswith("14,113,127,")

    rc, out = run(capsys, "records", "--limit", "130", "--ref", fixture_path)
    assert rc == 0
    assert out.splitlines()[1] == f"# limit=130 source=merged ref={fixture_path}"
    assert len(data_rows(out)) == 75


def test_first_gaps(capsys):
    rc, out = run(capsys, "first-gaps", "--limit", "130")
    assert rc == 0
    assert data_rows(out) == ["1,2", "2,3", "4,7", "6,23", "8,89", "14,113"]


def test_verify(capsys):
    rc, out = run(capsys, "verify", "--limit", "1e3")
    assert rc == 0
    assert out == "all_below_one=true max_A=0.670873479 at=(7,11) count=167\n"
    rc, out = run(capsys, "verify", "--limit", "3")  # no pair below the limit
    assert rc == 0
    assert out == "all_below_one=true max_A=0.000000000 at=none count=0\n"


def test_constants(capsys):
    rc, out = run(capsys, "constants", "--prime-limit", "1e6")
    assert rc == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert abs(float(values["C2"]) - 1.32032363169) <= 1e-6
    assert abs(float(values["c_prime"]) - 0.27787688) <= 1e-6
    assert f"{float(values['granville_coeff']):.5f}" == "1.12292"
    assert float(values["tail_bound"]) < 1e-6


def test_predict(capsys):
    rc, out = run(capsys, "predict", "r_kernel", "9")
    assert rc == 0
    assert out == "0.579709161117\n"

    rc, out = run(capsys, "predict", "g_wolf", "1e6", "78498")
    assert rc == 0
    assert abs(float(out) - 114.7038545642796) < 1e-9

    rc, out = run(capsys, "predict", "r_shanks", "16")
    assert abs(float(out) - 8 * math.exp(-2)) < 1e-10  # printed at 12 sig digits


def test_predict_usage_errors(capsys):
    assert cli.main(["predict", "nosuchmodel", "9"]) == 2
    capsys.readouterr()
    assert cli.main(["predict", "g_wolf", "1e6"]) == 2  # missing pi_x
    assert cli.main(["predict", "g_gauss", "2"]) == 2  # outside domain
    capsys.readouterr()
    for model, d, flow in (
        ("pf_shanks", "1e6", "overflows"),  # e^1000 overflows a double
        ("pf_wolf", "1e6", "overflows"),
        ("r_kernel", "2.2e6", "underflows"),  # e^-741.6 is subnormal
        ("r_kernel", "1e7", "underflows"),  # e^-1581 is 0
        ("r_shanks", "2.2e6", "underflows"),
    ):
        assert cli.main(["predict", model, d]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gaplab: {model} {flow} a double at d = {float(d)}\n"


_PREDICT_CHOICES = [
    "g_cramer", "g_gauss", "g_wolf", "granville", "pf_shanks", "pf_wolf",
    "r_cramer_form", "r_kernel", "r_main_cramer", "r_main_gauss",
    "r_main_granville", "r_main_wolf", "r_shanks",
]


def _choices(subcommand, dest):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "subcommand")
    return list(next(a for a in sub.choices[subcommand]._actions if a.dest == dest).choices)


def test_model_choices_keep_their_names_and_order():
    assert _choices("predict", "predict_model") == _PREDICT_CHOICES
    assert _choices("figure1", "model") == [
        "auto", "wolf_exact_pi", "wolf_gauss", "cramer", "granville",
    ]


# r_main_<form> composed here from the plain functions, not read off MODELS
_R_MAIN = {
    "r_main_wolf": lambda x, pi_x: heuristics.r_kernel(heuristics.g_wolf(x, pi_x)),
    "r_main_gauss": lambda x: heuristics.r_kernel(heuristics.g_gauss(x)),
    "r_main_cramer": lambda x: heuristics.r_kernel(heuristics.g_cramer(x)),
    "r_main_granville": lambda x: heuristics.r_kernel(heuristics.granville_bound(x)),
}


@pytest.mark.parametrize("name", _PREDICT_CHOICES)
@pytest.mark.parametrize("x,pi_x", [(400, 78), (10**4, 1229), (123456.5, 11601)])
def test_every_predict_model_prints_its_function(capsys, name, x, pi_x):
    if name in _R_MAIN:
        takes_pi = name == "r_main_wolf"
        fn = _R_MAIN[name]
    else:
        fn, takes_pi = heuristics.MODELS[name]
    expected = fn(x, pi_x) if takes_pi else fn(x)
    argv = ["predict", name, str(x)] + ([str(pi_x)] if takes_pi else [])
    rc, out = run(capsys, *argv)
    assert rc == 0
    assert out == f"{expected:.12g}\n"


@pytest.mark.parametrize("x", ["inf", "nan"])
def test_predict_rejects_non_finite_input(capsys, x):
    assert cli.main(["predict", "r_kernel", x]) == 2
    assert cli.main(["predict", "g_wolf", "1e6", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_figure1_computed_only(capsys):
    rc, out = run(capsys, "figure1", "--limit", "130")
    assert rc == 0
    rows = data_rows(out)
    assert len(rows) == 6
    assert rows[0].split(",")[2] == "nan"  # no prediction at x = 2
    x7 = rows[2].split(",")
    assert x7[0] == "7" and float(x7[1]) == pytest.approx(0.6708734792908092)
    assert float(x7[2]) > 0


def test_figure1_with_reference(capsys, fixture_path):
    rc, out = run(capsys, "figure1", "--limit", "1e5", "--ref", fixture_path)
    assert rc == 0
    rows = data_rows(out)
    assert len(rows) == 75
    assert "# gaplab figure1" in out and "model=auto" in out
    # beyond the sieve limit the Gauss substitution takes over; still finite
    last = rows[-1].split(",")
    assert last[0] == "1425172824437699411"
    assert math.isfinite(float(last[1])) and math.isfinite(float(last[2]))
    # empirical and predicted stay within a factor two over the full range
    for row in rows[3:]:
        _, emp, pred = row.split(",")
        assert 0.5 < float(pred) / float(emp) < 2.0


def test_figure1_g_source_empirical(capsys, fixture_path):
    rc, out = run(capsys, "figure1", "--limit", "130", "--g-source", "empirical")
    assert rc == 0
    rows = data_rows(out)
    # kernel of the observed gap: first record has g = 1
    from gaplab import heuristics

    assert float(rows[0].split(",")[2]) == pytest.approx(heuristics.r_kernel(1.0))


def test_figure1_forced_exact_pi_beyond_limit_fails(capsys, fixture_path):
    rc = cli.main(
        ["figure1", "--limit", "130", "--ref", fixture_path, "--model", "wolf_exact_pi"]
    )
    assert rc == 2


def test_figure1_forced_models(capsys, fixture_path):
    from gaplab import heuristics

    for model, expected_at_113 in [
        ("cramer", heuristics.r_kernel(heuristics.g_cramer(113))),
        ("granville", heuristics.r_kernel(heuristics.granville_bound(113))),
        ("wolf_gauss", heuristics.r_kernel(heuristics.g_gauss(113))),
    ]:
        rc, out = run(capsys, "figure1", "--limit", "130", "--model", model)
        assert rc == 0
        row_113 = next(r for r in data_rows(out) if r.startswith("113,"))
        assert float(row_113.split(",")[2]) == pytest.approx(expected_at_113, rel=1e-11)


def test_figure2(capsys, fixture_path):
    rc, out = run(capsys, "figure2", "--limit", "1e5", "--ref", fixture_path)
    assert rc == 0
    rows = data_rows(out)
    assert len(rows) == 75
    header = [l for l in out.splitlines() if not l.startswith("#")][0]
    assert header == "x,R_empirical,R_cramer,R_shanks"
    for row in rows:
        x, emp, cram, shanks = row.split(",")
        assert math.isfinite(float(emp)) and math.isfinite(float(cram))
        if int(x) >= 3:
            assert math.isfinite(float(shanks))


def test_figure_outputs_are_deterministic(tmp_path, fixture_path):
    outs = []
    for threads in ("1", "4", "1"):
        path = tmp_path / f"f{threads}-{len(outs)}.csv"
        rc = cli.main(
            ["figure1", "--limit", "1e5", "--ref", fixture_path,
             "--threads", threads, "--out", str(path)]
        )
        assert rc == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_emit_gnuplot(tmp_path, fixture_path):
    csv = tmp_path / "figure2.csv"
    gp = tmp_path / "figure2.gp"
    rc = cli.main(
        ["figure2", "--limit", "130", "--out", str(csv), "--emit-gnuplot", str(gp)]
    )
    assert rc == 0
    script = gp.read_text()
    assert "plot" in script and str(csv) in script


def test_unwritable_gnuplot_path_fails_before_the_scan(tmp_path, monkeypatch, capsys, no_sieve):
    monkeypatch.chdir(tmp_path)
    argv = ["figure1", "--limit", "1e6", "--out", "x.csv",
            "--emit-gnuplot", str(tmp_path / "missing" / "x.gp")]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file or directory" in captured.err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--threads", "0"], "threads must be >= 1"),
        (["verify", "--limit", "2", "--threads", "0"], "limit must be >= 3"),
        (["table2", "--top", "0", "--threads", "0"], "top_k must be >= 1"),
    ],
)
def test_threads_flag_is_checked_after_the_scan_input(capsys, no_sieve, argv, message):
    # --threads has no effect, but a value below 1 stays a usage error
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"gaplab: {message}\n")


def test_exit_codes(tmp_path, capsys):
    bad_ref = tmp_path / "bad.txt"
    bad_ref.write_text("14 115\n")
    assert cli.main(["records", "--limit", "130", "--ref", str(bad_ref)]) == 3
    past_64_bits = tmp_path / "past.txt"
    past_64_bits.write_text("# p + g >= 2^64\n60 18446744073709551557\n")
    assert cli.main(["records", "--limit", "130", "--ref", str(past_64_bits)]) == 3
    assert "line 2: out-of-range record" in capsys.readouterr().err
    assert cli.main(["table1", "--limit", "114", "--out", "/nonexistent/x.csv"]) == 4
    assert cli.main(["nosuchcommand"]) == 2
    assert cli.main(["table1", "--limit", "2"]) == 2  # below the minimum scan bound
    assert cli.main(["constants", "--prime-limit", "3"]) == 0  # the empty product, C2=2
    missing = tmp_path / "missing.txt"
    assert cli.main(["records", "--limit", "130", "--ref", str(missing)]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--limit", "2"],
        ["table1", "--limit", "114", "--segment", "1024"],  # not a flag any more
        ["verify", "--limit", "2"],
        ["records", "--limit", "-1"],
        ["figure2", "--limit", "1", "--emit-gnuplot", "never.gp"],
        ["constants", "--prime-limit", "2"],
        ["verify", "--limit", "1e19"],
        ["verify", "--limit", "1e400"],
        ["table1", "--limit", "9223372036854775808"],
        ["predict", "g_wolf", "1e6"],
        ["predict", "r_kernel", "nan"],
        # the second run's --out names the file again by its absolute path
        ["figure2", "--limit", "1e4", "--out", "keep.csv", "--emit-gnuplot", "keep.csv"],
        ["figure1", "--limit", "1e4", "--out", "./keep.csv", "--emit-gnuplot", "keep.csv"],
    ],
)
def test_usage_errors_leave_the_output_untouched(tmp_path, monkeypatch, capsys, no_sieve, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
    keep = tmp_path / "keep.csv"
    keep.write_text("keep me\n")
    assert cli.main(argv + ["--out", str(keep)]) == 2
    assert keep.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["records", "--limit", "130", "--ref", "/nonexistent/ref.txt"], 4),
        (["records", "--limit", "130", "--ref", "bad.txt"], 3),
        (["figure1", "--limit", "1350", "--ref", "BUNDLED", "--model", "wolf_exact_pi"], 2),
    ],
    ids=["missing-ref", "bad-ref", "exact-pi-beyond-limit"],
)
def test_early_errors_leave_the_output_untouched(tmp_path, monkeypatch, fixture_path, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("14 115\n")
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"keep me\n")
    argv = [fixture_path if a == "BUNDLED" else a for a in argv]
    assert cli.main(argv) == code
    assert cli.main(argv + ["--out", str(keep)]) == code
    assert keep.read_bytes() == b"keep me\n"
    # output files the failed command created itself are removed again
    new = ["--out", "new.csv"] + (["--emit-gnuplot", "new.gp"] if argv[0] == "figure1" else [])
    assert cli.main(argv + new) == code
    assert keep.read_bytes() == b"keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "keep.csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["first-gaps", "--limit", "1e8"],
        ["table1", "--limit", "114"],
        ["records", "--limit", "130", "--ref", "bad.txt"],
        ["figure1", "--limit", "1350", "--ref", "BUNDLED", "--model", "wolf_exact_pi"],
        ["predict", "pf_wolf", "1e6"],
    ],
)
def test_unwritable_output_fails_before_the_command_runs(
    tmp_path, monkeypatch, fixture_path, capsys, no_sieve, argv
):
    # the output path is checked first, so it also beats a bad --ref or a
    # domain error of the command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("14 115\n")
    argv = [fixture_path if a == "BUNDLED" else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 4
    assert "No such file or directory" in capsys.readouterr().err


def test_usage_error_comes_before_an_unwritable_output(capsys):
    # input is checked before --out is opened, so the usage error wins
    assert cli.main(["table1", "--limit", "2", "--out", "/nonexistent/x.csv"]) == 2
    assert "limit must be >= 3" in capsys.readouterr().err


def _table1_oracle(limit):
    primes = _TABLE1_ORACLE_PRIMES[: bisect_left(_TABLE1_ORACLE_PRIMES, limit)]
    head = f"# gaplab table1 v{gaplab.__version__}\n# limit={limit}\np_n,p_n1,d_n,A_n\n"
    return head + "".join(
        f"{p},{q},{q - p},{gaps.stable_sqrt_diff(p, q):.9f}\n"
        for p, q in zip(primes, primes[1:])
    )


@settings(max_examples=40, deadline=None)
@given(
    limit=st.integers(min_value=3, max_value=_TABLE1_ORACLE_LIMIT),
    segment=st.integers(min_value=1, max_value=256),
    chunk_rows=st.integers(min_value=1, max_value=7),
)
def test_table1_bytes_match_trial_division(limit, segment, chunk_rows):
    # tiny write chunks and segments put both kinds of edge mid-output
    argv = ["table1", "--limit", str(limit)]
    out = io.StringIO()
    with (
        sieve_segments(segment),
        mock.patch.object(cli, "_TABLE1_CHUNK_ROWS", chunk_rows),
        contextlib.redirect_stdout(out),
    ):
        assert cli.main(argv) == 0
    assert out.getvalue() == _table1_oracle(limit)


def _python_rows(p, q, a):
    return "".join(f"{x},{y},{y - x},{v:.9f}\n" for x, y, v in zip(p, q, a))


_INT64 = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_INT64, _INT64).map(sorted), min_size=1, max_size=40))
def test_table1_digit_fields_match_str(pairs):
    p, q = (np.array(column, dtype=np.int64) for column in zip(*pairs))
    a = np.full(p.size, 0.25)
    rows = cli._table1_rows(p, q, a).decode("ascii")
    assert rows == _python_rows(p.tolist(), q.tolist(), a.tolist())


# exact decimal ties (dyadic a) and their neighbours, doubles nearest to a
# tie that fl(a * 1e9) rounds onto it, and A that rounds to 1
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40))
@example([2**-10])
@example([math.nextafter(2**-10, 0.0), math.nextafter(2**-10, 1.0)])
@example([(k + 0.5) / 1e9 for k in range(40)])
@example([(k + 0.5) / 1e9 for k in range(999_999_960, 1_000_000_000)])
@example([1 - 2**-53])
@example([0.9999999995])
@example([1.0])
@example([1.0000000005])
def test_table1_fraction_rule_matches_format(a):
    rows = cli._table1_rows(np.full(len(a), 7), np.full(len(a), 11), np.array(a))
    assert rows.decode("ascii") == _python_rows([7] * len(a), [11] * len(a), a)


def test_table1_rows_of_one_chunk():
    p = np.array([2, 1327, 9223372036854775000])
    q = np.array([3, 1361, 9223372036854775807])
    a = gaps.andrica_quotients(p, q)
    assert cli._table1_rows(p[:1], q[:1], a[:1]) == b"2,3,1,0.317837245\n"
    a[2] = 12.5  # past Andrica's bound: the integer part takes two digits
    assert cli._table1_rows(p, q, a) == (
        b"2,3,1,0.317837245\n"
        b"1327,1361,34,0.463722291\n"
        b"9223372036854775000,9223372036854775807,807,12.500000000\n"
    )


def test_table1_ten_digit_fields():
    # fields near 5e9 > 2^32: a 10-digit field must not take the 32-bit digit loop
    p = np.array([4999999937, 5000000029, 5000000039])
    q = np.array([5000000029, 5000000039, 5000000059])
    a = gaps.andrica_quotients(p, q)
    rows = cli._table1_rows(p, q, a).decode("ascii")
    assert rows == _python_rows(p.tolist(), q.tolist(), a.tolist())


def test_table1_formats_only_ties_and_a_past_one_in_python():
    a = [0.25, 5e-10, 0.670873479, 0.9999999995, 1.0, 1 - 2**-53, 12.5]
    with mock.patch.object(cli, "format", side_effect=format, create=True) as spy:
        rows = cli._table1_rows(np.full(len(a), 7), np.full(len(a), 11), np.array(a))
    assert [call.args for call in spy.call_args_list] == [
        (x, ".9f") for x in (5e-10, 0.9999999995, 1.0, 1 - 2**-53, 12.5)
    ]
    assert rows.decode("ascii") == _python_rows([7] * len(a), [11] * len(a), a)


def test_reference_with_a_prime_inside_a_gap_is_a_data_error(tmp_path, capsys):
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("12 139\n")  # 139 and 151 are prime, so is 149 between them
    assert cli.main(["records", "--limit", "130", "--ref", str(hidden)]) == 3
    assert "149 is a prime inside the gap" in capsys.readouterr().err


def test_scientific_notation_limits(capsys):
    rc, out = run(capsys, "verify", "--limit", "1000")
    rc2, out2 = run(capsys, "verify", "--limit", "1e3")
    assert (rc, out) == (rc2, out2)
    assert cli._parse_count("12345678901234567e0") == 12345678901234567  # past 2^53
    assert cli._parse_count("1.5e9") == 1500000000
    for text in ("nan", "inf", "1e-3", "12.5"):
        assert cli.main(["verify", "--limit", text]) == 2
    start = time.perf_counter()
    assert cli.main(["verify", "--limit", "1e999999999"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "out of range" in capsys.readouterr().err


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "t1.csv"
    rc = cli.main(["table1", "--limit", "114", "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().splitlines()[-1] == "109,113,4,0.189839304"
    # 17983 rows: three chunks, written through the file as through stdout
    argv = ["table1", "--limit", "200000"]
    rc, out = run(capsys, *argv)
    assert rc == 0 and cli.main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == out.encode("ascii")


def test_figure1_reference_record_straddling_the_limit(capsys, fixture_path):
    # the record with gap 34 after 1327 ends at 1361, past --limit 1350: the
    # scan never sees that pair, yet pi(1327) must come from the same pass
    from gaplab import heuristics, sieve

    rc, out = run(capsys, "figure1", "--limit", "1350", "--ref", fixture_path, "--model", "auto")
    assert rc == 0
    row = next(r for r in data_rows(out) if r.startswith("1327,"))
    g = heuristics.g_wolf(1327, sieve.prime_count(1327))
    assert float(row.split(",")[2]) == pytest.approx(heuristics.r_kernel(g), rel=1e-11)

    rc = cli.main(
        ["figure1", "--limit", "1350", "--ref", fixture_path, "--model", "wolf_exact_pi"]
    )
    assert rc == 2


def test_figure1_prime_counts_at_every_record_edge(fixture_path, bundled_table):
    # pi of a reference record the scan did not reach is derived from the
    # pair count; pin it wherever --limit lies around a record
    primes = trial_division_primes(0, 10**5 + 2)
    near = [(g, p) for g, p in bundled_table.records if p + g < 10**5]
    limits = sorted(
        {x for g, p in near for x in (p - 1, p, p + 1, p + g - 1, p + g, p + g + 1) if x >= 3}
    )
    assert len(limits) > 60
    with mock.patch.object(cli, "_load_reference", return_value=bundled_table):
        for limit in limits:
            cfg = cli.RunConfig("figure1", limit=limit, reference_path=fixture_path)
            table, pi = cli._record_table(cfg)
            for rec in table.records:
                if rec.p_L <= limit:
                    assert pi[rec.p_L] == bisect_left(primes, rec.p_L), (limit, rec.p_L)


@pytest.mark.parametrize("command", ["table2", "figure1"])
def test_one_sieve_pass_from_zero(monkeypatch, capsys, fixture_path, command):
    from gaplab import sieve

    calls = []
    iter_masks = sieve._iter_masks

    def counting(starts):
        if starts.start == 0:  # base-prime growth sieves from above 10, not from 0
            calls.append((starts.start, starts.stop))
        return iter_masks(starts)

    monkeypatch.setattr(sieve, "_iter_masks", counting)
    argv = [command, "--limit", "1e5"] + (["--ref", fixture_path] if command == "figure1" else [])
    rc, _ = run(capsys, *argv)
    assert rc == 0
    assert calls == [(0, 10**5)]
