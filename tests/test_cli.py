import contextlib
import io
import math
from bisect import bisect_left
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaplab
from gaplab import cli, gaps
from tests.conftest import trial_division_primes

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
    rows = data_rows(out)
    assert len(rows) == 6
    assert rows[0].startswith("1,2,3,")
    assert rows[-1].startswith("14,113,127,")

    rc, out = run(capsys, "records", "--limit", "130", "--ref", fixture_path)
    assert rc == 0
    assert len(data_rows(out)) == 75


def test_first_gaps(capsys):
    rc, out = run(capsys, "first-gaps", "--limit", "130")
    assert rc == 0
    assert data_rows(out) == ["1,2", "2,3", "4,7", "6,23", "8,89", "14,113"]


def test_verify(capsys):
    rc, out = run(capsys, "verify", "--limit", "1e3")
    assert rc == 0
    assert out == "all_below_one=true max_A=0.670873479 at=(7,11) count=167\n"


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
        ("cramer", heuristics.r_main(113, heuristics.GapModel(heuristics.GapModelKind.CRAMER))),
        ("granville", heuristics.r_main(113, heuristics.GapModel(heuristics.GapModelKind.GRANVILLE))),
        ("wolf_gauss", heuristics.r_main(113, heuristics.GapModel(heuristics.GapModelKind.WOLF_GAUSS))),
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


def test_exit_codes(tmp_path, capsys):
    bad_ref = tmp_path / "bad.txt"
    bad_ref.write_text("14 115\n")
    assert cli.main(["records", "--limit", "130", "--ref", str(bad_ref)]) == 3
    capsys.readouterr()
    assert cli.main(["table1", "--limit", "114", "--out", "/nonexistent/x.csv"]) == 4
    assert cli.main(["nosuchcommand"]) == 2
    assert cli.main(["table1", "--limit", "2"]) == 2  # below the minimum scan bound
    missing = tmp_path / "missing.txt"
    assert cli.main(["records", "--limit", "130", "--ref", str(missing)]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--limit", "2"],
        ["table1", "--limit", "114", "--segment", "0"],
        ["verify", "--limit", "2"],
        ["records", "--limit", "-1", "--segment", "-5"],
        ["figure2", "--limit", "1", "--emit-gnuplot", "never.gp"],
        ["constants", "--prime-limit", "2"],
        ["predict", "g_wolf", "1e6"],
        ["predict", "r_kernel", "nan"],
    ],
)
def test_usage_errors_leave_the_output_untouched(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
    keep = tmp_path / "keep.csv"
    keep.write_text("keep me\n")
    assert cli.main(argv + ["--out", str(keep)]) == 2
    assert keep.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


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
    threads=st.sampled_from([1, 2]),
    chunk_rows=st.integers(min_value=1, max_value=7),
)
def test_table1_bytes_match_trial_division(limit, segment, threads, chunk_rows):
    # tiny write chunks and segments put both kinds of edge mid-output
    argv = ["table1", "--limit", str(limit), "--segment", str(segment), "--threads", str(threads)]
    out = io.StringIO()
    with mock.patch.object(cli, "_TABLE1_CHUNK_ROWS", chunk_rows), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == _table1_oracle(limit)


@pytest.mark.parametrize("segment", ["-5", "0"])
def test_bad_segment_length_is_a_usage_error(capsys, segment):
    assert cli.main(["verify", "--limit", "1e6", "--segment", segment]) == 2
    assert cli.main(["table1", "--limit", "114", "--segment", segment]) == 2
    captured = capsys.readouterr()
    assert "count=" not in captured.out
    assert "segment length must be >= 1" in captured.err


def test_reference_with_a_prime_inside_a_gap_is_a_data_error(tmp_path, capsys):
    hidden = tmp_path / "hidden.txt"
    hidden.write_text("12 139\n")  # 139 and 151 are prime, so is 149 between them
    assert cli.main(["records", "--limit", "130", "--ref", str(hidden)]) == 3
    assert "149 is a prime inside the gap" in capsys.readouterr().err


def test_scientific_notation_limits(capsys):
    rc, out = run(capsys, "verify", "--limit", "1000")
    rc2, out2 = run(capsys, "verify", "--limit", "1e3")
    assert (rc, out) == (rc2, out2)
    assert cli.main(["verify", "--limit", "12.5"]) == 2


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "t1.csv"
    rc = cli.main(["table1", "--limit", "114", "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().splitlines()[-1] == "109,113,4,0.189839304"


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


@pytest.mark.parametrize("command", ["table2", "figure1"])
def test_one_sieve_pass_from_zero(monkeypatch, capsys, fixture_path, command):
    from gaplab import sieve

    calls = []
    iter_masks = sieve._iter_masks

    def counting(lo, hi, *args, **kwargs):
        if lo == 0:  # base-prime growth sieves from above 10, not from 0
            calls.append((lo, hi))
        return iter_masks(lo, hi, *args, **kwargs)

    monkeypatch.setattr(sieve, "_iter_masks", counting)
    argv = [command, "--limit", "1e5"] + (["--ref", fixture_path] if command == "figure1" else [])
    rc, _ = run(capsys, *argv)
    assert rc == 0
    assert calls == [(0, 10**5)]
