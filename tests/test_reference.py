import math

import pytest

from gaplab import gaps, reference
from gaplab.reference import (
    ConsistencyError,
    ParseError,
    ReferenceTable,
    ValidationError,
    merge_records,
    parse_reference_table,
    r_points_from_reference,
)
from tests.conftest import sqrt_diff_oracle


def test_parse_single_line():
    table = parse_reference_table("1476 1425172824437699411\n")
    assert table.records == ((1476, 1425172824437699411),)


def test_parse_comments_blanks_and_tabs():
    text = "# header\n\n1 2\n2\t3   # trailing comment\n\n  4   7\n"
    table = parse_reference_table(text)
    assert table.records == ((1, 2), (2, 3), (4, 7))


def test_parse_accepts_file_objects(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 2\n2 3\n")
    with open(path) as fh:
        assert parse_reference_table(fh).records == ((1, 2), (2, 3))


@pytest.mark.parametrize(
    "line",
    [
        "14", "14 113 7", "14 x113", "fourteen 113", "0 2", "2 1",
        "60 18446744073709551557",  # p + g >= 2^64, past the primality test's range
        "2 99999999999999999999",
    ],
)
def test_parse_errors_carry_line_numbers(line):
    with pytest.raises(ParseError) as info:
        parse_reference_table(f"# ok\n{line}\n")
    assert info.value.line_no == 2


def test_composite_entry_is_a_validation_error():
    with pytest.raises(ValidationError, match="115 is not prime"):
        parse_reference_table("14 115\n")
    with pytest.raises(ValidationError, match="141 = p \\+ gap is not prime"):
        parse_reference_table("14 127\n")


def test_non_monotone_is_a_validation_error():
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_reference_table("4 7\n2 3\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_reference_table("4 7\n6 5\n")  # gap up, prime down


def test_bundled_table(bundled_table):
    assert len(bundled_table.records) == 75
    assert bundled_table.records[0] == (1, 2)
    assert bundled_table.records[-1] == (1476, 1425172824437699411)


def test_bundled_prefix_matches_computed_records(bundled_table):
    limit = 10**6
    computed = gaps.max_gap_records(limit)
    expected = [(g, p) for g, p in bundled_table.records if p + g < limit]
    assert [(r.g, r.p_L) for r in computed.records] == expected


def test_merge_with_bundled(bundled_table):
    computed = gaps.max_gap_records(10**6)
    merged = merge_records(computed, bundled_table)
    assert len(merged.records) == 75
    assert [(r.g, r.p_L) for r in merged.records] == list(bundled_table.records)


def test_merge_with_empty_reference():
    computed = gaps.max_gap_records(10**4)
    merged = merge_records(computed, ReferenceTable(records=()))
    assert [(r.g, r.p_L) for r in merged.records] == [
        (r.g, r.p_L) for r in computed.records
    ]


def test_merge_conflict():
    computed = gaps.max_gap_records(130)  # contains (14, 113)
    clash = ReferenceTable(records=((14, 127),))  # built directly; cannot parse
    with pytest.raises(ConsistencyError, match=r"gap 14: computed p=113, reference p=127"):
        merge_records(computed, clash)


def test_merge_rejects_semantic_breaks():
    # a reference gap missing from the computed range would order primes backwards
    computed = gaps.max_gap_records(130)
    bad = ReferenceTable(records=((16, 97),))  # valid pair arithmetically
    with pytest.raises(ConsistencyError):
        merge_records(computed, bad)


def test_r_points_examples(bundled_table):
    points = dict(r_points_from_reference(bundled_table))
    assert f"{points[2]:.9f}" == "0.317837245"
    assert f"{points[113]:.7f}" == "0.6392819"


def test_r_points_stability_at_reference_scale(bundled_table):
    for g, p in bundled_table.records[-5:]:
        mine = dict(r_points_from_reference(bundled_table))[p]
        oracle = sqrt_diff_oracle(p, p + g)
        assert math.isclose(mine, oracle, rel_tol=1e-14)


def test_all_reference_r_values_in_range(bundled_table):
    values = [r for _, r in r_points_from_reference(bundled_table)]
    assert all(0 < r <= 0.671 for r in values)
