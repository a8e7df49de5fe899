"""The artifact layer: each encoding reads back what it wrote for any Unicode
text, and a malformed file fails naming the file, plus the line for the line
formats."""

import pytest
from hypothesis import given, strategies as st

from quotematch.artifacts import (
    VersionMismatchError,
    check_record,
    read_csv,
    read_json,
    read_jsonl,
    read_lines,
    write_csv,
    write_json,
    write_jsonl,
)

# Any code point except lone surrogates, which UTF-8 cannot encode.
ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=10)


@given(st.lists(st.lists(ANY_TEXT, min_size=1, max_size=4), max_size=6))
def test_csv_roundtrip_any_unicode(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "a.csv"
    write_csv(path, ["h"], rows)
    assert [row for _, row in read_csv(path)] == [["h"]] + rows


def test_csv_plain_rows_are_comma_joined(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ("a", "b"), [("1", ""), ("x y", "0.5")])
    assert path.read_bytes() == b"a,b\n1,\nx y,0.5\n"


def test_read_csv_numbers_physical_lines_and_skips_empty_lines(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text('h\n\n"multi\nline",x\nlast\n', encoding="utf-8")
    assert list(read_csv(path)) == [(1, ["h"]), (4, ["multi\nline", "x"]), (5, ["last"])]


@given(
    st.lists(
        st.dictionaries(ANY_TEXT, ANY_TEXT | st.integers() | st.floats(allow_nan=False)),
        max_size=5,
    )
)
def test_jsonl_roundtrip_any_unicode_keeps_key_order(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("jsonl") / "a.jsonl"
    write_jsonl(path, records)
    assert path.read_bytes().count(b"\n") == len(records)
    read = list(read_jsonl(path))
    assert [line_no for line_no, _ in read] == list(range(1, len(records) + 1))
    assert [value for _, value in read] == records
    assert [list(value) for _, value in read] == [list(record) for record in records]


@given(st.dictionaries(ANY_TEXT, ANY_TEXT))
def test_json_roundtrip_any_unicode(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "a.json"
    write_json(path, {"format_version": 1, "payload": payload})
    assert read_json(path, ("payload", "format_version"), 1)["payload"] == payload


@pytest.mark.parametrize(
    "content, error, message",
    [
        (b'{"format_version": 1', ValueError, r"a\.json: Expecting"),
        (b"\xff{}", ValueError, r"a\.json: 'utf-8' codec"),
        (b"[1, 2]", ValueError, r"a\.json: expected a JSON object, got list"),
        (b'{"format_version": 1}', ValueError, r"a\.json: missing key 'k'"),
        (b'{"k": 1}', ValueError, r"a\.json: missing key 'format_version'"),
        (b'{"format_version": 99}', VersionMismatchError, r"a\.json: format version 99, expected"),
    ],
)
def test_read_json_errors_name_the_file(tmp_path, content, error, message):
    path = tmp_path / "a.json"
    path.write_bytes(content)
    with pytest.raises(error, match=message):
        read_json(path, ("k", "format_version"), 1)


def test_line_format_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_bytes(b'{"k": 1}\n\n{"k": \n')
    with pytest.raises(ValueError, match=r"a\.jsonl: line 3: Expecting value"):
        list(read_jsonl(path))
    path.write_bytes(b'{"k": 1}\n\xff\n')
    with pytest.raises(ValueError, match=r"a\.jsonl: 'utf-8' codec"):
        list(read_jsonl(path))
    with pytest.raises(ValueError, match=r"v\.jsonl: line 3: expected a JSON object, got list"):
        check_record("v.jsonl", 3, [], ("k",))
    with pytest.raises(ValueError, match=r"v\.jsonl: line 3: missing key 'k'"):
        check_record("v.jsonl", 3, {}, ("k",))
    path = tmp_path / "a.csv"
    path.write_bytes(b"h\nok\n\xff\n")
    with pytest.raises(ValueError, match=r"a\.csv: 'utf-8' codec"):
        list(read_csv(path))


def test_read_lines_strips_bom_and_blank_lines_and_names_the_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes("\ufeffq1\n\n  \n q2 \r\nقال\n".encode("utf-8"))
    assert read_lines(path) == ["q1", "q2", "قال"]
    path.write_bytes(b"q1\n\xff\n")
    with pytest.raises(ValueError, match=r"a\.txt: 'utf-8' codec"):
        read_lines(path)
