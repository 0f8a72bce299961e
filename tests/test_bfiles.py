"""b-file parsing/emission, crosschecks, fixtures, and the fetch path."""

import sys
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubini import bfiles, sequences
from fubini.bfiles import (
    BFile,
    BFileParseError,
    OfflineError,
    computed_table,
    crosscheck,
    emit_bfile,
    fetch_bfile,
    fixture_ids,
    load_fixture,
    parse_bfile,
)
from fubini.sequences import SequenceTable


# -- parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_bfile(None), "text must be str or bytes, got NoneType"),
        (lambda: emit_bfile(None), "table must be SequenceTable, got NoneType"),
        (lambda: crosscheck(None, None, 3), "computed must be SequenceTable, got NoneType"),
        (
            lambda: crosscheck(SequenceTable("x", 0, (1,)), None, 3),
            "reference must be BFile, got NoneType",
        ),
        (lambda: load_fixture(None), "sequence_id must be str, got NoneType"),
    ],
    ids=["parse_bfile", "emit_bfile", "crosscheck", "crosscheck-reference", "load_fixture"],
)
def test_bfile_api_names_the_expected_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_parse_basic():
    bfile = parse_bfile("0 1\n1 1\n2 3\n", "A000670")
    assert bfile.sequence_id == "A000670"
    assert bfile.entries == ((0, 1), (1, 1), (2, 3))
    assert bfile.first_index == 0
    assert bfile.last_index == 2
    assert bfile.value(2) == 3


def test_parse_skips_comments_and_blanks():
    text = "# comment line\n\n1 1\n2 5\n\n# trailing\n"
    assert parse_bfile(text).entries == ((1, 1), (2, 5))


def test_parse_accepts_bytes_and_negative_indices():
    assert parse_bfile(b"-1 4\n0 -7\n").entries == ((-1, 4), (0, -7))


def test_parse_rejects_index_gap():
    with pytest.raises(BFileParseError, match="line 2.*not consecutive"):
        parse_bfile("1 1\n3 13\n")


def test_parse_rejects_bad_tokens():
    with pytest.raises(BFileParseError, match="line 1.*non-integer"):
        parse_bfile("zero 1\n")
    with pytest.raises(BFileParseError, match="line 2.*expected"):
        parse_bfile("0 1\n1 2 3\n")
    with pytest.raises(BFileParseError, match="line 3"):
        parse_bfile("# ok\n5 5\n6\n")


def test_parse_rejects_non_ascii_bytes_naming_the_line():
    with pytest.raises(BFileParseError, match="line 1.*non-ASCII"):
        parse_bfile(b"1 \xff\n")
    with pytest.raises(BFileParseError, match="line 3.*non-ASCII"):
        parse_bfile(b"# header\r\n1 1\r\n2 \xe9\r\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        pytest.param("0 1_000\n", 1, id="underscore"),
        pytest.param("0 1\n1 \u0663\n", 2, id="arabic-indic-digit"),
        pytest.param("0 \uff15\n", 1, id="fullwidth-digit"),
        pytest.param("0 1\n1 1\n2 +5\n", 3, id="plus-value"),
        pytest.param("+0 1\n", 1, id="plus-index"),
    ],
)
def test_parse_accepts_only_ascii_decimal_integers(text, lineno):
    with pytest.raises(BFileParseError, match=f"line {lineno}: non-integer"):
        parse_bfile(text)


def test_parse_accepts_ascii_spaces_tabs_and_crlf():
    assert parse_bfile("0\t1\r\n 1  5 \r\n\t2 \t 13\t\n").entries == ((0, 1), (1, 5), (2, 13))


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("0\u00a01\n1\u20035\n", "line 1: expected", id="nbsp-separator"),
        pytest.param("0 1\n1\u20035\n", "line 2: expected", id="em-space-separator"),
        pytest.param("0 1\u00a0\n", "line 1: non-integer", id="trailing-nbsp"),
        pytest.param("\u3000 0 1\n", "line 1: expected", id="leading-ideographic-space"),
        pytest.param("0 1\u20281 5\n", "line 1: expected", id="line-separator"),
    ],
)
def test_parse_rejects_non_ascii_whitespace(text, message):
    with pytest.raises(BFileParseError, match=message):
        parse_bfile(text)


@pytest.fixture
def digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_parse_names_the_digit_limit(digit_limit):
    assert parse_bfile("0 " + "9" * digit_limit).entries == ((0, 10**digit_limit - 1),)
    with pytest.raises(BFileParseError, match=f"line 2: .*{digit_limit}-digit limit"):
        parse_bfile("0 1\n1 1" + "0" * digit_limit)


def test_emit_names_the_digit_limit(digit_limit):
    with pytest.raises(ValueError, match=f"index 4: .*{digit_limit}-digit limit"):
        emit_bfile(SequenceTable("x", 3, (1, 10**digit_limit)))


def test_value_rejects_index_outside_range():
    bfile = parse_bfile("5 50\n6 60\n7 70\n")
    assert [bfile.value(i) for i in (5, 6, 7)] == [50, 60, 70]
    for index in (4, -1, 8):
        with pytest.raises(ValueError, match=f"index {index} is outside 5..7"):
            bfile.value(index)


def test_value_and_offset_require_an_integer():
    bfile = parse_bfile("5 50\n6 60\n7 70\n")
    with pytest.raises(TypeError, match="^index must be an integer, got float$"):
        bfile.value(6.0)
    with pytest.raises(TypeError, match="^offset must be an integer, got float$"):
        SequenceTable("x", 1.5, (1, 2))
    assert parse_bfile("-2 4\n-1 5\n").value(-1) == 5
    assert emit_bfile(SequenceTable("x", -2, (1, 2))) == "-2 1\n-1 2\n"
    assert emit_bfile(SequenceTable("x", True, (7,))) == "1 7\n"


@pytest.mark.parametrize("value", [1.5, 2.0, "3", None])
def test_table_values_must_be_integers(value):
    # emit_bfile would write "0 1.5", which parse_bfile rejects
    with pytest.raises(TypeError, match=f"^value must be an integer, got {type(value).__name__}$"):
        SequenceTable("x", 0, (1, value))
    assert SequenceTable("x", 0, (True, 2)).values == (1, 2)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((), "at least one entry"),
        (((0, 5), (2, 7)), r"index 2 not consecutive \(gap after 0\)"),
        (((3, 1), (4, 1), (4, 2)), r"index 4 not consecutive \(gap after 4\)"),
    ],
)
def test_bfile_rejects_empty_or_non_consecutive_entries(entries, message):
    # a gap would make value(1) return the entry at 2, and crosscheck trust it
    with pytest.raises(ValueError, match=message):
        BFile("A000001", entries)


def test_parse_rejects_empty_input():
    with pytest.raises(BFileParseError, match="no data"):
        parse_bfile("# nothing but comments\n")


# -- emission --------------------------------------------------------------


def test_emit_examples():
    table = SequenceTable("bell", 0, (1, 1, 3))
    assert emit_bfile(table) == "0 1\n1 1\n2 3\n"
    assert emit_bfile(SequenceTable("empty", 0, ())) == ""


def test_emit_parse_roundtrip():
    table = SequenceTable("demo", 5, (9, -8, 7, 0))
    parsed = parse_bfile(emit_bfile(table), "demo")
    assert parsed.entries == ((5, 9), (6, -8), (7, 7), (8, 0))


@given(
    st.integers(min_value=-3, max_value=10),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_emit_parse_roundtrip_property(offset, values):
    table = SequenceTable("t", offset, tuple(values))
    parsed = parse_bfile(emit_bfile(table))
    assert [v for _, v in parsed.entries] == values
    assert parsed.first_index == offset


# digits, signs, separators and look-alikes that reach every branch of the line parser
_BFILE_LIKE = st.text(alphabet="0123456789-+ \t\r\n#_x\u00a0\u0663", max_size=80)


@given(st.one_of(st.text(), st.binary(), _BFILE_LIKE, _BFILE_LIKE.map(str.encode)))
@settings(max_examples=150)
def test_parse_returns_a_bfile_or_raises_parse_error(text):
    try:
        parsed = parse_bfile(text)
    except BFileParseError:
        return
    assert isinstance(parsed, BFile)


# -- computed tables and crosschecks ----------------------------------------


def test_computed_table_bell():
    table = computed_table("A000670", 5)
    assert table.offset == 0
    assert table.values == (1, 1, 3, 13, 75, 541)


def test_computed_table_stirling_flattening():
    table = computed_table("A008277", 10)
    assert table.offset == 1
    assert table.values == (1, 1, 1, 1, 3, 1, 1, 7, 6, 1)


def test_computed_table_worpitzky_flattening():
    table = computed_table("A130850", 9)
    assert table.offset == 0
    assert table.values == (1, 1, 1, 1, 3, 2, 1, 7, 12, 6)


def test_computed_table_rejects_unknown_or_bad():
    with pytest.raises(ValueError, match="invalid OEIS sequence id"):
        computed_table("X123", 5)
    with pytest.raises(ValueError, match="no computable sequence"):
        computed_table("A000001", 5)
    with pytest.raises(ValueError, match="limit"):
        computed_table("A008277", 0)


def test_crosscheck_pass_and_clamping():
    reference = parse_bfile("0 1\n1 1\n2 3\n3 13\n", "A000670")
    table = computed_table("A000670", 10)
    report = crosscheck(table, reference, 10)
    assert report.passed
    assert report.identity_id == "oeis.A000670"
    assert report.range_checked == (0, 3)  # clamped to the reference overlap

    clamped = crosscheck(table, reference, 1)
    assert clamped.range_checked == (0, 1)


def test_crosscheck_detects_offset_injection():
    reference = load_fixture("A000670")
    values = tuple(sequences.ordered_bell(n) for n in range(10))
    shifted = SequenceTable("A000670", 1, values)  # off-by-one offset
    report = crosscheck(shifted, reference, 10)
    assert not report.passed
    n, expected, actual = report.first_failure
    assert n == 2  # first index where the shift is visible: B(2)=3 vs B(1)=1
    assert (expected, actual) == (3, 1)


def test_crosscheck_detects_value_mismatch():
    reference = parse_bfile("0 1\n1 1\n2 4\n")
    table = computed_table("A000670", 5)
    report = crosscheck(table, reference, 5)
    assert not report.passed
    assert report.first_failure == (2, 4, 3)


def test_crosscheck_empty_overlap_is_error():
    reference = parse_bfile("50 1\n51 2\n")
    table = computed_table("A000670", 5)
    with pytest.raises(ValueError, match="no overlapping indices"):
        crosscheck(table, reference, 60)
    with pytest.raises(ValueError, match="limit"):
        crosscheck(table, reference, -1)


# -- bundled fixtures --------------------------------------------------------


def test_fixture_inventory():
    assert fixture_ids() == ("A000670", "A008277", "A130850")
    with pytest.raises(ValueError, match="no bundled fixture"):
        load_fixture("A000001")


@pytest.mark.parametrize(
    "sequence_id, minimum_entries",
    [("A000670", 20), ("A008277", 50), ("A130850", 20)],
)
def test_fixture_crosschecks_pass(sequence_id, minimum_entries):
    reference = load_fixture(sequence_id)
    assert len(reference.entries) >= minimum_entries
    assert len(reference.entries) <= 100  # fixtures stay desk-sized
    table = computed_table(sequence_id, reference.last_index)
    report = crosscheck(table, reference, reference.last_index)
    assert report.passed, report.format_line()
    lo, hi = report.range_checked
    assert hi - lo + 1 == len(reference.entries)


# -- fetch -----------------------------------------------------------------


class _FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def read(self):
        return self._payload

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def test_fetch_requires_network_flag(tmp_path):
    with pytest.raises(OfflineError, match="offline mode"):
        fetch_bfile("A000670", cache_dir=tmp_path)


def test_fetch_rejects_malformed_id(tmp_path):
    with pytest.raises(ValueError, match="invalid OEIS sequence id"):
        fetch_bfile("X123", network=True, cache_dir=tmp_path)


def test_fetch_downloads_parses_and_caches(monkeypatch, tmp_path):
    payload = b"0 1\n1 1\n2 3\n"
    urls = []

    def fake_urlopen(request, timeout=None):
        urls.append(request.full_url)
        return _FakeResponse(payload)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)

    bfile = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert bfile.entries == ((0, 1), (1, 1), (2, 3))
    assert urls == ["https://oeis.org/A000670/b000670.txt"]
    cached = tmp_path / "b000670.txt"
    assert cached.read_bytes() == payload
    assert not list(tmp_path.glob("*.tmp"))

    # second call is served from the cache, no new request
    again = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert again.entries == bfile.entries
    assert len(urls) == 1


def test_fetch_does_not_cache_malformed_payload(monkeypatch, tmp_path):
    def fake_urlopen(request, timeout=None):
        return _FakeResponse(b"0 1\n5 99\n")

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    with pytest.raises(BFileParseError):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert not (tmp_path / "b000670.txt").exists()


def test_fetch_rejects_corrupt_cache_naming_the_line(tmp_path):
    (tmp_path / "b000670.txt").write_bytes("0 1\n1 \u00e9\n".encode("utf-8"))
    with pytest.raises(BFileParseError, match="line 2.*non-ASCII"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)


def test_fetch_cache_hit_still_requires_network(monkeypatch, tmp_path):
    (tmp_path / "b000670.txt").write_text("0 1\n1 1\n", "ascii")
    with pytest.raises(OfflineError):
        fetch_bfile("A000670", cache_dir=tmp_path)
    # with the flag, the cache short-circuits any request
    monkeypatch.setattr(
        urllib.request,
        "urlopen",
        lambda *a, **k: pytest.fail("must not hit the network on a cache hit"),
    )
    bfile = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert bfile.entries == ((0, 1), (1, 1))
