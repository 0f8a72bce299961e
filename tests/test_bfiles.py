"""b-file parsing/emission, crosschecks, fixtures, and the fetch path."""

import inspect
import sys
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubini import ArgumentError, bfiles, sequences
from fubini.bfiles import (
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
from fubini.cli import main
from fubini.sequences import SequenceTable


# -- parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_bfile(None), "text must be str or bytes, got NoneType"),
        (lambda: parse_bfile("0 1\n", 5), "sequence_id must be str, got int"),
        (lambda: emit_bfile(None), "table must be SequenceTable, got NoneType"),
        (lambda: crosscheck(None, None), "computed must be SequenceTable, got NoneType"),
        (
            lambda: crosscheck(SequenceTable("x", 0, (1,)), None),
            "reference must be SequenceTable, got NoneType",
        ),
        (lambda: load_fixture(None), "sequence_id must be str, got NoneType"),
        (lambda: SequenceTable(5, 0, ()), "name must be str, got int"),
        (lambda: SequenceTable("A", 0, 5), "values must be Iterable, got int"),
        # a set would be stored, and emitted as indices 0..n-1, in hash order;
        # a mapping would give its keys
        (
            lambda: SequenceTable("A", 0, {10**20 + 7, 3, 2**70}),
            "values must be an ordered Iterable, got set",
        ),
        (lambda: SequenceTable("A", 0, {3: 0, 1: 0}), "values must be an ordered Iterable, got dict"),
    ],
    ids=[
        "parse_bfile",
        "parse_bfile-sequence_id",
        "emit_bfile",
        "crosscheck",
        "crosscheck-reference",
        "load_fixture",
        "SequenceTable-name",
        "SequenceTable-values",
        "SequenceTable-values-set",
        "SequenceTable-values-dict",
    ],
)
def test_bfile_api_names_the_expected_type(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


def test_parse_basic():
    table = parse_bfile("0 1\n1 1\n2 3\n", "A000670")
    assert table == SequenceTable("A000670", 0, (1, 1, 3))
    assert table.last_index == 2


def test_parse_skips_comments_and_blanks():
    text = "# comment line\n\n1 1\n2 5\n\n# trailing\n"
    assert parse_bfile(text) == SequenceTable("", 1, (1, 5))


def test_parse_accepts_bytes_and_negative_indices():
    assert parse_bfile(b"-1 4\n0 -7\n") == SequenceTable("", -1, (4, -7))


def test_parse_rejects_index_gap():
    with pytest.raises(BFileParseError, match="line 2.*not consecutive"):
        parse_bfile("1 1\n3 13\n")
    with pytest.raises(BFileParseError, match=r"^line 3: index 4 not consecutive \(gap after 4\)$"):
        parse_bfile("3 1\n4 1\n4 2\n")


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
    assert parse_bfile("0\t1\r\n 1  5 \r\n\t2 \t 13\t\n").values == (1, 5, 13)


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
    assert parse_bfile("0 " + "9" * digit_limit).values == (10**digit_limit - 1,)
    with pytest.raises(BFileParseError, match=f"line 2: .*{digit_limit}-digit limit"):
        parse_bfile("0 1\n1 1" + "0" * digit_limit)


def test_emit_names_the_digit_limit(digit_limit):
    with pytest.raises(ValueError, match=f"index 4: .*{digit_limit}-digit limit"):
        emit_bfile(SequenceTable("x", 3, (1, 10**digit_limit)))


def test_value_and_offset_require_an_integer():
    with pytest.raises(TypeError, match="^offset must be an integer, got float$"):
        SequenceTable("x", 1.5, (1, 2))
    assert parse_bfile("-2 4\n-1 5\n") == SequenceTable("", -2, (4, 5))
    assert emit_bfile(SequenceTable("x", -2, (1, 2))) == "-2 1\n-1 2\n"
    assert emit_bfile(SequenceTable("x", True, (7,))) == "1 7\n"


@pytest.mark.parametrize("value", [1.5, 2.0, "3", None])
def test_table_values_must_be_integers(value):
    # emit_bfile would write "0 1.5", which parse_bfile rejects
    with pytest.raises(TypeError, match=f"^value must be an integer, got {type(value).__name__}$"):
        SequenceTable("x", 0, (1, value))
    assert SequenceTable("x", 0, (True, 2)).values == (1, 2)


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
    assert parse_bfile(emit_bfile(table), "demo") == table


@given(
    st.integers(min_value=-3, max_value=10),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_emit_parse_roundtrip_property(offset, values):
    table = SequenceTable("t", offset, values)
    assert parse_bfile(emit_bfile(table), "t") == table


# digits, signs, separators and look-alikes that reach every branch of the line parser
_BFILE_LIKE = st.text(alphabet="0123456789-+ \t\r\n#_x\u00a0\u0663", max_size=80)


@given(st.one_of(st.text(), st.binary(), _BFILE_LIKE, _BFILE_LIKE.map(str.encode)))
@settings(max_examples=150)
def test_parse_returns_a_bfile_or_raises_parse_error(text):
    try:
        parsed = parse_bfile(text)
    except BFileParseError:
        return
    assert isinstance(parsed, SequenceTable) and parsed.values


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
    # an id is "A" and six ASCII digits, the whole string
    fullwidth = "A\uff10\uff10\uff10\uff16\uff17\uff10"
    for bad in ("X123", "A00067", "A0000670", "a000670", "A000670\n", " A000670", fullwidth):
        with pytest.raises(ValueError, match="invalid OEIS sequence id"):
            computed_table(bad, 5)
    with pytest.raises(ValueError, match="no computable sequence"):
        computed_table("A000001", 5)
    with pytest.raises(ValueError, match="limit"):
        computed_table("A008277", 0)


def test_crosscheck_pass_and_clamping():
    reference = parse_bfile("0 1\n1 1\n2 3\n3 13\n", "A000670")
    table = computed_table("A000670", 10)
    report = crosscheck(table, reference)
    assert report.passed
    assert report.identity_id == "oeis.A000670"
    assert report.range_checked == (0, 3)  # clamped to the reference overlap

    clamped = crosscheck(computed_table("A000670", 1), reference)
    assert clamped.range_checked == (0, 1)  # clamped to the computed overlap


def test_crosscheck_detects_offset_injection():
    reference = load_fixture("A000670")
    values = tuple(sequences.ordered_bell(n) for n in range(10))
    shifted = SequenceTable("A000670", 1, values)  # off-by-one offset
    report = crosscheck(shifted, reference)
    assert not report.passed
    n, expected, actual = report.first_failure
    assert n == 2  # first index where the shift is visible: B(2)=3 vs B(1)=1
    assert (expected, actual) == (3, 1)


def test_crosscheck_detects_value_mismatch():
    reference = parse_bfile("0 1\n1 1\n2 4\n")
    table = computed_table("A000670", 5)
    report = crosscheck(table, reference)
    assert not report.passed
    assert report.first_failure == (2, 4, 3)


def test_crosscheck_empty_overlap_is_error():
    reference = parse_bfile("50 1\n51 2\n")
    table = computed_table("A000670", 5)
    with pytest.raises(ValueError, match="no overlapping indices"):
        crosscheck(table, reference)
    with pytest.raises(ValueError, match="no overlapping indices"):
        crosscheck(SequenceTable("x", 0, ()), load_fixture("A000670"))


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
    assert len(reference.values) >= minimum_entries
    assert len(reference.values) <= 100  # fixtures stay desk-sized
    table = computed_table(sequence_id, reference.last_index)
    report = crosscheck(table, reference)
    assert report.passed, report.format_line()
    assert report.range_checked == (reference.offset, reference.last_index)


# -- fetch -----------------------------------------------------------------


class _FakeResponse:
    def __init__(self, payload):
        self._payload = payload

    def read1(self, size=-1):
        size = len(self._payload) if size < 0 else size
        chunk, self._payload = self._payload[:size], self._payload[size:]
        return chunk

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


def test_fetch_takes_no_timeout_argument(monkeypatch, tmp_path):
    # one fixed bound, bfiles._TIMEOUT_S: no keyword reaches the network
    params = inspect.signature(fetch_bfile).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == [
        ("sequence_id", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("network", "KEYWORD_ONLY", False),
        ("cache_dir", "KEYWORD_ONLY", None),
    ]
    assert bfiles._TIMEOUT_S == 30
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    with pytest.raises(TypeError, match="unexpected keyword argument 'timeout'"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path, timeout=5)
    assert list(tmp_path.iterdir()) == []


def test_fetch_downloads_parses_and_caches(monkeypatch, tmp_path):
    payload = b"0 1\n1 1\n2 3\n"
    urls = []

    def fake_urlopen(request, timeout=None):
        urls.append((request.full_url, timeout))
        return _FakeResponse(payload)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)

    table = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert table == SequenceTable("A000670", 0, (1, 1, 3))
    assert urls == [("https://oeis.org/A000670/b000670.txt", 30)]
    cached = tmp_path / "b000670.txt"
    assert cached.read_bytes() == payload
    assert not list(tmp_path.glob("*.tmp"))

    # second call is served from the cache, no new request
    again = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert again == table
    assert len(urls) == 1


def test_fetch_leaves_no_file_when_the_cache_write_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: _FakeResponse(b"0 1\n1 1\n"))

    def failing_replace(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(bfiles.os, "replace", failing_replace)
    with pytest.raises(PermissionError, match="^rename refused$"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []  # no *.tmp file and no b000670.txt


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


_SEVENTEEN_BYTES = b"0 1\n1 1\n2 3\n3 13\n"


def test_fetch_refuses_a_cache_entry_one_byte_over_the_cap(monkeypatch, tmp_path):
    (tmp_path / "b000670.txt").write_bytes(_SEVENTEEN_BYTES)
    monkeypatch.setattr(bfiles, "MAX_BFILE_BYTES", len(_SEVENTEEN_BYTES))
    assert len(fetch_bfile("A000670", network=True, cache_dir=tmp_path).values) == 4
    monkeypatch.setattr(bfiles, "MAX_BFILE_BYTES", len(_SEVENTEEN_BYTES) - 1)
    with pytest.raises(BFileParseError, match="^a b-file may hold at most 16 bytes$"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)


def test_fetch_refuses_a_download_one_byte_over_the_cap(monkeypatch, tmp_path):
    sizes = []

    def fake_urlopen(request, timeout=None):
        response = _FakeResponse(_SEVENTEEN_BYTES)
        read1 = response.read1
        response.read1 = lambda size=-1: sizes.append(size) or read1(size)
        return response

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr(bfiles, "MAX_BFILE_BYTES", len(_SEVENTEEN_BYTES) - 1)
    with pytest.raises(BFileParseError, match="^a b-file may hold at most 16 bytes$"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert sizes == [len(_SEVENTEEN_BYTES)]  # the cap and one byte more, never all of it
    assert list(tmp_path.iterdir()) == []


def test_fetch_refuses_a_download_that_crosses_the_cap_over_several_receives(
    monkeypatch, tmp_path
):
    sizes = []

    class OneLineAtATime(_FakeResponse):
        def read1(self, size=-1):
            sizes.append(size)
            line, newline, self._payload = self._payload.partition(b"\n")
            return (line + newline)[:size]

    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: OneLineAtATime(_SEVENTEEN_BYTES))
    monkeypatch.setattr(bfiles, "MAX_BFILE_BYTES", len(_SEVENTEEN_BYTES) - 1)
    with pytest.raises(BFileParseError, match="^a b-file may hold at most 16 bytes$"):
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert sizes == [17, 13, 9, 5]  # each receive asks for what is left of cap + 1
    assert list(tmp_path.iterdir()) == []


def test_fetch_stops_a_download_past_its_deadline(monkeypatch, tmp_path, capsys):
    # a server that sends one line per receive, each taking a second: every
    # receive is within the bound, but the download is not
    clock = [0.0]

    class Trickling(_FakeResponse):
        def read1(self, size=-1):
            clock[0] += 1.0
            line, newline, self._payload = self._payload.partition(b"\n")
            return (line + newline)[:size]

    payload = b"".join(b"%d 1\n" % i for i in range(40))
    monkeypatch.setattr(bfiles.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: Trickling(payload))
    with monkeypatch.context() as patch, pytest.raises(
        TimeoutError, match="^the download ran past its deadline$"
    ):
        patch.setattr(bfiles, "_TIMEOUT_S", 2.5)
        fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert clock == [3.0]  # the third line arrived past the deadline
    assert list(tmp_path.iterdir()) == []
    # the fixed bound of 30 s through the CLI: a transport failure, exit 3
    clock[0] = 0.0
    assert main(["bfile", "fetch", "A000670", "--network", "--cache-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: transport failure: the download ran past its deadline\n")
    assert clock == [31.0] and list(tmp_path.iterdir()) == []


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
    table = fetch_bfile("A000670", network=True, cache_dir=tmp_path)
    assert table == SequenceTable("A000670", 0, (1, 1))


def _no_network(*args, **kwargs):
    pytest.fail("a refused argument must not reach the network")


@pytest.mark.parametrize(
    "cache_dir, error, message",
    [
        ("", ArgumentError, "^cache_dir must not be empty$"),
        (123, TypeError, "^cache_dir must be str or PathLike, got int$"),
        (b"x", TypeError, "^cache_dir must be str or PathLike, got bytes$"),
    ],
    ids=["empty-cache_dir", "int-cache_dir", "bytes-cache_dir"],
)
def test_fetch_checks_cache_dir_first(monkeypatch, tmp_path, cache_dir, error, message):
    # a cached file in the working directory, where an empty cache_dir would point
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b000670.txt").write_text("0 1\n1 1\n", "ascii")
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    for network in (True, False):  # checked before the offline refusal too
        with pytest.raises(error, match=message):
            fetch_bfile("A000670", network=network, cache_dir=cache_dir)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["b000670.txt"]


@pytest.mark.parametrize("network", ["no", 1, None], ids=["str", "int", "None"])
def test_fetch_takes_only_a_bool_network(monkeypatch, tmp_path, network):
    # a truthy non-bool once read the cache, and on a miss would have downloaded
    (tmp_path / "b000670.txt").write_text("0 1\n1 1\n", "ascii")
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    message = f"^network must be bool, got {type(network).__name__}$"
    with pytest.raises(TypeError, match=message):
        fetch_bfile("A000670", network=network, cache_dir=tmp_path)
    with pytest.raises(TypeError, match=message):
        fetch_bfile("A000670", network=network, cache_dir=tmp_path / "missing")
    with pytest.raises(TypeError, match="^cache_dir must be str or PathLike, got int$"):
        fetch_bfile("A000670", network=network, cache_dir=123)  # cache_dir is checked first
    assert sorted(path.name for path in tmp_path.iterdir()) == ["b000670.txt"]


_NON_ASCII_DIGITS = "A\u0660\u0660\u0660\u0666\u0667\u0660"  # A000670 in Arabic-Indic digits


@pytest.mark.parametrize(
    "call",
    [
        lambda cache: fetch_bfile(_NON_ASCII_DIGITS, network=True, cache_dir=cache),
        lambda cache: load_fixture(_NON_ASCII_DIGITS),
        lambda cache: computed_table(_NON_ASCII_DIGITS, 5),
    ],
    ids=["fetch_bfile", "load_fixture", "computed_table"],
)
def test_an_id_with_non_ascii_digits_is_refused_first(monkeypatch, tmp_path, call):
    # \d would match these digits; a cached file under the id must not be read
    cached = tmp_path / f"b{_NON_ASCII_DIGITS[1:]}.txt"
    cached.write_text("0 1\n1 1\n", "ascii")
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    monkeypatch.setattr(bfiles, "parse_bfile", _no_network)
    with pytest.raises(ArgumentError, match=f"^invalid OEIS sequence id '{_NON_ASCII_DIGITS}'"):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == [cached]


def test_cli_fetch_of_an_id_with_non_ascii_digits_exits_2(monkeypatch, tmp_path, capsys):
    (tmp_path / f"b{_NON_ASCII_DIGITS[1:]}.txt").write_text("0 1\n1 1\n", "ascii")
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    argv = ["bfile", "fetch", _NON_ASCII_DIGITS, "--network", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"error: invalid OEIS sequence id '{_NON_ASCII_DIGITS}' (expected 'A' + 6 digits)\n",
    )


def test_cli_fetch_prints_the_cached_entry_count(monkeypatch, tmp_path, capsys):
    (tmp_path / "b000670.txt").write_bytes(
        (Path(bfiles.__file__).parent / "data" / "b000670.txt").read_bytes()
    )
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    assert main(["bfile", "fetch", "A000670", "--network", "--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == ("fetched A000670: 30 entries\n", "")


def test_cli_fetch_with_an_empty_cache_dir_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b000670.txt").write_text("0 1\n1 1\n", "ascii")
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)
    assert main(["bfile", "fetch", "A000670", "--network", "--cache-dir", ""]) == 2
    assert capsys.readouterr() == ("", "error: cache_dir must not be empty\n")


@pytest.mark.parametrize(
    "value, expected",
    [
        pytest.param(None, "~/.cache/fubini", id="unset"),
        pytest.param("", "~/.cache/fubini", id="empty"),
        pytest.param("rel/dir", "~/.cache/fubini", id="relative"),
        pytest.param("/abs/cache", "/abs/cache/fubini", id="absolute"),
    ],
)
def test_default_cache_dir_follows_the_xdg_spec(monkeypatch, tmp_path, value, expected):
    # the XDG Base Directory spec: an unset, empty or relative XDG_CACHE_HOME means ~/.cache
    monkeypatch.setenv("HOME", str(tmp_path))
    if value is None:
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert bfiles._default_cache_dir() == Path(expected.replace("~", str(tmp_path)))
