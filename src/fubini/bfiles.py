"""OEIS b-file parsing, emission, and sequence cross-checks.

A b-file is the OEIS plain-text sequence format: ASCII lines of
``index value`` separated by a single space, one entry per line with a
trailing newline, optionally interleaved with blank lines and ``#``
comments. Indices must be consecutive, so a parsed b-file is a
:class:`~fubini.sequences.SequenceTable`: the sequence id, the first index
and the values, the same record that holds a computed sequence. Emitting a
table with at least one value and parsing the text back gives an equal
table; an empty table emits ``''``, which :func:`parse_bfile` refuses.

Every sequence in :data:`fubini.registry.SEQUENCES` with an OEIS id ships
its reference b-file under ``fubini/data/``, so the default test run needs
no network: ``A000670`` (ordered Bell numbers), ``A008277`` (the
partition-count triangle ``S(n,k)``, rows n >= 1, k = 1..n) and
``A130850`` (the ``k! * S(n+1, k+1)`` triangle, rows n >= 0, k = 0..n).

:func:`fetch_bfile` can refresh a b-file from oeis.org, but only when
networking is explicitly enabled; downloads are cached with an atomic
temp-file-then-rename write. It reads at most :data:`MAX_BFILE_BYTES`
(4 MiB) from the cache or the download, and refuses a larger file with
:class:`BFileParseError` before parsing any of it. Each network operation
is bounded by a fixed 30 s, :data:`_TIMEOUT_S`, and so is the body: a
download still arriving 30 s after its request raises ``TimeoutError``,
and nothing is cached.
"""

import os
import re
import sys
import time
from pathlib import Path

from fubini import _EXPORTS
from fubini._args import ArgumentError, _require_type
from fubini.registry import BY_OEIS_ID
from fubini.sequences import SequenceTable

__all__ = list(_EXPORTS["bfiles"])

_SEQUENCE_ID_RE = re.compile("A[0-9]{6}")  # \d would also take non-ASCII digits
_INTEGER_RE = re.compile("-?[0-9]+")  # int() would also take '+5', '1_000' and non-ASCII digits
_SEPARATOR_RE = re.compile("[ \t]+")  # str.split() would also split on non-ASCII spaces
_OEIS_URL = "https://oeis.org/{sequence_id}/{filename}"
_USER_AGENT = "fubini/0.1 (+https://oeis.org)"
#: Largest b-file, in bytes, that :func:`fetch_bfile` reads from its cache or
#: a download. The largest file this package writes, ``bfile export A000670
#: --limit 1000`` (the CLI's index cap), is 1.26 MB, so 4 MiB leaves room for
#: comments. A genuine OEIS b-file longer than that would be refused; those
#: files cannot be sized offline, so the margin over them is unverified.
MAX_BFILE_BYTES = 4 << 20
#: Seconds :func:`fetch_bfile` allows each network operation and the body read.
_TIMEOUT_S = 30


class BFileParseError(ArgumentError):
    """Raised on malformed b-file input; the message carries the line number."""


class OfflineError(RuntimeError):
    """Raised when a network fetch is attempted without networking enabled."""


def _check_sequence_id(sequence_id: str) -> str:
    _require_type(sequence_id, (str,), "sequence_id")
    if not _SEQUENCE_ID_RE.fullmatch(sequence_id):
        raise ArgumentError(
            f"invalid OEIS sequence id {sequence_id!r} (expected 'A' + 6 digits)"
        )
    return sequence_id


def _filename(sequence_id: str) -> str:
    return f"b{sequence_id[1:]}.txt"


def parse_bfile(text: str | bytes, sequence_id: str = "") -> SequenceTable:
    """Parse b-file text into ``SequenceTable(sequence_id, first index, values)``.

    Lines end in LF or CRLF. Comment lines starting with ``#`` and blank
    lines are skipped. Every data line must be two ASCII decimal
    integers ``-?[0-9]+`` separated by ASCII spaces or tabs, and indices
    must be consecutive; violations raise :class:`BFileParseError` naming
    the line, as does a value longer than ``sys.get_int_max_str_digits()``.
    Text with no data line raises :class:`BFileParseError` too.
    """
    _require_type(text, (str, bytes), "text")
    _require_type(sequence_id, (str,), "sequence_id")
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise BFileParseError(
                f"line {lineno}: non-ASCII byte {text[exc.start:exc.start + 1]!r}"
            ) from None
    offset, values = None, []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        tokens = _SEPARATOR_RE.split(line)
        if len(tokens) != 2:
            raise BFileParseError(
                f"line {lineno}: expected 'index value', got {raw!r}"
            )
        if not all(map(_INTEGER_RE.fullmatch, tokens)):
            raise BFileParseError(f"line {lineno}: non-integer token in {raw!r}")
        try:
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:  # the token is decimal, so only the digit limit is left
            raise BFileParseError(
                f"line {lineno}: a token exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit of int conversion"
            ) from None
        if offset is None:
            offset = index
        elif index != offset + len(values):
            raise BFileParseError(
                f"line {lineno}: index {index} not consecutive "
                f"(gap after {offset + len(values) - 1})"
            )
        values.append(value)
    if offset is None:
        raise BFileParseError("no data lines found")
    return SequenceTable(sequence_id, offset, values)


def emit_bfile(table: SequenceTable) -> str:
    """Render a table in b-file format: ``index value`` lines, trailing newline.

    A value longer than ``sys.get_int_max_str_digits()`` raises ``ArgumentError``
    naming its index.
    """
    _require_type(table, (SequenceTable,), "table")
    lines = []
    for index, value in enumerate(table.values, start=table.offset):
        try:
            lines.append(f"{index} {value}\n")
        except ValueError:  # int-to-str conversion refuses it
            raise ArgumentError(
                f"index {index}: the value exceeds the "
                f"{sys.get_int_max_str_digits()}-digit limit of int-to-str conversion"
            ) from None
    return "".join(lines)


def fixture_ids() -> tuple[str, ...]:
    """Sequence ids with a bundled reference b-file."""
    return tuple(sorted(BY_OEIS_ID))


def load_fixture(sequence_id: str) -> SequenceTable:
    """The bundled reference b-file of ``sequence_id``, parsed by :func:`parse_bfile`."""
    if _check_sequence_id(sequence_id) not in BY_OEIS_ID:
        raise ArgumentError(f"no bundled fixture for {sequence_id}")
    from importlib import resources  # deferred: only load_fixture needs it

    path = resources.files("fubini").joinpath("data", _filename(sequence_id))
    return parse_bfile(path.read_text("ascii"), sequence_id)


def computed_table(sequence_id: str, limit: int) -> SequenceTable:
    """Compute our side of a supported OEIS sequence up to index ``limit``.

    ``limit`` is the inclusive maximum b-file index. Triangles are
    flattened row by row as :meth:`fubini.registry.Sequence.terms` reads them.
    """
    sequence = BY_OEIS_ID.get(_check_sequence_id(sequence_id))
    if sequence is None:
        raise ArgumentError(f"no computable sequence registered for {sequence_id}")
    return SequenceTable(sequence_id, sequence.first, tuple(sequence.terms(limit, "limit")))


def crosscheck(computed: SequenceTable, reference: SequenceTable) -> "VerificationReport":
    """Compare a computed table against a reference table, entry by entry, in
    an :class:`~fubini.identities.VerificationReport`.

    The comparison covers the overlap of both index ranges, so a shorter
    table bounds it; an empty overlap is an error, not a failure. The
    report is named after the reference, or the computed table if the
    reference has no name.
    """
    from fubini.identities import _sweep  # only a crosscheck loads the identity sweep

    _require_type(computed, (SequenceTable,), "computed")
    _require_type(reference, (SequenceTable,), "reference")
    lo = max(computed.offset, reference.offset)
    hi = min(computed.last_index, reference.last_index)
    if lo > hi:
        raise ArgumentError("no overlapping indices to compare")

    def check(n):
        yield reference.values[n - reference.offset], computed.values[n - computed.offset]

    (report,) = _sweep(lo, hi, {f"oeis.{reference.name or computed.name}": check})
    return report


def _read_capped(stream, deadline=None) -> bytes:
    """All of ``stream``, or ``BFileParseError`` if it holds more than
    :data:`MAX_BFILE_BYTES`; reading one byte past the cap tells the two apart.

    The stream is read with ``read1``, each call at most one receive; past
    ``deadline`` (a ``time.monotonic()`` value) after a chunk, the read stops
    with ``TimeoutError``.
    """
    chunks, left = [], MAX_BFILE_BYTES + 1
    while left and (chunk := stream.read1(left)):
        chunks.append(chunk)
        left -= len(chunk)
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("the download ran past its deadline")
    payload = b"".join(chunks)
    if len(payload) > MAX_BFILE_BYTES:
        raise BFileParseError(f"a b-file may hold at most {MAX_BFILE_BYTES} bytes")
    return payload


def _default_cache_dir() -> Path:
    root = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not root.is_absolute():  # unset, empty or relative: the XDG spec says ~/.cache
        root = Path.home() / ".cache"
    return root / "fubini"


def fetch_bfile(
    sequence_id: str,
    *,
    network: bool = False,
    cache_dir: str | Path | None = None,
) -> SequenceTable:
    """Fetch a b-file from oeis.org, caching the validated download, and
    return it parsed by :func:`parse_bfile`.

    ``cache_dir`` is checked first, before the network flag, the cache or
    the network: one that is not a ``str`` or ``os.PathLike`` raises
    ``TypeError``, and an empty one (which would mean the working
    directory) raises ``ArgumentError``. ``network`` is checked next: any
    value but a ``bool``, even a truthy one such as ``"no"`` or ``1``,
    raises ``TypeError`` before the offline refusal, the cache or the
    network.

    Requires ``network=True`` (the default is hermetic). A previously
    cached file short-circuits the download; cache writes go through a
    temp file and an atomic rename. A cached or downloaded file over
    :data:`MAX_BFILE_BYTES` raises :class:`BFileParseError`. A fixed 30 s,
    :data:`_TIMEOUT_S`, bounds each network operation. It also bounds the
    body read: the first chunk received more than 30 s after the request
    stops it with ``TimeoutError`` (an ``OSError``), and nothing is cached.
    The status line and headers are bounded only per operation.
    """
    _check_sequence_id(sequence_id)
    if cache_dir is not None:
        _require_type(cache_dir, (str, os.PathLike), "cache_dir")
        if not os.fspath(cache_dir):
            raise ArgumentError("cache_dir must not be empty")
    _require_type(network, (bool,), "network")
    if not network:
        raise OfflineError(
            "offline mode: pass network=True to fetch from oeis.org"
        )
    filename = _filename(sequence_id)
    cache = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    cached_path = cache / filename
    if cached_path.exists():
        with cached_path.open("rb") as cached:
            return parse_bfile(_read_capped(cached), sequence_id)

    import tempfile  # deferred, like urllib.request: only a download needs them
    import urllib.request

    url = _OEIS_URL.format(sequence_id=sequence_id, filename=filename)
    request = urllib.request.Request(url, headers={"User-Agent": _USER_AGENT})
    deadline = time.monotonic() + _TIMEOUT_S
    with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as response:
        payload = _read_capped(response, deadline)
    table = parse_bfile(payload, sequence_id)  # validate before caching

    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache, prefix=filename, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, cached_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return table
