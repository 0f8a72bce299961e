"""OEIS b-file parsing, emission, and sequence cross-checks.

A b-file is the OEIS plain-text sequence format: ASCII lines of
``index value`` separated by a single space, one entry per line with a
trailing newline, optionally interleaved with blank lines and ``#``
comments. Indices must be consecutive.

Every sequence in :data:`fubini.registry.SEQUENCES` with an OEIS id ships
its reference b-file under ``fubini/data/``, so the default test run needs
no network: ``A000670`` (ordered Bell numbers), ``A008277`` (the
partition-count triangle ``S(n,k)``, rows n >= 1, k = 1..n) and
``A130850`` (the ``k! * S(n+1, k+1)`` triangle, rows n >= 0, k = 0..n).

:func:`fetch_bfile` can refresh a b-file from oeis.org, but only when
networking is explicitly enabled; downloads are cached with an atomic
temp-file-then-rename write.
"""

import os
import re
import sys
from pathlib import Path

from fubini._args import ArgumentError, _require_at_least, _require_int
from fubini.identities import VerificationReport, _sweep
from fubini.registry import BY_OEIS_ID
from fubini.sequences import SequenceTable, _FrozenRecord

__all__ = [
    "BFile",
    "BFileParseError",
    "OfflineError",
    "computed_table",
    "crosscheck",
    "emit_bfile",
    "fetch_bfile",
    "fixture_ids",
    "load_fixture",
    "parse_bfile",
]

_SEQUENCE_ID_RE = re.compile(r"\AA\d{6}\Z")
_INTEGER_RE = re.compile("-?[0-9]+")  # int() would also take '+5', '1_000' and non-ASCII digits
_SEPARATOR_RE = re.compile("[ \t]+")  # str.split() would also split on non-ASCII spaces
_OEIS_URL = "https://oeis.org/{sequence_id}/{filename}"
_USER_AGENT = "fubini/0.1 (+https://oeis.org)"


class BFileParseError(ArgumentError):
    """Raised on malformed b-file input; the message carries the line number."""


class OfflineError(RuntimeError):
    """Raised when a network fetch is attempted without networking enabled."""


class BFile(_FrozenRecord):
    """Parsed b-file content: consecutive ``(index, value)`` entries, or ``ArgumentError``."""

    __slots__ = ("sequence_id", "entries")

    def __init__(self, sequence_id: str, entries: tuple[tuple[int, int], ...]):
        if not entries:
            raise ArgumentError("a b-file needs at least one entry")
        for (index, _), (following, _) in zip(entries, entries[1:]):
            if following != index + 1:
                raise ArgumentError(f"index {following} not consecutive (gap after {index})")
        self._set(sequence_id, entries)

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    @property
    def last_index(self) -> int:
        return self.entries[-1][0]

    def value(self, index: int) -> int:
        """The entry at ``index``; ``ArgumentError`` outside the stored range."""
        index = _require_int(index, "index")
        if not self.first_index <= index <= self.last_index:
            raise ArgumentError(
                f"index {index} is outside {self.first_index}..{self.last_index}"
            )
        return self.entries[index - self.first_index][1]


def _require_type(value, expected, name: str) -> None:
    if not isinstance(value, expected):
        names = " or ".join(t.__name__ for t in expected)
        raise TypeError(f"{name} must be {names}, got {type(value).__name__}")


def _check_sequence_id(sequence_id: str) -> str:
    _require_type(sequence_id, (str,), "sequence_id")
    if not _SEQUENCE_ID_RE.match(sequence_id):
        raise ArgumentError(
            f"invalid OEIS sequence id {sequence_id!r} (expected 'A' + 6 digits)"
        )
    return sequence_id


def _filename(sequence_id: str) -> str:
    return f"b{sequence_id[1:]}.txt"


def parse_bfile(text: str | bytes, sequence_id: str = "") -> BFile:
    """Parse b-file text into a :class:`BFile`.

    Lines end in LF or CRLF. Comment lines starting with ``#`` and blank
    lines are skipped. Every data line must be two ASCII decimal
    integers ``-?[0-9]+`` separated by ASCII spaces or tabs, and indices
    must be consecutive; violations raise :class:`BFileParseError` naming
    the line, as does a value longer than ``sys.get_int_max_str_digits()``.
    """
    _require_type(text, (str, bytes), "text")
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise BFileParseError(
                f"line {lineno}: non-ASCII byte {text[exc.start:exc.start + 1]!r}"
            ) from None
    entries: list[tuple[int, int]] = []
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
        if entries and index != entries[-1][0] + 1:
            raise BFileParseError(
                f"line {lineno}: index {index} not consecutive "
                f"(gap after {entries[-1][0]})"
            )
        entries.append((index, value))
    if not entries:
        raise BFileParseError("no data lines found")
    return BFile(sequence_id, tuple(entries))


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


def load_fixture(sequence_id: str) -> BFile:
    """Load a bundled reference b-file."""
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


def crosscheck(computed: SequenceTable, reference: BFile, limit: int) -> VerificationReport:
    """Compare a computed table against reference data, entry by entry.

    The comparison covers the overlap of both index ranges, clamped to
    indices ``<= limit``; an empty overlap is an error, not a failure.
    """
    _require_type(computed, (SequenceTable,), "computed")
    _require_type(reference, (BFile,), "reference")
    limit = _require_at_least(limit, computed.offset, "limit")
    lo = max(computed.offset, reference.first_index)
    hi = min(computed.offset + len(computed.values) - 1, reference.last_index, limit)
    if lo > hi:
        raise ArgumentError("no overlapping indices to compare")
    pairs = (
        (index, reference.value(index), computed.values[index - computed.offset])
        for index in range(lo, hi + 1)
    )
    return _sweep(f"oeis.{reference.sequence_id or computed.name}", lo, hi, pairs)


def _default_cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(root).expanduser() / "fubini"


def fetch_bfile(
    sequence_id: str,
    *,
    network: bool = False,
    cache_dir: str | Path | None = None,
    timeout: float = 30.0,
) -> BFile:
    """Fetch a b-file from oeis.org, caching the validated download.

    Requires ``network=True`` (the default is hermetic). A previously
    cached file short-circuits the download; cache writes go through a
    temp file and an atomic rename.
    """
    _check_sequence_id(sequence_id)
    if not network:
        raise OfflineError(
            "offline mode: pass network=True to fetch from oeis.org"
        )
    filename = _filename(sequence_id)
    cache = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    cached_path = cache / filename
    if cached_path.exists():
        return parse_bfile(cached_path.read_bytes(), sequence_id)

    import tempfile  # deferred, like urllib.request: only a download needs them
    import urllib.request

    url = _OEIS_URL.format(sequence_id=sequence_id, filename=filename)
    request = urllib.request.Request(url, headers={"User-Agent": _USER_AGENT})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        payload = response.read()
    bfile = parse_bfile(payload, sequence_id)  # validate before caching

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
    return bfile
