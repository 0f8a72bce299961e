"""OEIS b-file parsing, emission, and sequence cross-checks.

A b-file is the OEIS plain-text sequence format: ASCII lines of
``index value`` separated by a single space, one entry per line with a
trailing newline, optionally interleaved with blank lines and ``#``
comments. Indices must be consecutive.

Three reference b-files ship with the package under ``fubini/data/`` so
the default test run needs no network:

* ``A000670`` -- ordered Bell numbers, indices from 0;
* ``A008277`` -- partition-count triangle ``S(n,k)`` read by rows
  (n >= 1, k = 1..n), indices from 1;
* ``A130850`` -- the ``k! * S(n+1, k+1)`` triangle read by rows
  (n >= 0, k = 0..n), indices from 0.

:func:`fetch_bfile` can refresh a b-file from oeis.org, but only when
networking is explicitly enabled; downloads are cached with an atomic
temp-file-then-rename write.
"""

import os
import re
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from fubini import sequences
from fubini.identities import VerificationReport
from fubini.sequences import SequenceTable

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
_OEIS_URL = "https://oeis.org/{sequence_id}/{filename}"
_USER_AGENT = "fubini/0.1 (+https://oeis.org)"

_FIXTURES = {
    "A000670": "b000670.txt",
    "A008277": "b008277.txt",
    "A130850": "b130850.txt",
}


class BFileParseError(ValueError):
    """Raised on malformed b-file input; the message carries the line number."""


class OfflineError(RuntimeError):
    """Raised when a network fetch is attempted without networking enabled."""


@dataclass(frozen=True)
class BFile:
    """Parsed b-file content: consecutive ``(index, value)`` entries."""

    sequence_id: str
    entries: tuple[tuple[int, int], ...]

    @property
    def first_index(self) -> int:
        return self.entries[0][0]

    @property
    def last_index(self) -> int:
        return self.entries[-1][0]

    def value(self, index: int) -> int:
        """The entry at ``index``; ``ValueError`` outside the stored range."""
        if not self.first_index <= index <= self.last_index:
            raise ValueError(
                f"index {index} is outside {self.first_index}..{self.last_index}"
            )
        return self.entries[index - self.first_index][1]


def _check_sequence_id(sequence_id: str) -> str:
    if not _SEQUENCE_ID_RE.match(sequence_id):
        raise ValueError(
            f"invalid OEIS sequence id {sequence_id!r} (expected 'A' + 6 digits)"
        )
    return sequence_id


def parse_bfile(text: str | bytes, sequence_id: str = "") -> BFile:
    """Parse b-file text into a :class:`BFile`.

    Comment lines starting with ``#`` and blank lines are skipped. Every
    data line must be exactly two integer tokens, and indices must be
    consecutive; violations raise :class:`BFileParseError` naming the line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            # number lines as the str.splitlines() loop below would
            lineno = len((text[: exc.start].decode("ascii") + "x").splitlines())
            raise BFileParseError(
                f"line {lineno}: non-ASCII byte {text[exc.start:exc.start + 1]!r}"
            ) from None
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise BFileParseError(
                f"line {lineno}: expected 'index value', got {raw!r}"
            )
        try:
            index, value = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise BFileParseError(
                f"line {lineno}: non-integer token in {raw!r}"
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
    """Render a table in b-file format: ``index value`` lines, trailing newline."""
    return "".join(
        f"{table.offset + i} {value}\n" for i, value in enumerate(table.values)
    )


def fixture_ids() -> tuple[str, ...]:
    """Sequence ids with a bundled reference b-file."""
    return tuple(sorted(_FIXTURES))


def load_fixture(sequence_id: str) -> BFile:
    """Load a bundled reference b-file."""
    _check_sequence_id(sequence_id)
    try:
        filename = _FIXTURES[sequence_id]
    except KeyError:
        raise ValueError(f"no bundled fixture for {sequence_id}") from None
    text = resources.files("fubini").joinpath("data", filename).read_text("ascii")
    return parse_bfile(text, sequence_id)


def _flattened_triangle(row_values, offset: int, limit: int) -> list[int]:
    values: list[int] = []
    n = 0
    while offset + len(values) <= limit:
        values.extend(row_values(n))
        n += 1
    return values[: limit - offset + 1]


def computed_table(sequence_id: str, limit: int) -> SequenceTable:
    """Compute our side of a supported OEIS sequence up to index ``limit``.

    ``limit`` is the inclusive maximum b-file index. Triangles are
    flattened row by row in the orientation documented in the module
    docstring.
    """
    _check_sequence_id(sequence_id)
    if sequence_id == "A000670":
        if limit < 0:
            raise ValueError(f"limit must be >= 0 for {sequence_id}, got {limit}")
        values = [sequences.ordered_bell(n) for n in range(limit + 1)]
        return SequenceTable(sequence_id, 0, tuple(values))
    if sequence_id == "A008277":
        if limit < 1:
            raise ValueError(f"limit must be >= 1 for {sequence_id}, got {limit}")
        values = _flattened_triangle(
            lambda n: sequences.stirling2_row(n + 1)[1:], 1, limit
        )
        return SequenceTable(sequence_id, 1, tuple(values))
    if sequence_id == "A130850":
        if limit < 0:
            raise ValueError(f"limit must be >= 0 for {sequence_id}, got {limit}")
        values = _flattened_triangle(
            lambda n: [sequences.worpitzky(n, k) for k in range(n + 1)], 0, limit
        )
        return SequenceTable(sequence_id, 0, tuple(values))
    raise ValueError(f"no computable sequence registered for {sequence_id}")


def crosscheck(computed: SequenceTable, reference: BFile, limit: int) -> VerificationReport:
    """Compare a computed table against reference data, entry by entry.

    The comparison covers the overlap of both index ranges, clamped to
    indices ``<= limit``; an empty overlap is an error, not a failure.
    """
    if limit < computed.offset:
        raise ValueError(f"limit {limit} is below the computed offset {computed.offset}")
    lo = max(computed.offset, reference.first_index)
    hi = min(computed.offset + len(computed.values) - 1, reference.last_index, limit)
    if lo > hi:
        raise ValueError("no overlapping indices to compare")
    identity_id = f"oeis.{reference.sequence_id or computed.name}"
    for index in range(lo, hi + 1):
        expected = reference.value(index)
        actual = computed.values[index - computed.offset]
        if expected != actual:
            return VerificationReport(
                identity_id, (lo, hi), "fail", (index, expected, actual)
            )
    return VerificationReport(identity_id, (lo, hi), "pass")


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
    filename = f"b{sequence_id[1:]}.txt"
    cache = Path(cache_dir) if cache_dir is not None else _default_cache_dir()
    cached_path = cache / filename
    if cached_path.exists():
        return parse_bfile(cached_path.read_text("ascii"), sequence_id)

    import urllib.request  # deferred: costs about half of the CLI's import time

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
