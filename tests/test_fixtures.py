"""Provenance checks for the bundled reference b-files.

The fixture values are recomputed here through routes that share nothing
with the library internals: the binomial-convolution recurrence for the
ordered Bell numbers (no partition counts at all) and the
alternating-binomial explicit formula for the partition counts (the
library uses the triangle recurrence). Leading published terms are also
pinned as literals.
"""

from importlib import resources
from math import comb, factorial

import pytest

from fubini.bfiles import load_fixture


def independent_fubini(count):
    values = [1]
    for n in range(1, count):
        values.append(sum(comb(n, j) * values[n - j] for j in range(1, n + 1)))
    return values


def independent_stirling(n, k):
    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    quotient, remainder = divmod(total, factorial(k))
    assert remainder == 0
    return quotient


PUBLISHED_A000670_HEAD = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]
PUBLISHED_A008277_HEAD = [1, 1, 1, 1, 3, 1, 1, 7, 6, 1, 1, 15, 25, 10, 1]
PUBLISHED_A130850_HEAD = [1, 1, 1, 1, 3, 2, 1, 7, 12, 6, 1, 15, 50, 60, 24]


def test_a000670_fixture_values():
    fixture = load_fixture("A000670")
    values = list(fixture.values)
    assert fixture.offset == 0
    assert values[: len(PUBLISHED_A000670_HEAD)] == PUBLISHED_A000670_HEAD
    assert values == independent_fubini(len(values))


def test_a008277_fixture_values():
    fixture = load_fixture("A008277")
    values = list(fixture.values)
    assert fixture.offset == 1
    assert values[: len(PUBLISHED_A008277_HEAD)] == PUBLISHED_A008277_HEAD
    expected = []
    n = 1
    while len(expected) < len(values):
        expected.extend(independent_stirling(n, k) for k in range(1, n + 1))
        n += 1
    assert values == expected[: len(values)]
    # complete rows only: total length is a triangular number
    assert len(values) == n * (n - 1) // 2


def test_a130850_fixture_values():
    fixture = load_fixture("A130850")
    values = list(fixture.values)
    assert fixture.offset == 0
    assert values[: len(PUBLISHED_A130850_HEAD)] == PUBLISHED_A130850_HEAD
    expected = []
    n = 0
    while len(expected) < len(values):
        expected.extend(
            factorial(k) * independent_stirling(n + 1, k + 1) for k in range(n + 1)
        )
        n += 1
    assert values == expected[: len(values)]
    assert len(values) == n * (n + 1) // 2


@pytest.mark.parametrize("sequence_id", ["A000670", "A008277", "A130850"])
def test_fixture_indices_are_consecutive(sequence_id):
    # the file's own index column, read as plain text, not through the parser
    text = resources.files("fubini").joinpath("data", f"b{sequence_id[1:]}.txt").read_text("ascii")
    indices = [int(line.split()[0]) for line in text.splitlines() if line and line[0] != "#"]
    fixture = load_fixture(sequence_id)
    assert indices == list(range(fixture.offset, fixture.last_index + 1))
