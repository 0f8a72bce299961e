"""The reference tasks: fixed pure-Python work that tracks how fast the host runs now.

Usage: python3 -E -s perfbench/reference.py

A shared host's speed can swing by a quarter or more for minutes at a
time, and fubini and this work slow down with it. The benchmark runs
this script in a fresh interpreter between the commands it times, on
the same CPU, and scales each command's time by how long the script
took near it (see ``run.py``). The script's work mixes what fubini
spends its time on: interpreter start and imports, big-integer sums
over Stirling rows, and ``Fraction`` series products. It prints one
checksum, which the benchmark compares with :func:`task` run in its own
process. The lookup process times :func:`row_sums` itself, between its
queries. Both use only the standard library and the benchmark's
oracle, so a change to fubini cannot change them.
"""

import argparse  # noqa: F401  imported as the CLI imports it, for the start-up share
import json  # noqa: F401
from fractions import Fraction
from math import factorial

import oracle


def task() -> int:
    bell = oracle.ordered_bell_numbers(100)
    row = oracle.stirling2_row(120)
    series = [Fraction(bell[k], k + 1) for k in range(40)]
    square = [sum(series[i] * series[k - i] for i in range(k + 1)) for k in range(40)]
    return (sum(row) + bell[-1] + square[-1].numerator + square[-1].denominator) % (2**61 - 1)


ROW_SUM_NS = (100, 200, 300, 400)


def row_sums(rows: list[list[int]]) -> int:
    """The weighted sums Σ k!·S(n, k) over ``rows``, as lookup's queries compute them.

    ``rows`` are the oracle's Stirling rows for ``ROW_SUM_NS``.
    """
    return sum(sum(factorial(k) * s for k, s in enumerate(row)) for row in rows)


if __name__ == "__main__":
    print(task())
