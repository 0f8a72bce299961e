"""The benchmark's workloads: inputs drawn from the seed, expected outputs from the oracle.

Every expected value is computed here, before any timing starts. The
program under test sees only the generated command lines and queries.
"""

import json
import math
from dataclasses import dataclass
from math import factorial
from pathlib import Path
from random import Random

import oracle
from lookup_child import digest

FIXTURE_FILES = {"A000670": "b000670.txt", "A008277": "b008277.txt", "A130850": "b130850.txt"}

VERIFY_IDS = {
    "bell": ("bell.parity-split", "bell.shifted-cyclic"),
    "cyclic": ("cyclic.doubling",),
    "alternating": ("alternating.factorial", "alternating.cyclic"),
    "parity": ("cyclic.parity-equal", "worpitzky.parity-rows"),
    "egf": ("egf.agreement", "egf.parity-split", "egf.derivative"),
}

EGF_NAMES = ("bell", "cyclic", "double-shifted-bell", "cyclic-even", "cyclic-odd")
EGF_ORDER = 160
EGF_K_RANGE = (4, 5)  # the drawn column stays the 6th slowest of the 7 commands
EGF_VERIFY_ORDER = 80

SWEEP_MAX, SWEEP_ORDER = 400, 24

CLI_SHORT_VARIANTS = 110

LOOKUP_MAX_N = 800
LOOKUP_QUERIES = 5000
# A request is this many consecutive queries; lookup's latencies are per request.
# A single query's time follows the host's cache contention, not its speed, and
# jumps by half between one minute and the next; a request's time does not.
LOOKUP_REQUEST = 10
# The n values queried: a fixed grid, dense at small n, ending at the warmed row.
LOOKUP_GRID = tuple(sorted({round(1 + (LOOKUP_MAX_N - 1) * (i / 63) ** 2) for i in range(64)}))
CYCLIC_PARITY = {
    "cyclic_ordered_bell": None,
    "cyclic_ordered_bell_even": "even",
    "cyclic_ordered_bell_odd": "odd",
}
LOOKUP_KINDS = (
    "stirling2",
    "worpitzky",
    "stirling2_row",
    "ordered_bell",
    "ordered_bell_parity",
    "cyclic_ordered_bell",
    "cyclic_ordered_bell_even",
    "cyclic_ordered_bell_odd",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct program answers.

    ``stdout`` is compared byte for byte, unless ``json`` is set, in which
    case stdout is parsed and compared with it as data.
    """

    argv: tuple[str, ...]
    code: int = 0
    stdout: str = ""
    json: object = None

    def check(self, code: int, stdout: bytes) -> bool:
        if code != self.code:
            return False
        text = stdout.decode("utf-8", "replace")
        if self.json is None:
            return text == self.stdout
        try:
            return json.loads(text) == self.json
        except ValueError:
            return False


@dataclass(frozen=True)
class Lookup:
    """Point queries for one library process, and the digest of each answer."""

    warm: int
    queries: tuple[tuple, ...]
    digests: tuple[str, ...]


def fixture_range(root: Path, sequence_id: str) -> tuple[int, int]:
    """First and last index of a bundled b-file, read as plain text."""
    path = root / "src" / "fubini" / "data" / FIXTURE_FILES[sequence_id]
    indices = [
        int(line.split()[0])
        for line in path.read_text("ascii").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return indices[0], indices[-1]


def verify_command(target: str, n_max: int, order: int, structured: bool) -> Command:
    argv = ("verify", target)
    if target != "egf":
        argv += ("--max", str(n_max))
    if target in ("all", "egf"):
        argv += ("--order", str(order))
    targets = tuple(VERIFY_IDS) if target == "all" else (target,)
    reports = [
        (identity, *_verify_range(identity, n_max, order))
        for t in targets
        for identity in VERIFY_IDS[t]
    ]
    if structured:
        expected = [
            {"identity_id": i, "range_checked": [lo, hi], "status": "pass", "first_failure": None}
            for i, lo, hi in reports
        ]
        return Command(argv + ("--format", "structured"), json=expected)
    return Command(argv, stdout="".join(f"{i} n={lo}..{hi} pass\n" for i, lo, hi in reports))


def _verify_range(identity: str, n_max: int, order: int) -> tuple[int, int]:
    if identity == "egf.derivative":
        return 0, max(order - 1, 0)
    if identity.startswith("egf."):
        return 0, order
    return 1, n_max


def egf_command(name: str, bell: list[int], order: int, k: int | None = None) -> Command:
    argv = ("egf", name, "--order", str(order)) + (() if k is None else ("--k", str(k)))
    return Command(argv, stdout=oracle.egf_lines(oracle.egf_values(name, bell, order, k)))


def compute_command(name: str, bell: list[int], n: int, bfile_format: bool = False) -> Command:
    if name in ("stirling-row", "worpitzky-row"):
        argv = ("compute", name, "--n", str(n))
        stdout = oracle.index_lines(0, oracle.row_values(name, n))
    else:
        argv = ("compute", name, "--max", str(n))
        first = oracle.FIRST_INDEX[name]
        stdout = oracle.index_lines(first, oracle.range_values(name, bell, first, n))
    if bfile_format:
        argv += ("--format", "bfile")
    return Command(argv, stdout=stdout)


def bfile_command(root: Path, action: str, sequence_id: str, bell, limit=None) -> Command:
    argv = ("bfile", action, sequence_id) + (() if limit is None else ("--limit", str(limit)))
    if action == "fetch":
        return Command(argv, code=3)
    if action == "export":
        return Command(argv, stdout=oracle.index_lines(*oracle.oeis_values(sequence_id, bell, limit)))
    first, last = fixture_range(root, sequence_id)
    hi = last if limit is None else min(limit, last)
    return Command(argv, stdout=f"oeis.{sequence_id} n={first}..{hi} pass\n")


def readme_examples(root: Path, bell: list[int]) -> list[Command]:
    """The CLI examples of the README; the fetch runs offline and must exit 3."""
    return [
        compute_command("bell", bell, 8),
        compute_command("cyclic-even", bell, 6),
        compute_command("stirling-row", bell, 5),
        compute_command("bell", bell, 8, bfile_format=True),
        verify_command("parity", 50, 64, structured=True),
        egf_command("bell", bell, 6),
        egf_command("stirling-col", bell, 8, k=3),
        bfile_command(root, "check", "A000670", bell, 20),
        bfile_command(root, "export", "A130850", bell, 20),
        bfile_command(root, "fetch", "A000670", bell),
    ]


# -- jobs -------------------------------------------------------------------


def verify_sweep(root: Path, seed: int) -> list[Command]:
    """One identity sweep; its inputs are fixed, so the seed selects nothing."""
    return [verify_command("all", SWEEP_MAX, SWEEP_ORDER, structured=True)]


def egf_build(root: Path, seed: int) -> list[Command]:
    """The five named EGFs at order 160, one drawn Stirling column, and the EGF checks."""
    rng = Random(seed)
    bell = oracle.ordered_bell_numbers(EGF_ORDER + 1)
    commands = [egf_command(name, bell, EGF_ORDER) for name in EGF_NAMES]
    commands.append(egf_command("stirling-col", bell, EGF_ORDER, rng.randint(*EGF_K_RANGE)))
    commands.append(verify_command("egf", 0, EGF_VERIFY_ORDER, structured=False))
    return commands


def cli_short(root: Path, seed: int) -> list[Command]:
    """The README examples plus small variants of them, in a seeded order.

    The variants cycle through the kinds of command, so every seed runs
    the same mix; the seed draws their arguments and the order.
    """
    rng = Random(seed)
    bell = oracle.ordered_bell_numbers(100)
    fixtures = tuple(FIXTURE_FILES)

    def range_seq():
        name = rng.choice(tuple(oracle.FIRST_INDEX))
        return compute_command(
            name, bell, rng.randint(oracle.FIRST_INDEX[name], 60), rng.random() < 0.5
        )

    def row_seq():
        return compute_command(rng.choice(("stirling-row", "worpitzky-row")), bell, rng.randint(0, 40))

    def check():
        sequence_id = rng.choice(fixtures)
        first, last = fixture_range(root, sequence_id)
        limit = None if rng.random() < 0.3 else rng.randint(first, last)
        return bfile_command(root, "check", sequence_id, bell, limit)

    def export():
        sequence_id = rng.choice(fixtures)
        first, _ = fixture_range(root, sequence_id)
        return bfile_command(root, "export", sequence_id, bell, rng.randint(first, 90))

    def parity():
        return verify_command("parity", rng.randint(1, 50), 64, rng.random() < 0.5)

    def egf_bell():
        return egf_command("bell", bell, rng.randint(0, 12))

    def fetch():
        return bfile_command(root, "fetch", rng.choice(fixtures), bell)

    kinds = (range_seq, row_seq, check, export, parity, egf_bell, fetch)
    commands = readme_examples(root, bell)
    commands += [kinds[i % len(kinds)]() for i in range(CLI_SHORT_VARIANTS)]
    rng.shuffle(commands)
    return commands


def lookup(root: Path, seed: int) -> Lookup:
    """Point queries with n skewed toward small values, in an order drawn from the seed.

    How many queries each grid value and each function get is fixed: grid
    index i gets the share that ``int(len * u**2)``, u uniform, would give
    it, split evenly over the functions. The seed draws the column, the
    parity and the order. So every seed asks for the same amount of work.
    The cache is warmed to ``LOOKUP_MAX_N``, the last grid value, so every
    query reads rows that are already held.
    """
    rng = Random(seed)
    size = len(LOOKUP_GRID)
    queries = []
    for i, n in enumerate(LOOKUP_GRID):
        share = math.sqrt((i + 1) / size) - math.sqrt(i / size)
        for j in range(round(LOOKUP_QUERIES * share)):
            kind = LOOKUP_KINDS[j % len(LOOKUP_KINDS)]
            if kind == "stirling2":
                queries.append((kind, n, rng.randint(0, n)))
            elif kind == "worpitzky":  # k! S(n, k+1), from row n
                queries.append((kind, n - 1, rng.randint(0, n - 1)))
            elif kind == "ordered_bell_parity":
                queries.append((kind, n, rng.choice(("even", "odd"))))
            else:
                queries.append((kind, n))
    rng.shuffle(queries)

    bell = oracle.ordered_bell_numbers(LOOKUP_MAX_N + 1)
    rows: dict[int, list[int]] = {}

    def row(n):
        if n not in rows:
            rows[n] = oracle.stirling2_row(n)
        return rows[n]

    def expected(query):
        kind, n, *rest = query
        if kind == "stirling2":
            return row(n)[rest[0]]
        if kind == "worpitzky":
            k = rest[0]
            return factorial(k) * row(n + 1)[k + 1]
        if kind == "stirling2_row":
            return row(n)
        if kind == "ordered_bell":
            return bell[n]
        if kind == "ordered_bell_parity":
            return oracle.ordered_bell_parity(bell, n, rest[0])
        return oracle.cyclic(bell, n, CYCLIC_PARITY[kind])

    return Lookup(LOOKUP_MAX_N, tuple(queries), tuple(digest(expected(q)) for q in queries))
