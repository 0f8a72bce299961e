"""Command-line front end.

Four subcommands: ``compute`` prints sequence values, ``verify`` sweeps
the identity suite, ``egf`` prints exact generating-function
coefficients, and ``bfile`` checks/exports/fetches OEIS b-files.

Exit codes: 0 success (all identities pass), 1 identity or crosscheck
failure, 2 usage error, 3 environment error (network disabled or
transport failure). A flag above its cap, :data:`MAX_INDEX` or
:data:`MAX_ORDER`, is a usage error, and so is an abbreviated flag.

Each command imports what only it needs (``series``, ``bfiles``, ``json``)
when it runs, so a short command does not pay for the others' imports.
"""

import argparse
import sys
from math import factorial

from fubini import identities, sequences
from fubini.registry import SEQUENCES

__all__ = ["MAX_INDEX", "MAX_ORDER", "build_parser", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENV = 3

#: Largest index or row for ``--max``, ``--n`` and ``--limit``. Every value
#: printed stays below the 4300-digit int-to-str limit (the ordered Bell
#: number at 1000 has about 2,700 digits). On a 2-vCPU host, with the
#: bounded Stirling memo, ``compute stirling-row --n 1000`` takes 0.16 s and
#: peaks at 27 MB, ``compute bell --max 1000`` 0.30 s and 43 MB, and
#: ``verify all --max 1000 --order 64`` 1.2 s and 18 MB (keeping every row,
#: the two ``compute`` runs peaked at 210 MB).
MAX_INDEX = 1000
#: Largest series order for ``--order``, and column for ``--k`` (columns past
#: the order are zero). On a 2-vCPU host ``egf cyclic-odd --order 256`` takes
#: 0.15 s (its builder alone takes 0.13 s at order 512), ``verify egf --order
#: 256`` 0.6 s and ``egf stirling-col --order 256 --k 256`` 0.18 s, all under
#: 21 MB.
MAX_ORDER = 256
#: Parsed argument name -> (flag, cap), checked before any command runs.
_CAPS = {
    "n_max": ("--max", MAX_INDEX),
    "row_n": ("--n", MAX_INDEX),
    "limit": ("--limit", MAX_INDEX),
    "order": ("--order", MAX_ORDER),
    "k": ("--k", MAX_ORDER),
}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix of --network must not turn it on
    parser = argparse.ArgumentParser(
        prog="fubini",
        allow_abbrev=False,
        description=(
            "Exact ordered Bell / partition-count sequences, identity "
            "verification, generating-function inspection, and OEIS "
            "b-file interchange."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute",
        help="print sequence values, one 'index value' line each",
        allow_abbrev=False,
    )
    compute.add_argument(
        "sequence",
        choices=[name for name, s in SEQUENCES.items() if s.route],
    )
    compute.add_argument("--max", type=int, dest="n_max", help="last index to print")
    compute.add_argument("--n", type=int, dest="row_n", help="row index for *-row sequences")
    compute.add_argument("--format", choices=("plain", "bfile"), default="plain")
    compute.set_defaults(func=_cmd_compute)

    verify = sub.add_parser("verify", help="sweep the identity suite", allow_abbrev=False)
    verify.add_argument("target", choices=["all", *identities.VERIFY_TARGETS])
    verify.add_argument("--max", type=int, dest="n_max", default=200)
    verify.add_argument("--order", type=int, default=64)
    verify.add_argument("--format", choices=("plain", "structured"), default="plain")
    verify.set_defaults(func=_cmd_verify)

    egf = sub.add_parser(
        "egf", help="print exact generating-function coefficients", allow_abbrev=False
    )
    egf.add_argument(
        "gf", choices=[name for name, s in SEQUENCES.items() if s.egf] + ["stirling-col"]
    )
    egf.add_argument("--order", type=int, required=True)
    egf.add_argument("--k", type=int, help="column for gf=stirling-col")
    egf.set_defaults(func=_cmd_egf)

    bfile = sub.add_parser(
        "bfile", help="check/export/fetch OEIS b-files", allow_abbrev=False
    )
    bfile.add_argument("action", choices=("check", "export", "fetch"))
    bfile.add_argument("sequence_id", metavar="SEQUENCE_ID")
    bfile.add_argument("--limit", type=int, help="inclusive maximum index")
    bfile.add_argument("--network", action="store_true", help="allow fetching from oeis.org")
    bfile.add_argument("--cache-dir", help="override the fetch cache directory")
    bfile.set_defaults(func=_cmd_bfile)

    return parser


def _print_table(table: sequences.SequenceTable, fmt: str) -> None:
    # plain and b-file output share the "index value" line shape; the
    # bfile path goes through the emitter so round trips are exercised.
    if fmt == "bfile":
        from fubini import bfiles

        sys.stdout.write(bfiles.emit_bfile(table))
    else:
        for i, value in enumerate(table.values):
            print(table.offset + i, value)


def _cmd_compute(args) -> int:
    name = args.sequence
    sequence = SEQUENCES[name]
    if sequence.row:
        if args.row_n is None:
            return _usage_error(f"sequence {name!r} needs --n ROW")
        if args.row_n < 0:
            return _usage_error(f"--n must be >= 0, got {args.row_n}")
        table = sequences.SequenceTable(name, 0, tuple(sequence.route(args.row_n)))
    else:
        first = sequence.first
        if args.n_max is None:
            return _usage_error(f"sequence {name!r} needs --max N")
        if args.n_max < first:
            return _usage_error(f"--max must be >= {first} for {name!r}, got {args.n_max}")
        table = sequences.SequenceTable(name, first, tuple(sequence.terms(args.n_max)))
    _print_table(table, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # every choice but "all" is a key of VERIFY_TARGETS
    run = identities.VERIFY_TARGETS.get(args.target, identities.verify_all)
    try:
        reports = run(args.n_max, args.order)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "structured":
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_egf(args) -> int:
    if args.order < 0:
        return _usage_error(f"--order must be >= 0, got {args.order}")
    if args.gf == "stirling-col":
        if args.k is None:
            return _usage_error("gf 'stirling-col' needs --k COLUMN")
        if args.k < 0:
            return _usage_error(f"--k must be >= 0, got {args.k}")
        from fubini import series

        gf = series.stirling_column_egf(args.k, args.order)
    else:
        gf = SEQUENCES[args.gf].egf(args.order)
    for n, coeff in enumerate(gf.coeffs):
        scaled = factorial(n) * coeff
        if scaled.denominator == 1:
            print(n, coeff, scaled)
        else:
            print(n, coeff)
    return EXIT_OK


def _cmd_bfile(args) -> int:
    import urllib.error

    from fubini import bfiles

    sequence_id = args.sequence_id
    try:
        if args.action == "fetch":
            bfile = bfiles.fetch_bfile(
                sequence_id, network=args.network, cache_dir=args.cache_dir
            )
            print(f"fetched {sequence_id}: {len(bfile.entries)} entries")
            return EXIT_OK
        if args.action == "export":
            if args.limit is None:
                return _usage_error("bfile export needs --limit N")
            table = bfiles.computed_table(sequence_id, args.limit)
            sys.stdout.write(bfiles.emit_bfile(table))
            return EXIT_OK
        # check
        reference = bfiles.load_fixture(sequence_id)
        limit = args.limit if args.limit is not None else reference.last_index
        table = bfiles.computed_table(sequence_id, limit)
        report = bfiles.crosscheck(table, reference, limit)
        print(report.format_line())
        return EXIT_OK if report.passed else EXIT_FAIL
    except bfiles.OfflineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENV
    except urllib.error.URLError as exc:
        print(f"error: transport failure: {exc}", file=sys.stderr)
        return EXIT_ENV
    except (ValueError, bfiles.BFileParseError) as exc:
        return _usage_error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, (flag, cap) in _CAPS.items():
        value = getattr(args, dest, None)
        if value is not None and value > cap:
            return _usage_error(f"{flag} must be <= {cap}, got {value}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
