"""Command-line front end.

Four subcommands: ``compute`` prints sequence values, ``verify`` sweeps
the identity suite, ``egf`` prints exact generating-function
coefficients, and ``bfile`` checks/exports/fetches OEIS b-files.

Exit codes: 0 success (all identities pass), 1 identity or crosscheck failure
or a library fault, 2 usage error, 3 environment error (network disabled or
transport failure, an unreadable fetch cache, or stdout closed early). A
usage error is an abbreviated flag, an argument the library refuses with
``fubini.ArgumentError``, or a breach of the one rule for flags: each
parsed choice (sequence, verify target, gf or b-file action) names the
flags it takes and the flags it needs, and :func:`main` checks every flag
of :data:`_FLAGS` once, before any command runs, against that choice and
the flag's cap (:data:`MAX_INDEX` or :data:`MAX_ORDER`). A library fault
is any other ``ValueError``: the arguments were valid and the library
failed. Either prints its message.

At import the CLI loads only ``registry`` and ``_args`` of the package.
Each command imports what only it needs (``sequences``, ``series``,
``identities``, ``bfiles``, ``json``) when it runs, so a short command
does not pay for the others' imports: ``egf`` loads neither ``sequences``
nor ``identities``, and ``compute``, in either format, loads neither
``identities`` nor ``bfiles``. ``verify TARGET`` runs the verifier of
``registry.VERIFY_TARGETS[TARGET]`` with the parsed flags it names, the
only flags the target takes.
"""

import argparse
import os
import sys

from fubini._args import ArgumentError
from fubini.registry import SEQUENCES, VERIFY_TARGETS

__all__ = ["MAX_INDEX", "MAX_ORDER", "build_parser", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENV = 3

#: Largest index or row for ``--max``, ``--n`` and ``--limit``. Every value
#: printed stays below the 4300-digit int-to-str limit (the ordered Bell
#: number at 1000 has about 2,700 digits), and the slowest command at the
#: cap, ``verify all --max 1000 --order 64``, takes seconds, not minutes.
MAX_INDEX = 1000
#: Largest series order for ``--order``, and column for ``--k`` (columns past
#: the order are zero). It bounds the time of the O(order^2) series
#: recurrences: every ``egf`` and ``verify egf`` command at the cap takes
#: well under a second.
MAX_ORDER = 256
#: Parsed argument name -> (flag, metavar, cap): every flag ``main`` checks
#: against what the parsed choice takes and needs (:func:`_usage`).
_FLAGS = {
    "n_max": ("--max", "N", MAX_INDEX),
    "row_n": ("--n", "ROW", MAX_INDEX),
    "limit": ("--limit", "N", MAX_INDEX),
    "order": ("--order", "ORDER", MAX_ORDER),
    "k": ("--k", "COLUMN", MAX_ORDER),
    "network": ("--network", None, None),
    "cache_dir": ("--cache-dir", "DIR", None),
}
#: ``verify``'s value of a flag its target takes and the command line leaves out.
_VERIFY_DEFAULTS = {"n_max": 200, "order": 64}


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
    verify.add_argument("target", choices=list(VERIFY_TARGETS))
    verify.add_argument("--max", type=int, dest="n_max")
    verify.add_argument("--order", type=int)
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


def _cmd_compute(args) -> int:
    sequence = SEQUENCES[args.sequence]
    if sequence.row:
        offset, values = 0, sequence.route(args.row_n)
    else:
        offset, values = sequence.first, sequence.terms(args.n_max)
    # plain and b-file output are the same "index value" lines
    for index, value in enumerate(values, start=offset):
        print(index, value)
    return EXIT_OK


def _cmd_verify(args) -> int:
    run, flags = VERIFY_TARGETS[args.target]
    given = vars(args)
    reports = run(*(_VERIFY_DEFAULTS[f] if given[f] is None else given[f] for f in flags))
    if args.format == "structured":
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_egf(args) -> int:
    if args.gf == "stirling-col":
        from fubini import series

        gf = series.stirling_column_egf(args.k, args.order)
    else:
        gf = SEQUENCES[args.gf].egf(args.order)
    for n, (coeff, value) in enumerate(zip(gf.coeffs, gf.to_sequence())):
        print(n, coeff, value)
    return EXIT_OK


def _cmd_bfile(args) -> int:
    from fubini import bfiles

    action, sequence_id = args.action, args.sequence_id
    if action == "fetch":
        try:
            bfile = bfiles.fetch_bfile(
                sequence_id, network=args.network, cache_dir=args.cache_dir
            )
        except bfiles.OfflineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ENV
        except OSError as exc:  # a URLError, a timeout, an unreadable cache entry
            print(f"error: transport failure: {exc}", file=sys.stderr)
            return EXIT_ENV
        print(f"fetched {sequence_id}: {len(bfile.entries)} entries")
        return EXIT_OK
    if action == "export":
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


def _usage(args):
    """The parsed choice's name in usage messages, the parsed flags it takes,
    and those it needs."""
    if args.command == "compute":
        flag = "row_n" if SEQUENCES[args.sequence].row else "n_max"
        return f"sequence {args.sequence!r}", {flag}, {flag}
    if args.command == "egf":
        column = {"k"} if args.gf == "stirling-col" else set()
        return f"gf {args.gf!r}", {"order"} | column, column
    if args.command == "verify":
        return f"verify {args.target}", set(VERIFY_TARGETS[args.target][1]), set()
    if args.action == "fetch":  # only fetch reads the network or the fetch cache
        return "bfile fetch", {"network", "cache_dir"}, set()
    return f"bfile {args.action}", {"limit"}, {"limit"} if args.action == "export" else set()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    name, takes, needs = _usage(args)
    for dest, (flag, metavar, cap) in _FLAGS.items():
        value = getattr(args, dest, None)
        if value is None or value is False:  # not given; --network is False
            if dest in needs:
                return _usage_error(f"{name} needs {flag} {metavar}")
        elif dest not in takes:
            return _usage_error(f"{name} does not take {flag}")
        elif cap is not None and value > cap:
            return _usage_error(f"{flag} must be <= {cap}, got {value}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:  # the library refused an argument, or failed on valid ones
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ArgumentError) else EXIT_FAIL
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ENV


if __name__ == "__main__":
    sys.exit(main())
