"""Command-line front end.

Four subcommands: ``compute`` prints sequence values, ``verify`` sweeps
the identity suite, ``egf`` prints exact generating-function
coefficients, and ``bfile`` checks/exports/fetches OEIS b-files.

Exit codes: 0 success (all identities pass), 1 identity or crosscheck failure
or a library fault, 2 usage error, 3 environment error (network disabled or
transport failure, a download past the fixed 30 s bound of
``bfiles.fetch_bfile`` included, an unreadable fetch cache, a corrupt
cached or downloaded b-file or one over ``bfiles.MAX_BFILE_BYTES``, or
stdout closed early). A usage error is a parse error (an unknown or
abbreviated flag, a bad choice, a value that is not an integer, a missing
positional), an argument the library refuses with
``fubini.ArgumentError``, or a breach of the one rule for flags: each
parsed choice (sequence, verify target, gf or b-file action) names the
flags it takes and the flags it needs, and :func:`main` checks every flag
of :data:`_FLAGS` once, before any command runs, against that choice and
the flag's cap (:data:`MAX_INDEX` or :data:`MAX_ORDER`). A library fault
is any other ``ValueError``: the arguments were valid and the library
failed. Either prints its message.

The parser is the CLI's own: :func:`_parse` reads argv left to right
against :data:`_COMMANDS`, which names each subcommand's positionals and
their choices, the :data:`_FLAGS` entries it defines and its ``--format``
choices, and :func:`_help` lays out ``--help`` from the same tables. It
reads argv as argparse reads it (``--flag=value``, flags before or after
the positionals, the last of a repeated flag, ``-3`` as a value, ``--``),
with argparse's messages, each parse error on one ``error:`` line. The
tests hold it to that: ``_argparse_oracle`` in ``tests/test_cli.py``
builds an argparse parser from the same tables, and each exit code,
parsed argument and ``--help`` at 80 columns must match, except in three
classes that argparse reads differently: a single-dash cluster such as
``-hh``, which argparse reads as ``-h`` twice; a leading ``--``, which
argparse takes for the command; and help wrapped to the terminal width,
where this layout is always argparse's at 80 columns. So no command
loads ``argparse``, ``gettext`` or ``locale``.

At import the CLI loads only ``registry`` and ``_args`` of the package.
Each command imports what only it needs (``sequences``, ``series``,
``identities``, ``bfiles``, ``json``) when it runs, so a short command
does not pay for the others' imports: ``egf`` loads neither ``sequences``
nor ``identities``, ``compute``, in either format, loads neither
``identities`` nor ``bfiles``, and of the ``bfile`` actions only
``check`` loads ``identities``. ``verify TARGET`` runs the verifier of
``registry.VERIFY_TARGETS[TARGET]`` with the parsed flags it names, the
only flags the target takes.

Every Stirling row a command prints from or checks, a ``compute`` point
row included, comes off one ``sequences._rows`` stream, through
``registry.Sequence.read`` or a verifier, so no command reads the row
memo, which serves the library's point reads only, and one row fed in on
the stream reaches every command.
"""

import os
import sys

from fubini._args import MAX_INDEX, MAX_ORDER, ArgumentError
from fubini.registry import SEQUENCES, VERIFY_TARGETS

__all__ = ["MAX_INDEX", "MAX_ORDER", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_ENV = 3

#: Parsed argument name -> (flag, metavar, cap): every flag ``main`` checks
#: against what the parsed choice takes and needs (:func:`_usage`). The
#: metavar is the placeholder of both ``--help`` and the usage errors.
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
#: ``fubini --help``'s description, wrapped at 78 columns as argparse wrapped it.
_DESCRIPTION = (
    "Exact ordered Bell / partition-count sequences, identity verification,\n"
    "generating-function inspection, and OEIS b-file interchange."
)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _print_lines(offset, values) -> None:
    """Print one ``index value`` line per value, from index ``offset``: the
    CLI's one writer of sequence and b-file lines. It prints line by line, so
    a closed stdout raises ``BrokenPipeError`` at the write that meets it."""
    for index, value in enumerate(values, start=offset):
        print(index, value)


def _cmd_compute(args) -> int:
    sequence = SEQUENCES[args["sequence"]]
    # plain and b-file output are the same "index value" lines
    if sequence.row:
        _print_lines(0, next(sequence.read(args["row_n"])))
    else:
        _print_lines(sequence.first, sequence.terms(args["n_max"]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    run, flags = VERIFY_TARGETS[args["target"]]
    reports = run(*(args.get(flag, _VERIFY_DEFAULTS[flag]) for flag in flags))
    if args.get("format") == "structured":
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.format_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_egf(args) -> int:
    if args["gf"] == "stirling-col":
        from fubini import series

        gf = series.stirling_column_egf(args["k"], args["order"])
    else:
        gf = SEQUENCES[args["gf"]].egf(args["order"])
    for n, (coeff, value) in enumerate(zip(gf.coeffs, gf.to_sequence())):
        print(n, coeff, value)
    return EXIT_OK


def _cmd_bfile(args) -> int:
    from fubini import bfiles

    action, sequence_id = args["action"], args["sequence_id"]
    if action == "fetch":
        try:
            table = bfiles.fetch_bfile(
                sequence_id, network=args.get("network", False), cache_dir=args.get("cache_dir")
            )
        except bfiles.OfflineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ENV
        except OSError as exc:  # a URLError, a timeout, an unreadable cache entry
            print(f"error: transport failure: {exc}", file=sys.stderr)
            return EXIT_ENV
        except bfiles.BFileParseError as exc:  # the arguments were valid; the file is not
            print("error: the cached or downloaded b-file is unusable:", exc, file=sys.stderr)
            return EXIT_ENV
        print(f"fetched {sequence_id}: {len(table.values)} entries")
        return EXIT_OK
    if action == "export":
        table = bfiles.computed_table(sequence_id, args["limit"])
        _print_lines(table.offset, table.values)
        return EXIT_OK
    # check
    reference = bfiles.load_fixture(sequence_id)  # compute no further than it reaches
    limit = min(args.get("limit", reference.last_index), reference.last_index)
    report = bfiles.crosscheck(bfiles.computed_table(sequence_id, limit), reference)
    print(report.format_line())
    return EXIT_OK if report.passed else EXIT_FAIL


def _usage(args):
    """The parsed choice's name in usage messages, the parsed flags it takes,
    and those it needs."""
    if args["command"] == "compute":
        flag = "row_n" if SEQUENCES[args["sequence"]].row else "n_max"
        return f"sequence {args['sequence']!r}", {flag}, {flag}
    if args["command"] == "egf":
        flags = {"order", "k"} if args["gf"] == "stirling-col" else {"order"}
        return f"gf {args['gf']!r}", flags, flags
    if args["command"] == "verify":
        return f"verify {args['target']}", set(VERIFY_TARGETS[args["target"]][1]), set()
    if args["action"] == "fetch":  # only fetch reads the network or the fetch cache
        return "bfile fetch", {"network", "cache_dir"}, set()
    return f"bfile {args['action']}", {"limit"}, {"limit"} if args["action"] == "export" else set()


#: Each subcommand: what runs it, its line in ``fubini --help``, its
#: positionals as ``(name, choices)`` (``None`` takes any value), the
#: :data:`_FLAGS` entries it defines with their ``--help`` text, and its
#: ``--format`` choices (``plain`` when the flag is left out).
_COMMANDS = {
    "compute": (_cmd_compute, "print sequence values, one 'index value' line each",
                [("sequence", [name for name, s in SEQUENCES.items() if s.route])],
                {"n_max": "last index to print", "row_n": "row index for *-row sequences"},
                ("plain", "bfile")),
    "verify": (_cmd_verify, "sweep the identity suite", [("target", list(VERIFY_TARGETS))],
               {"n_max": "", "order": ""}, ("plain", "structured")),
    "egf": (_cmd_egf, "print exact generating-function coefficients",
            [("gf", [name for name, s in SEQUENCES.items() if s.egf] + ["stirling-col"])],
            {"order": "", "k": "column for gf=stirling-col"}, ()),
    "bfile": (_cmd_bfile, "check/export/fetch OEIS b-files",
              [("action", ["check", "export", "fetch"]), ("sequence_id", None)],
              {"limit": "inclusive maximum index", "network": "allow fetching from oeis.org",
               "cache_dir": "override the fetch cache directory"}, ()),
}


def _fail(message: str):
    """A parse error: its ``error:`` line on stderr, and exit 2."""
    raise SystemExit(_usage_error(message))


def _is_flag(token: str) -> bool:
    """Whether ``token`` reads as a flag: a dash and more, no space, and not a
    negative number such as ``-3`` or ``-.5``, which reads as a value."""
    head, point, tail = token[1:].partition(".")
    number = (head + tail).isdecimal() and (tail or not point)
    return token[:1] == "-" and len(token) > 1 and " " not in token and not number


def _value(name: str, value: str, kind):
    """Argument ``name``'s ``value`` as ``kind``: ``int``, one of a
    collection of choices, or any text if ``kind`` is ``None``."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _fail(f"argument {name}: invalid int value: {value!r}")
    if kind is not None and value not in kind:
        listed = ", ".join(map(repr, kind))
        _fail(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _help(prog: str, positionals, flags, formats):
    """Print ``prog``'s ``--help`` and exit 0. The layout is argparse's at 80
    columns: the usage wrapped at 78, its positionals starting a line, and
    each help text in column 24."""
    options = [("  -h, --help", "show this help message and exit")]
    options += [("  " + " ".join(filter(None, _FLAGS[d][:2])), text) for d, text in flags.items()]
    options += [(f"  --format {{{','.join(formats)}}}", "")] if formats else []
    names = [f"{{{','.join(kind)}}}" if kind else dest.upper() for dest, kind in positionals]
    rows = [("  " + name, "") for name in names]
    if prog == "fubini":  # the top level lists each command with its help line
        rows += [("    " + command, spec[1]) for command, spec in _COMMANDS.items()]
        names[0] += " ..."
    words = ["[-h]"] + [f"[{option.strip()}]" for option, _ in options[1:]]
    usage, wrap = [f"usage: {prog}"], len(" ".join([prog, *words, *names])) > 71
    for i, word in enumerate(words + names):
        if wrap and (i == len(words) or len(usage[-1]) + len(word) >= 78):
            usage.append(" " * (len(prog) + 7))
        usage[-1] += " " + word
    sections = ["\n".join(usage)] + [_DESCRIPTION] * (prog == "fubini")
    for title, lines in ("positional arguments:", rows), ("options:", options):
        sections.append("\n".join([title] + [f"{h:<22}  {t}" if t else h for h, t in lines]))
    print("\n\n".join(sections))
    raise SystemExit(EXIT_OK)


def _read(argv: list, args: dict, prog: str, positionals, flags, formats=()) -> list:
    """Read ``argv`` into ``args`` left to right, as argparse read it, and
    return the stray tokens: unknown flags and positionals past the last.

    A flag takes the text after its ``=``, or else the next token unless
    that reads as a flag; the last value of a repeated flag wins. ``--``
    makes every later token a positional, and is itself a stray token
    unless a positional stands next to it. The top level's one positional
    is the command, which reads the rest of ``argv``.
    """
    # each flag's name in args; --format is unknown to a command without formats
    options = {"-h": "help", "--help": "help", "--format": "format" if formats else None}
    options.update((_FLAGS[dest][0], dest) for dest in flags)
    pending, dashes, extras = list(positionals), False, []
    while argv:
        token = argv.pop(0)
        flag, equals, value = token.partition("=")
        dest = None if dashes else options.get(flag)
        if dest in ("help", "network") and equals:
            _fail(f"argument {flag}: ignored explicit argument {value!r}")
        if dest == "help":
            _help(prog, positionals, flags, formats)
        elif dest == "network":
            args[dest] = True
        elif dest:
            if not equals and (not argv or _is_flag(argv[0])):
                _fail(f"argument {flag}: expected one argument")
            kind = formats if dest == "format" else None if dest == "cache_dir" else int
            args[dest] = _value(flag, value if equals else argv.pop(0), kind)
        elif token == "--" and not dashes:
            dashes = True
            if not (argv and pending):  # no positional follows it
                extras.append(token)
        elif not pending or not dashes and _is_flag(token):
            extras.append(token)
        else:
            (dest, choices), *pending = pending
            args[dest] = _value(dest, token, choices)
            if dest == "command":
                return extras + _read(argv, args, f"fubini {token}", *_COMMANDS[token][2:])
            if argv[:1] == ["--"] and not dashes:  # a -- right after a positional goes with it
                del argv[0]
                dashes = True
    if pending:
        names = ", ".join(dest if choices else dest.upper() for dest, choices in pending)
        _fail(f"the following arguments are required: {names}")
    return extras


def _parse(argv) -> dict:
    """``argv`` parsed: the value of each positional and flag given, by name.
    A parse error prints its ``error:`` line and exits 2; ``-h`` or
    ``--help`` prints the help and exits 0."""
    args = {}
    extras = _read(list(argv), args, "fubini", [("command", _COMMANDS)], {})
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    name, takes, needs = _usage(args)
    for dest, (flag, metavar, cap) in _FLAGS.items():
        value = args.get(dest)
        if value is None:  # not given
            if dest in needs:
                return _usage_error(f"{name} needs {flag} {metavar}")
        elif dest not in takes:
            return _usage_error(f"{name} does not take {flag}")
        elif cap is not None and value > cap:
            return _usage_error(f"{flag} must be <= {cap}, got {value}")
    try:
        code = _COMMANDS[args["command"]][0](args)
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
