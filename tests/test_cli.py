"""End-to-end CLI behavior: outputs, exit codes, round trips."""

import hashlib
import json
import subprocess
import sys
import urllib.request
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubini import bfiles, identities, sequences, series
from fubini.cli import MAX_INDEX, MAX_ORDER, main
from fubini.registry import SEQUENCES, VERIFY_TARGETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute ----------------------------------------------------------------


def test_compute_bell(capsys):
    code, out, _ = run_cli(capsys, "compute", "bell", "--max", "3")
    assert code == 0
    assert out == "0 1\n1 1\n2 3\n3 13\n"


def test_compute_cyclic_single(capsys):
    code, out, _ = run_cli(capsys, "compute", "cyclic", "--max", "1")
    assert code == 0
    assert out == "1 1\n"


def test_compute_cyclic_parities(capsys):
    code, out, _ = run_cli(capsys, "compute", "cyclic-even", "--max", "4")
    assert code == 0
    assert out == "1 0\n2 1\n3 3\n4 13\n"
    code, out, _ = run_cli(capsys, "compute", "cyclic-odd", "--max", "2")
    assert out == "1 1\n2 1\n"


def test_compute_rows(capsys):
    code, out, _ = run_cli(capsys, "compute", "stirling-row", "--n", "4")
    assert code == 0
    assert out == "0 0\n1 1\n2 7\n3 6\n4 1\n"
    code, out, _ = run_cli(capsys, "compute", "worpitzky-row", "--n", "3")
    assert out == "0 1\n1 7\n2 12\n3 6\n"
    code, out, _ = run_cli(capsys, "compute", "worpitzky-row", "--n", "3", "--format", "bfile")
    assert code == 0
    assert out == "0 1\n1 7\n2 12\n3 6\n"


def test_compute_bfile_format_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "compute", "bell", "--max", "6", "--format", "bfile")
    assert code == 0
    parsed = bfiles.parse_bfile(out)
    assert [v for _, v in parsed.entries] == [sequences.ordered_bell(n) for n in range(7)]


#: Per command, argvs with an argument below its bound, and the library's
#: message naming that argument, which the CLI prints after ``error: ``.
BELOW_BOUND = {
    "compute": [
        (("compute", "cyclic", "--max", "0"), "n_max must be >= 1, got 0"),
        (("compute", "stirling-row", "--n", "-1"), "row index must be >= 0, got -1"),
        (("compute", "worpitzky-row", "--n", "-1"), "n must be >= 0, got -1"),
    ],
    "egf": [
        (("egf", "bell", "--order", "-1"), "order must be >= 0, got -1"),
        (("egf", "stirling-col", "--order", "8", "--k", "-1"), "k must be >= 0, got -1"),
    ],
}


def test_compute_usage_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "bell", "--max", "0x"])
    assert excinfo.value.code == 2

    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "nonsense", "--max", "3"])
    assert excinfo.value.code == 2

    code, _, err = run_cli(capsys, "compute", "bell")  # missing --max
    assert code == 2
    assert "error" in err

    code, _, err = run_cli(capsys, "compute", "stirling-row", "--max", "4")
    assert code == 2  # rows need --n

    code, _, err = run_cli(capsys, "compute", "cyclic", "--max", "0")
    assert code == 2  # cyclic sequences start at n=1

    for argv, message in BELOW_BOUND["compute"]:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (("compute", "bell", "--max", "3", "--n", "2"), "sequence 'bell' does not take --n"),
        (
            ("compute", "stirling-row", "--n", "2", "--max", "3"),
            "sequence 'stirling-row' does not take --max",
        ),
        (("egf", "bell", "--order", "2", "--k", "1"), "gf 'bell' does not take --k"),
        # only fetch reads the network or the fetch cache
        (
            ("bfile", "export", "A000670", "--limit", "3", "--network", "--cache-dir", "/x"),
            "bfile export does not take --network",
        ),
        (
            ("bfile", "export", "A000670", "--limit", "3", "--cache-dir", ""),
            "bfile export does not take --cache-dir",
        ),
        (("bfile", "check", "A000670", "--network"), "bfile check does not take --network"),
        (("bfile", "check", "A000670", "--cache-dir", "x"), "bfile check does not take --cache-dir"),
        (("bfile", "fetch", "A000670", "--limit", "5"), "bfile fetch does not take --limit"),
    ],
)
def test_a_flag_the_sequence_ignores_is_a_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


#: Each subcommand's optional flags; the value a test gives a flag ("3" if
#: not listed); the metavar a "needs" message names; verify's flag by parsed name.
_OPTIONAL = {
    "compute": ("--max", "--n"),
    "verify": ("--max", "--order"),
    "egf": ("--k",),
    "bfile": ("--limit", "--network", "--cache-dir"),
}
_VALUES = {"--network": [], "--cache-dir": ["cache"]}
_METAVARS = {"--max": "N", "--n": "ROW", "--k": "COLUMN", "--limit": "N"}
_VERIFY_FLAGS = {"n_max": "--max", "order": "--order"}


def _choices():
    """Each parsed choice as ``(argv, name, takes, needs)``, from the parser's
    own tables: its positional argv, the name its usage errors give it, and
    the optional flags it takes and needs."""
    for name, s in SEQUENCES.items():
        if s.route:
            flag = {"--n" if s.row else "--max"}
            yield ["compute", name], f"sequence {name!r}", flag, flag
    for target, (_, dests) in VERIFY_TARGETS.items():
        yield ["verify", target], f"verify {target}", {_VERIFY_FLAGS[d] for d in dests}, set()
    for name in [name for name, s in SEQUENCES.items() if s.egf] + ["stirling-col"]:
        column = {"--k"} if name == "stirling-col" else set()
        yield ["egf", name, "--order", "8"], f"gf {name!r}", column, column
    yield ["bfile", "check", "A000670"], "bfile check", {"--limit"}, set()
    yield ["bfile", "export", "A000670"], "bfile export", {"--limit"}, {"--limit"}
    yield ["bfile", "fetch", "A000670"], "bfile fetch", {"--network", "--cache-dir"}, set()


def _with(argv, flags):
    for flag in sorted(flags):
        argv = [*argv, flag, *_VALUES.get(flag, ["3"])]
    return argv


_REFUSED = [
    *(
        (_with(argv, needs | {flag}), f"{name} does not take {flag}")
        for argv, name, takes, needs in _choices()
        for flag in _OPTIONAL[argv[0]]
        if flag not in takes
    ),
    *(
        (_with(argv, needs - {flag}), f"{name} needs {flag} {_METAVARS[flag]}")
        for argv, name, _, needs in _choices()
        for flag in needs
    ),
]


@pytest.mark.parametrize("argv, message", _REFUSED, ids=[" ".join(a) for a, _ in _REFUSED])
def test_each_choice_refuses_the_flags_it_does_not_take_and_needs_the_rest(
    capsys, argv, message
):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, flag, cap",
    [
        (("compute", "bell", "--max"), "--max", MAX_INDEX),
        (("compute", "stirling-row", "--n"), "--n", MAX_INDEX),
        (("verify", "all", "--max"), "--max", MAX_INDEX),
        (("verify", "egf", "--order"), "--order", MAX_ORDER),
        (("egf", "cyclic-odd", "--order"), "--order", MAX_ORDER),
        (("egf", "stirling-col", "--order", "8", "--k"), "--k", MAX_ORDER),
        (("bfile", "export", "A000670", "--limit"), "--limit", MAX_INDEX),
        (("bfile", "check", "A008277", "--limit"), "--limit", MAX_INDEX),
    ],
)
def test_flags_above_their_cap_exit_2(capsys, argv, flag, cap):
    code, out, err = run_cli(capsys, *argv, str(cap + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be <= {cap}, got {cap + 1}\n"


# -- verify -------------------------------------------------------------------


def test_verify_all_plain(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max", "25", "--order", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.endswith("pass") for line in lines)


def test_verify_target_structured(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cyclic", "--max", "12", "--format", "structured"
    )
    assert code == 0
    reports = json.loads(out)
    assert reports == [
        {
            "identity_id": "cyclic.doubling",
            "range_checked": [1, 12],
            "status": "pass",
            "first_failure": None,
        }
    ]


def test_verify_failure_exit_code(capsys, monkeypatch):
    real_read, real_rows = sequences._read_row, sequences._stirling_rows

    def corrupted(n, row):
        if n == 6:
            row = list(row)  # a copy: the memo holds this row, and the stream steps from it
            row[2] += 1
        return row

    monkeypatch.setattr(
        sequences, "_read_row", lambda n: sequences._RowSums(corrupted(n, real_read(n).row))
    )
    monkeypatch.setattr(
        sequences,
        "_stirling_rows",
        lambda: (corrupted(n, row) for n, row in enumerate(real_rows())),
    )
    code, out, _ = run_cli(capsys, "verify", "cyclic", "--max", "10")
    assert code == 1
    assert "fail" in out
    assert "first_failure" in out


def test_verify_target_runs_the_patched_verifier(capsys, monkeypatch):
    # each target looks its verifier up when it runs, not when the table is built
    report = identities.VerificationReport("cyclic.parity-equal", (1, 5), "fail", (3, 7, 8))
    monkeypatch.setattr(identities, "verify_parity_split", lambda n_max: [report])
    assert not hasattr(identities, "VERIFY_TARGETS")  # the table has one name
    code, out, err = run_cli(capsys, "verify", "parity", "--max", "5")
    assert (code, out, err) == (1, report.format_line() + "\n", "")


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "bogus"])
    assert excinfo.value.code == 2
    capsys.readouterr()

    code, _, err = run_cli(capsys, "verify", "all", "--max", "0")
    assert code == 2
    assert err == "error: empty range: n_max must be >= 1, got 0\n"

    code, _, err = run_cli(capsys, "verify", "egf", "--order", "0")
    assert code == 2
    assert err == "error: empty range: order must be >= 1, got 0\n"


#: SHA-256 of the stdout of ``verify all --max 200 --order 24`` in each format,
#: captured before the integer sweep streamed its own Stirling rows.
VERIFY_ALL_DIGESTS = {
    "plain": "19f2b244fc3054c006595220f919079170acc1565c066ed383a5db86729045bf",
    "structured": "1b54265f821eaf35ad75fa2ea34e14a5695cc9f1013a2f6376684ee270115bfd",
}


@pytest.mark.parametrize("fmt, digest", VERIFY_ALL_DIGESTS.items())
def test_verify_all_output_is_frozen(capsys, fmt, digest):
    argv = ("verify", "all", "--max", "200", "--order", "24", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_egf_reports_a_non_integral_egf(capsys, monkeypatch):
    real = series.ordered_bell_egf
    monkeypatch.setattr(
        series,
        "ordered_bell_egf",
        lambda order: real(order) + series.TruncatedSeries([0, 0, 0, Fraction(1, 7)], order=order),
    )
    code, out, err = run_cli(capsys, "verify", "egf", "--order", "6")
    assert code == 1
    assert out.splitlines()[0] == (
        "egf.agreement n=0..6 fail first_failure: n=3 expected=13 actual=97/7"
    )
    assert err == ""


#: A builder patched to fail on valid arguments -> the argv that reaches it and
#: the start of the message the CLI prints.
LIBRARY_FAULTS = {
    "exp_series": (
        lambda real: lambda order: real(order) + Fraction(1, 6),
        ("verify", "egf", "--order", "6"),
        "error: series log needs constant term 1\n",
    ),
    "ordered_bell_egf": (
        lambda real: lambda order: real(order)
        + series.TruncatedSeries([0, 0, Fraction(1, 7)], order=order),
        ("egf", "bell", "--order", "4"),
        "error: not an integer EGF: ",
    ),
}


@pytest.mark.parametrize("builder", LIBRARY_FAULTS)
def test_a_library_fault_exits_1_with_its_message(capsys, monkeypatch, builder):
    # the arguments are valid, so the error is not a usage error (exit 2)
    corrupt, argv, message = LIBRARY_FAULTS[builder]
    monkeypatch.setattr(series, builder, corrupt(getattr(series, builder)))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


# -- egf ---------------------------------------------------------------------


def test_egf_bell(capsys):
    code, out, _ = run_cli(capsys, "egf", "bell", "--order", "2")
    assert code == 0
    assert out == "0 1 1\n1 1 1\n2 3/2 3\n"


def test_egf_cyclic_even_order_one(capsys):
    code, out, _ = run_cli(capsys, "egf", "cyclic-even", "--order", "1")
    assert code == 0
    assert out == "0 0 0\n1 0 0\n"


@pytest.mark.parametrize(
    "gf, expected",
    [
        ("cyclic", "0 0 0\n1 1 1\n2 1 2\n3 1 6\n4 13/12 26\n"),
        ("cyclic-odd", "0 0 0\n1 1 1\n2 1/2 1\n3 1/2 3\n4 13/24 13\n"),
        ("double-shifted-bell", "0 0 0\n1 2 2\n2 1 2\n3 1 6\n4 13/12 26\n"),
    ],
)
def test_egf_output(capsys, gf, expected):
    code, out, _ = run_cli(capsys, "egf", gf, "--order", "4")
    assert code == 0
    assert out == expected


def test_egf_stirling_col(capsys):
    code, out, _ = run_cli(capsys, "egf", "stirling-col", "--order", "3", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["0 0 0", "1 0 0", "2 1/2 1", "3 1/2 3"]


#: SHA-256 of the stdout of ``egf ... --order 64``. The printed coefficients
#: are exact, so any change to the series engine must reproduce them byte for
#: byte.
EGF_ORDER_64_DIGESTS = {
    ("bell",): "ef572262f428eea77d160ef7d6429ca85937bdde4effe11b9c9cd83c226ccb2a",
    ("cyclic",): "a7acd4fdd702ef888a137516c63c8a5510a08996f16ca00be8ccac78a165a1f4",
    ("double-shifted-bell",): "e8b2fc57fb0e74d0fc7de20a4353783a67e381556907cabced7db06646c62628",
    ("cyclic-even",): "c59c17bb80da2bd7de1ab79ed8742207c12dbc67b9c0f27c7d261b00f1c095a0",
    ("cyclic-odd",): "073d8ae81634601a1044d8b99367ef0df4dcf1b5aa337d705359e227138cddc9",
    ("stirling-col", "--k", "0"): "f6720a989592b575fa150e6828a873941d658959994b971b8915f6904c4c32a5",
    ("stirling-col", "--k", "1"): "606c05d63845cdb555a736809c216362d0696773d1fcbce02cee54d01d1eedf1",
    ("stirling-col", "--k", "5"): "e0ed1cb6038ee93ddd5fd02583c7cbc7d9c5ecf0cec270b9609e44965c1f6470",
    ("stirling-col", "--k", "12"): "5377e63142ba0da69a36d688e0abd779a67dd92b598b51f5d272e09c176d8433",
}


@pytest.mark.parametrize(
    "args, digest", EGF_ORDER_64_DIGESTS.items(), ids=[" ".join(a) for a in EGF_ORDER_64_DIGESTS]
)
def test_egf_order_64_output_is_frozen(capsys, args, digest):
    gf, *extra = args
    code, out, err = run_cli(capsys, "egf", gf, "--order", "64", *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_egf_usage_errors(capsys):
    code, _, err = run_cli(capsys, "egf", "stirling-col", "--order", "2")
    assert code == 2
    assert "--k" in err

    with pytest.raises(SystemExit) as excinfo:
        main(["egf", "unknown", "--order", "2"])
    assert excinfo.value.code == 2

    code, _, _ = run_cli(capsys, "egf", "bell", "--order", "-1")
    assert code == 2

    for argv, message in BELOW_BOUND["egf"]:
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


# -- bfile -------------------------------------------------------------------


def test_bfile_check_passes(capsys):
    code, out, _ = run_cli(capsys, "bfile", "check", "A000670", "--limit", "20")
    assert code == 0
    assert "oeis.A000670" in out
    assert "pass" in out


def test_bfile_check_all_fixtures(capsys):
    for sequence_id in bfiles.fixture_ids():
        code, out, _ = run_cli(capsys, "bfile", "check", sequence_id)
        assert code == 0, out


def test_bfile_export(capsys):
    code, out, _ = run_cli(capsys, "bfile", "export", "A000670", "--limit", "2")
    assert code == 0
    assert out == "0 1\n1 1\n2 3\n"
    code, out, _ = run_cli(capsys, "bfile", "export", "A008277", "--limit", "10")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n5 3\n6 1\n7 1\n8 7\n9 6\n10 1\n"
    code, out, _ = run_cli(capsys, "bfile", "export", "A130850", "--limit", "9")
    assert code == 0
    assert out == "0 1\n1 1\n2 1\n3 1\n4 3\n5 2\n6 1\n7 7\n8 12\n9 6\n"


def test_bfile_export_requires_limit(capsys):
    code, _, err = run_cli(capsys, "bfile", "export", "A000670")
    assert code == 2
    assert "--limit" in err


def test_bfile_fetch_offline(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "bfile", "fetch", "A000670", "--cache-dir", str(tmp_path)
    )
    assert code == 3
    assert "offline" in err


def test_bfile_fetch_unreadable_cache_entry_exits_3(capsys, tmp_path):
    (tmp_path / "b000670.txt").mkdir()  # the cache entry is a directory
    argv = ("bfile", "fetch", "A000670", "--network", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: transport failure: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bfile_fetch_read_timeout_exits_3(capsys, monkeypatch, tmp_path):
    class TimingOut:
        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def read(self):
            raise TimeoutError("The read operation timed out")

    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: TimingOut())
    argv = ("bfile", "fetch", "A000670", "--network", "--cache-dir", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: transport failure: The read operation timed out\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bfile", "fetch", "A000670", "--n"],
        ["bfile", "fetch", "A000670", "--netw"],
        ["compute", "bell", "--ma", "3"],
        ["verify", "parity", "--max", "5", "--form", "structured"],
    ],
)
def test_abbreviated_flags_are_usage_errors(capsys, monkeypatch, argv):
    # networking is opt-in, so only its full spelling may turn it on
    def no_fetch(*args, **kwargs):
        raise AssertionError("fetch_bfile was called")

    monkeypatch.setattr(bfiles, "fetch_bfile", no_fetch)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bfile_unknown_ids(capsys):
    code, _, err = run_cli(capsys, "bfile", "check", "X123")
    assert code == 2
    code, _, err = run_cli(capsys, "bfile", "check", "A000001")
    assert code == 2


def test_bfile_check_detects_mismatch(capsys, monkeypatch):
    real = sequences.ordered_bell

    def corrupted(n):
        return real(n) + (n == 5)

    monkeypatch.setattr(sequences, "ordered_bell", corrupted)
    code, out, _ = run_cli(capsys, "bfile", "check", "A000670", "--limit", "10")
    assert code == 1
    assert "fail" in out


# -- help --------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, choices",
    [
        ("compute", "{bell,cyclic,cyclic-even,cyclic-odd,stirling-row,worpitzky-row}"),
        ("egf", "{bell,cyclic,cyclic-even,cyclic-odd,double-shifted-bell,stirling-col}"),
        ("verify", "{all,bell,cyclic,alternating,parity,egf}"),
    ],
)
def test_help_lists_choices_in_order(capsys, command, choices):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert f"positional arguments:\n  {choices}\n" in capsys.readouterr().out


# -- hostile input -----------------------------------------------------------

#: Each subcommand's positional arguments, valid and not.
_POSITIONALS = {
    "compute": [[name] for name, s in SEQUENCES.items() if s.route] + [["nonsense"]],
    "verify": [*([target] for target in VERIFY_TARGETS), ["bogus"]],
    "egf": [[name] for name, s in SEQUENCES.items() if s.egf] + [["stirling-col"], ["bogus"]],
    "bfile": [
        [action, sequence_id]
        for action in ("check", "export", "fetch")
        for sequence_id in ("A000670", "A008277", "A130850", "A000001", "X1", "")
    ],
}
_NUMBERS = st.integers(-3, 12).map(str)
_FORMATS = st.sampled_from(["plain", "structured", "bfile"])
#: Values over every cap, malformed numbers and arbitrary text, for any flag.
_HOSTILE = st.one_of(
    st.sampled_from([str(MAX_INDEX + 1), str(MAX_ORDER + 1), "9" * 30]),
    st.sampled_from(["", "0x1f", "1e3", "+3", "1_0", "\u0661"]),
    st.text(max_size=4),
)
#: Each subcommand's flags and their well-formed values.
_FLAGS = {
    "compute": {"--max": _NUMBERS, "--n": _NUMBERS, "--format": _FORMATS},
    "verify": {"--max": _NUMBERS, "--order": _NUMBERS, "--format": _FORMATS},
    "egf": {"--order": _NUMBERS, "--k": _NUMBERS},
    "bfile": {"--limit": _NUMBERS, "--cache-dir": st.just("cache")},
}
#: A trailing token: any value, or a flag of another subcommand.
_JUNK = _HOSTILE | st.sampled_from(["-h", "--", "-", "--bogus", "--max", "--k", "--limit"])


@st.composite
def _hostile_argv(draw):
    command = draw(st.sampled_from(sorted(_POSITIONALS)))
    argv = [command, *draw(st.sampled_from(_POSITIONALS[command]))]
    if command == "verify" and argv[1] in VERIFY_TARGETS:  # the defaults take about a second
        for dest in VERIFY_TARGETS[argv[1]][1]:
            argv += [_VERIFY_FLAGS[dest], "6"]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv += [flag, draw(values | _HOSTILE)]
    argv += draw(st.lists(_JUNK, max_size=1))
    return argv


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        return exc.code


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(argv=_hostile_argv())
def test_hostile_argv_exits_with_a_code(argv):
    assert _exit_code(argv) in (0, 1, 2, 3), argv


# -- installed entry point -----------------------------------------------------


def test_module_invocation_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "fubini", "compute", "bell", "--max", "3"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout == "0 1\n1 1\n2 3\n3 13\n"


def test_closed_stdout_exits_quietly_with_the_environment_code():
    # the output (1.4 MB) outgrows the pipe's buffer, so a write after the
    # reader has gone finds the pipe closed
    with subprocess.Popen(
        [sys.executable, "-m", "fubini", "compute", "bell", "--max", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"0 1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    assert "Traceback" not in err
    assert err == ""


def test_cli_import_defers_the_http_client():
    # urllib.request is about half of the CLI's import time and only fetch needs it
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, fubini.cli; print('urllib.request' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
