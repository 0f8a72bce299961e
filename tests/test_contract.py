"""The argument contract of the public API, fuzzed over argument types.

Every index, order, column and limit argument is an integer at least some
bound. A ``bool`` counts as its int; any other type raises ``TypeError``
naming the argument and its type, and a value below the bound raises
``ArgumentError``, a ``ValueError``, naming the argument. No call hands the
caller a bare internal error, and none answers a float as if it were an int.
"""

import inspect
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fubini
from fubini.registry import SEQUENCES

#: The parameter names of an index, order, column or limit in the public API.
_INTEGER_PARAMETERS = {"n", "k", "n_max", "order", "limit"}


#: Public callable -> (a call taking only its integer arguments, the names its
#: errors give them).
_CASES = {
    "TruncatedSeries": (lambda order: fubini.TruncatedSeries([1, 2], order=order), ("order",)),
    "TruncatedSeries.truncate": (
        lambda order: fubini.TruncatedSeries([1, 2]).truncate(order),
        ("order",),
    ),
    "alternating_cyclic_sum": (fubini.alternating_cyclic_sum, ("n",)),
    "alternating_factorial_sum": (fubini.alternating_factorial_sum, ("n",)),
    "computed_table": (lambda limit: fubini.computed_table("A008277", limit), ("limit",)),
    "count_ordered_partitions_exhaustive": (
        fubini.count_ordered_partitions_exhaustive,
        ("n",),
    ),
    "count_partitions_exhaustive": (fubini.count_partitions_exhaustive, ("n", "k")),
    "cyclic_ordered_bell": (fubini.cyclic_ordered_bell, ("n",)),
    "cyclic_ordered_bell_egf": (fubini.cyclic_ordered_bell_egf, ("order",)),
    "cyclic_ordered_bell_even": (fubini.cyclic_ordered_bell_even, ("n",)),
    "cyclic_ordered_bell_even_egf": (fubini.cyclic_ordered_bell_even_egf, ("order",)),
    "cyclic_ordered_bell_odd": (fubini.cyclic_ordered_bell_odd, ("n",)),
    "cyclic_ordered_bell_odd_egf": (fubini.cyclic_ordered_bell_odd_egf, ("order",)),
    "double_shifted_bell_egf": (fubini.double_shifted_bell_egf, ("order",)),
    "exp_series": (fubini.exp_series, ("order",)),
    "ordered_bell": (fubini.ordered_bell, ("n",)),
    "ordered_bell_egf": (fubini.ordered_bell_egf, ("order",)),
    "ordered_bell_parity": (lambda n: fubini.ordered_bell_parity(n, "even"), ("n",)),
    "ordered_set_partitions": (lambda n: list(fubini.ordered_set_partitions(n)), ("n",)),
    "set_partitions": (lambda n: list(fubini.set_partitions(n)), ("n",)),
    "stirling2": (fubini.stirling2, ("n", "k")),
    "stirling2_row": (fubini.stirling2_row, ("row index",)),
    "stirling_column_egf": (fubini.stirling_column_egf, ("k", "order")),
    "verify_all": (fubini.verify_all, ("n_max", "order")),
    "verify_alternating_sums": (fubini.verify_alternating_sums, ("n_max",)),
    "verify_bell_forms": (fubini.verify_bell_forms, ("n_max",)),
    "verify_cyclic_doubling": (fubini.verify_cyclic_doubling, ("n_max",)),
    "verify_egf_agreement": (fubini.verify_egf_agreement, ("order",)),
    "verify_parity_split": (fubini.verify_parity_split, ("n_max",)),
    "worpitzky": (fubini.worpitzky, ("n", "k")),
    "worpitzky_row": (fubini.worpitzky_row, ("n",)),
}

#: Small ints, so no call needs a cap, and values of every other kind.
_ARGUMENTS = st.one_of(
    st.integers(-2, 6),
    st.booleans(),
    st.floats(-2, 6) | st.sampled_from([float("nan"), float("inf")]),
    st.fractions(-2, 6, max_denominator=3),
    st.sampled_from(["", "3", "-1", "x", "\u0663"]),  # strings, digits among them
    st.none(),
)
#: ``TruncatedSeries(coeffs, order=None)`` keeps every coefficient given.
_NOT_NONE = _ARGUMENTS.filter(lambda a: a is not None)


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(_CASES)))
    arguments = _NOT_NONE if name == "TruncatedSeries" else _ARGUMENTS
    return name, tuple(draw(arguments) for _ in _CASES[name][1])


def _outcome(call, args):
    try:
        return "returns", call(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_the_cases_cover_every_integer_parameter():
    takes_integers = {
        name
        for name in fubini.__all__
        if callable(value := getattr(fubini, name))
        and not (isinstance(value, type) and issubclass(value, Exception))
        and _INTEGER_PARAMETERS & set(inspect.signature(value).parameters)
    }
    assert takes_integers == {name for name in _CASES if "." not in name}


@settings(max_examples=150, deadline=None)
@given(call=_calls())
@example(call=("ordered_bell", (2.0,)))
@example(call=("stirling2", (5.0, 2)))
@example(call=("set_partitions", (2.0,)))
@example(call=("exp_series", (2.5,)))
@example(call=("ordered_bell", (True,)))
@example(call=("TruncatedSeries.truncate", (None,)))
def test_integer_arguments_follow_one_contract(call):
    name, args = call
    function, names = _CASES[name]
    if all(isinstance(a, int) for a in args):  # an int, or a bool as its int
        outcome = _outcome(function, args)
        assert outcome == _outcome(function, [int(a) for a in args])
        if outcome[0] != "returns":
            assert outcome[0] is fubini.ArgumentError
            assert any(f"{n} must be >= " in outcome[1] for n in names), outcome
        return
    with pytest.raises((TypeError, ValueError)) as info:
        function(*args)
    message = str(info.value)
    if info.type is TypeError:
        assert message in {
            f"{n} must be an integer, got {type(a).__name__}"
            for n, a in zip(names, args)
            if not isinstance(a, int)
        }
    else:
        assert any(f"{n} must be >= " in message for n in names), message


def test_a_bool_is_held_under_its_int(monkeypatch):
    triangle = fubini.sequences._StirlingTriangle()
    monkeypatch.setattr(fubini.sequences, "_shared_triangle", triangle)
    assert fubini.stirling2_row(True) == [0, 1]
    assert all(type(n) is int for n in triangle._rows)


@pytest.mark.parametrize("name", ["cyclic", "stirling-row"])
def test_terms_reject_an_index_below_first(name):
    with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
        SEQUENCES[name].terms(0)


#: Each kind of argument the library refuses -> a call refusing it, and the message.
_REFUSED = {
    "parity": (
        lambda: fubini.ordered_bell_parity(3, "both"),
        "parity must be 'even' or 'odd', got 'both'",
    ),
    "set enumeration cap": (
        lambda: fubini.count_partitions_exhaustive(13, 2),
        "exhaustive enumeration is capped at n <= 12, got 13",
    ),
    "ordered enumeration cap": (
        lambda: fubini.count_ordered_partitions_exhaustive(10),
        "exhaustive enumeration is capped at n <= 9, got 10",
    ),
    "empty range": (lambda: fubini.verify_bell_forms(0), "empty range: n_max must be >= 1, got 0"),
    "sequence id": (
        lambda: fubini.load_fixture("X123"),
        "invalid OEIS sequence id 'X123' (expected 'A' + 6 digits)",
    ),
    "no fixture": (lambda: fubini.load_fixture("A000001"), "no bundled fixture for A000001"),
    "no sequence": (
        lambda: fubini.computed_table("A000001", 3),
        "no computable sequence registered for A000001",
    ),
    "no overlap": (
        lambda: fubini.crosscheck(
            fubini.SequenceTable("x", 0, (1, 1, 3)), fubini.parse_bfile("5 541")
        ),
        "no overlapping indices to compare",
    ),
    "b-file text": (lambda: fubini.parse_bfile("x"), "line 1: expected 'index value', got 'x'"),
    "b-file entries": (
        lambda: fubini.parse_bfile("0 1\n2 3\n", "A000670"),
        "line 2: index 2 not consecutive (gap after 0)",
    ),
    "b-file empty": (lambda: fubini.parse_bfile("# only a comment\n"), "no data lines found"),
    "b-file value": (
        lambda: fubini.emit_bfile(fubini.SequenceTable("x", 0, (10**5000,))),
        f"index 0: the value exceeds the {sys.get_int_max_str_digits()}-digit limit "
        "of int-to-str conversion",
    ),
}


@pytest.mark.parametrize("kind", _REFUSED)
def test_refused_arguments_raise_argument_error(kind):
    call, message = _REFUSED[kind]
    with pytest.raises(fubini.ArgumentError, match=f"^{re.escape(message)}$") as info:
        call()
    assert isinstance(info.value, ValueError)  # what a library caller catches


def test_a_library_fault_is_not_an_argument_error():
    with pytest.raises(ValueError, match="^series log needs constant term 1$") as info:
        fubini.TruncatedSeries.constant(2, 3).log()
    assert not isinstance(info.value, fubini.ArgumentError)
    assert issubclass(fubini.BFileParseError, fubini.ArgumentError)



#: Each route that takes a row's entry as ``sums`` -> its least n, and the
#: Stirling row its n reads, less n.
_SUMS_ROUTES = {
    "ordered_bell": (0, 0),
    "cyclic_ordered_bell": (1, 0),
    "cyclic_ordered_bell_even": (1, 0),
    "cyclic_ordered_bell_odd": (1, 0),
    "alternating_factorial_sum": (1, 0),
    "alternating_cyclic_sum": (1, 0),
    "stirling2_row": (0, 0),
    "worpitzky_row": (0, 1),
}


@pytest.mark.parametrize("name", _SUMS_ROUTES)
def test_a_route_refuses_sums_that_are_not_the_entry_of_its_row(name):
    # a route handed another row's entry raises a named error, never a bare
    # KeyError or the value of another row
    route, (first, shift) = getattr(fubini, name), _SUMS_ROUTES[name]
    entry = [fubini.sequences._RowSums(fubini.stirling2_row(m)) for m in range(6)]
    n = 3
    assert route(n, entry[n + shift]) == route(n)
    with pytest.raises(TypeError, match=r"^sums must be _RowSums, got dict$"):
        route(n, {})
    with pytest.raises(TypeError, match=r"^sums must be _RowSums, got list$"):
        route(n, entry[n + shift].row)
    for other in (n + shift - 1, n + shift + 1):
        message = f"sums must be the entry of row {n + shift}, got row {other}"
        with pytest.raises(fubini.ArgumentError, match=f"^{message}$"):
            route(n, entry[other])
    # n is checked first, as when the memo is read
    message = f"{'row index' if name == 'stirling2_row' else 'n'} must be >= {first}, got {first - 1}"
    with pytest.raises(fubini.ArgumentError, match=f"^{message}$"):
        route(first - 1, entry[max(first - 1 + shift, 0)])
