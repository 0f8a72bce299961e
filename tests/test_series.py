"""Truncated rational series engine: frozen values, contracts, properties."""

import functools
import threading
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fubini import cli, sequences, series
from fubini.series import (
    TruncatedSeries,
    cyclic_ordered_bell_egf,
    cyclic_ordered_bell_even_egf,
    cyclic_ordered_bell_odd_egf,
    double_shifted_bell_egf,
    exp_series,
    ordered_bell_egf,
    stirling_column_egf,
)
from fubini.series import _egf_terms

F = Fraction


def S(*coeffs):
    return TruncatedSeries(coeffs)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def series_of_order(order):
    return st.lists(
        small_fractions, min_size=order + 1, max_size=order + 1
    ).map(TruncatedSeries)


# -- construction and basics ----------------------------------------------


def test_constructor_pads_and_truncates():
    assert TruncatedSeries([1, 2], order=4).coeffs == (1, 2, 0, 0, 0)
    assert TruncatedSeries([1, 2, 3, 4], order=1).coeffs == (1, 2)
    assert TruncatedSeries.zero(2).coeffs == (0, 0, 0)
    assert TruncatedSeries.constant(7, 0).coeffs == (7,)
    assert TruncatedSeries.x(3).coeffs == (0, 1, 0, 0)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=-1)
    with pytest.raises(ValueError):
        TruncatedSeries([])


@pytest.mark.parametrize(
    "build",
    [TruncatedSeries.zero, functools.partial(TruncatedSeries.constant, 3), TruncatedSeries.x],
    ids=["zero", "constant", "x"],
)
def test_named_constructors_require_an_integer_order(build):
    # order=None means "no truncation" to the constructor, not to these
    with pytest.raises(TypeError, match="^order must be an integer, got NoneType$"):
        build(None)
    with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
        build(-1)
    assert build(True) == build(1)


def test_truncate_requires_an_integer_order():
    s = S(1, 2, 3)
    with pytest.raises(TypeError, match="^order must be an integer, got NoneType$"):
        s.truncate(None)
    with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
        s.truncate(-1)
    assert s.truncate(True) == S(1, 2)
    assert s.truncate(4) == S(1, 2, 3, 0, 0)


@given(series_of_order(5), st.integers(min_value=0, max_value=8))
@settings(max_examples=80)
def test_truncate_matches_rebuilding_from_the_coefficients(s, order):
    # orders below, equal to and above the series order; a cut can drop the
    # term that carried the common denominator, so the result is re-reduced
    assert s.truncate(order) == TruncatedSeries(s.coeffs, order=order)


def test_truncate_re_reduces_the_storage():
    s = S(1, F(1, 3), F(1, 2))
    assert s.truncate(1) == S(1, F(1, 3))
    assert s.truncate(0)._den == 1
    assert ordered_bell_egf(12).truncate(7) == ordered_bell_egf(7)


def test_indexing_counts_from_either_end():
    s = S(1, F(1, 2), 3)
    assert [s[i] for i in range(3)] == [1, F(1, 2), 3]
    assert [s[i] for i in range(-3, 0)] == [1, F(1, 2), 3]
    assert s[True] == F(1, 2)


def test_iteration_and_repr_read_the_coefficients():
    s = S(1, F(-1, 2), 0, F(3, 4))
    assert list(s) == list(s.coeffs) == [1, F(-1, 2), 0, F(3, 4)]
    assert repr(s) == "TruncatedSeries([1, -1/2, 0, 3/4])"


@pytest.mark.parametrize("index", [3, 5, -4])
def test_an_index_out_of_range_is_named(index):
    with pytest.raises(IndexError, match=rf"^index {index} is out of range -3\.\.2$"):
        S(1, 2, 3)[index]


@pytest.mark.parametrize("index", [slice(0, 2), 1.0, "1", None])
def test_an_index_must_be_an_integer(index):
    with pytest.raises(TypeError, match=f"^index must be an integer, got {type(index).__name__}$"):
        S(1, 2, 3)[index]


@pytest.mark.parametrize("inexact", [0.1, 1.0, 1j, complex(1, 0)])
def test_constructor_rejects_float_and_complex(inexact):
    with pytest.raises(TypeError, match="exact"):
        TruncatedSeries([inexact, 1])
    with pytest.raises(TypeError, match="exact"):
        TruncatedSeries.constant(inexact, 2)


NOT_RATIONAL = ["3", b"3", Decimal("3"), 0.5, 3j]


@pytest.mark.parametrize("value", NOT_RATIONAL, ids=lambda v: type(v).__name__)
def test_constructor_names_a_non_rational_type(value):
    with pytest.raises(TypeError, match=f"exact.* got {type(value).__name__} "):
        TruncatedSeries([1, value])


@pytest.mark.parametrize("text", ["12", b"12", bytearray(b"12")], ids=lambda v: type(v).__name__)
def test_constructor_rejects_text_for_the_coefficient_list(text):
    with pytest.raises(TypeError, match=f"exact.* got {type(text).__name__} "):
        TruncatedSeries(text)


SCALAR_OPERATIONS = pytest.mark.parametrize(
    "operation",
    [
        lambda f, c: f + c,
        lambda f, c: c + f,
        lambda f, c: f - c,
        lambda f, c: c - f,
        lambda f, c: f * c,
        lambda f, c: c * f,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)


@SCALAR_OPERATIONS
@pytest.mark.parametrize("inexact", [0.5, 2j])
def test_scalar_operations_reject_float_and_complex(operation, inexact):
    with pytest.raises(TypeError, match="exact"):
        operation(S(1, 2, 3), inexact)


@SCALAR_OPERATIONS
@pytest.mark.parametrize("value", NOT_RATIONAL[:3], ids=lambda v: type(v).__name__)
def test_scalar_operations_name_a_non_rational_type(operation, value):
    with pytest.raises(TypeError, match=f"exact.* got {type(value).__name__} "):
        operation(S(1, 2, 3), value)


def test_coefficients_are_normalized_fractions():
    s = S(F(2, 4), F(-3, -6))
    assert s[0] == F(1, 2) and s[0].denominator == 2
    assert s[1] == F(1, 2)


def test_equality_is_structural():
    assert S(1, 2) == S(1, 2)
    assert S(1, 2) != S(1, 2, 0)  # different orders differ
    assert (S(1) == object()) is False


# -- canonical form ----------------------------------------------------------


mixed_coefficients = st.one_of(st.integers(-9, 9), st.booleans(), small_fractions)


@given(st.lists(mixed_coefficients, min_size=1, max_size=8))
@settings(max_examples=60)
def test_mixed_coefficient_types_read_back_as_fractions(cs):
    coeffs = TruncatedSeries(cs).coeffs
    assert coeffs == tuple(map(Fraction, cs))
    assert all(type(c) is Fraction for c in coeffs)


def is_canonical(s):
    # one positive denominator sharing no factor with all the numerators
    return s._den > 0 and gcd(s._den, *s._num) == 1


@given(
    series_of_order(5),
    series_of_order(5).filter(lambda s: s[0] != 0),
    small_fractions.filter(bool),
)
@settings(max_examples=60)
def test_one_series_through_different_denominators_compares_equal(f, g, c):
    assert (f * 6) * F(1, 6) == f
    assert (f * c) * (1 / c) == f
    assert (f + g) - g == f
    assert (f * g) * g.inverse() == f
    assert TruncatedSeries(f.coeffs) == f
    assert all(map(is_canonical, (f, f * c, f + g, f * g, g.inverse(), -f)))


# -- ring operations -------------------------------------------------------


def test_add_frozen_examples():
    one = TruncatedSeries.constant(1, 3)
    assert one + TruncatedSeries.zero(3) == one
    assert (exp_series(3) + (-1)).coeffs == (0, 1, F(1, 2), F(1, 6))
    f = S(1, -2, 3)
    assert (f + (-f)) == TruncatedSeries.zero(2)


def test_mul_frozen_examples():
    f = S(2, 1, -1)
    assert f * TruncatedSeries.constant(1, 2) == f
    em1 = exp_series(3) - 1
    assert (em1 * em1).coeffs == (0, 0, 1, 1)
    x = TruncatedSeries.x(3)
    assert (x * x).coeffs == (0, 0, 1, 0)


def test_binary_ops_truncate_to_min_order():
    long = exp_series(6)
    short = S(1, 1)
    assert (long + short).order == 1
    assert (long * short).order == 1
    assert (long - short).order == 1


def test_scalar_operations():
    f = S(1, 2, 3)
    assert (2 * f).coeffs == (2, 4, 6)
    assert (f * F(1, 2)).coeffs == (F(1, 2), 1, F(3, 2))
    assert (f + 1).coeffs == (2, 2, 3)
    assert (2 - f).coeffs == (1, -2, -3)
    assert (f - 1).coeffs == (0, 2, 3)


def test_power():
    f = exp_series(4) - 1
    assert f ** 0 == TruncatedSeries.constant(1, 4)
    assert f ** 1 == f
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_power_squares_instead_of_multiplying_k_times(monkeypatch):
    f = exp_series(6) - 1
    expected = TruncatedSeries.constant(1, 6)
    for _ in range(13):
        expected = expected * f
    products = []
    multiply = TruncatedSeries.__mul__

    def counted(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    assert f ** 13 == expected
    assert len(products) <= 2 * (13).bit_length()


@given(series_of_order(6), series_of_order(6))
@settings(max_examples=60)
def test_add_mul_commute(f, g):
    assert f + g == g + f
    assert f * g == g * f


@given(series_of_order(5), series_of_order(5), series_of_order(5))
@settings(max_examples=60)
def test_associativity_and_distributivity(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# -- inverse ---------------------------------------------------------------


def test_inverse_frozen_examples():
    one = TruncatedSeries.constant(1, 4)
    assert one.inverse() == one
    two_minus_exp = 2 - exp_series(2)
    assert two_minus_exp.inverse().coeffs == (1, 1, F(3, 2))


def test_inverse_rejects_zero_constant_term():
    with pytest.raises(ZeroDivisionError, match="not invertible as power series"):
        TruncatedSeries.x(3).inverse()


@given(series_of_order(6).filter(lambda s: s[0] != 0))
@settings(max_examples=60)
def test_inverse_roundtrip(f):
    assert f * f.inverse() == TruncatedSeries.constant(1, 6)


# -- exp / log / atanh -----------------------------------------------------


def test_exp_frozen_examples():
    assert TruncatedSeries.zero(3).exp() == TruncatedSeries.constant(1, 3)
    assert TruncatedSeries.x(4).exp() == exp_series(4)


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        TruncatedSeries.constant(1, 3).exp()


def test_log_frozen_examples():
    assert TruncatedSeries.constant(1, 3).log() == TruncatedSeries.zero(3)
    # recurrence-confirmed coefficients of log(2 - e^x)
    assert (2 - exp_series(3)).log().coeffs == (0, -1, -1, -1)


def test_log_rejects_constant_term_not_one():
    with pytest.raises(ValueError, match="constant term 1"):
        TruncatedSeries.constant(2, 3).log()
    with pytest.raises(ValueError, match="constant term 1"):
        TruncatedSeries.zero(3).log()


def test_exp_log_roundtrip_example():
    f = S(0, 1, 1, 0, 0)  # x + x^2
    assert f.exp().log() == f
    g = 2 - exp_series(4)
    assert g.log().exp() == g


@given(series_of_order(6).map(lambda s: s - s[0]))
@settings(max_examples=40)
def test_log_exp_roundtrip(f):
    assert f.exp().log() == f


@given(series_of_order(6).map(lambda s: s - s[0] + 1))
@settings(max_examples=40)
def test_exp_log_roundtrip(g):
    assert g.log().exp() == g


@given(series_of_order(6).map(lambda s: s - s[0]))
@settings(max_examples=40)
def test_exp_satisfies_its_ode(f):
    # defining contract: g' = f' * g with g(0) = 1, exactly at truncation
    g = f.exp()
    assert g[0] == 1
    assert g.derivative() == f.derivative() * g


@given(series_of_order(6).map(lambda s: s - s[0] + 1))
@settings(max_examples=40)
def test_log_satisfies_its_ode(f):
    # defining contract: g' * f = f' with g(0) = 0
    g = f.log()
    assert g[0] == 0
    assert g.derivative() * f == f.derivative()


def test_atanh_frozen_examples():
    assert TruncatedSeries.zero(3).atanh() == TruncatedSeries.zero(3)
    assert TruncatedSeries.x(3).atanh().coeffs == (0, 1, 0, F(1, 3))
    assert TruncatedSeries.x(6).atanh().coeffs == (0, 1, 0, F(1, 3), 0, F(1, 5), 0)


def test_atanh_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        TruncatedSeries.constant(1, 2).atanh()


@given(series_of_order(6).map(lambda s: s - s[0]))
@settings(max_examples=40)
def test_atanh_derivative_contract(f):
    # d/dx atanh(u) = u' / (1 - u^2)
    g = f.atanh()
    lhs = g.derivative()
    rhs = f.derivative() * (1 - f * f).inverse()
    assert lhs == rhs


# -- derivative ------------------------------------------------------------


def test_derivative_frozen_examples():
    assert S(0, 0, 1, 0).derivative().coeffs == (0, 2, 0)
    assert exp_series(5).derivative() == exp_series(4)
    assert TruncatedSeries.constant(3, 0).derivative() == TruncatedSeries.zero(0)


# -- EGF extraction --------------------------------------------------------


def test_to_sequence_examples():
    assert exp_series(5).to_sequence() == [1, 1, 1, 1, 1, 1]
    assert ordered_bell_egf(3).to_sequence() == [1, 1, 3, 13]
    with pytest.raises(ValueError, match="not an integer EGF"):
        S(0, F(1, 2)).to_sequence()
    with pytest.raises(ValueError, match=r"^not an integer EGF: 2! \* coefficient 2 = 1/3$"):
        S(1, 1, F(1, 6), 1).to_sequence()


def test_egf_terms_keep_a_non_integral_term():
    assert _egf_terms(ordered_bell_egf(3)) == [1, 1, 3, 13]
    terms = _egf_terms(S(1, 1, F(1, 6), 1))
    assert terms == [1, 1, F(1, 3), 6]
    assert [type(t) for t in terms] == [int, int, F, int]


# -- generating-function builders -------------------------------------------


def test_ordered_bell_egf_frozen():
    assert ordered_bell_egf(0).coeffs == (1,)
    assert ordered_bell_egf(2).coeffs == (1, 1, F(3, 2))


def test_ordered_bell_egf_matches_direct():
    assert ordered_bell_egf(16).to_sequence() == [
        sequences.ordered_bell(n) for n in range(17)
    ]


def test_stirling_column_egf():
    assert stirling_column_egf(0, 4) == TruncatedSeries.constant(1, 4)
    assert stirling_column_egf(1, 3).to_sequence() == [0, 1, 1, 1]
    assert stirling_column_egf(2, 4).to_sequence() == [0, 0, 1, 3, 7]
    for k in range(7):
        extracted = stirling_column_egf(k, 12).to_sequence()
        assert extracted == [sequences.stirling2(n, k) for n in range(13)]
    with pytest.raises(ValueError):
        stirling_column_egf(-1, 4)


def test_a_column_past_the_order_is_zero_without_its_factorial(monkeypatch):
    # (e^x - 1)^k has no term below x^k
    assert (exp_series(4) - 1) ** 5 * F(1, 120) == TruncatedSeries.zero(4)

    def no_factorial(k):
        raise AssertionError(f"factorial({k}) was computed")

    monkeypatch.setattr(series, "factorial", no_factorial)
    assert stirling_column_egf(10**6, 4) == TruncatedSeries.zero(4)
    assert stirling_column_egf(5, 4) == TruncatedSeries.zero(4)


def test_cyclic_egf_frozen_and_direct():
    assert cyclic_ordered_bell_egf(1).to_sequence() == [0, 1]
    extracted = cyclic_ordered_bell_egf(16).to_sequence()
    assert extracted[0] == 0
    assert extracted[4] == 26  # 2 * ordered_bell(3)
    assert extracted[1:] == [sequences.cyclic_ordered_bell(n) for n in range(1, 17)]


def test_double_shifted_bell_egf():
    assert double_shifted_bell_egf(1).to_sequence() == [0, 2]
    extracted = double_shifted_bell_egf(12).to_sequence()
    assert extracted == [0] + [2 * sequences.ordered_bell(n - 1) for n in range(1, 13)]


def test_derivative_of_double_shifted_is_twice_bell():
    for order in (1, 2, 8, 16):
        lhs = double_shifted_bell_egf(order).derivative()
        assert lhs == 2 * ordered_bell_egf(order - 1)


def test_parity_egfs_match_direct_routes():
    even = cyclic_ordered_bell_even_egf(14).to_sequence()
    odd = cyclic_ordered_bell_odd_egf(14).to_sequence()
    assert even[0] == 0 and odd[0] == 0
    assert even[1] == 0 and odd[1] == 1
    assert even[1:] == [sequences.cyclic_ordered_bell_even(n) for n in range(1, 15)]
    assert odd[1:] == [sequences.cyclic_ordered_bell_odd(n) for n in range(1, 15)]


def test_parity_egfs_recombine():
    order = 14
    even = cyclic_ordered_bell_even_egf(order)
    odd = cyclic_ordered_bell_odd_egf(order)
    assert even + odd == cyclic_ordered_bell_egf(order)
    difference = (even - odd).to_sequence()
    assert difference[0] == 0
    assert difference[1:] == [
        sequences.alternating_cyclic_sum(n) for n in range(1, order + 1)
    ]


# -- differential test against a Fraction reference -------------------------
#
# Schoolbook recurrences over plain lists of Fractions, which share nothing
# with the engine's integer storage; every coefficient of the engine must
# equal theirs.


def ref_mul(f, g):
    n = min(len(f), len(g))
    return [sum(f[i] * g[m - i] for i in range(m + 1)) for m in range(n)]


def ref_inverse(f):
    g = [1 / f[0]]
    for m in range(1, len(f)):
        g.append(-sum(f[i] * g[m - i] for i in range(1, m + 1)) / f[0])
    return g


def ref_exp(f):
    g = [F(1)]
    for m in range(len(f) - 1):
        total = sum((i + 1) * f[i + 1] * g[m - i] for i in range(m + 1))
        g.append(total / (m + 1))
    return g


def ref_log(f):
    g = [F(0)]
    for m in range(len(f) - 1):
        total = (m + 1) * f[m + 1] - sum(
            j * g[j] * f[m + 1 - j] for j in range(1, m + 1)
        )
        g.append(total / (m + 1))
    return g


mixed_denominators = st.fractions(min_value=-7, max_value=7, max_denominator=12)
coefficient_lists = st.integers(0, 10).flatmap(
    lambda order: st.lists(mixed_denominators, min_size=order + 1, max_size=order + 1)
)


def same_coefficients(series, reference):
    return series.coeffs == tuple(map(F, reference))


@given(coefficient_lists, coefficient_lists)
@settings(max_examples=80)
def test_mul_matches_fraction_reference(f, g):
    assert same_coefficients(TruncatedSeries(f) * TruncatedSeries(g), ref_mul(f, g))


@given(coefficient_lists, mixed_denominators.filter(bool))
@settings(max_examples=80)
def test_inverse_matches_fraction_reference(f, constant):
    f = [constant] + f[1:]
    assert same_coefficients(TruncatedSeries(f).inverse(), ref_inverse(f))


@given(coefficient_lists)
@settings(max_examples=80)
def test_exp_matches_fraction_reference(f):
    f = [F(0)] + f[1:]
    assert same_coefficients(TruncatedSeries(f).exp(), ref_exp(f))


@given(coefficient_lists)
@settings(max_examples=80)
def test_log_matches_fraction_reference(f):
    f = [F(1)] + f[1:]
    assert same_coefficients(TruncatedSeries(f).log(), ref_log(f))


@functools.cache
def ref_egfs(order):
    e = [F(1, factorial(n)) for n in range(order + 1)]
    z = [F(0)] + e[1:]  # e^x - 1
    two_minus_e = [F(1)] + [-c for c in e[1:]]
    cyclic = [-c for c in ref_log(two_minus_e)]
    x = ([F(0), F(1)] + [F(0)] * order)[: order + 1]
    refs = {
        "bell": ref_inverse(two_minus_e),
        "cyclic": cyclic,
        "double-shifted-bell": [a + b for a, b in zip(x, cyclic)],
        "cyclic-even": [c * F(-1, 2) for c in ref_log(ref_mul(e, two_minus_e))],
        "cyclic-odd": [(a - b) / 2 for a, b in zip(ref_log(e), ref_log(two_minus_e))],
    }
    power = [F(1)] + [F(0)] * order
    for k in range(13):
        refs[f"stirling-col-{k}"] = [c / factorial(k) for c in power]
        power = ref_mul(power, z)
    return refs


EGF_BUILDERS = {
    "bell": ordered_bell_egf,
    "cyclic": cyclic_ordered_bell_egf,
    "double-shifted-bell": double_shifted_bell_egf,
    "cyclic-even": cyclic_ordered_bell_even_egf,
    "cyclic-odd": cyclic_ordered_bell_odd_egf,
    **{f"stirling-col-{k}": functools.partial(stirling_column_egf, k) for k in (0, 1, 5, 12)},
}


@pytest.mark.parametrize("name", EGF_BUILDERS)
def test_egf_builder_matches_fraction_reference_at_order_64(name):
    assert same_coefficients(EGF_BUILDERS[name](64), ref_egfs(64)[name])


# -- the shared Pascal table ---------------------------------------------------


def test_pascal_rows_are_binomial_coefficients():
    rows = series._binomial_rows(series._PASCAL_CAP)
    assert [list(row) for row in rows] == [
        [comb(m, i) for i in range(m + 1)] for m in range(series._PASCAL_CAP + 1)
    ]
    assert list(series._binomial_rows(3)) == [(1,), (1, 1), (1, 2, 1), (1, 3, 3, 1)]
    assert list(series._binomial_rows(-1)) == []
    # past the cap the rows are built for the call, from the same rule
    beyond = list(series._binomial_rows(series._PASCAL_CAP + 2))
    assert beyond[: series._PASCAL_CAP + 1] == list(rows)
    assert beyond[-1] == tuple(comb(258, i) for i in range(259))


def test_pascal_cap_is_the_cli_order_cap():
    # the table holds every order the CLI accepts, and no more
    assert series._PASCAL_CAP == cli.MAX_ORDER


def test_pascal_table_stays_capped(monkeypatch):
    monkeypatch.setattr(series, "_pascal", ((1,),))
    stirling_column_egf(2, 40)
    assert len(series._pascal) == 41
    big = exp_series(300)
    assert big * big == _series_of_terms([2**n for n in range(301)])
    assert len(series._pascal) == 41
    ordered_bell_egf(256)
    assert len(series._pascal) == series._PASCAL_CAP + 1


def _series_of_terms(terms):
    return TruncatedSeries([F(t, factorial(n)) for n, t in enumerate(terms)])


def test_threads_growing_the_pascal_table_get_single_thread_results(monkeypatch):
    column = functools.partial(stirling_column_egf, 3)
    jobs = [
        (ordered_bell_egf, 60),
        (cyclic_ordered_bell_egf, 120),
        (column, 300),
        (ordered_bell_egf, 150),
        (cyclic_ordered_bell_odd_egf, 90),
        (column, 256),
    ]
    expected = [build(order) for build, order in jobs]
    monkeypatch.setattr(series, "_pascal", ((1,),))
    results, start = [None] * len(jobs), threading.Barrier(len(jobs))

    def work(i):
        build, order = jobs[i]
        start.wait()
        results[i] = build(order)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == expected
    assert len(series._pascal) == series._PASCAL_CAP + 1
    assert series._pascal[-1] == tuple(comb(256, i) for i in range(257))
