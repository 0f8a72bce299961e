"""The immutable record classes: construction, repr, equality, hashing,
immutability, validation, pickling and copying."""

import copy
import pickle

import pytest

from fubini.bfiles import BFile
from fubini.identities import VerificationReport
from fubini.sequences import SequenceTable

#: (record, its fields in order, its exact repr)
RECORDS = [
    (
        SequenceTable("bell", 0, (1, 1, 3)),
        ("bell", 0, (1, 1, 3)),
        "SequenceTable(name='bell', offset=0, values=(1, 1, 3))",
    ),
    (
        VerificationReport("cyclic.doubling", (1, 5), "pass"),
        ("cyclic.doubling", (1, 5), "pass", None),
        "VerificationReport(identity_id='cyclic.doubling', range_checked=(1, 5), "
        "status='pass', first_failure=None)",
    ),
    (
        VerificationReport("oeis.A000670", (0, 9), "fail", (4, 75, 76)),
        ("oeis.A000670", (0, 9), "fail", (4, 75, 76)),
        "VerificationReport(identity_id='oeis.A000670', range_checked=(0, 9), "
        "status='fail', first_failure=(4, 75, 76))",
    ),
    (
        BFile("A000670", ((0, 1), (1, 1), (2, 3))),
        ("A000670", ((0, 1), (1, 1), (2, 3))),
        "BFile(sequence_id='A000670', entries=((0, 1), (1, 1), (2, 3)))",
    ),
]
IDS = ["table", "report-pass", "report-fail", "bfile"]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_is_exact(record, fields, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, fields, text):
    cls = type(record)
    twin = cls(*fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields)
    assert record != fields  # a plain tuple of the same fields is not equal
    other = list(fields)
    other[0] = "A999999"
    assert cls(*other) != record


def test_construction_by_position_and_keyword():
    assert SequenceTable(name="bell", offset=0, values=(1, 1, 3)) == SequenceTable(
        "bell", 0, (1, 1, 3)
    )
    assert SequenceTable("bell", 0, [1, 1, 3]).values == (1, 1, 3)  # stored as a tuple
    report = VerificationReport(identity_id="x", range_checked=(1, 2), status="pass")
    assert report.first_failure is None
    assert report == VerificationReport("x", (1, 2), "pass", None)
    failed = VerificationReport("x", (1, 2), status="fail", first_failure=(2, 3, 4))
    assert failed.first_failure == (2, 3, 4)
    assert BFile(sequence_id="A000001", entries=((5, 7),)) == BFile("A000001", ((5, 7),))
    with pytest.raises(TypeError):
        SequenceTable("bell", 0)
    with pytest.raises(TypeError):
        BFile("A000001", ((5, 7),), "extra")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: VerificationReport("x", (1, 2), "maybe"), "status must be 'pass' or 'fail', got 'maybe'"),
        (lambda: VerificationReport("x", (1, 2), "pass", (1, 2, 3)), "status and first_failure are inconsistent"),
        (lambda: VerificationReport("x", (1, 2), "fail"), "status and first_failure are inconsistent"),
        (lambda: BFile("A000001", ()), "a b-file needs at least one entry"),
        (lambda: BFile("A000001", ((0, 5), (2, 7))), "index 2 not consecutive (gap after 0)"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_attributes_cannot_be_assigned_or_deleted(record, fields, text):
    first = next(iter(type(record).__match_args__))
    with pytest.raises(AttributeError):
        setattr(record, first, "changed")
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_pickle_and_copy_roundtrip(record, fields, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record) and restored == record
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and repr(deep) == text


def test_positional_patterns_match_the_fields():
    match BFile("A000670", ((0, 1),)):
        case BFile(sequence_id, entries):
            assert (sequence_id, entries) == ("A000670", ((0, 1),))
        case _:
            pytest.fail("no match")
