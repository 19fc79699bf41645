"""The contract of ``rationals.Record``, checked on every record class of the
library: type-strict equality, a hash over the fields, no assignment or
deletion, keyword and positional construction with defaults, and the field
order that ``jsonable`` writes.  ``Representation`` compares by identity."""

from fractions import Fraction

import pytest

import escapemaps.cli  # noqa: F401  (loads every layer module)
from escapemaps import (
    NoLabelRespectingIso,
    Representation,
    build_orbit_tree,
    check_relations,
    classify_corpus,
    classify_point,
    compare_points,
    faithfulness_certificate,
    feasibility_check,
    image_decomposition_check,
    is_primitive,
    jsonable,
    realize,
    transition_data,
)
from escapemaps.rationals import Record

F = Fraction

RECORDS = sorted(
    (cls for cls in Record.__subclasses__() if cls.__module__.startswith("escapemaps.")),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
NAMES = [f"{cls.__module__.rpartition('.')[2]}.{cls.__qualname__}" for cls in RECORDS]


@pytest.fixture(scope="module")
def samples(four_doc, four_map, partial_spec, partial_result):
    """One instance of every record class, each from the call that makes it."""
    report = four_map.validate()
    tree = build_orbit_tree(four_map, F(1, 2), 2)
    rep = realize(tree)
    certificate = faithfulness_certificate(rep, [2, 3])
    pair = compare_points(four_map, F(1, 2), F(9, 20))
    corpus = classify_corpus(four_map, [F(1, 2), F(9, 20)])
    feasibility = feasibility_check(partial_spec)
    made = [
        four_map.branches[0], four_map, four_map.locate(F(1, 2)), report,
        report.escape_coverage[0], four_doc.expected_escape_matrix, four_doc,
        four_map.transition_refinement, transition_data(four_map),
        is_primitive(four_map.transition_matrix),
        classify_point(four_map, F(1, 2)),
        classify_point(four_map, F(1, 5)),  # a partition point
        classify_point(four_map, F(5, 27)),
        tree, rep, check_relations(rep, [2, 3]).checks[0], image_decomposition_check(rep),
        certificate, certificate.nonvanishing[0],
        pair, pair.verdict, pair.intertwiner, NoLabelRespectingIso(),
        compare_points(four_map, F(5, 27), F(229, 270)).verdict,
        compare_points(four_map, F(1, 2), F(5, 27)).verdict,
        corpus, corpus.classes[0],
        partial_spec, feasibility, feasibility.segments[0],
        partial_result, partial_result.allocation,
    ]
    return {type(record): record for record in made}


def _fields(record: Record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def test_there_is_one_sample_of_every_record_class(samples):
    assert sorted(samples, key=RECORDS.index) == RECORDS
    assert len(RECORDS) == 32


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_equals_only_records_of_its_own_class(cls, samples):
    record = samples[cls]
    values = tuple(_fields(record).values())
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
    assert record != twin(*values) and twin(*values) != record
    assert record != values and values != record


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_is_built_by_keyword_or_position_and_hashes_by_its_fields(cls, samples):
    record = samples[cls]
    by_keyword, by_position = cls(**_fields(record)), cls(*_fields(record).values())
    assert _fields(by_keyword) == _fields(by_position) == _fields(record)
    if cls is not Representation:
        assert by_keyword == by_position == record
        assert hash(by_keyword) == hash(by_position) == hash(record)


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_fills_its_defaults(cls, samples):
    defaulted = [name for name in cls._fields if name in vars(cls)]
    required = {n: v for n, v in _fields(samples[cls]).items() if n not in defaulted}
    built = cls(**required)
    assert [getattr(built, name) for name in defaulted] == [vars(cls)[n] for n in defaulted]


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_refuses_assignment_and_deletion(cls, samples):
    record = samples[cls]
    before = _fields(record)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_jsonable_writes_the_fields_in_order_then_the_json_names(cls, samples):
    assert list(jsonable(samples[cls])) == [*cls._fields, *getattr(cls, "_json", ())]


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_repr_names_every_field(cls, samples):
    record = samples[cls]
    shown = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{cls.__qualname__}({shown})"


def test_a_representation_compares_by_identity(samples):
    rep = samples[Representation]
    copy = Representation(**_fields(rep))
    assert rep == rep and copy != rep
    assert hash(rep) == object.__hash__(rep)
    assert len({rep, copy}) == 2
