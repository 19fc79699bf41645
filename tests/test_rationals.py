import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escapemaps import (
    EscapeMapsError,
    RationalParseError,
    format_rational,
    jsonable,
    parse_rational,
)
import escapemaps.cli  # noqa: F401  (loads every layer module)
from escapemaps.rationals import Record, cached_property

LIMIT = sys.get_int_max_str_digits()
needs_limit = pytest.mark.skipif(LIMIT == 0, reason="no digit limit on int strings")


@pytest.mark.parametrize(
    "text, value",
    [
        ("3/4", Fraction(3, 4)),
        ("-7/8", Fraction(-7, 8)),
        ("+5", Fraction(5)),
        ("2", Fraction(2)),
        ("0", Fraction(0)),
        ("-0/9", Fraction(0)),
        ("10/4", Fraction(5, 2)),
    ],
)
def test_parse_accepts_integer_and_slash_forms(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [" 1/2", "1/2 ", "\t-3/4\n"])
def test_parse_tolerates_surrounding_whitespace(text):
    assert parse_rational(text) == Fraction(text.strip())


@pytest.mark.parametrize(
    "text",
    ["", "1.5", "1/0", "1/2/3", "a", "2/-3", "0x3", "1e3", "/3", "3/", "1 /2"],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(RationalParseError):
        parse_rational(text)


@pytest.mark.parametrize("value", [3, Fraction(1, 2), None])
def test_parse_refuses_non_strings(value):
    with pytest.raises(RationalParseError, match="expected a rational string"):
        parse_rational(value)


def test_format_is_lowest_terms():
    assert format_rational(Fraction(10, 4)) == "5/2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(Fraction(0)) == "0"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@needs_limit
@pytest.mark.parametrize("text", ["1" * (LIMIT + 1), "1/" + "3" * (LIMIT + 1)])
def test_parse_refuses_integers_over_the_digit_limit(text):
    # Python refuses to convert such a string to an int with a bare ValueError.
    with pytest.raises(RationalParseError, match=f"more than {LIMIT} digits"):
        parse_rational(text)


@needs_limit
@pytest.mark.parametrize("value", [Fraction(10**LIMIT), Fraction(1, 10**LIMIT)])
def test_format_refuses_integers_over_the_digit_limit(value):
    with pytest.raises(EscapeMapsError, match=f"more than {LIMIT} digits") as exc:
        format_rational(value)
    assert not isinstance(exc.value, RationalParseError)


class _Leaf(Record):
    value: Fraction
    edge: tuple[int, int] | None


class _Node(Record):
    leaves: tuple[_Leaf, ...]
    note: str

    kind = "node"
    _json = ("kind", "size")

    @property
    def size(self) -> int:
        return len(self.leaves)


def test_jsonable_writes_records_by_their_fields_then_their_extras():
    node = _Node((_Leaf(Fraction(6, 4), (1, 2)), _Leaf(Fraction(-2), None)), "")
    data = jsonable(node)
    assert data == {
        "leaves": [{"value": "3/2", "edge": [1, 2]}, {"value": "-2", "edge": None}],
        "note": "",
        "kind": "node",
        "size": 2,
    }
    assert list(data) == ["leaves", "note", "kind", "size"]
    # As the encoder's default hook it gives the same document.
    text = json.dumps({"tree": node, "at": Fraction(1, 3)}, default=jsonable, sort_keys=True)
    assert json.loads(text) == {"tree": data, "at": "1/3"}


def test_jsonable_converts_containers_and_passes_plain_values():
    assert jsonable((Fraction(1, 2), [Fraction(3), (4, None)])) == ["1/2", ["3", [4, None]]]
    assert jsonable({"x": (Fraction(-1, 3),)}) == {"x": ["-1/3"]}
    for value in (None, True, 0, "1/2"):
        assert jsonable(value) is value


@pytest.mark.parametrize("value", [1.5, {1, 2}, object()])
def test_jsonable_refuses_other_values(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonable(value)


# -- cached_property -------------------------------------------------------


_calls: list[int] = []  # the value of each instance whose ``doubled`` is computed


class _Cached(Record):
    value: int

    @cached_property
    def doubled(self) -> int:
        """Twice the value, counted in ``_calls``."""
        _calls.append(self.value)
        return 2 * self.value


def test_cached_property_computes_once_per_instance_into_the_record_dict():
    _calls.clear()
    first, second = _Cached(3), _Cached(5)
    assert (first.doubled, first.doubled, second.doubled, first.doubled) == (6, 6, 10, 6)
    assert _calls == [3, 5]
    # Stored past the Record's __setattr__, which still refuses assignment.
    assert vars(first) == {"value": 3, "doubled": 6}
    with pytest.raises(AttributeError, match="cannot assign"):
        first.doubled = 7
    # The cached value is no field: equality and hash read the fields only.
    assert first == _Cached(3) and hash(first) == hash(_Cached(3))


def test_cached_property_on_the_class_is_the_descriptor_with_its_docstring():
    descriptor = _Cached.__dict__["doubled"]
    assert _Cached.doubled is descriptor and isinstance(descriptor, cached_property)
    assert descriptor.__doc__ == "Twice the value, counted in ``_calls``."


def test_no_library_module_uses_functools_cached_property():
    """Every cached attribute of the library is the lock-free one: no class
    of a layer module holds a ``functools.cached_property``, and no module
    names it."""
    cached = {
        f"{cls.__qualname__}.{attr}": type(value)
        for name, module in sys.modules.items() if name.startswith("escapemaps.")
        for cls in vars(module).values() if isinstance(cls, type) and cls.__module__ == name
        for attr, value in vars(cls).items()
        if isinstance(value, (cached_property, functools.cached_property))
    }
    assert cached["MarkovMap.transition_matrix"] is cached_property
    assert set(cached.values()) == {cached_property}
    use = re.compile(r"@functools\.cached_property|from functools import .*\bcached_property")
    for path in Path(escapemaps.cli.__file__).parent.glob("*.py"):
        assert not use.search(path.read_text()), path.name
