import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from escapemaps import EscapeMapsError, RationalParseError, format_rational, parse_rational

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
