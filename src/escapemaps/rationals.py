"""Exact rational parsing and formatting, and the JSON form of reports.

Rationals are stdlib ``fractions.Fraction`` values throughout the package:
arbitrary precision, automatically reduced, hashable, and exact.  Points and
coefficients enter the library as a Fraction or an int, read by ``exact``,
which rounds no float and parses no string: text goes through
``parse_rational``.  The JSON surface encodes rationals as strings, ``"p"``
or ``"p/q"`` with a nonzero denominator; this module owns that encoding,
and ``jsonable`` applies it to whole report records.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import EscapeMapsError, RationalParseError

# Every number read from text is an integer literal of ASCII digits: re's \d
# and int() take any Unicode decimal digit, and int() takes "1_0" too.
_INTEGER = "[+-]?[0-9]+"
_RATIONAL_RE = re.compile(f"{_INTEGER}(?:/[0-9]+)?")
# The padding allowed around a literal: ASCII whitespace.  str.strip() with no
# argument also strips U+3000, U+00A0 and the separators U+001C..U+001F.
ASCII_SPACE = " \t\n\r\v\f"


def parse_integer(text: str, label: str) -> int:
    """An integer literal, an optional sign and ASCII digits (ASCII whitespace
    padding aside), as an int; else a RationalParseError naming the text by
    ``label``."""
    stripped = text.strip(ASCII_SPACE)
    if not re.fullmatch(_INTEGER, stripped):
        raise RationalParseError(f"{label} {text!r} is not an integer")
    try:
        return int(stripped)
    except ValueError as exc:  # Python's limit on digits in an int string
        raise RationalParseError(f"{label} has {_too_long()}") from exc


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    Rejects anything else (ASCII whitespace padding aside), including zero
    denominators such as ``"1/0"``.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected a rational string, got {text!r}")
    stripped = text.strip(ASCII_SPACE)
    if not _RATIONAL_RE.fullmatch(stripped):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = stripped.partition("/")
    num, den = (parse_integer(part, "rational literal") for part in (num, den or "1"))
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def exact(x: Fraction | int) -> Fraction:
    """A point or coefficient as a Fraction: a Fraction as it is and an int
    converted.  Raises RationalParseError for anything else, a bool, float,
    Decimal or string included, so no value is rounded or parsed here."""
    # The type test spares hot point queries Fraction's copy and its ABC check.
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    raise RationalParseError(f"expected a Fraction or an int, got {x!r}")


def format_rational(value: Fraction | int) -> str:
    """Format a Fraction or an int as ``"p"`` or ``"p/q"`` (always reduced)."""
    value = exact(value)
    try:
        return str(value)
    except ValueError as exc:  # Python's limit on digits in an int string
        raise EscapeMapsError(f"cannot print a rational that has {_too_long()}") from exc


def jsonable(value):
    """The JSON form of a report value: a Fraction becomes its
    ``format_rational`` string, a tuple or list an array, a dict an object,
    and a dataclass record an object of its fields followed by the
    attributes (derived flags, constant tags) its class names in ``_json``.
    None, str, bool and int pass through; anything else is a TypeError.
    As the ``default`` hook of ``json.dumps`` it sees only the values the
    encoder cannot write itself."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        names = (*fields, *getattr(value, "_json", ()))
        return {name: jsonable(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _too_long() -> str:
    limit = sys.get_int_max_str_digits()
    return f"an integer of more than {limit} digits, Python's limit for int strings"
