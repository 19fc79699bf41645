"""Exact rational parsing and formatting, and the JSON form of reports.

Rationals are stdlib ``fractions.Fraction`` values throughout the package:
arbitrary precision, automatically reduced, hashable, and exact.  The JSON
surface encodes them as strings, either ``"p"`` or ``"p/q"`` with a nonzero
denominator; this module owns that encoding, and ``jsonable`` applies it to
whole report records.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import EscapeMapsError, RationalParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into a Fraction.

    Rejects anything else (whitespace padding aside), including zero
    denominators such as ``"1/0"``.
    """
    if not isinstance(text, str):
        raise RationalParseError(f"expected a rational string, got {text!r}")
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, _, den = stripped.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # Python's limit on digits in an int literal
        raise RationalParseError(f"rational literal has {_too_long()}") from exc
    if den == 0:
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Format a Fraction as ``"p"`` or ``"p/q"`` (always reduced)."""
    value = Fraction(value)
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
