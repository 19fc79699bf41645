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
from operator import attrgetter

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


class Record:
    """Base of the library's frozen records.  A subclass lists its fields as
    annotated class attributes, each optionally with a default, and gets:
    ``_fields``, their names in order; an ``__init__`` that takes them by
    position or keyword and then calls ``__post_init__``, if the class has
    one; equality between records of one class with equal fields, and a hash
    over the fields (``class R(Record, eq=False)`` keeps identity instead);
    a ``Name(field=value, ...)`` repr; and an AttributeError on assigning or
    deleting any attribute, so ``__post_init__`` normalises a field through
    ``object.__setattr__``.  Instances keep a ``__dict__``, which is where
    ``cached_property`` stores its values."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # One generated __init__ per class, storing the fields straight into
        # the instance dict, builds hot records at least as fast as a
        # dataclass does; equality, hash and repr share one getter, which
        # costs no compile.
        defaults = {f"_default_{n}": cls.__dict__[n] for n in names if n in cls.__dict__}
        params = "".join(f", {n}=_default_{n}" if f"_default_{n}" in defaults else f", {n}"
                         for n in names)
        body = "".join(f"\n    _dict_[{n!r}] = {n}" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        exec(f"def __init__(self{params}):\n    _dict_ = self.__dict__{body}", defaults)
        cls.__init__ = defaults["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        get = attrgetter(*names) if names else lambda record: ()
        cls._values = staticmethod(get if len(names) != 1 else lambda record: (get(record),))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class cached_property:
    """``functools.cached_property`` without the lock Python 3.10 and 3.11 take
    on every first read: that read stores the method's value in the instance
    ``__dict__`` under its name, where later reads find it first."""

    def __init__(self, func) -> None:
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value


def jsonable(value):
    """The JSON form of a report value: a Fraction becomes its
    ``format_rational`` string, a tuple or list an array, a dict an object,
    and a record an object of its ``Record`` fields (if it is a Record)
    followed by the attributes (derived flags, constant tags, fields built
    on demand) its class names in ``_json``.
    None, str, bool and int pass through; anything else is a TypeError.
    As the ``default`` hook of ``json.dumps`` it sees only the values the
    encoder cannot write itself."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [jsonable(item) for item in value]
    if isinstance(value, Record) or hasattr(value, "_json"):
        names = (*getattr(value, "_fields", ()), *getattr(value, "_json", ()))
        return {name: jsonable(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _too_long() -> str:
    limit = sys.get_int_max_str_digits()
    return f"an integer of more than {limit} digits, Python's limit for int strings"
