"""Canonical string form and parsing for exact rationals.

The one serialization boundary is the CLI (``newtonkit.cli``), the only
caller of rat_str and vec_str: every rational it prints is rendered as
"p/q" with q > 0 and gcd(p, q) = 1, so identical values always produce
identical bytes.  rat and vec_parse coerce input to Fractions, in the CLI
and in the library's constructors, and integer decides every integer
argument of the library: an int, never a bool, within its range.  Value
is the base of the library's immutable value types.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

# An optional sign, digits, optionally "/digits".  Fraction() alone would also
# take exponents, and "1e200000000" builds a 200-million-digit integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def rat(x) -> Fraction:
    """Coerce ints (not bools), strings like "3/4" or "-2" and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not an exact rational string: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def integer(x, what: str, lo: int, hi: int | None = None, error: str | None = None) -> int:
    """x, when it is an int (not a bool) with lo <= x, and x <= hi unless hi
    is None.  Otherwise ValueError(error), or by default "{what} {x!r} is not
    an integer", "{what} {x} out of range {lo}..{hi}" or, with no hi,
    "{what} must be at least {lo}, got {x}"."""
    if not _is_int(x):
        raise ValueError(error or f"{what} {x!r} is not an integer")
    if x < lo or (hi is not None and x > hi):
        raise ValueError(error or (f"{what} {x} out of range {lo}..{hi}" if hi is not None
                                   else f"{what} must be at least {lo}, got {x}"))
    return x


def rat_str(x: Fraction) -> str:
    x = rat(x)
    return f"{x.numerator}/{x.denominator}"


def vec_str(xs: Sequence[Fraction]) -> list[str]:
    return [rat_str(x) for x in xs]


def vec_parse(xs: Sequence) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


class Value:
    """Base of the library's immutable value types.

    A subclass names its fields in constructor order, as in ``class
    V(Value, fields=("a", "b"))``, and the ones equality reads as
    ``compare`` when that is fewer.  Its __init__ checks the arguments and
    stores each field once (_store); assigning or deleting an attribute
    after that raises AttributeError.  The instance __dict__ stays, so
    cached_property views work.  Instances of one class are equal when
    their compared fields are, and then hash alike; the repr shows every
    field.
    """

    def __init_subclass__(cls, fields, compare=None):
        cls._fields = fields
        cls._key = attrgetter(*(compare or fields))  # a tuple: every type has two or more

    def _store(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
