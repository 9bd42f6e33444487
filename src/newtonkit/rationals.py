"""Canonical string form and parsing for exact rationals.

The one serialization boundary is the CLI (``newtonkit.cli``), the only
caller of rat_str and vec_str: every rational it prints is rendered as
"p/q" with q > 0 and gcd(p, q) = 1, so identical values always produce
identical bytes.  rat and vec_parse coerce input to Fractions, in the CLI
and in the library's constructors, and integer decides every integer
argument of the library: an int, never a bool, within its range.
"""

from __future__ import annotations

import re
from fractions import Fraction
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

