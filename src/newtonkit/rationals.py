"""Canonical string form and parsing for exact rationals.

The one serialization boundary is the CLI (``newtonkit.cli``), the only
caller of rat_str and vec_str: every rational it prints is rendered as
"p/q" with q > 0 and gcd(p, q) = 1, so identical values always produce
identical bytes.  rat and vec_parse coerce input to Fractions, in the CLI
and in the library's constructors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

# An optional sign, digits, optionally "/digits".  Fraction() alone would also
# take exponents, and "1e200000000" builds a 200-million-digit integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat(x) -> Fraction:
    """Coerce ints (not bools), strings like "3/4" or "-2" and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not an exact rational string: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


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

