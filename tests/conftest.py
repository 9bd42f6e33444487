import itertools
from fractions import Fraction as F

from newtonkit.hecke import HeckeValuation
from newtonkit.muordinary import SlopeProfile
from newtonkit.rationals import dot

_SLOPES_BY_R = {
    1: [(F(1, 2),)],
    2: [(F(1), F(0)), (F(3, 4), F(1, 4)), (F(2, 3), F(1, 3))],
    3: [(F(1), F(1, 2), F(0)), (F(3, 4), F(1, 2), F(1, 4)),
        (F(2, 3), F(1, 2), F(1, 3))],
    4: [(F(1), F(3, 4), F(1, 4), F(0)), (F(1), F(2, 3), F(1, 3), F(0)),
        (F(3, 4), F(2, 3), F(1, 3), F(1, 4))],
}


def polarized_profiles(max_n=5, max_r=4):
    """Every polarized profile over the fixture slope sets with total height
    at most 2*max_n and at most max_r distinct slopes."""
    out = []
    for r in range(1, max_r + 1):
        for slopes in _SLOPES_BY_R[r]:
            half = (r + 1) // 2
            for mults_half in itertools.product(range(1, max_n + 1), repeat=half):
                mults = list(mults_half) + list(reversed(mults_half[: r // 2]))
                if sum(mults) % 2 == 0 and sum(mults) <= 2 * max_n:
                    out.append(SlopeProfile(slopes, tuple(mults), polarized=True))
    return out


def coroot_span_decomposition(datum, coords):
    """(coroot coefficients, orthogonal part) of coords, from the kernel's split."""
    k = datum.kernel
    v = datum.cochar(coords)
    C, P = k.split(v.x)
    return tuple(F(c, k.q * k.R * v.L) for c in C), tuple(F(t, k.qRK * v.L) for t in P)


def reflect(v, i):
    """The simple reflection s_i (1-based i) of a cocharacter, in Fractions."""
    datum = v.datum
    c = dot(v.coords, datum.simple_roots[i - 1])
    return datum.cochar([a - c * b for a, b in zip(v.coords, datum.simple_coroots[i - 1])])


def valuation_product(e1, e2):
    """The valuation of a product of two diagonal elements: the entrywise sum."""
    return HeckeValuation(tuple(a + b for a, b in zip(e1.full, e2.full)), e1.s + e2.s, e1.p)
