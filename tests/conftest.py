import itertools
from fractions import Fraction as F

from newtonkit.muordinary import SlopeProfile

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
    x, L = k.scale(coords)
    C, P = k.split(x)
    return tuple(F(c, k.q * k.R * L) for c in C), tuple(F(t, k.qRK * L) for t in P)
