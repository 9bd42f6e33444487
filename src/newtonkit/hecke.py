"""p-adic valuation arithmetic for Hecke normalizations at p.

A diagonal element of the symplectic similitude group is recorded through
the valuations of its entries: a weakly increasing first block t_1..t_n,
a similitude valuation s, and the derived full vector

    (t_1, ..., t_n, s - t_n, ..., s - t_1)

which is anti-symmetric about s/2.  Unipotent-radical indices, the
first-block determinant character, and the perturbed filtration elements
are all computed at this valuation level; an actual count p^v is only
meaningful when v is a non-negative integer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .rationals import Value, dot, integer, rat, vec_parse


class HeckeValuation(Value, fields=("full", "s", "p")):
    def __init__(self, full, s, p: int):
        require_prime(p)
        self._store(vec_parse(full), rat(s), p)
        if len(self.full) % 2 != 0 or not self.full:
            raise ValueError("full valuation vector must have positive even length")

    @classmethod
    def from_blocks(cls, t: Sequence, s, p: int) -> "HeckeValuation":
        """Build from the first block and the similitude valuation.

        Enforces 0 <= t_1 <= ... <= t_n; the second block is derived, so the
        anti-symmetry about s/2 holds by construction.
        """
        tv = vec_parse(t)
        sv = rat(s)
        if not tv:
            raise ValueError("first-block valuations must be non-empty")
        if any(x < 0 for x in tv):
            raise ValueError("first-block valuations must be non-negative")
        if any(a > b for a, b in zip(tv, tv[1:])):
            raise ValueError("first-block valuations must be weakly increasing")
        full = tv + tuple(sv - x for x in reversed(tv))
        return cls(full, sv, p)


def filtration_element(h: int, dim_v: int, p: int) -> HeckeValuation:
    """The diagonal element inducing the canonical step of height h:
    valuation 1 on the top h slots of the full vector, 0 elsewhere, s = 1."""
    integer(h, "height", 1, integer(dim_v, "dim_v", 1))
    full = (Fraction(1),) * h + (Fraction(0),) * (dim_v - h)
    return HeckeValuation(full, Fraction(1), p)


def _full_vector(eps) -> tuple[Fraction, ...]:
    if isinstance(eps, HeckeValuation):
        return eps.full
    return vec_parse(eps)


def m_epsilon_valuation(eps, parabolic_roots: Sequence[Sequence]) -> Fraction:
    """val_p of the index of the conjugated unipotent integral points.

    Conjugation by a diagonal element scales the root space of alpha by
    p^<eps, alpha>, so the index of eps U(O) eps^-1 inside U(O) has
    valuation sum_alpha <eps, alpha> over the radical's roots.  Requires
    <eps, alpha> >= 0 throughout (dominance for the parabolic).
    """
    full = _full_vector(eps)
    total = Fraction(0)
    for alpha in map(vec_parse, parabolic_roots):
        v = dot(full, alpha)
        if v < 0:
            raise ValueError(f"eps pairs negatively ({v}) with the radical root "
                             f"({', '.join(map(str, alpha))})")
        total += v
    return total


def lambda_g_valuation(eps) -> Fraction:
    """val_p of the first-block determinant character: sum of t_1..t_n."""
    full = _full_vector(eps)
    if len(full) % 2 != 0:
        raise ValueError("full valuation vector must have even length")
    n = len(full) // 2
    return sum(full[:n], Fraction(0))


def epsilon_prime_valuations(h_i: int, deg_i: Fraction,
                             base_eps: HeckeValuation) -> HeckeValuation:
    """Perturb the filtration element by the degree defect.

    Adds -1 + deg_i at 1-based slot h_i - 1 (slot 1 when h_i = 1) and
    1 - deg_i at slot dim V - h_i + 1 of the full vector.  The two added
    terms are negatives of each other, so the entry sum is unchanged.
    """
    deg_i = rat(deg_i)
    dim_v = len(base_eps.full)
    integer(h_i, "height", 1, dim_v)
    if not 0 < deg_i <= h_i:
        raise ValueError(f"degree {deg_i} out of range (0, {h_i}]")
    full = list(base_eps.full)
    full[max(h_i - 1, 1) - 1] += deg_i - 1
    full[dim_v - h_i] += 1 - deg_i
    return HeckeValuation(tuple(full), base_eps.s, base_eps.p)


def _perturbed_filtration(profile_data: Sequence[tuple[int, Fraction]],
                          dim_v: int, p: int) -> list[HeckeValuation]:
    if not profile_data:
        raise ValueError("no filtration steps: profile has a single slope")
    out = []
    for h_i, d_i in profile_data:
        base = filtration_element(h_i, dim_v, p)
        out.append(epsilon_prime_valuations(h_i, rat(d_i), base))
    return out


def n_g_constant(profile_data: Sequence[tuple[int, Fraction]], p: int,
                 dim_v: int) -> Fraction:
    """Smallest first-block valuation of the perturbed filtration elements.

    profile_data lists the proper canonical steps (h_i, d_i), i < r, of a
    polarized ordinary profile, and dim_v is dim V.
    """
    vals = [lambda_g_valuation(e) for e in _perturbed_filtration(profile_data, dim_v, p)]
    return min(vals)


def c_constant(profile_data: Sequence[tuple[int, Fraction]],
               parabolic_roots: Sequence[Sequence], p: int,
               dim_v: int) -> Fraction:
    """Largest unipotent-index valuation of the perturbed filtration elements."""
    vals = [
        m_epsilon_valuation(e, parabolic_roots)
        for e in _perturbed_filtration(profile_data, dim_v, p)
    ]
    return max(vals)


# Miller-Rabin with every prime base up to 41 is exact below this bound: it is
# the least odd composite that is a strong probable prime to all those bases
# (Sorenson and Webster, Math. Comp. 86 (2017); OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
HASSE_P_BOUND = 3317044064679887385961981
# The powers the library returns (p^w - 1, the coset count p^val of mepsilon)
# must have at most this many decimal digits: Python's default limit for
# converting an int to a string, which JSON output needs.
HASSE_DIGITS = 4300
_HASSE_BITS = (10 ** HASSE_DIGITS).bit_length()  # 2^_HASSE_BITS > 10^HASSE_DIGITS


def bounded_power(p: int, e: int, name: str) -> int:
    """p ** e for an integer e >= 0, when it has at most HASSE_DIGITS digits.

    Otherwise ValueError says that name must have at most HASSE_DIGITS
    digits.  When the lower bound |p|^e >= 2^(e (bits(p) - 1)) already rules
    the power out, it is refused before it is taken.
    """
    too_large = ValueError(f"{name} must have at most {HASSE_DIGITS} digits")
    if e * (p.bit_length() - 1) >= _HASSE_BITS:
        raise too_large
    h = p ** e
    if abs(h) >= 10 ** HASSE_DIGITS:
        raise too_large
    return h


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for 0 <= p < HASSE_P_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> None:
    """ValueError unless p is a prime with 3 <= p < HASSE_P_BOUND (about
    3.3e24), the range in which the primality test is exact."""
    if integer(p, "p", 3, error="p must be a prime >= 3") >= HASSE_P_BOUND:
        raise ValueError(f"p must be below {HASSE_P_BOUND}, where the primality "
                         "test is exact")
    if not _is_prime(p):
        raise ValueError("p must be a prime >= 3")


def hasse_number(w: int, p: int) -> int:
    """Exponent of the unit group of the field with p^w elements: p^w - 1.

    p must pass require_prime, and p^w - 1 must have at most HASSE_DIGITS
    decimal digits (bounded_power; p^w itself has as many digits, since a
    power of an odd prime is never a power of ten).
    """
    integer(w, "w", 1, error="w must be a positive integer")
    require_prime(p)
    return bounded_power(p, w, "p^w - 1") - 1


def gl_upper_roots(n: int) -> list[tuple[Fraction, ...]]:
    """Roots e_i - e_j (i < j) of the full upper-triangular radical of GL_n."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [Fraction(0)] * n
            v[i], v[j] = Fraction(1), Fraction(-1)
            out.append(tuple(v))
    return out


def siegel_radical_roots(n: int, lower: bool = True) -> list[tuple[Fraction, ...]]:
    """Distinct root functionals of a Siegel radical of the rank-n symplectic
    similitude group, as vectors pairing against the full valuation vector.

    With the antidiagonal symplectic form, the character at matrix position
    (2n+1-i, j) of the lower radical is full_{2n+1-i} - full_j, one root for
    each unordered pair i <= j; the upper radical carries the negatives.
    """
    dim = 2 * n
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = [Fraction(0)] * dim
            v[dim - i] += Fraction(1)
            v[j - 1] -= Fraction(1)
            if not lower:
                v = [-x for x in v]
            out.append(tuple(v))
    return out
