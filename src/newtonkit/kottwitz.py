"""Galois averages, membership and enumeration of the Kottwitz set, and the
Newton dominance order.

A point nu belongs to the set attached to a dominant mu exactly when

  * nu is dominant,
  * mubar - nu is a non-negative rational combination of simple coroots
    (with equal components in the orthogonal complement of the root span),
  * for every simple root a with <nu, a> != 0 the coroot coefficient
    c_a = <mubar - nu, w_a> is a non-negative integer.

The certificate (c, J) stores the coefficient vector, as integer numerators
over one denominator, and the set of simple roots pairing to zero against
nu, where integrality is not required.

Every root datum here is split (Frobenius acts trivially on it), so mubar,
the Galois average of mu, is mu itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, le, mul, sub
from typing import Sequence

from .linalg import invert
from .rationals import Value
from .rootdata import (
    RationalCocharacter,
    RootDatum,
    fundamental_coweight,
    special_roots,
)


class KottwitzElement(Value, fields=("nu", "C", "den", "J")):
    """A member nu with its membership certificate (c, J): the coroot
    coefficients c = C / den, integer numerators over one denominator in
    lowest terms (den > 0, gcd(den, *C) = 1), so equality and hashing are by
    value.  J holds the 1-based simple-root indices with <nu, alpha> = 0.
    The Fraction view c is cached on first read."""

    def __init__(self, nu: RationalCocharacter, C: Sequence[int], den: int, J: frozenset[int]):
        if den <= 0:
            raise ValueError(f"denominator {den} is not positive")
        g = math.gcd(den, *C)
        # set directly, and equality spelled out below, as in
        # RationalCocharacter: enumerate_bgmu builds one per member
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "C", tuple(C) if g == 1 else tuple([t // g for t in C]))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "J", J)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nu, self.C, self.den, self.J) == (other.nu, other.C, other.den, other.J)

    def __hash__(self):
        return hash((self.nu, self.C, self.den, self.J))

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.den) for t in self.C)


class KottwitzSet(Value, fields=("mu", "mubar", "elements")):
    def __init__(self, mu: RationalCocharacter, mubar: RationalCocharacter,
                 elements: tuple[KottwitzElement, ...]):
        self._store(mu, mubar, elements)

    def points(self) -> list[tuple[Fraction, ...]]:
        return [e.nu.coords for e in self.elements]


def galois_average(mu: RationalCocharacter) -> RationalCocharacter:
    """mubar, the Galois average of mu: mu itself, as every datum here is split."""
    return mu


def is_in_bgmu(nu: RationalCocharacter, mubar: RationalCocharacter):
    """Decide membership of nu relative to mubar: (True, (c, J)) with the
    certificate, or (False, reason).  nu and mubar are put over one common
    denominator L and tested on those integer numerators: the root pairings
    of nu give the dominance test and the zero set J, and the kernel's split
    of mubar - nu its coroot coefficients C = c q R L and its orthogonal
    part.  mubar - nu is in the coroot span exactly when split leaves no
    orthogonal part.
    """
    datum = nu.datum
    if mubar.datum != datum:
        raise ValueError("nu and mubar live over different root data")
    k = datum.kernel
    L = math.lcm(nu.L, mubar.L)
    x_nu = nu.over(L)
    p_nu = k.root_pairings(x_nu)
    if min(p_nu) < 0:
        return False, "nu is not dominant"
    C, P = k.split(list(map(sub, mubar.over(L), x_nu)))
    if any(P):
        return False, "mubar - nu is not in the coroot span"
    if min(C) < 0:
        return False, "mubar - nu has a negative coroot coefficient"
    den = k.q * k.R * L  # c = C / den, integral where nu pairs nonzero
    for i, (c, p) in enumerate(zip(C, p_nu), start=1):
        if p and c % den:
            return False, f"non-integral coroot coefficient at simple root {i}"
    return True, (tuple(Fraction(c, den) for c in C),
                  frozenset([i for i, p in enumerate(p_nu, start=1) if not p]))


def enumerate_bgmu(mu: RationalCocharacter) -> KottwitzSet:
    """The complete finite set attached to a dominant mu (split case only).

    Runs over subsets J of simple roots and non-negative integer coroot
    coefficients c_a outside J (each bounded by <mubar, w_a> for the
    root-span fundamental weight w_a, since the remaining pairing against a
    dominant point is non-negative); the coefficients inside J are then
    forced by making the pairings <nu, alpha_g>, g in J, vanish:

        c_J = B (<mubar, alpha_J> - cartan[J][free] c_free),

    with B the inverse of the principal Cartan block on J.  Everything runs
    in integers: with D the least integer making every D <mubar, alpha_g>
    an integer and q the common denominator of B, a candidate's C = c D q
    and its free pairings

        <nu, alpha_g> D q = q D <mubar, alpha_g> - sum_b cartan[g][b] C_b

    are integers, and all of them are affine in c_free.  A candidate is kept
    when C_J >= 0 and every free pairing is > 0 (>= 1 as an integer): a zero
    pairing at a free node gives the same nu as the candidate with that node
    moved into J, so each nu is reached once, with J its zero set.

    Three sign facts hold for every principal block (_principal_block
    checks them): B >= 0, and growing c_a never lowers C_J or another free
    pairing but lowers the pairing at a.  So C_J >= 0 for every c_free >= 0
    (mubar is dominant), each free pairing bounds its own coordinate from
    above by a function increasing in the others, and the kept c_free are
    closed under componentwise max.  Lowering coordinates from the bounds
    just enough to meet their own pairings, until none moves, finds their
    greatest point or shows there is none.  A depth-first walk fixes one
    coordinate per level from that greatest value down, settling the later
    ones for each value; a level ends at the first failure that every lower
    value shares (an earlier pairing, a later coordinate below 0).
    The walk's pairing rows, steps and zero set depend on J and the Cartan
    matrix alone and are computed once per process (_BLOCKS).

    The zero sets that hold a point are closed upward.  Take nu in the set
    with zero set J, any J' containing J, and d = B' <nu, alpha_J'> with B'
    the inverse of the principal block on J'.  Then d >= 0 (B' >= 0 is the
    first sign fact), and nu' = nu - sum_{b in J'} d_b coroot_b pairs to 0
    with every root in J'.  Its pairings outside J' only grow, since the
    off-diagonal Cartan entries are <= 0, so nu' is dominant with zero set
    exactly J'; its coroot coefficients outside J' are those of nu, so
    they stay integral, and those in J' only grow.  Hence nu' is in the
    set, and a J without a point has no point on any subset either.  So
    the masks of J are visited in decreasing order, which puts every
    superset of J before J.  A mask is walked, and its block built, when
    each one-larger superset is live (its walk gave a leaf), read lowest
    clear bit first: most masks that are not walked stop at one lookup.

    Each leaf of the walk on J is its free pairings P_g = D q <nu, alpha_g>,
    g not in J, and a member with zero set J, not tested again: mubar - nu
    = sum_a c_a coroot_a, and the facts above make c >= 0, integral off J,
    and nu dominant.  With Q / q' the inverse of the whole Cartan matrix
    and w_g = sum_a Q[a][g] coroot_a / q', nu is mubar's orthogonal part
    plus sum_g P_g w_g / (D q), and c is mubar's coefficients less
    sum_g P_g Q[:, g] / (D q q'): two vector updates per free node, over
    shared denominators L S K q' and q' R L S K q' (S the lcm of the
    leaves' D q).  The points are sorted on these numerators (the order of
    their Fraction tuples), and the elements take them as they are: nu over
    the first, the certificate's numerators over the second, and J from the
    block.  No Fraction is built.  The certificates are relative to the
    returned mubar, which is what maximal_elements reads the order off.
    """
    datum = mu.datum
    mubar = mu
    n, k = datum.rank, datum.kernel
    x, L = mubar.x, mubar.L
    pairings = k.root_pairings(x)  # R L <mubar, alpha_g>
    if min(pairings) < 0:
        raise ValueError("mu must be dominant")
    g = math.gcd(k.R * L, *pairings)
    D = k.R * L // g
    M = [p // g for p in pairings]  # D <mubar, alpha_g>
    weights = k.coefficients(M)  # q D <mubar, w_a>
    if any(w < 0 for w in weights):
        raise AssertionError("dominant mubar pairs negatively with a weight")
    bounds = [w // (k.q * D) for w in weights]
    blocks = _BLOCKS.get(datum.cartan) or _BLOCKS.setdefault(datum.cartan, [None] * (1 << n))
    live, leaves = [False] * (1 << n), []
    for j_mask in reversed(range(1 << n)):
        rest = (1 << n) - 1 & ~j_mask  # walked when each one-larger superset is live
        while rest and live[j_mask | rest & -rest]:
            rest &= rest - 1
        if rest:
            continue
        block = blocks[j_mask] = blocks[j_mask] or _principal_block(datum.cartan, j_mask)
        for P in _walk(block, M, D, bounds):
            leaves.append((P, block))
            live[j_mask] = True
    S = math.lcm(*(D * block[1] for _, block in leaves))
    den = L * S * k.K * k.q
    C_mubar, P_mubar = k.split([t * (den // L) for t in x])
    nu_0 = [p // k.qRK for p in P_mubar]  # mubar's orthogonal part over den (D divides S)
    cols, coweights = tuple(zip(*k.Q)), k.coweights
    members = []
    for P, (free, qb, _, _, J) in leaves:
        f = L * S // (D * qb)  # over den, P_g w_g / (D qb) is P_g f coweights[g]
        x_nu, C = nu_0, C_mubar
        for g, p in zip(free, P):
            p, h = p * f, p * f * k.qRK
            x_nu = [t + p * u for t, u in zip(x_nu, coweights[g])]
            C = [c - h * u for c, u in zip(C, cols[g])]
        members.append((x_nu, C, J))
    members.sort(key=itemgetter(0))  # den > 0: the order of the points nu
    return KottwitzSet(mu, mubar, tuple(
        KottwitzElement(RationalCocharacter(x_nu, den, datum), C, k.q * k.R * den, J)
        for x_nu, C, J in members))


# The principal blocks of enumerate_bgmu by Cartan matrix, indexed by the bit
# mask of J: every datum and call with that matrix shares the list.
_BLOCKS: dict[tuple[tuple[int, ...], ...], list] = {}


def _principal_block(cartan, j_mask):
    """The walk's data for J = the bits of j_mask: (free, q, pairing rows,
    steps, zero set), q the common denominator of B and the zero set J, in
    1-based indices, shared by every leaf on J.  The pairing rows, over (M,
    D c_free), are formed from the rows of C_J, which the sign-fact check
    also reads; steps[i] is the change of the free pairings as D c_free[i]
    grows by 1.  Raises AssertionError if a sign fact fails."""
    n = len(cartan)
    J = [i for i in range(n) if j_mask >> i & 1]
    free = tuple(i for i in range(n) if not j_mask >> i & 1)
    Q, q = invert([[cartan[g][a] for a in J] for g in J])  # B = Q / q
    # rhs_g = M_g - sum_a cartan[g][a] D c_a: C_J = Q rhs_J, one row per a in J
    rhs = [[int(k == g) for k in range(n)] + [-cartan[g][a] for a in free] for g in range(n)]
    rows = [[sum(x * rhs[b][k] for b, x in zip(J, row)) for k in range(n + len(free))] for row in Q]
    # D q <nu, alpha_g> = q rhs_g - cartan[g][J] C_J
    pairing_rows = [[q * x - sum(cartan[g][b] * row[k] for b, row in zip(J, rows))
                     for k, x in enumerate(rhs[g])] for g in free]
    steps = tuple(zip(*(row[n:] for row in pairing_rows)))
    # the sign facts: no row entry is < 0, and a step is < 0 exactly on its own pairing
    if any(x < 0 for row in rows for x in row) or any(
            (d < 0) != (i == h) for i, step in enumerate(steps) for h, d in enumerate(step)):
        raise AssertionError(f"principal block {J} of {cartan} breaks a sign fact")
    return free, q, tuple(map(tuple, pairing_rows)), steps, frozenset([a + 1 for a in J])


def _settle(values, point, steps, fixed):
    """Lower each of point[fixed:] just enough to meet its own constraint,
    values (the constraints at point) with it, until none moves.  Returns
    None, or the index of a fixed coordinate or one below 0 that fails."""
    lowered = True
    while lowered:
        lowered = False
        for g, v in enumerate(values):
            if v < 0:
                if g < fixed:
                    return g
                step = steps[g]
                t = -(v // -step[g])  # the least drop that meets it
                point[g] -= t
                if point[g] < 0:
                    return g
                values[:] = [w - t * d for w, d in zip(values, step)]
                lowered = True


def _walk(block, M, D, bounds):
    """The candidates with the zero set J of block (see enumerate_bgmu and
    _principal_block), each as its free pairings D q <nu, alpha_g>."""
    free, _, pairing_rows, steps, _ = block
    # D times the unit steps (D = 1 for every coweight, so no product there)
    steps = steps if D == 1 else [[D * d for d in step] for step in steps]
    point = [bounds[a] for a in free]
    v = M + [D * y for y in point]  # (M, D c_free) at c_free = bounds
    values = [sum(map(mul, row, v)) - 1 for row in pairing_rows]  # the free pairings - 1
    if _settle(values, point, steps, 0) is not None:
        return

    def descend(i, values, point):
        # point[:i] is fixed, point[i:] the greatest point that completes it
        if i == len(free):
            yield [v + 1 for v in values]
            return
        yield from descend(i + 1, values, point)
        step = steps[i]
        for y in range(point[i] - 1, -1, -1):
            # an earlier pairing or a later coordinate below 0 fails lower y too
            values = [v - d for v, d in zip(values, step)]
            point = point[:i] + [y] + point[i + 1:]
            bad = _settle(values, point, steps, i + 1)
            if bad is None:
                yield from descend(i + 1, values, point)
            elif bad != i:
                return

    yield from descend(0, values, point)


def newton_leq(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Dominance order: y - x is a non-negative combination of simple coroots.
    Over one common denominator the kernel's split of y - x leaves no
    orthogonal part (y - x is in the coroot span) and its coroot
    coefficients are >= 0.  Callers pass dominant points.
    """
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    k = x.datum.kernel
    L = math.lcm(x.L, y.L)
    C, P = k.split(list(map(sub, y.over(L), x.over(L))))
    return not any(P) and min(C) >= 0


def maximal_elements(ks: KottwitzSet, exclude_top: bool = False) -> set[KottwitzElement]:
    """The dominance-maximal elements, optionally with the top point removed.

    The elements must be those of one set, each with its certificate
    mubar - nu = sum_a c_a coroot_a relative to ks.mubar, as enumerate_bgmu
    returns them.  The coroots are independent, so e <= f (newton_leq)
    exactly when c_e >= c_f componentwise: the stored numerators C, put over
    the lcm of their denominators, are compared as integers.

    Only the maxima need to be compared against.  f > e makes the
    coefficient sum of f strictly smaller than that of e, and every element
    below another one lies below some maximal element, which has a smaller
    sum still.  So, taken by coefficient sum from the smallest up, an
    element is maximal exactly when no maximum kept before it dominates
    it.  Elements with the same nu have the same c and are one point: the
    first of them in the pool is kept if that point is maximal.
    """
    pool = list(ks.elements)
    if exclude_top:
        pool = [e for e in pool if e.nu != ks.mubar]
    if not pool:
        raise ValueError("empty element set")
    L = math.lcm(*{e.den for e in pool})
    certificates = [([c * (L // e.den) for c in e.C], e) for e in pool]
    certificates.sort(key=lambda ce: sum(ce[0]))  # stable: pool order on ties
    maxima, out = [], set()  # the certificates and the elements kept so far
    for c, e in certificates:
        if not any(all(map(le, m, c)) for m in maxima):
            maxima.append(c)
            out.add(e)
    return out


def minuscule_coweights(datum: RootDatum) -> set[RationalCocharacter]:
    """Zero together with the fundamental coweights at special simple roots."""
    if datum.is_product:
        raise ValueError("minuscule coweights of a product datum: use per-factor calls")
    out = {datum.cochar((0,) * datum.ambient_dim)}
    for i in special_roots(datum):
        out.add(fundamental_coweight(datum, i))
    return out
