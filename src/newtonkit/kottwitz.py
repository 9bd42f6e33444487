"""Galois averages, membership and enumeration of the Kottwitz set, and the
Newton dominance order.

A point nu belongs to the set attached to a dominant mu exactly when

  * nu is dominant,
  * mubar - nu is a non-negative rational combination of simple coroots
    (with equal components in the orthogonal complement of the root span),
  * for every simple root a with <nu, a> != 0 the coroot coefficient
    c_a = <mubar - nu, w_a> is a non-negative integer.

The certificate (c, J) stores the coefficient vector and the set of simple
roots pairing to zero against nu, where integrality is not required.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import ge, itemgetter, mul

from .linalg import invert
from .rootdata import (
    RationalCocharacter,
    RootDatum,
    fundamental_coweight,
    is_dominant,
    sigma_apply,
    special_roots,
)


@dataclass(frozen=True)
class KottwitzElement:
    """A member nu with its membership certificate."""

    nu: RationalCocharacter
    c: tuple[Fraction, ...]
    J: frozenset[int]  # 1-based simple-root indices with <nu, alpha> = 0


@dataclass(frozen=True)
class KottwitzSet:
    mu: RationalCocharacter
    mubar: RationalCocharacter
    elements: tuple[KottwitzElement, ...]

    def points(self) -> list[tuple[Fraction, ...]]:
        return [e.nu.coords for e in self.elements]


def galois_average(mu: RationalCocharacter) -> RationalCocharacter:
    """The mean of mu, sigma(mu), ..., sigma^(r-1)(mu), r the order of sigma."""
    r = mu.datum.sigma_order
    if r == 1:
        return mu
    images = [mu]
    for _ in range(r - 1):
        images.append(sigma_apply(images[-1]))
    L = math.lcm(*(v.L for v in images))
    return RationalCocharacter(
        tuple(map(sum, zip(*(v.over(L) for v in images)))), r * L, mu.datum)


def is_in_bgmu(nu: RationalCocharacter, mubar: RationalCocharacter):
    """Decide membership of nu relative to the Galois average mubar.

    Returns (True, (c, J)) with the certificate, or (False, reason).
    When sigma is nontrivial the integrality condition is taken over
    sigma-orbits of simple roots (orbit-summed fundamental weights); this
    folded path requires nu to be sigma-invariant.  nu and mubar are
    put over one common denominator and tested on those integer
    numerators (_member).
    """
    datum = nu.datum
    if mubar.datum != datum:
        raise ValueError("nu and mubar live over different root data")
    if datum.sigma_order > 1:
        if sigma_apply(mubar) != mubar:
            raise ValueError("mubar is not sigma-invariant")
        if sigma_apply(nu) != nu:
            raise ValueError("nu is not sigma-invariant while sigma is nontrivial")
    k = datum.kernel
    L = math.lcm(nu.L, mubar.L)
    x_mubar = mubar.over(L)
    ok, cert = _member(datum, nu.over(L), x_mubar, k.root_pairings(x_mubar), L)
    if not ok:
        return ok, cert
    C, J = cert
    den = k.q * k.R * L
    return ok, (tuple(Fraction(c, den) for c in C), J)


def _member(datum, x_nu, x_mubar, p_mubar, L):
    """is_in_bgmu on the integer numerators x_nu and x_mubar of nu and mubar
    over L, given p_mubar = root_pairings(x_mubar): the root pairings of nu
    give the dominance test and the zero set J, and the kernel's split of
    mubar - nu (whose pairings are p_mubar minus those of nu, the pairing
    being linear) its coroot coefficients and orthogonal part.  A member's
    certificate is (C, J) with C the coroot coefficients over q R L."""
    k = datum.kernel
    p_nu = k.root_pairings(x_nu)
    if min(p_nu) < 0:
        return False, "nu is not dominant"
    C, P = k.split([a - b for a, b in zip(x_mubar, x_nu)],
                   [a - b for a, b in zip(p_mubar, p_nu)])
    if any(P):
        return False, "mubar - nu is not in the coroot span"
    if min(C) < 0:
        return False, "mubar - nu has a negative coroot coefficient"
    den = k.q * k.R * L  # c = C / den, integral where nu pairs nonzero
    bad = [orbit for orbit in datum.sigma_orbits
           if any(p_nu[i - 1] for i in orbit) and sum(C[i - 1] for i in orbit) % den]
    if bad:
        return False, f"non-integral coroot coefficient at simple root(s) {bad[0]}"
    return True, (C, frozenset(i for i, p in enumerate(p_nu, start=1) if not p))


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
    The walk's rows and steps depend on J and the Cartan matrix alone and
    are computed once per process (_BLOCKS).

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
    superset of J before J.  A mask is dead, and is neither walked nor its
    block built, when a one-larger superset is dead; otherwise it is
    walked, and it is dead when its walk gives no leaf.

    The candidates are collected as (K sum_a C_a coroot_a, D q).  With S the
    lcm of their D q, each point nu = mubar - sum_a c_a coroot_a is an
    integer vector over the one denominator L S K, and must pass the tests
    of is_in_bgmu on those numerators (_member: dominance, coroot span,
    signs, integrality) to be kept with its certificate.  The kept points
    are sorted on their numerators, which over a shared positive
    denominator is the order of their Fraction tuples, and each becomes a
    cocharacter on those numerators; each distinct certificate numerator
    becomes one Fraction per call.  Each one's split view is mubar's split
    minus the test's split of mubar - nu (whose orthogonal part is 0), so
    maximal_elements splits no element of the set again.
    """
    datum = mu.datum
    if datum.sigma_order > 1:
        raise ValueError("enumeration is only supported for trivial sigma; "
                         "the folded case is experimental")
    if not is_dominant(mu):
        raise ValueError("mu must be dominant")
    mubar = galois_average(mu)
    n = datum.rank
    k = datum.kernel
    x, L = mubar.x, mubar.L
    pairings = k.root_pairings(x)  # R L <mubar, alpha_g>
    g = math.gcd(k.R * L, *pairings)
    D = k.R * L // g
    M = [p // g for p in pairings]  # D <mubar, alpha_g>
    weights = k.coefficients(M)  # q D <mubar, w_a>
    if any(w < 0 for w in weights):
        raise AssertionError("dominant mubar pairs negatively with a weight")
    bounds = [w // (k.q * D) for w in weights]
    blocks = _BLOCKS.setdefault(datum.cartan, [None] * (1 << n))
    dead = [False] * (1 << n)
    leaves = []
    for j_mask in reversed(range(1 << n)):
        # j_mask | 1 << a is j_mask itself for a in J, not yet marked
        if any(dead[j_mask | 1 << a] for a in range(n)):
            dead[j_mask] = True
            continue
        block = blocks[j_mask]
        if block is None:
            block = blocks[j_mask] = _principal_block(datum.cartan, j_mask)
        before = len(leaves)
        leaves += ((k.coroot_sum(C), Dq) for C, Dq in _walk(block, M, D, bounds))
        dead[j_mask] = len(leaves) == before
    # nu = x / L - coroot_sum(C) / (K D q): every nu over den = L S K
    S = math.lcm(*(Dq for _, Dq in leaves))
    den = L * S * k.K
    x_mubar = [t * S * k.K for t in x]
    p_mubar = [p * S * k.K for p in pairings]
    members = []
    for s, Dq in leaves:
        f = L * (S // Dq)
        x_nu = [t - f * u for t, u in zip(x_mubar, s)]
        ok, cert = _member(datum, x_nu, x_mubar, p_mubar, den)
        if ok:
            members.append((x_nu, *cert))
    members.sort(key=itemgetter(0))  # den > 0: the order of the points nu
    cden = k.q * k.R * den
    coefficients = {c: Fraction(c, cden) for c in {c for _, C, _ in members for c in C}}
    C_mubar, P_mubar = k.split(x_mubar, p_mubar)
    elements = []
    for x_nu, C, J in members:
        nu = RationalCocharacter(x_nu, den, datum)
        g = den // nu.L  # the gcd taken out of (x_nu, den)
        nu.__dict__["split"] = (tuple([(a - c) // g for a, c in zip(C_mubar, C)]),
                                tuple([p // g for p in P_mubar]))
        elements.append(KottwitzElement(nu, tuple(map(coefficients.__getitem__, C)), J))
    return KottwitzSet(mu, mubar, tuple(elements))


# The principal blocks of enumerate_bgmu by Cartan matrix, indexed by the bit
# mask of J: every datum and call with that matrix shares the list.
_BLOCKS: dict[tuple[tuple[int, ...], ...], list] = {}


def _principal_block(cartan, j_mask):
    """The walk's data for the zero set J = the bits of j_mask: (free, q, C
    rows, pairing rows, steps), q the common denominator of B.  Each row is
    over (M, D c_free); steps[i] is the change of the free pairings when
    D c_free[i] grows by 1.  Raises AssertionError if a sign fact fails."""
    n = len(cartan)
    J = [i for i in range(n) if j_mask >> i & 1]
    free = tuple(i for i in range(n) if not j_mask >> i & 1)
    Q, q = invert([[cartan[g][a] for a in J] for g in J])  # B = Q / q
    # rhs_g = M_g - sum_a cartan[g][a] D c_a: C_J = Q rhs_J, C_free = q D c_free
    rhs = [[int(k == g) for k in range(n)] + [-cartan[g][a] for a in free] for g in range(n)]
    rows = [[q * (k == n + free.index(a)) for k in range(len(rhs[a]))] if a in free
            else [sum(x * rhs[b][k] for b, x in zip(J, Q[J.index(a)])) for k in range(len(rhs[a]))]
            for a in range(n)]
    # D q <nu, alpha_g> = q rhs_g - cartan[g][J] C_J
    pairing_rows = [[q * x - sum(cartan[g][b] * rows[b][k] for b in J)
                     for k, x in enumerate(rhs[g])] for g in free]
    steps = tuple(zip(*(row[n:] for row in pairing_rows)))
    # the sign facts: no row entry is < 0, and a step is < 0 exactly on its own pairing
    if any(x < 0 for row in rows for x in row) or any(
            (d < 0) != (i == h) for i, step in enumerate(steps) for h, d in enumerate(step)):
        raise AssertionError(f"principal block {J} of {cartan} breaks a sign fact")
    return free, q, tuple(map(tuple, rows)), tuple(map(tuple, pairing_rows)), steps


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
    _principal_block) as pairs (C, D q), C = c D q the integer vector."""
    free, q, rows, pairing_rows, steps = block
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
            v = M + [D * y for y in point]
            yield [sum(map(mul, row, v)) for row in rows], D * q
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
    """Dominance order: y - x is a non-negative combination of simple coroots
    with equal orthogonal-complement components, read off the kernel's split
    of y - x over one common denominator.  Callers pass dominant points.
    """
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    L = math.lcm(x.L, y.L)
    C, P = x.datum.kernel.split([a - b for a, b in zip(y.over(L), x.over(L))])
    return not any(P) and all(c >= 0 for c in C)


def maximal_elements(ks: KottwitzSet, exclude_top: bool = False) -> set[KottwitzElement]:
    """The dominance-maximal elements, optionally with the top point removed.

    The kernel's split is linear, so e <= f (newton_leq) exactly when e and
    f have the same orthogonal part and every coroot coefficient of f is at
    least that of e: each element's split view (filled by enumerate_bgmu,
    computed on first read for a nu built any other way) is scaled to one
    common denominator, so every test compares integer numerators.

    Only the maxima need to be compared against.  f > e makes the
    coefficient sum of f strictly larger than that of e, and every element
    below another one lies below some maximal element, which has a larger
    sum still.  So, taken by coefficient sum from the largest down, an
    element is maximal exactly when no maximum kept before it, with the
    same orthogonal part, dominates it.  Elements with the same nu are one
    point: the first of them in the pool is kept if that point is maximal.
    """
    pool = list(ks.elements)
    if exclude_top:
        pool = [e for e in pool if e.nu != ks.mubar]
    if not pool:
        raise ValueError("empty element set")
    L = math.lcm(*(e.nu.L for e in pool))
    parts = []
    for e in pool:
        f = L // e.nu.L
        C, P = e.nu.split
        parts.append((e, [c * f for c in C], [p * f for p in P]))
    parts.sort(key=lambda part: sum(part[1]), reverse=True)  # stable: pool order on ties
    maxima = {}  # orthogonal part -> coroot coefficients of the maxima kept so far
    out = set()
    for e, ce, pe in parts:
        above = maxima.setdefault(tuple(pe), [])
        if not any(all(map(ge, cf, ce)) for cf in above):
            above.append(ce)
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
