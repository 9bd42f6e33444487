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
from operator import mul

from .linalg import invert
from .rootdata import (
    RationalCocharacter,
    RootDatum,
    fundamental_coweights,
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

    def sort_key(self):
        return self.nu.coords


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
    return RationalCocharacter(
        tuple(Fraction(sum(c), r) for c in zip(*(v.coords for v in images))), mu.datum)


def is_in_bgmu(nu: RationalCocharacter, mubar: RationalCocharacter):
    """Decide membership of nu relative to the Galois average mubar.

    Returns (True, (c, J)) with the certificate, or (False, reason).
    When sigma is nontrivial the integrality condition is taken over
    sigma-orbits of simple roots (orbit-summed fundamental weights); this
    folded path requires nu to be sigma-invariant.  nu and mubar are
    scaled to integer numerators over one common denominator: the root
    pairings of nu give the dominance test and the zero set J, and the
    kernel's split of mubar - nu its coroot coefficients and orthogonal part.
    """
    datum = nu.datum
    if mubar.datum != datum:
        raise ValueError("nu and mubar live over different root data")
    if datum.sigma_order > 1:
        if sigma_apply(mubar).coords != mubar.coords:
            raise ValueError("mubar is not sigma-invariant")
        if sigma_apply(nu).coords != nu.coords:
            raise ValueError("nu is not sigma-invariant while sigma is nontrivial")
    k = datum.kernel
    x, L = k.scale(nu.coords + mubar.coords)
    x_nu, x_mubar = x[:datum.ambient_dim], x[datum.ambient_dim:]
    p_nu = k.root_pairings(x_nu)
    if any(p < 0 for p in p_nu):
        return False, "nu is not dominant"
    C, P = k.split([a - b for a, b in zip(x_mubar, x_nu)])
    if any(P):
        return False, "mubar - nu is not in the coroot span"
    if any(c < 0 for c in C):
        return False, "mubar - nu has a negative coroot coefficient"
    zero_pairing = frozenset(i for i, p in enumerate(p_nu, start=1) if p == 0)
    den = k.q * k.R * L  # c = C / den
    for orbit in datum.sigma_orbits:
        if all(i in zero_pairing for i in orbit):
            continue
        if sum(C[i - 1] for i in orbit) % den:
            return False, f"non-integral coroot coefficient at simple root(s) {orbit}"
    return True, (tuple(Fraction(c, den) for c in C), zero_pairing)


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

    For each J the c_free are chosen by a depth-first walk, one free
    coordinate per level.  Before the walk come the integer step vectors:
    the change of C_J and of the free pairings when one free coordinate
    grows by 1, so each step is n additions.  B, cartan[free][J] and the
    steps at D = 1 depend on the Cartan matrix alone (the steps are linear
    in D): they are computed once per J and Cartan matrix in a process and
    kept in a table shared by every datum with that matrix (_BLOCKS, at
    most 2^rank entries per matrix), and a call computes only the start
    values and bounds that depend on mu.  A constraint can reach at most
    its current value (the coordinates not yet fixed at 0) plus, for each
    coordinate not yet fixed, bounds[a] * max(step, 0).  At each level the
    values of the current coordinate that keep this bound non-negative for
    every constraint form an interval, read off each constraint's own step:
    a constraint whose step is <= 0 ends the interval (larger values only
    lower its bound), one whose step is > 0 starts it.  A branch whose
    interval is empty is pruned; at the leaves every coordinate is fixed
    and the bound is the exact value, so every leaf is a candidate kept as
    above.  Each one becomes the exact point nu = mubar - sum_a c_a
    coroot_a in one pass over the integer C, must still pass is_in_bgmu,
    and is recorded with that certificate.
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
    x, L = k.scale(mubar.coords)
    pairings = k.root_pairings(x)  # R L <mubar, alpha_g>
    g = math.gcd(k.R * L, *pairings)
    D = k.R * L // g
    M = [p // g for p in pairings]  # D <mubar, alpha_g>
    weights = k.coefficients(M)  # q D <mubar, w_a>
    if any(w < 0 for w in weights):
        raise AssertionError("dominant mubar pairs negatively with a weight")
    bounds = [w // (k.q * D) for w in weights]
    blocks = _BLOCKS.setdefault(datum.cartan, [None] * (1 << n))
    elements = []
    for j_mask in range(1 << n):
        block = blocks[j_mask]
        if block is None:
            block = blocks[j_mask] = _principal_block(datum.cartan, j_mask)
        for C, Dq in _walk(block, M, D, bounds):
            # nu = x / L - sum_a C_a coroot_a / (D q)
            den = L * Dq * k.K
            nu = RationalCocharacter(tuple(
                Fraction(t * Dq * k.K - L * s, den) for t, s in zip(x, k.coroot_sum(C))),
                datum)
            ok, cert = is_in_bgmu(nu, mubar)
            if ok:
                elements.append(KottwitzElement(nu, *cert))
    return KottwitzSet(mu, mubar, tuple(sorted(elements, key=KottwitzElement.sort_key)))


# The principal-block data of enumerate_bgmu, keyed by the Cartan matrix and
# indexed by the bit mask of J: every datum with the same Cartan matrix (all
# nodes of a type, and every call) shares one list of at most 2^rank entries.
# An entry depends on the matrix alone, so filling one twice stores the same
# tuple.
_BLOCKS: dict[tuple[tuple[int, ...], ...], list] = {}


def _principal_block(cartan, j_mask):
    """The mu-independent data of the walk with zero set J = the bits of
    j_mask: (J, free, Q, q, cartan[free][J], unit steps), where Q / q is the
    inverse of the principal Cartan block on J and the unit steps are the
    step vectors of _walk at D = 1 (the steps are linear in D)."""
    n = len(cartan)
    J = tuple(i for i in range(n) if j_mask >> i & 1)
    free = tuple(i for i in range(n) if not j_mask >> i & 1)
    Q, q = invert([[cartan[g][a] for a in J] for g in J])  # B = Q / q
    free_rows = tuple(tuple(cartan[g][b] for b in J) for g in free)
    steps = []
    for a in free:
        dJ = [-sum(map(mul, row, (cartan[g][a] for g in J))) for row in Q]
        steps.append(tuple(dJ + [-cartan[g][a] * q - sum(map(mul, row, dJ))
                                 for g, row in zip(free, free_rows)]))
    return J, free, tuple(map(tuple, Q)), q, free_rows, tuple(steps)


def _walk(block, M, D, bounds):
    """The candidates with the zero set J of block (see enumerate_bgmu and
    _principal_block) as pairs (C, D q): the integer vector C = c D q, q the
    common denominator of the J-block inverse."""
    J, free, Q, q, free_rows, unit_steps = block
    Dq = D * q
    cJ = [sum(map(mul, row, (M[g] for g in J))) for row in Q]
    # the constraints at c_free = 0: C_J >= 0, then the free pairings - 1 >= 0
    start = cJ + [q * M[g] - sum(map(mul, row, cJ)) - 1 for g, row in zip(free, free_rows)]
    # the step vectors: the change of the constraints when c_a grows by 1,
    # D times the unit steps (D = 1 whenever mu pairs integrally with every
    # simple root, as every coweight does, so the product is skipped there)
    steps = unit_steps if D == 1 else [[D * d for d in step] for step in unit_steps]
    # slack[i]: the most the coordinates free[i:] can still add to each constraint
    slack = [[0] * len(start)]
    for a, step in zip(reversed(free), reversed(steps)):
        slack.append([s + bounds[a] * max(d, 0) for s, d in zip(slack[-1], step)])
    slack.reverse()
    if any(v + s < 0 for v, s in zip(start, slack[0])):
        return
    depth = len(free)
    choice = [0] * depth

    def descend(i, values):
        if i == depth:
            C = [0] * (len(J) + depth)
            for a, y in zip(J, values):
                C[a] = y
            for a, y in zip(free, choice):
                C[a] = y * Dq
            yield C, Dq
            return
        step, rest = steps[i], slack[i + 1]
        lo, hi = 0, bounds[free[i]]
        for v, d, r in zip(values, step, rest):
            top = v + r  # the most this constraint reaches with c_free[i] = 0
            if d > 0:
                if top < 0:
                    lo = max(lo, -(top // d))
            elif top < 0:
                return
            elif d < 0:
                hi = min(hi, top // -d)
        values = [v + lo * d for v, d in zip(values, step)]
        for y in range(lo, hi + 1):
            choice[i] = y
            yield from descend(i + 1, values)
            values = [v + d for v, d in zip(values, step)]

    yield from descend(0, start)


def newton_leq(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Dominance order: y - x is a non-negative combination of simple coroots
    with equal orthogonal-complement components, read off the kernel's split
    of y - x over one common denominator.  Callers pass dominant points.
    """
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    k = x.datum.kernel
    v, _ = k.scale(y.coords + x.coords)
    dim = x.datum.ambient_dim
    C, P = k.split([a - b for a, b in zip(v[:dim], v[dim:])])
    return not any(P) and all(c >= 0 for c in C)


def maximal_elements(ks: KottwitzSet, exclude_top: bool = False) -> set[KottwitzElement]:
    """The dominance-maximal elements, optionally with the top point removed.

    The kernel's split is linear, so e <= f (newton_leq) exactly when e and
    f have the same orthogonal part and every coroot coefficient of f is at
    least that of e: each element is split once, all over one common
    denominator, so both tests compare integer numerators.
    """
    pool = list(ks.elements)
    if exclude_top:
        pool = [e for e in pool if e.nu.coords != ks.mubar.coords]
    if not pool:
        raise ValueError("empty element set")
    datum = ks.mubar.datum
    k = datum.kernel
    x, _ = k.scale([t for e in pool for t in e.nu.coords])
    dim = datum.ambient_dim
    parts = [(e, *k.split(x[i * dim:(i + 1) * dim])) for i, e in enumerate(pool)]
    out = set()
    for e, ce, pe in parts:
        if all(f is e or pf != pe or any(a < b for a, b in zip(cf, ce))
               for f, cf, pf in parts):
            out.add(e)
    return out


def minuscule_coweights(datum: RootDatum) -> set[RationalCocharacter]:
    """Zero together with the fundamental coweights at special simple roots."""
    if datum.is_product:
        raise ValueError("minuscule coweights of a product datum: use per-factor calls")
    out = {RationalCocharacter((Fraction(0),) * datum.ambient_dim, datum)}
    coweights = fundamental_coweights(datum)
    for i in special_roots(datum):
        out.add(RationalCocharacter(coweights[i - 1], datum))
    return out
