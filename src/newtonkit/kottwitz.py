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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import invert
from .rationals import dot, lincomb, vec_parse, vec_str, vsub
from .rootdata import (
    RationalCocharacter,
    RootDatum,
    coroot_span_decomposition,
    fundamental_coweights,
    fundamental_weights_semisimple,
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
    """Average of mu over the orbit of the diagram automorphism."""
    r = mu.datum.sigma_order
    total = mu
    current = mu
    for _ in range(r - 1):
        current = sigma_apply(current)
        total = total + current
    return total.scale(Fraction(1, r))


def _sigma_orbits(datum: RootDatum) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    orbits = []
    for i in range(1, datum.rank + 1):
        if i in seen:
            continue
        orbit = [i]
        j = datum.sigma[i - 1]
        while j != i:
            orbit.append(j)
            j = datum.sigma[j - 1]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def is_in_bgmu(nu: RationalCocharacter, mubar: RationalCocharacter):
    """Decide membership of nu relative to the Galois average mubar.

    Returns (True, (c, J)) with the certificate, or (False, reason).
    When sigma is nontrivial the integrality condition is taken over
    sigma-orbits of simple roots (orbit-summed fundamental weights); this
    folded path requires nu to be sigma-invariant.
    """
    datum = nu.datum
    if mubar.datum != datum:
        raise ValueError("nu and mubar live over different root data")
    nontrivial_sigma = datum.sigma != tuple(range(1, datum.rank + 1))
    if nontrivial_sigma:
        if sigma_apply(mubar).coords != mubar.coords:
            raise ValueError("mubar is not sigma-invariant")
        if sigma_apply(nu).coords != nu.coords:
            raise ValueError("nu is not sigma-invariant while sigma is nontrivial")
    if not is_dominant(nu):
        return False, "nu is not dominant"
    diff = vsub(mubar.coords, nu.coords)
    coeffs, perp = coroot_span_decomposition(datum, diff)
    if any(x != 0 for x in perp):
        return False, "mubar - nu is not in the coroot span"
    if any(c < 0 for c in coeffs):
        return False, "mubar - nu has a negative coroot coefficient"
    zero_pairing = frozenset(
        i for i, alpha in enumerate(datum.simple_roots, start=1)
        if dot(nu.coords, alpha) == 0
    )
    for orbit in _sigma_orbits(datum):
        if all(i in zero_pairing for i in orbit):
            continue
        total = sum(coeffs[i - 1] for i in orbit)
        if total.denominator != 1:
            return False, f"non-integral coroot coefficient at simple root(s) {orbit}"
    return True, (coeffs, zero_pairing)


def enumerate_bgmu(mu: RationalCocharacter) -> KottwitzSet:
    """The complete finite set attached to a dominant mu (split case only).

    Iterates over subsets J of simple roots and non-negative integer coroot
    coefficients c_a outside J (each bounded by <mubar, w_a> for the
    root-span fundamental weight w_a, since the remaining pairing against a
    dominant point is non-negative); the coefficients inside J are then
    forced by making the pairings <nu, alpha_g>, g in J, vanish:

        c_J = B (<mubar, alpha_J> - cartan[J][free] c_free),

    with B the inverse of the principal Cartan block on J, computed once
    per J.  The scan runs in integers: with D the lcm of the denominators
    of the <mubar, alpha_g> and q the common denominator of B, every
    candidate's C = c D q and its pairings

        <nu, alpha_g> D q = q D <mubar, alpha_g> - sum_b cartan[g][b] C_b

    are integers.  Candidates with a negative C, or with a pairing outside
    J that is negative (not dominant) or zero, are dropped there: a zero
    pairing at a free node gives the same nu as the candidate with that
    node moved into J, so each nu is reached once, with J its zero set.
    Only the survivors become exact points nu = mubar - sum_a c_a coroot_a,
    and each of them must still pass is_in_bgmu, whose certificate is the
    one recorded.
    """
    datum = mu.datum
    if datum.sigma != tuple(range(1, datum.rank + 1)):
        raise ValueError("enumeration is only supported for trivial sigma; "
                         "the folded case is experimental")
    if not is_dominant(mu):
        raise ValueError("mu must be dominant")
    mubar = galois_average(mu)
    n = datum.rank
    weights_ss = fundamental_weights_semisimple(datum)
    bounds = []
    for w in weights_ss:
        b = dot(mubar.coords, w)
        if b < 0:
            raise AssertionError("dominant mubar pairs negatively with a weight")
        bounds.append(int(b))  # floor for non-negative rationals
    cartan = datum.cartan  # cartan[i][j] = <coroot_j, root_i>
    pairings = [dot(mubar.coords, alpha) for alpha in datum.simple_roots]
    D = math.lcm(*(x.denominator for x in pairings))
    M = [int(x * D) for x in pairings]  # D <mubar, alpha_g>
    elements = []
    for j_mask in range(1 << n):
        J = [i for i in range(n) if j_mask >> i & 1]
        free = [i for i in range(n) if not (j_mask >> i & 1)]
        Q, q = invert([[cartan[g][a] for a in J] for g in J])  # B = Q / q
        Dq = D * q
        qM = [q * m for m in M]
        for choice in itertools.product(*(range(bounds[a] + 1) for a in free)):
            C = [0] * n
            for a, v in zip(free, choice):
                C[a] = v * Dq
            # D (<mubar, alpha_g> - sum over free b of cartan[g][b] c_b)
            rhs = [M[g] - D * sum(cartan[g][a] * v for a, v in zip(free, choice))
                   for g in J]
            for a, row in zip(J, Q):
                C[a] = sum(x * r for x, r in zip(row, rhs))
            if any(C[a] < 0 for a in J):
                continue
            if any(qM[g] - sum(x * y for x, y in zip(cartan[g], C)) <= 0 for g in free):
                continue
            c = [Fraction(x, Dq) for x in C]
            nu = RationalCocharacter(vsub(mubar.coords, lincomb(c, datum.simple_coroots)),
                                     datum)
            ok, cert = is_in_bgmu(nu, mubar)
            if ok:
                elements.append(KottwitzElement(nu, *cert))
    return KottwitzSet(mu, mubar, tuple(sorted(elements, key=KottwitzElement.sort_key)))


def newton_leq(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Dominance order: y - x is a non-negative combination of simple coroots
    with equal orthogonal-complement components.  Callers pass dominant points.
    """
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    diff = vsub(y.coords, x.coords)
    coeffs, perp = coroot_span_decomposition(x.datum, diff)
    if any(t != 0 for t in perp):
        return False
    return all(c >= 0 for c in coeffs)


def maximal_elements(ks: KottwitzSet, exclude_top: bool = False) -> set[KottwitzElement]:
    """The dominance-maximal elements, optionally with the top point removed.

    The coroot-span decomposition is linear, so e <= f (newton_leq) exactly
    when e and f have the same orthogonal part and every coroot coefficient
    of f is at least that of e: each element is decomposed once.
    """
    pool = list(ks.elements)
    if exclude_top:
        pool = [e for e in pool if e.nu.coords != ks.mubar.coords]
    if not pool:
        raise ValueError("empty element set")
    datum = ks.mubar.datum
    parts = [(e, *coroot_span_decomposition(datum, e.nu.coords)) for e in pool]
    out = set()
    for e, ce, pe in parts:
        if all(f is e or pf != pe or any(x < y for x, y in zip(cf, ce))
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


def kottwitz_set_to_json(ks: KottwitzSet) -> dict:
    return {
        "mu": vec_str(ks.mu.coords),
        "mubar": vec_str(ks.mubar.coords),
        "elements": [
            {
                "nu": vec_str(e.nu.coords),
                "c": vec_str(e.c),
                "J": sorted(e.J),
            }
            for e in ks.elements
        ],
    }


def kottwitz_set_from_json(doc: dict, datum: RootDatum) -> KottwitzSet:
    mu = RationalCocharacter(vec_parse(doc["mu"]), datum)
    mubar = RationalCocharacter(vec_parse(doc["mubar"]), datum)
    elements = tuple(
        KottwitzElement(
            RationalCocharacter(vec_parse(e["nu"]), datum),
            vec_parse(e["c"]),
            frozenset(int(j) for j in e["J"]),
        )
        for e in doc["elements"]
    )
    return KottwitzSet(mu, mubar, elements)
