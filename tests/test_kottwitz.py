import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonkit import kottwitz
from newtonkit.kottwitz import (
    KottwitzElement,
    KottwitzSet,
    enumerate_bgmu,
    galois_average,
    is_in_bgmu,
    maximal_elements,
    minuscule_coweights,
    newton_leq,
)
from newtonkit.linalg import invert
from newtonkit.muordinary import SlopeProfile, next_to_max_profile, profile_from_newton
from newtonkit.rootdata import (
    build_datum,
    dominant_representative,
    fundamental_coweight,
    fundamental_coweights,
    is_dominant,
    product_datum,
    special_roots,
)
from reference import coroot_split, fundamental_weights, gram_inverse, ip


def test_galois_average_is_the_identity():
    c2 = build_datum("C", 2)
    mu = fundamental_coweight(c2, 2)
    assert galois_average(mu).coords == mu.coords


def test_is_in_bgmu_c2_certificates():
    c2 = build_datum("C", 2)
    mubar = c2.cochar([F(1, 2), F(1, 2)])
    ok, cert = is_in_bgmu(c2.cochar([F(1, 2), 0]), mubar)
    assert ok
    c, J = cert
    assert c == (0, F(1, 2))
    assert J == {2}
    ok, reason = is_in_bgmu(c2.cochar([F(1, 4), F(1, 4)]), mubar)
    assert (ok, reason) == (False, "non-integral coroot coefficient at simple root 2")
    ok, cert = is_in_bgmu(mubar, mubar)
    assert ok and cert[0] == (0, 0)


def test_is_in_bgmu_rejects_non_dominant():
    c2 = build_datum("C", 2)
    mubar = c2.cochar([F(1, 2), F(1, 2)])
    ok, reason = is_in_bgmu(c2.cochar([0, F(1, 2)]), mubar)
    assert not ok and "dominant" in reason


def test_enumerate_c2_three_strata():
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(fundamental_coweight(c2, 2))
    assert ks.points() == [(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2))]


def test_enumerate_mu_zero():
    for t, n in [("A", 2), ("C", 2), ("G2", 2)]:
        d = build_datum(t, n)
        mu = d.cochar([0] * d.ambient_dim)
        ks = enumerate_bgmu(mu)
        assert ks.points() == [(0,) * d.ambient_dim]


def test_enumerate_a2_chain():
    a2 = build_datum("A", 2)
    ks = enumerate_bgmu(fundamental_coweight(a2, 1))
    assert ks.points() == [
        (0, 0, 0),
        (F(1, 6), F(1, 6), F(-1, 3)),
        (F(2, 3), F(-1, 3), F(-1, 3)),
    ]
    # totally ordered chain
    pts = [a2.cochar(p) for p in ks.points()]
    for a, b in itertools.combinations(pts, 2):
        assert newton_leq(a, b) or newton_leq(b, a)


def test_enumerate_requires_dominant_mu():
    c2 = build_datum("C", 2)
    with pytest.raises(ValueError):
        enumerate_bgmu(c2.cochar([0, F(1, 2)]))


def test_newton_leq_examples():
    c2 = build_datum("C", 2)
    zero = c2.cochar([0, 0])
    mid = c2.cochar([F(1, 2), 0])
    top = c2.cochar([F(1, 2), F(1, 2)])
    assert newton_leq(zero, zero)
    assert newton_leq(zero, mid) and newton_leq(mid, top)
    assert not newton_leq(top, mid)
    a2 = build_datum("A", 2)
    w1, w2 = fundamental_coweight(a2, 1), fundamental_coweight(a2, 2)
    assert not newton_leq(w1, w2) and not newton_leq(w2, w1)


def test_newton_leq_is_partial_order_on_enumerated_sets():
    for t, n, k in [("C", 2, 2), ("A", 3, 2), ("B", 3, 1)]:
        d = build_datum(t, n)
        ks = enumerate_bgmu(fundamental_coweight(d, k))
        pts = [d.cochar(p) for p in ks.points()]
        for a in pts:
            assert newton_leq(a, a)
        for a, b in itertools.permutations(pts, 2):
            if newton_leq(a, b) and newton_leq(b, a):
                assert a.coords == b.coords
        for a, b, c in itertools.product(pts, repeat=3):
            if newton_leq(a, b) and newton_leq(b, c):
                assert newton_leq(a, c)


def test_enumerated_elements_are_certified_and_bounded_by_top():
    # every datum up to rank 8 at every node k, with mu = omega_k and
    # mu = omega_k + omega_1: the enumeration does not test its points
    # again, so each one is tested here
    count = 0
    for t, ranks in _RANKS.items():
        for n in ranks:
            d = build_datum(t, n)
            coweights = fundamental_coweights(d)
            mus = [d.cochar(c) for c in coweights]
            mus += [d.cochar([a + b for a, b in zip(c, coweights[0])]) for c in coweights]
            for mu in mus:
                ks = enumerate_bgmu(mu)
                assert ks.mubar.coords in set(ks.points())
                count += len(ks.elements)
                for e in ks.elements:
                    assert is_dominant(e.nu)
                    assert is_in_bgmu(e.nu, ks.mubar) == (True, (e.c, e.J)), (t, n, e.nu.coords)
                    assert newton_leq(e.nu, ks.mubar)
                    # certificate reconstructs nu exactly (coroots are sparse)
                    coords = list(ks.mubar.coords)
                    for ci, av in zip(e.c, d.simple_coroots):
                        for t_, x in enumerate(av):
                            if x and ci:
                                coords[t_] -= ci * x
                    assert tuple(coords) == e.nu.coords
    assert count == 26034


def test_downward_directed():
    for t, n, k in [("C", 2, 2), ("B", 3, 1), ("A", 3, 2)]:
        d = build_datum(t, n)
        ks = enumerate_bgmu(fundamental_coweight(d, k))
        pts = [d.cochar(p) for p in ks.points()]
        for a, b in itertools.combinations(pts, 2):
            assert any(newton_leq(z, a) and newton_leq(z, b) for z in pts)


def test_maximal_elements_examples():
    b3 = build_datum("B", 3)
    ks = enumerate_bgmu(fundamental_coweight(b3, 1))
    mx = maximal_elements(ks, exclude_top=True)
    assert {e.nu.coords for e in mx} == {(F(1, 2), F(1, 2), 0)}
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(fundamental_coweight(c2, 2))
    mx = maximal_elements(ks, exclude_top=True)
    assert {e.nu.coords for e in mx} == {(F(1, 2), 0)}
    mx = maximal_elements(ks, exclude_top=False)
    assert {e.nu.coords for e in mx} == {ks.mubar.coords}


def test_maximal_elements_empty_input():
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(c2.cochar([0, 0]))
    with pytest.raises(ValueError):
        maximal_elements(ks, exclude_top=True)


def test_maximal_element_theorem_small_ranks():
    cases = (
        [("A", n, k) for n in range(1, 5) for k in range(1, n + 1)]
        + [("B", n, 1) for n in (2, 3, 4)]
        + [("C", n, n) for n in (2, 3, 4)]
        + [("D", n, k) for n in (4, 5) for k in (1, n - 1, n)]
    )
    for t, n, k in cases:
        d = build_datum(t, n)
        mu = fundamental_coweight(d, k)
        ks = enumerate_bgmu(mu)
        mx = maximal_elements(ks, exclude_top=True)
        expected = tuple(
            m - F(1, 2) * c for m, c in zip(ks.mubar.coords, d.simple_coroots[k - 1])
        )
        assert {e.nu.coords for e in mx} == {expected}, (t, n, k)


def test_maximal_element_theorem_rank_seven():
    # acceptance stops at rank 6 for B/C/D; the theorem also holds at 7
    for t, n, k in [("B", 7, 1), ("C", 7, 7), ("D", 7, 1), ("D", 7, 6), ("D", 7, 7)]:
        d = build_datum(t, n)
        mu = fundamental_coweight(d, k)
        ks = enumerate_bgmu(mu)
        mx = maximal_elements(ks, exclude_top=True)
        expected = tuple(
            m - F(1, 2) * c for m, c in zip(ks.mubar.coords, d.simple_coroots[k - 1])
        )
        assert {e.nu.coords for e in mx} == {expected}, (t, n, k)


def test_minuscule_coweights():
    d5 = build_datum("D", 5)
    ms = {m.coords for m in minuscule_coweights(d5)}
    assert len(ms) == 4  # zero, vector, two half-spin
    assert (1, 0, 0, 0, 0) in ms
    e8 = build_datum("E8", 8)
    assert {m.coords for m in minuscule_coweights(e8)} == {(0,) * 8}
    c3 = build_datum("C", 3)
    assert {m.coords for m in minuscule_coweights(c3)} == {
        (0, 0, 0),
        (F(1, 2), F(1, 2), F(1, 2)),
    }


# node permutations that preserve the Cartan matrix: the flips of A3, D4 and
# E6, and D4 triality 1 -> 3 -> 4 -> 1
_DIAGRAM_AUTOMORPHISMS = [("A", 3, (3, 2, 1)), ("D", 4, (1, 2, 4, 3)),
                          ("E6", 6, (6, 2, 5, 4, 3, 1)), ("D", 4, (3, 2, 4, 1))]


def _relabel(v, perm):
    """perm acting on a cocharacter, in Fractions: the coroot coefficient at
    node i moves to node perm(i), and the part orthogonal to the roots stays."""
    datum = v.datum
    c, perp = coroot_split(datum, v.coords)
    moved = [c[perm.index(j)] for j in range(1, datum.rank + 1)]
    return datum.cochar([p + ip(moved, [a[t] for a in datum.simple_coroots])
                         for t, p in enumerate(perp)])


def test_membership_invariant_under_diagram_relabeling():
    # relabeling the simple roots by a diagram automorphism maps each member
    # to a member of the relabeled set, with the certificate relabeled too
    for t, n, perm in _DIAGRAM_AUTOMORPHISMS:
        datum = build_datum(t, n)
        assert all(datum.cartan[perm[i] - 1][perm[j] - 1] == datum.cartan[i][j]
                   for i in range(n) for j in range(n))
        ks = enumerate_bgmu(fundamental_coweight(datum, min(special_roots(datum))))
        mubar = _relabel(ks.mubar, perm)
        for e in ks.elements:
            ok, (c, J) = is_in_bgmu(_relabel(e.nu, perm), mubar)
            assert ok, (t, n, perm)
            assert c == tuple(e.c[perm.index(j)] for j in range(1, n + 1))
            assert J == {perm[i - 1] for i in e.J}


SPAN_CASES = [("A", 1, 1), ("A", 4, 2), ("A", 8, 5), ("G2", 2, 1), ("E6", 6, 1), ("E6", 6, 2),
              ("E7", 7, 7), ("A2xG2xE6", 10, 1), ("A2xG2xE6", 10, 3)]


@pytest.mark.parametrize("t,n,node", SPAN_CASES)
def test_a_point_off_the_coroot_span_is_refused_with_its_reason(t, n, node):
    # nu = e + s z, e an element of the set and z a nonzero orthogonal part
    # of a unit vector (by the Fraction reference) or their sum: nu pairs
    # with every root as e does, so it is dominant, and its coroot
    # coefficients are e's, but mubar - nu is off the span
    if t == "A2xG2xE6":
        datum = product_datum([build_datum("A", 2), build_datum("G2", 2), build_datum("E6", 6)])
    else:
        datum = build_datum(t, n)
    assert datum.rank == n
    ks = enumerate_bgmu(fundamental_coweight(datum, node))
    dim = datum.ambient_dim
    parts = [coroot_split(datum, [int(i == j) for j in range(dim)])[1] for i in range(dim)]
    Z = list(dict.fromkeys(perp for perp in parts if any(perp)))
    assert Z
    moves = Z + [[sum(col) for col in zip(*Z)]]
    assert all(any(z) for z in moves)
    for e in (ks.elements[0], ks.elements[-1]):
        for z in moves:
            for scale in (F(1, 3), -2):
                nu = datum.cochar([a + scale * b for a, b in zip(e.nu.coords, z)])
                assert is_dominant(nu)
                assert is_in_bgmu(nu, ks.mubar) == (False, "mubar - nu is not in the coroot span")
                assert not newton_leq(nu, ks.mubar) and not newton_leq(e.nu, nu)
        assert is_in_bgmu(e.nu, ks.mubar) == (True, (e.c, e.J))


def test_only_types_a_e6_e7_and_g2_have_a_complement():
    # the roots of B, C, D, E8 and F4 span the ambient space, so no unit
    # vector has an orthogonal part and "mubar - nu is not in the coroot
    # span" is never their reason; split and the Fraction reference agree
    for t, n in SIGN_FACT_TYPES:
        datum = build_datum(t, n)
        units = [[int(i == j) for j in range(datum.ambient_dim)] for i in range(datum.ambient_dim)]
        has = t in ("A", "E6", "E7", "G2")
        assert any(any(datum.kernel.split(e)[1]) for e in units) == has, (t, n)
        assert any(any(coroot_split(datum, e)[1]) for e in units) == has, (t, n)


def test_enumerate_product_datum():
    d = product_datum([build_datum("A", 1), build_datum("A", 1)])
    mu = d.cochar([F(1, 2), F(-1, 2), F(1, 2), F(-1, 2)])
    ks = enumerate_bgmu(mu)
    # each factor contributes the two-element chain, so four points total
    assert len(ks.elements) == 4
    assert ks.mubar.coords == mu.coords
    assert (0, 0, 0, 0) in set(ks.points())


def _concave_polygon_slopes(width, height, top=1, hodge=None):
    """Slope sequences of the concave lattice polygons from (0,0) to
    (width, height) with slopes in [0, top] and integral breakpoints; given
    hodge, a descending slope sequence, only those on or below its polygon."""
    bound = [0]
    for s in hodge or [top] * width:
        bound.append(bound[-1] + s)
    out = set()

    def extend(x, y, last, slopes):
        if x == width:
            if y == height:
                out.add(tuple(slopes))
            return
        for dx in range(1, width - x + 1):
            for dy in range(min(top * dx, height - y) + 1):
                s = F(dy, dx)
                # later slopes are below s, so the end must be reachable now
                if (last is None or s < last) and y + dy <= bound[x + dx] \
                        and y + dy + s * (width - x - dx) >= height:
                    extend(x + dx, y + dy, s, slopes + [s] * dx)

    extend(0, 0, None, [])
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_type_a_enumeration_is_the_polygon_set(n):
    datum = build_datum("A", n)
    for k in range(1, n + 1):
        ks = enumerate_bgmu(fundamental_coweight(datum, k))
        shift = F(k, n + 1)  # the coweight is traceless; slopes sum to k
        got = {tuple(x + shift for x in e.nu.coords) for e in ks.elements}
        assert len(got) == len(ks.elements)
        assert got == _concave_polygon_slopes(n + 1, k), (n, k)


RANK_5_TYPES = (
    [("A", n) for n in range(1, 6)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in range(3, 6)]
    + [("F4", 4), ("G2", 2)]
)


@pytest.mark.parametrize("t,n", RANK_5_TYPES)
def test_maximal_elements_is_the_pairwise_definition(t, n):
    # mu = omega_k and mu = omega_k + omega_1, which is not minuscule
    datum = build_datum(t, n)
    coweights = fundamental_coweights(datum)
    for k, plus_w1 in itertools.product(range(1, n + 1), (0, 1)):
        ks = enumerate_bgmu(datum.cochar([a + plus_w1 * b
                                          for a, b in zip(coweights[k - 1], coweights[0])]))
        for exclude_top in (False, True):
            pool = [e for e in ks.elements
                    if not exclude_top or e.nu.coords != ks.mubar.coords]
            if not pool:
                continue
            expected = {e for e in pool
                        if not any(f is not e and newton_leq(e.nu, f.nu) for f in pool)}
            assert maximal_elements(ks, exclude_top) == expected, (t, n, k, plus_w1)


def _pairwise_maximal(ks, exclude_top=False):
    """Reference: the pairwise scan maximal_elements used before it compared
    against the maxima only, each element split once and tested against
    every other one."""
    pool = [e for e in ks.elements if not exclude_top or e.nu.coords != ks.mubar.coords]
    k = ks.mubar.datum.kernel
    L = math.lcm(*(e.nu.L for e in pool))
    parts = [(e, *k.split(e.nu.over(L))) for e in pool]
    return {e for e, ce, pe in parts
            if all(f is e or pf != pe or any(a < b for a, b in zip(cf, ce))
                   for f, cf, pf in parts)}


MAXIMA_CASES = ([("A", n, k) for n in (6, 7, 8) for k in range(1, n + 1)]
                + [(t, 6, k) for t in "BCD" for k in range(1, 7)]
                + [("E6", 6, k) for k in range(1, 7)] + [("E7", 7, k) for k in range(1, 8)]
                + [("E8", 8, k) for k in (1, 2, 7, 8)])


def _rebuilt(e):
    """A copy of e whose nu comes through datum.cochar, and whose certificate
    is given as its numerators and denominator times 3."""
    return KottwitzElement(e.nu.datum.cochar(list(e.nu.coords)), [3 * t for t in e.C],
                           3 * e.den, e.J)


@pytest.mark.parametrize("t,n", sorted({(t, n) for t, n, _ in MAXIMA_CASES}))
def test_maximal_elements_match_the_pairwise_scan_on_random_pools(t, n):
    # sub-pools of a set have many maximal elements, unlike the set itself;
    # every other pool mixes enumerated elements with copies rebuilt through
    # datum.cochar and the certificate's unreduced numerators
    datum = build_datum(t, n)
    rng = random.Random(f"{t}{n}")
    for k in [k for t_, n_, k in MAXIMA_CASES if (t_, n_) == (t, n)]:
        ks = enumerate_bgmu(fundamental_coweight(datum, k))
        for i in range(4):
            size = rng.randint(1, min(len(ks.elements), 120))
            pool = rng.sample(ks.elements, size)
            if i % 2:
                pool = [_rebuilt(e) if rng.random() < 0.5 else e for e in pool]
            sub = KottwitzSet(ks.mu, ks.mubar, tuple(pool))
            for exclude_top in (False, True):
                if exclude_top and size == 1 and sub.elements[0].nu == ks.mubar:
                    continue
                want = _pairwise_maximal(sub, exclude_top)
                assert maximal_elements(sub, exclude_top) == want, (t, n, k, size)


@pytest.mark.parametrize("den", [0, -1, -6])
def test_certificate_denominator_must_be_positive(den):
    c2 = build_datum("C", 2)
    with pytest.raises(ValueError, match="not positive"):
        KottwitzElement(c2.cochar(("1/2", "0")), (1, 0), den, frozenset())


def test_certificate_is_stored_in_lowest_terms():
    # like a cocharacter, a certificate has one stored form: equality and
    # hashing are by value, and c is its Fraction view
    c2 = build_datum("C", 2)
    nu = c2.cochar(("1/2", "0"))
    forms = [KottwitzElement(nu, (3 * m, -2 * m), 6 * m, frozenset({2})) for m in (1, 2, 5, 12)]
    assert {(e.C, e.den) for e in forms} == {((3, -2), 6)}
    assert len(set(forms)) == 1 and len({hash(e) for e in forms}) == 1
    assert all(e.c == (F(1, 2), F(-1, 3)) for e in forms)
    zero = [KottwitzElement(nu, [0, 0], den, frozenset()) for den in (1, 4, 9)]
    assert {(e.C, e.den) for e in zero} == {((0, 0), 1)} and len(set(zero)) == 1
    assert zero[0].c == (F(0), F(0))
    assert KottwitzElement(nu, (1, 0), 2, frozenset()) != \
        KottwitzElement(nu, (1, 0), 3, frozenset())


def test_enumeration_and_maxima_build_no_certificate_fractions():
    # the certificates stay integer numerators through enumerate_bgmu and
    # maximal_elements: the Fraction view c is built only when it is read
    e7 = build_datum("E7", 7)
    ks = enumerate_bgmu(fundamental_coweight(e7, 7))
    assert len(maximal_elements(ks, exclude_top=True)) == 1
    assert ks.elements and all("c" not in e.__dict__ for e in ks.elements)
    e = ks.elements[-1]
    assert e.c == tuple(F(t, e.den) for t in e.C) and "c" in e.__dict__


def test_elements_with_the_same_nu_are_one_point():
    # a point that is maximal is returned once, as the first element in the
    # pool that carries it
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(fundamental_coweight(c2, 2))
    (top,) = [e for e in ks.elements if e.nu == ks.mubar]
    copy = KottwitzElement(c2.cochar(list(top.nu.coords)), [2 * t for t in top.C],
                           2 * top.den, top.J)
    assert copy == top and copy is not top
    for pool, first in (((top, copy), top), ((copy, top), copy)):
        (got,) = maximal_elements(KottwitzSet(ks.mu, ks.mubar, pool))
        assert got is first
    with_copy = KottwitzSet(ks.mu, ks.mubar, ks.elements + (copy,))
    assert maximal_elements(with_copy) == {top}
    assert {e.nu for e in maximal_elements(with_copy, exclude_top=True)} == \
        {e.nu for e in maximal_elements(ks, exclude_top=True)}


@pytest.mark.parametrize("C, Dq, reason", [
    ([-1], 1, "mubar - nu has a negative coroot coefficient"),
    ([1], 4, "non-integral coroot coefficient at simple root 1"),
    ([3], 1, "nu is not dominant"),
])
def test_enumeration_tests_every_leaf_of_the_walk(C, Dq, reason, monkeypatch):
    # the walk's leaves carry their certificates and are not tested again, so
    # a leaf the walk should never give is not hidden: the free pairing
    # D q <nu, alpha> of nu = mubar - (C / Dq) coroot on A1 comes out of
    # enumerate_bgmu as that nu beside the true elements, and is_in_bgmu, the
    # check every enumerated element passes in
    # test_enumerated_elements_are_certified_and_bounded_by_top, refuses it.
    # mu = 3/2 w_1 pairs to 3/2 with the root, so D = 2 and each bogus
    # pairing D q (3/2 - 2 C / Dq) is an integer.
    a1 = build_datum("A", 1)
    mu = a1.cochar([F(3, 2) * x for x in fundamental_coweight(a1, 1).coords])
    (root,), (coroot,) = a1.simple_roots, a1.simple_coroots
    c = F(C[0], Dq)
    want = _certified(mu)
    walk = kottwitz._walk
    offered = []

    def walk_and_a_bogus_leaf(block, M, D, bounds):
        yield from walk(block, M, D, bounds)
        if block[0]:  # the block of J = {}, walked since mu itself has that zero set
            offered.append(block)
            pairing = D * block[1] * (ip(mu.coords, root) - c * ip(coroot, root))
            assert D == 2 and pairing.denominator == 1
            yield [int(pairing)]

    monkeypatch.setattr(kottwitz, "_walk", walk_and_a_bogus_leaf)
    ks = enumerate_bgmu(mu)
    assert len(offered) == 1
    (bogus,) = [e for e in ks.elements if (e.nu.coords, e.c, e.J) not in want]
    assert [(e.nu.coords, e.c, e.J) for e in ks.elements if e is not bogus] == want
    assert bogus.nu.coords == tuple(m - c * x for m, x in zip(mu.coords, coroot))
    assert (bogus.c, bogus.J) == ((c,), frozenset())
    assert is_in_bgmu(bogus.nu, ks.mubar) == (False, reason)


def _exhaustive_scan(mu):
    """Reference: the exhaustive candidate scan enumerate_bgmu used before its
    depth-first walk, as sorted (nu, c, J) tuples.  For every J it tries every
    c_free in the box of the bounds <mubar, w_a>, forces c_J, and keeps the
    candidates with c_J >= 0 and every free pairing > 0; its certificate is
    the scan's own c and J."""
    datum = mu.datum
    mubar = galois_average(mu)
    n = datum.rank
    cartan = datum.cartan
    pairings = [sum(x * y for x, y in zip(mubar.coords, alpha)) for alpha in datum.simple_roots]
    Q, q = invert(cartan)
    bounds = [math.floor(sum(F(x, q) * p for x, p in zip(row, pairings))) for row in Q]
    D = math.lcm(*(x.denominator for x in pairings))
    M = [int(x * D) for x in pairings]
    out = []
    for j_mask in range(1 << n):
        J = [i for i in range(n) if j_mask >> i & 1]
        free = [i for i in range(n) if not (j_mask >> i & 1)]
        QJ, qJ = invert([[cartan[g][a] for a in J] for g in J])
        Dq = D * qJ
        qM = [qJ * m for m in M]
        for choice in itertools.product(*(range(bounds[a] + 1) for a in free)):
            C = [0] * n
            for a, v in zip(free, choice):
                C[a] = v * Dq
            rhs = [M[g] - D * sum(cartan[g][a] * v for a, v in zip(free, choice))
                   for g in J]
            for a, row in zip(J, QJ):
                C[a] = sum(x * r for x, r in zip(row, rhs))
            if any(C[a] < 0 for a in J):
                continue
            if any(qM[g] - sum(x * y for x, y in zip(cartan[g], C)) <= 0 for g in free):
                continue
            c = tuple(F(x, Dq) for x in C)
            nu = list(mubar.coords)
            for ci, av in zip(c, datum.simple_coroots):
                for t, x in enumerate(av):
                    nu[t] -= ci * x
            out.append((tuple(nu), c, frozenset(a + 1 for a in J)))
    return sorted(out, key=lambda element: element[0])


DIFFERENTIAL_CASES = (
    [(t, n, k) for t, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(lo, 7) for k in range(1, n + 1)]
    + [("E6", 6, k) for k in range(1, 7)]
    + [("F4", 4, k) for k in range(1, 5)]
    + [("G2", 2, k) for k in (1, 2)]
    + [("A", 7, k) for k in range(1, 8)]
    + [("E7", 7, 7)]
)


@pytest.mark.parametrize("t,n", sorted({(t, n) for t, n, _ in DIFFERENTIAL_CASES}))
def test_walk_matches_the_exhaustive_scan(t, n):
    # every node of every type up to rank 6 and every case of acceptance
    # criterion 1 (A7 nodes 4 and 5, E7 node 7 among them): same elements,
    # certificates and order
    datum = build_datum(t, n)
    for k in [k for t_, n_, k in DIFFERENTIAL_CASES if (t_, n_) == (t, n)]:
        mu = fundamental_coweight(datum, k)
        got = [(e.nu.coords, e.c, e.J) for e in enumerate_bgmu(mu).elements]
        assert got == _exhaustive_scan(mu), (t, n, k)


E8_COUNTS = {1: 84, 2: 187, 3: 360, 4: 980, 5: 585, 6: 310, 7: 133, 8: 37}


def test_every_e8_node_enumerates():
    e8 = build_datum("E8", 8)
    for k, count in E8_COUNTS.items():
        ks = enumerate_bgmu(fundamental_coweight(e8, k))
        assert len(ks.elements) == count, k
        top = {e for e in ks.elements if e.nu.coords == ks.mubar.coords}
        assert maximal_elements(ks) == top
        assert len(maximal_elements(ks, exclude_top=True)) == 1, k


def _certified(mu):
    return [(e.nu.coords, e.c, e.J) for e in enumerate_bgmu(mu).elements]


@pytest.mark.parametrize("t,n,k", [("A", 7, 4), ("E6", 6, 1), ("C", 5, 5)])
def test_enumeration_does_not_depend_on_the_block_table(t, n, k, monkeypatch):
    # the principal-block table is shared by every node of a Cartan matrix:
    # a cold table, one filled by the other nodes, and a repeat give the same
    # elements, certificates and order
    monkeypatch.setattr(kottwitz, "_BLOCKS", {})
    datum = build_datum(t, n)
    cold = _certified(fundamental_coweight(datum, k))
    monkeypatch.setattr(kottwitz, "_BLOCKS", {})
    for other in range(1, n + 1):
        if other != k:
            enumerate_bgmu(fundamental_coweight(datum, other))
    warm = _certified(fundamental_coweight(datum, k))
    assert cold == warm == _certified(fundamental_coweight(datum, k))


# E7 at r = 5/3 is left out: its exhaustive scan takes about 11 s
RATIONAL_MU_CASES = ([(t, n, r) for t, n in (("A", 4), ("C", 3), ("D", 4), ("G2", 2), ("E6", 6))
                      for r in (F(1, 2), F(2, 3), F(5, 3))]
                     + [(t, n, r) for t, n in (("B", 3), ("F4", 4)) for r in (F(1, 2), F(2, 3), F(5, 3))]
                     + [("E7", 7, r) for r in (F(1, 2), F(2, 3))])


@pytest.mark.parametrize("t,n,r", RATIONAL_MU_CASES)
def test_walk_matches_the_exhaustive_scan_at_rational_mu(t, n, r):
    # mu = r (w_1 + w_n) pairs to a non-integer with some simple root, so the
    # walk's steps are scaled by a D > 1, and its leaves' pairings are read
    # over block denominators q other than that of the whole Cartan matrix
    datum = build_datum(t, n)
    coweights = fundamental_coweights(datum)
    mu = datum.cochar([r * (a + b) for a, b in zip(coweights[0], coweights[-1])])
    pairings = [sum(x * y for x, y in zip(mu.coords, alpha)) for alpha in datum.simple_roots]
    assert math.lcm(*(x.denominator for x in pairings)) > 1
    assert _certified(mu) == _exhaustive_scan(mu) == _walk_every_mask(mu), (t, n, r)


SIGN_FACT_TYPES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
                   + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
                   + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])


@pytest.mark.parametrize("t,n", SIGN_FACT_TYPES)
def test_every_principal_block_has_the_sign_facts_of_the_walk(t, n):
    # the J-block inverse B (a Fraction solve here, with q its common
    # denominator) is >= 0, a free coordinate's steps on C_J (-B cartan[J][a])
    # and on the other free pairings are >= 0, and its step on its own
    # pairing < 0; _principal_block raises AssertionError otherwise
    datum = build_datum(t, n)
    cartan = datum.cartan
    for j_mask in range(1 << n):
        free, q, _, steps, zero_set = kottwitz._principal_block(cartan, j_mask)
        J = [a for a in range(n) if a not in free]
        assert zero_set == {a + 1 for a in J}, (t, n, j_mask)
        B = gram_inverse(datum, tuple(J))
        assert all(x >= 0 and (q * x).denominator == 1 for row in B for x in row), (t, n, j_mask)
        assert all(-sum(x * cartan[b][a] for b, x in zip(J, row)) >= 0
                   for row in B for a in free), (t, n, j_mask)
        assert all((d < 0) == (i == h) for i, step in enumerate(steps)
                   for h, d in enumerate(step)), (t, n, j_mask)


def test_a_block_that_breaks_a_sign_fact_is_refused():
    # positive off-diagonal entries: growing c_2 lowers C_J for J = {1}
    with pytest.raises(AssertionError, match="sign fact"):
        kottwitz._principal_block(((2, 1), (1, 2)), 0b01)


def test_principal_blocks_are_inverted_once_per_cartan_matrix(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return invert(a)

    monkeypatch.setattr(kottwitz, "_BLOCKS", {})
    monkeypatch.setattr(kottwitz, "invert", counted)
    e7 = build_datum("E7", 7)
    for k in range(1, 8):
        enumerate_bgmu(fundamental_coweight(e7, k))
    assert 0 < len(calls) <= 2 ** 7
    calls.clear()
    for k in range(1, 8):
        enumerate_bgmu(fundamental_coweight(e7, k))
    assert calls == []


_EVERY_MASK_BLOCKS = {}


def _walk_every_mask(mu):
    """Reference: enumerate_bgmu before it skipped dead zero sets and trusted
    its leaves' certificates.  It walks the principal block of every mask J
    in increasing order, rebuilds each leaf's nu from its free pairings
    D q <nu, alpha_g> in Fractions (c solves the Gram system of the simple
    coroots and roots against <mubar - nu, alpha>, nu = mubar - sum_a c_a
    coroot_a), tests it with is_in_bgmu and keeps its certificate; (nu, c, J)
    tuples in the enumeration's order."""
    datum = mu.datum
    n = datum.rank
    roots, coroots = datum.simple_roots, datum.simple_coroots
    blocks = _EVERY_MASK_BLOCKS.setdefault(datum.cartan, {})
    inverse = gram_inverse(datum)
    pairings = [ip(mu.coords, root) for root in roots]  # split data: mubar = mu
    D = math.lcm(*(p.denominator for p in pairings))
    M = [int(D * p) for p in pairings]
    bounds = [math.floor(ip(row, pairings)) for row in inverse]  # <mubar, w_a>
    leaves = []
    for j_mask in range(1 << n):
        if j_mask not in blocks:
            blocks[j_mask] = kottwitz._principal_block(datum.cartan, j_mask)
        free, q = blocks[j_mask][:2]
        for P in kottwitz._walk(blocks[j_mask], M, D, bounds):
            drop = list(pairings)  # <mubar - nu, alpha_g>, <nu, alpha_g> = 0 on J
            for g, p in zip(free, P):
                drop[g] -= F(p, D * q)
            c = [ip(row, drop) for row in inverse]
            leaves.append(tuple(t - ip(c, [v[i] for v in coroots]) for i, t in enumerate(mu.coords)))
    members = []
    for nu in leaves:
        ok, cert = is_in_bgmu(datum.cochar(nu), mu)
        if ok:
            members.append((nu, *cert))
    return sorted(members, key=lambda m: m[0])


@pytest.mark.parametrize("t,n", SIGN_FACT_TYPES)
def test_skipping_dead_zero_sets_changes_nothing(t, n):
    # every node and omega_1 + omega_n (the rational multiples of the latter
    # are in test_walk_matches_the_exhaustive_scan_at_rational_mu): same
    # elements, certificates and order as the walk over every mask
    datum = build_datum(t, n)
    coweights = fundamental_coweights(datum)
    mus = [datum.cochar(c) for c in coweights]
    mus.append(datum.cochar([a + b for a, b in zip(coweights[0], coweights[-1])]))
    for mu in mus:
        assert _certified(mu) == _walk_every_mask(mu), (t, n, mu.coords)


# masks walked (of 2^n): a mask is walked when each one-larger superset is
# live, that is walked with a point
WALKED_MASKS = {("E7", 7, 7): 29, ("A", 7, 4): 39,
                **{("E8", 8, k): count for k, count in
                   enumerate((56, 88, 107, 143, 129, 102, 77, 38), start=1)}}


def test_only_the_zero_sets_that_can_hold_a_point_are_walked(monkeypatch):
    walk = kottwitz._walk
    walked = []

    def counted(block, *args):
        walked.append(block[0])
        yield from walk(block, *args)

    monkeypatch.setattr(kottwitz, "_walk", counted)
    for (t, n, k), count in WALKED_MASKS.items():
        walked.clear()
        monkeypatch.setattr(kottwitz, "_BLOCKS", {})
        datum = build_datum(t, n)
        enumerate_bgmu(fundamental_coweight(datum, k))
        assert len(walked) == len(set(walked)) == count, (t, n, k)
        built = [b for b in kottwitz._BLOCKS[datum.cartan] if b is not None]
        assert sorted(b[0] for b in built) == sorted(walked), (t, n, k)


@pytest.mark.parametrize("t,n", [(t, n) for t, n in SIGN_FACT_TYPES if n <= 7] + [("E8", 8)])
def test_the_zero_sets_that_hold_a_point_are_closed_upward(t, n):
    # for nu with zero set J and a outside J, nu' = nu - sum_{b in J'} d_b
    # coroot_b with J' = J + {a} and d = B_J' <nu, alpha_J'> (B_J' the inverse
    # of the principal Cartan block on J'), in Fractions, has d >= 0 and is
    # a point of the set whose certificate has the zero set J' (every node up
    # to rank 7, and E8 nodes 1, 2, 7 and 8)
    datum = build_datum(t, n)
    roots, coroots = datum.simple_roots, datum.simple_coroots
    for k in range(1, n + 1) if n <= 7 else (1, 2, 7, 8):
        ks = enumerate_bgmu(fundamental_coweight(datum, k))
        zero_set = {e.nu.coords: e.J for e in ks.elements}
        for nu, J in zero_set.items():
            pairings = [ip(nu, root) for root in roots]
            for a in set(range(1, n + 1)) - J:
                bigger = tuple(sorted(b - 1 for b in J | {a}))
                d = [ip(row, [pairings[g] for g in bigger]) for row in gram_inverse(datum, bigger)]
                assert all(x >= 0 for x in d), (t, n, k, nu, a)
                pushed = tuple(x - ip(d, [coroots[b][i] for b in bigger])
                               for i, x in enumerate(nu))
                assert zero_set.get(pushed) == J | {a}, (t, n, k, nu, a)


@pytest.mark.parametrize("n,count", [(2, 3), (3, 5), (4, 8), (5, 13), (6, 20), (7, 31)])
def test_type_c_last_node_is_the_symmetric_polygon_set(n, count):
    # C_n node n: the concave lattice polygons from (0,0) to (2n, n) that are
    # symmetric (slope s_i + s_(2n+1-i) = 1), nu the upper half of the slopes
    # shifted by -1/2
    datum = build_datum("C", n)
    ks = enumerate_bgmu(fundamental_coweight(datum, n))
    got = {e.nu.coords for e in ks.elements}
    expected = {tuple(x - F(1, 2) for x in slopes[:n])
                for slopes in _concave_polygon_slopes(2 * n, n)
                if all(a + b == 1 for a, b in zip(slopes, reversed(slopes)))}
    assert len(got) == len(ks.elements) == count
    assert got == expected


def _classical_polygon_newton_points(t, n, k):
    """B(G, omega_k) for G = Sp_2n (C) or SO_2n+1 (B), read off GL_N through
    the standard representation, N = 2n or 2n + 1, with no code of kottwitz
    (the test calls only enumerate_bgmu, the function under test).

    The weights of mu on the standard representation are (mu, [0 for B], -mu).
    Shifted by 1/2 when mu is half-integral and by 1 otherwise, they are the
    slopes of a Hodge polygon from (0,0) to (N, N * shift).  By Mazur's
    inequality (Katz, Asterisque 63, 1979; Rapoport-Richartz, Compositio 103,
    1996) the Newton points are the concave lattice polygons on or below it
    with the same end points; those of G are the symmetric ones, and nu is
    the upper n slopes minus the shift (_symmetric_polygon_upper_halves).

    Sp_2n is simply connected, so nothing else enters.  For B, the Kottwitz
    point must also agree in pi_1(SO_2n+1) = Z/2 (Kottwitz, "Isocrystals with
    additional structure II", Compositio 109, 1997): when nu_n != 0 the
    centralizer of nu is a product of GL's, its pi_1 has no torsion, and the
    condition reads sum(nu) = sum(mu) mod 2.  When nu_n = 0 the centralizer
    has an SO factor, which absorbs the parity.

    D needs more than the parity: the polygon of (nu, -nu) loses the sign of
    nu_n, and the pi_1 condition there is finer (a slope-0 SO_2 part is a
    torus).  _type_d_polygon_newton_points puts both back.  Chai's length
    needs no model, and checks the maximal elements of D, E, F and G up to
    rank 8 (test_maximal_elements_below_the_top_are_chais_length_one).
    """
    half = F(1, 2) if t == "C" and k == n else None
    mu = [half] * n if half else [F(1)] * k + [F(0)] * (n - k)
    shift = F(1, 2) if half else F(1)
    out = set()
    for slopes in _symmetric_polygon_upper_halves([m + shift for m in mu], shift):
        nu = tuple(s - shift for s in slopes)
        if t == "B" and nu[-1] != 0 and (sum(nu) - sum(mu)) % 2:
            continue
        out.add(nu)
    return mu, out


def _symmetric_polygon_upper_halves(hodge, shift):
    """The upper halves (s_1, ..., s_n), n = len(hodge), of the concave
    polygons of width N = 2n or 2n + 1 with integral breakpoints, symmetric
    (s_i + s_(N+1-i) = 2 shift, so s_(n+1) = shift when N is odd) and on or
    below the symmetric polygon whose upper slopes are hodge (descending).

    Symmetry makes y(N - x) = y(x) + shift (N - 2x), with N shift and 2 shift
    integers, so the polygon is below on the whole width when it is below
    on the upper half, and a mirrored breakpoint is integral when the
    original is.  A half is thus a run of segments of integral ends and
    slopes falling from at most 2 shift to above shift, below the hodge
    sums at their ends, and then either x = n (a breakpoint, or the start
    of the middle segment of slope shift when N is odd) or one segment of
    slope shift from the last breakpoint through the middle to its mirror."""
    n = len(hodge)
    bound = list(itertools.accumulate(hodge, initial=0))
    out = set()

    def extend(x, y, last, slopes):
        out.add(tuple(slopes + [shift] * (n - x)))  # end with slope shift
        for dx in range(1, n - x + 1):
            for dy in range(math.floor(shift * dx) + 1, math.floor(2 * shift * dx) + 1):
                s = F(dy, dx)
                if (last is None or s < last) and y + dy <= bound[x + dx]:
                    extend(x + dx, y + dy, s, slopes + [s] * dx)

    extend(0, 0, None, [])
    return out


def _type_d_polygon_newton_points(n, k):
    """B(G, omega_k) for G = SO_2n (D_n) from the polygons of
    _classical_polygon_newton_points, with the sign of nu_n and the pi_1
    condition put back, again with no code of kottwitz.

    The weights of mu on the standard representation are (mu, -mu), so the
    Hodge slopes are the sorted |mu_i| plus the shift: 1 at the nodes
    k <= n - 2, where mu = omega_k is integral, and 1/2 at the two spin
    nodes.  The polygon of nu forgets the sign of nu_n, so each upper half
    lifts to nu with either sign.  A lift is kept when x = mu - nu is a
    non-negative combination of the coroots e_i - e_(i+1) (i < n) and
    e_(n-1) + e_n, integral at every simple root that nu pairs nonzero
    against (Kottwitz, Compositio 109, 1997).  Those coefficients are
    partial sums S_i of x: S_i for i <= n - 2, and (S_(n-1) -+ x_n) / 2 at
    the fork nodes n - 1 and n.
    """
    spin = k >= n - 1
    mu = ([F(1, 2)] * (n - 1) + [F(1, 2) if k == n else F(-1, 2)] if spin
          else [F(1)] * k + [F(0)] * (n - k))
    shift = F(1, 2) if spin else F(1)
    out = set()
    for slopes in _symmetric_polygon_upper_halves(sorted((abs(m) + shift for m in mu),
                                                         reverse=True), shift):
        half = [s - shift for s in slopes]
        for nu in (half, half[:-1] + [-half[-1]]):
            x = [m - v for m, v in zip(mu, nu)]
            S = list(itertools.accumulate(x))
            c = S[:n - 2] + [(S[n - 2] - x[-1]) / 2, (S[n - 2] + x[-1]) / 2]
            pairings = [a - b for a, b in zip(nu, nu[1:])] + [nu[-2] + nu[-1]]
            if all(ci >= 0 and (ci.denominator == 1 or not p) for ci, p in zip(c, pairings)):
                out.add(tuple(nu))
    return mu, out


def test_type_d_every_node_is_the_polygon_set_with_both_signs_of_nu_n():
    # every node of D_3..D_8; the model is not symmetric in the sign of
    # nu_n, so a flipped sign fails it as surely as a dropped point
    points = signed = unpaired = 0
    for n in range(3, 9):
        datum = build_datum("D", n)
        for k in range(1, n + 1):
            mu, expected = _type_d_polygon_newton_points(n, k)
            assert datum.cochar(mu) == fundamental_coweight(datum, k)
            ks = enumerate_bgmu(datum.cochar(mu))
            got = {e.nu.coords for e in ks.elements}
            assert len(got) == len(ks.elements)
            assert got == expected, (n, k)
            points += len(got)
            signed += sum(1 for nu in got if nu[-1])
            unpaired += sum(1 for nu in got if nu[-1] and nu[:-1] + (-nu[-1],) not in got)
    assert (points, signed, unpaired) == (989, 404, 88)


def _type_d_leq(x, y):
    """The dominance order of D_n in the eps-basis, with no kernel and no
    solve: d = y - x has the coroot coefficients S_i (i <= n - 2) and
    (S_(n-1) -+ d_n) / 2 at the fork nodes, S_i the partial sums of d."""
    d = [b - a for a, b in zip(x, y)]
    S = list(itertools.accumulate(d))
    return all(s >= 0 for s in S[:-2]) and S[-2] >= abs(d[-1])


@pytest.mark.parametrize("n", range(3, 9))
def test_type_d_order_is_the_partial_sum_test(n):
    # seeded dominant pairs: y is x raised by a sparse non-negative coroot
    # combination (x <= y, often with an equality in the partial sums) or
    # an unrelated point; both orders of each pair are compared
    datum = build_datum("D", n)
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    assert datum.simple_coroots == tuple(
        [tuple(a - b for a, b in zip(e[i], e[i + 1])) for i in range(n - 1)]
        + [tuple(a + b for a, b in zip(e[n - 2], e[n - 1]))])
    rng = random.Random(n)

    def point(v):
        return dominant_representative(datum.cochar(v))

    held = pairs = 0
    for _ in range(200):
        x = point([F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)])
        if rng.random() < 0.5:
            c = [F(rng.choice((0, 0, 0, 1, 2)), rng.choice((1, 2))) for _ in range(n)]
            y = point([t + sum(ck * a[i] for ck, a in zip(c, datum.simple_coroots))
                       for i, t in enumerate(x.coords)])
        else:
            y = point([F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n)])
        for a, b in ((x, y), (y, x)):
            want = _type_d_leq(a.coords, b.coords)
            assert newton_leq(a, b) == want, (a.coords, b.coords)
            held += want
            pairs += 1
    assert 0 < held < pairs


@pytest.mark.parametrize("t,n", [("C", n) for n in range(2, 9)] + [("B", n) for n in range(2, 9)])
def test_types_b_and_c_every_node_is_the_symmetric_polygon_set(t, n):
    datum = build_datum(t, n)
    for k in range(1, n + 1):
        mu, expected = _classical_polygon_newton_points(t, n, k)
        ks = enumerate_bgmu(datum.cochar(mu))
        got = {e.nu.coords for e in ks.elements}
        assert len(got) == len(ks.elements)
        assert got == expected, (t, n, k)


# the nine types with their ranks up to 8
_RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(3, 9),
          "E6": (6,), "E7": (7,), "E8": (8,), "F4": (4,), "G2": (2,)}


def _leq_oracle(x, y):
    c, perp = coroot_split(x.datum, [b - a for a, b in zip(x.coords, y.coords)])
    return not any(perp) and all(t >= 0 for t in c)


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _dominant_pairs(draw):
    """(x, y, z, shift): x <= y by construction (y is the dominant point of
    x plus a non-negative coroot combination), z an unrelated dominant point
    and shift a vector orthogonal to every root (zero where the coroots span
    the ambient space; nonzero in general for A, E6, E7 and G2)."""
    t = draw(st.sampled_from(sorted(_RANKS)))
    datum = build_datum(t, draw(st.sampled_from(_RANKS[t])))
    dim = datum.ambient_dim

    def point():
        return dominant_representative(datum.cochar(draw(st.lists(_SMALL, min_size=dim,
                                                                  max_size=dim))))

    x, z = point(), point()
    c = draw(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=2),
                      min_size=datum.rank, max_size=datum.rank))
    up = [t + sum((ck * a[i] for ck, a in zip(c, datum.simple_coroots)), F(0))
          for i, t in enumerate(x.coords)]
    y = dominant_representative(datum.cochar(up))
    shift = coroot_split(datum, draw(st.lists(_SMALL, min_size=dim, max_size=dim)))[1]
    return x, y, z, shift


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dominant_pairs())
def test_newton_leq_matches_a_fraction_gauss_solve(case):
    x, y, z, shift = case
    datum = x.datum
    y_shifted = datum.cochar([a + b for a, b in zip(y.coords, shift)])
    assert _leq_oracle(x, y)
    assert newton_leq(x, y)
    assert _leq_oracle(x, y_shifted) == (not any(shift))
    for a, b in ((x, y), (y, x), (x, y_shifted), (y_shifted, x), (x, z), (z, x), (z, y)):
        assert newton_leq(a, b) == _leq_oracle(a, b), (a.coords, b.coords)



@pytest.mark.parametrize("t,n", [(t, n) for t in _RANKS for n in _RANKS[t]])
def test_enumerated_elements_carry_their_split(t, n):
    # each element carries the coroot split of mubar - nu as its certificate
    # c, so maximal_elements reads the order of a set off c: on pairs of one
    # set, c_e >= c_f componentwise exactly when newton_leq(e.nu, f.nu)
    # (every node up to rank 8, with mu = w_k and mu = w_k + w_1; every pair
    # of a set of at most 30 elements, 300 random pairs of a larger one)
    datum = build_datum(t, n)
    rng = random.Random(f"{t}{n}")
    coweights = fundamental_coweights(datum)
    for node in range(1, n + 1):
        for mu in (coweights[node - 1], [a + b for a, b in zip(coweights[node - 1], coweights[0])]):
            elements = enumerate_bgmu(datum.cochar(mu)).elements
            if len(elements) <= 30:
                pairs = itertools.permutations(elements, 2)
            else:
                pairs = [rng.sample(elements, 2) for _ in range(300)]
            for e, f in pairs:
                assert all(a >= b for a, b in zip(e.c, f.c)) == newton_leq(e.nu, f.nu), (
                    t, n, node, mu, e.nu.coords, f.nu.coords)


def test_enumeration_above_rank_8_stays_small():
    # The live-mask test is one list entry per mask of J: A14 with mu = w_7
    # (2^14 masks) enumerates in well under a second and a few MiB, where a
    # table of 2^n-bit masks per rank would take tens of MiB here, and GiB by
    # rank 18.
    datum = build_datum("A", 14)
    mu = fundamental_coweight(datum, 7)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        ks = enumerate_bgmu(mu)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ks.mubar in {e.nu for e in ks.elements}
    assert len({e.nu for e in ks.elements}) == len(ks.elements)
    assert peak < 16 * 2**20, peak
    assert elapsed < 30, elapsed


@pytest.mark.parametrize("t,n", [(t, n) for t in _RANKS for n in _RANKS[t]])
def test_maximal_elements_below_the_top_are_chais_length_one(t, n):
    # For split data B(G, mu) is graded (Chai, "Newton polygons as lattice
    # points", Amer. J. Math. 2000): every maximal chain from nu up to mubar
    # has length l(nu) = sum_i ceil(<mubar - nu, w_i>), w_i the fundamental
    # weights.  So the maximal elements below the top, the points mubar
    # covers, are exactly those with l = 1.  Every node up to rank 8, with
    # mu = w_k and mu = w_k + w_1 (types D, E, F and G included, which no
    # polygon model here reaches); l is read off coords alone, with no
    # certificate, no newton_leq and no integer kernel.
    datum = build_datum(t, n)
    weights = fundamental_weights(datum)
    coweights = fundamental_coweights(datum)
    for k in range(1, n + 1):
        for mu in (coweights[k - 1], [a + b for a, b in zip(coweights[k - 1], coweights[0])]):
            ks = enumerate_bgmu(datum.cochar(mu))
            top = [ip(ks.mubar.coords, w) for w in weights]

            def length(nu):
                return sum(math.ceil(m - ip(nu, w)) for m, w in zip(top, weights))

            below = {e.nu.coords for e in maximal_elements(ks, exclude_top=True)}
            assert below == {e.nu.coords for e in ks.elements if length(e.nu.coords) == 1}, \
                (t, n, k, mu)


def test_siegel_polygons_are_points_of_the_kottwitz_set():
    # GSp_2n is C_n with mu = w_n.  For f = 1..n the next-to-maximal profile
    # of the ordinary polygon (1, 0) x (n, n) at f is ordinary^(n-f) +
    # supersingular^f, a point of B(G, mu) whose Chai length is its
    # codimension f(f+1)/2 - floor(f^2/4) in A_n (Li-Oort: the supersingular
    # locus of A_f has dimension floor(f^2/4)); the f = 1 point is the one
    # maximal element below the top.  Chai's length is read off coords as in
    # test_maximal_elements_below_the_top_are_chais_length_one.
    for n in range(2, 9):
        datum = build_datum("C", n)
        weights = fundamental_weights(datum)
        ks = enumerate_bgmu(fundamental_coweight(datum, n))
        top = [ip(ks.mubar.coords, w) for w in weights]
        profiles = {e: profile_from_newton(e.nu, 2 * n) for e in ks.elements}
        assert len(set(profiles.values())) == len(profiles), n
        assert all(q.polarized for q in profiles.values()), n
        ordinary = SlopeProfile((F(1), F(0)), (n, n), polarized=True)
        found = {}
        for f in range(1, n + 1):
            (e,) = [e for e, q in profiles.items() if q == next_to_max_profile(ordinary, 1, f)]
            length = sum(math.ceil(m - ip(e.nu.coords, w)) for m, w in zip(top, weights))
            assert length == f * (f + 1) // 2 - f * f // 4, (n, f)
            found[f] = e
        assert maximal_elements(ks, exclude_top=True) == {found[1]}, n


def _up_sets(points):
    """up[x]: the bitmask of the points y with y_i >= x_i for every i."""
    up = [(1 << len(points)) - 1] * len(points)
    for i in range(len(points[0])):
        at_least = 0
        by_value = sorted(range(len(points)), key=lambda x: points[x][i], reverse=True)
        for _, tied in itertools.groupby(by_value, key=lambda x: points[x][i]):
            tied = list(tied)
            at_least |= sum(1 << x for x in tied)
            for x in tied:
                up[x] &= at_least
    return up


@pytest.mark.parametrize("t,n", [(t, n) for t in _RANKS for n in _RANKS[t]])
def test_the_kottwitz_set_is_graded_by_chais_length(t, n):
    # Chai's theorem itself (check (b); check (a) is the test above): for
    # e < f, l(e) > l(f), and some g with e < g <= f has l(g) = l(e) - 1, for
    # mu = w_k at every node up to rank 8, and mu = w_k + w_1 at every node
    # up to rank 7.  nu <= nu' iff nu' - nu is a non-negative sum of simple
    # coroots, so the coefficients <nu, w_i> order the set once every nu has
    # the same part orthogonal to the roots; all of it in test-local
    # Fractions, as l is in the test above.  The up-set of each point is a
    # bitmask, so E8 node 4 (980 points) is in; E8 with w_k + w_1 is left
    # out, as it costs about 3 s more (node 4 has 2260 points).
    datum = build_datum(t, n)
    weights = fundamental_weights(datum)
    coweights = fundamental_coweights(datum)
    mus = [(k, coweights[k - 1]) for k in range(1, n + 1)]
    if n < 8:
        mus += [(k, [a + b for a, b in zip(coweights[k - 1], coweights[0])])
                for k in range(1, n + 1)]
    for k, mu in mus:
        ks = enumerate_bgmu(datum.cochar(mu))
        points = [[ip(e.nu.coords, w) for w in weights] for e in ks.elements]
        perps = {tuple(x - ip(c, [a[s] for a in datum.simple_coroots])
                       for s, x in enumerate(e.nu.coords))
                 for e, c in zip(ks.elements, points)}
        assert len(perps) == 1, (t, n, k, mu)
        top = [ip(ks.mubar.coords, w) for w in weights]
        length = [sum(math.ceil(m - c) for m, c in zip(top, p)) for p in points]
        up = _up_sets(points)
        with_length = {}
        for x, l_x in enumerate(length):
            with_length[l_x] = with_length.get(l_x, 0) | 1 << x
        for e, l_e in enumerate(length):
            above = up[e] & ~(1 << e)
            not_shorter = sum(m for l_x, m in with_length.items() if l_x >= l_e)
            assert above & not_shorter == 0, (t, n, k, mu, ks.elements[e].nu.coords)
            covers = above & with_length.get(l_e - 1, 0)
            reached = 0
            for g in range(len(points)):
                if covers >> g & 1:
                    reached |= up[g]
            assert reached == above, (t, n, k, mu, ks.elements[e].nu.coords)
