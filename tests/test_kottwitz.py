import itertools
import math
import random
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
from conftest import coroot_span_decomposition
from newtonkit.linalg import invert
from newtonkit.rootdata import (
    build_datum,
    dominant_representative,
    fundamental_coweights,
    is_dominant,
    product_datum,
    sigma_apply,
    special_roots,
)


def _coweight(datum, node):
    return datum.cochar(fundamental_coweights(datum)[node - 1])


def test_galois_average_identity_sigma():
    c2 = build_datum("C", 2)
    mu = _coweight(c2, 2)
    assert galois_average(mu).coords == mu.coords


def test_galois_average_a3_flip():
    a3 = build_datum("A", 3, "flip")
    mu = _coweight(a3, 1)
    assert galois_average(mu).coords == (F(1, 2), 0, 0, F(-1, 2))


def test_galois_average_idempotent_on_invariants():
    a2 = build_datum("A", 2, "flip")
    mu = _coweight(a2, 1)
    avg = galois_average(mu)
    assert galois_average(avg).coords == avg.coords
    assert sigma_apply(avg).coords == avg.coords


def test_is_in_bgmu_c2_certificates():
    c2 = build_datum("C", 2)
    mubar = c2.cochar([F(1, 2), F(1, 2)])
    ok, cert = is_in_bgmu(c2.cochar([F(1, 2), 0]), mubar)
    assert ok
    c, J = cert
    assert c == (0, F(1, 2))
    assert J == {2}
    ok, reason = is_in_bgmu(c2.cochar([F(1, 4), F(1, 4)]), mubar)
    assert not ok and "non-integral" in reason
    ok, cert = is_in_bgmu(mubar, mubar)
    assert ok and cert[0] == (0, 0)


def test_is_in_bgmu_rejects_non_dominant():
    c2 = build_datum("C", 2)
    mubar = c2.cochar([F(1, 2), F(1, 2)])
    ok, reason = is_in_bgmu(c2.cochar([0, F(1, 2)]), mubar)
    assert not ok and "dominant" in reason


def test_enumerate_c2_three_strata():
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(_coweight(c2, 2))
    assert ks.points() == [(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2))]


def test_enumerate_mu_zero():
    for t, n in [("A", 2), ("C", 2), ("G2", 2)]:
        d = build_datum(t, n)
        mu = d.cochar([0] * d.ambient_dim)
        ks = enumerate_bgmu(mu)
        assert ks.points() == [(0,) * d.ambient_dim]


def test_enumerate_a2_chain():
    a2 = build_datum("A", 2)
    ks = enumerate_bgmu(_coweight(a2, 1))
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


def test_enumerate_rejects_nontrivial_sigma():
    a3 = build_datum("A", 3, "flip")
    with pytest.raises(ValueError):
        enumerate_bgmu(_coweight(a3, 1))


def test_newton_leq_examples():
    c2 = build_datum("C", 2)
    zero = c2.cochar([0, 0])
    mid = c2.cochar([F(1, 2), 0])
    top = c2.cochar([F(1, 2), F(1, 2)])
    assert newton_leq(zero, zero)
    assert newton_leq(zero, mid) and newton_leq(mid, top)
    assert not newton_leq(top, mid)
    a2 = build_datum("A", 2)
    w1, w2 = _coweight(a2, 1), _coweight(a2, 2)
    assert not newton_leq(w1, w2) and not newton_leq(w2, w1)


def test_newton_leq_is_partial_order_on_enumerated_sets():
    for t, n, k in [("C", 2, 2), ("A", 3, 2), ("B", 3, 1)]:
        d = build_datum(t, n)
        ks = enumerate_bgmu(_coweight(d, k))
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
    for t, n, k in [("C", 3, 3), ("D", 4, 4), ("E6", 6, 1)]:
        d = build_datum(t, n)
        mu = _coweight(d, k)
        ks = enumerate_bgmu(mu)
        assert ks.mubar.coords in set(ks.points())
        for e in ks.elements:
            assert is_dominant(e.nu)
            ok, cert = is_in_bgmu(e.nu, ks.mubar)
            assert ok and cert[0] == e.c and cert[1] == e.J
            assert newton_leq(e.nu, ks.mubar)
            # certificate reconstructs nu exactly
            coords = list(ks.mubar.coords)
            for ci, av in zip(e.c, d.simple_coroots):
                for t_, x in enumerate(av):
                    coords[t_] -= ci * x
            assert tuple(coords) == e.nu.coords


def test_downward_directed():
    for t, n, k in [("C", 2, 2), ("B", 3, 1), ("A", 3, 2)]:
        d = build_datum(t, n)
        ks = enumerate_bgmu(_coweight(d, k))
        pts = [d.cochar(p) for p in ks.points()]
        for a, b in itertools.combinations(pts, 2):
            assert any(newton_leq(z, a) and newton_leq(z, b) for z in pts)


def test_maximal_elements_examples():
    b3 = build_datum("B", 3)
    ks = enumerate_bgmu(_coweight(b3, 1))
    mx = maximal_elements(ks, exclude_top=True)
    assert {e.nu.coords for e in mx} == {(F(1, 2), F(1, 2), 0)}
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(_coweight(c2, 2))
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
        mu = _coweight(d, k)
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
        mu = _coweight(d, k)
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


def test_membership_invariant_under_diagram_relabeling():
    # simultaneous relabeling of simple roots by an automorphism
    for t, n, spec in [("A", 3, "flip"), ("D", 4, "flip"), ("E6", 6, "flip")]:
        plain = build_datum(t, n)
        twisted = build_datum(t, n, spec)
        mu = _coweight(plain, min(special_roots(plain)))
        ks = enumerate_bgmu(mu)
        for e in ks.elements:
            v = twisted.cochar(e.nu.coords)
            image_nu = sigma_apply(v)
            image_mubar = sigma_apply(twisted.cochar(ks.mubar.coords))
            mapped_mubar = plain.cochar(image_mubar.coords)
            mapped_nu = plain.cochar(image_nu.coords)
            ok, _ = is_in_bgmu(mapped_nu, mapped_mubar)
            assert ok


def test_folded_membership_requires_invariance():
    a3 = build_datum("A", 3, "flip")
    mu = _coweight(a3, 1)
    mubar = galois_average(mu)
    ok, cert = is_in_bgmu(mubar, mubar)
    assert ok
    with pytest.raises(ValueError):
        is_in_bgmu(mu, mubar)  # mu itself is not sigma-invariant


def test_folded_membership_orbit_integrality():
    # A3 with the flip: mubar = (1/2, 0, 0, -1/2); integrality is taken over
    # sigma-orbits {1,3} and {2} of the simple roots
    a3 = build_datum("A", 3, "flip")
    mubar = galois_average(_coweight(a3, 1))
    assert mubar.coords == (F(1, 2), 0, 0, F(-1, 2))
    ok, cert = is_in_bgmu(a3.cochar([0, 0, 0, 0]), mubar)
    assert ok and cert[0] == (F(1, 2), F(1, 2), F(1, 2))
    ok, cert = is_in_bgmu(a3.cochar([F(1, 4), F(1, 4), F(-1, 4), F(-1, 4)]), mubar)
    assert ok and cert[0] == (F(1, 4), 0, F(1, 4))
    # c_1 + c_3 = 1/4 is not an integer while <nu, alpha_1> != 0
    ok, reason = is_in_bgmu(
        a3.cochar([F(3, 8), F(1, 8), F(-1, 8), F(-3, 8)]), mubar
    )
    assert not ok and "non-integral" in reason


def test_galois_average_e6_flip():
    e6 = build_datum("E6", 6, "flip")
    cw = fundamental_coweights(e6)
    avg = galois_average(e6.cochar(cw[0]))
    expected = tuple((a + b) / 2 for a, b in zip(cw[0], cw[5]))
    assert avg.coords == expected
    assert sigma_apply(avg).coords == avg.coords


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
        ks = enumerate_bgmu(_coweight(datum, k))
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
    datum = build_datum(t, n)
    for k in range(1, n + 1):
        ks = enumerate_bgmu(_coweight(datum, k))
        for exclude_top in (False, True):
            pool = [e for e in ks.elements
                    if not exclude_top or e.nu.coords != ks.mubar.coords]
            if not pool:
                continue
            expected = {e for e in pool
                        if not any(f is not e and newton_leq(e.nu, f.nu) for f in pool)}
            assert maximal_elements(ks, exclude_top) == expected, (t, n, k)


def test_maximal_elements_separates_orthogonal_parts():
    # (0, 0) and (1, 1) in A1 differ by a vector orthogonal to the root, so
    # neither lies below the other and both are maximal.
    a1 = build_datum("A", 1)
    points = [a1.cochar((0, 0)), a1.cochar((1, 1))]
    elements = tuple(KottwitzElement(nu, (F(0),), frozenset({1})) for nu in points)
    ks = KottwitzSet(points[1], points[1], elements)
    assert not newton_leq(*points) and not newton_leq(*reversed(points))
    assert maximal_elements(ks) == set(elements)


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


@pytest.mark.parametrize("t,n", sorted({(t, n) for t, n, _ in MAXIMA_CASES}))
def test_maximal_elements_match_the_pairwise_scan_on_random_pools(t, n):
    # sub-pools of a set have many maximal elements, unlike the set itself
    datum = build_datum(t, n)
    rng = random.Random(f"{t}{n}")
    for k in [k for t_, n_, k in MAXIMA_CASES if (t_, n_) == (t, n)]:
        ks = enumerate_bgmu(_coweight(datum, k))
        for _ in range(4):
            size = rng.randint(1, min(len(ks.elements), 120))
            sub = KottwitzSet(ks.mu, ks.mubar, tuple(rng.sample(ks.elements, size)))
            for exclude_top in (False, True):
                if exclude_top and size == 1 and sub.elements[0].nu == ks.mubar:
                    continue
                want = _pairwise_maximal(sub, exclude_top)
                assert maximal_elements(sub, exclude_top) == want, (t, n, k, size)


def test_maximal_elements_of_mixed_pools_with_different_orthogonal_parts():
    # e_1 and e_1 + e_2 on A3 (GL_4-style, not traceless) have different
    # orthogonal parts; the traceless w_1 and w_2 share theirs
    a3 = build_datum("A", 3)
    rng = random.Random(3)
    mus = [a3.cochar(v) for v in ((1, 0, 0, 0), (1, 1, 0, 0))] + \
        [_coweight(a3, 1), _coweight(a3, 2)]
    sets = [enumerate_bgmu(mu) for mu in mus]
    for first, second in ((0, 1), (2, 3), (0, 3)):
        elements = sets[first].elements + sets[second].elements
        for _ in range(20):
            pool = tuple(rng.sample(elements, rng.randint(1, len(elements))))
            ks = KottwitzSet(mus[first], sets[first].mubar, pool)
            assert maximal_elements(ks) == _pairwise_maximal(ks), (first, second, pool)
    whole = KottwitzSet(mus[0], sets[0].mubar, sets[0].elements + sets[1].elements)
    assert {e.nu.coords for e in maximal_elements(whole)} == {(1, 0, 0, 0), (1, 1, 0, 0)}


def test_elements_with_the_same_nu_are_one_point():
    # a point that is maximal is returned once, as the first element in the
    # pool that carries it, whatever the others' certificates say
    c2 = build_datum("C", 2)
    ks = enumerate_bgmu(_coweight(c2, 2))
    (top,) = [e for e in ks.elements if e.nu == ks.mubar]
    copy = KottwitzElement(c2.cochar(list(top.nu.coords)), top.c, top.J)
    forged = KottwitzElement(top.nu, (F(7), F(7)), frozenset())
    assert copy == top and copy is not top
    for pool, first in (((top, copy), top), ((copy, top), copy), ((forged, top, copy), forged)):
        (got,) = maximal_elements(KottwitzSet(ks.mu, ks.mubar, pool))
        assert got is first
    with_copy = KottwitzSet(ks.mu, ks.mubar, ks.elements + (copy,))
    assert maximal_elements(with_copy) == {top}
    assert {e.nu for e in maximal_elements(with_copy, exclude_top=True)} == \
        {e.nu for e in maximal_elements(ks, exclude_top=True)}


@pytest.mark.parametrize("C, Dq, reason", [
    ([-1], 1, "mubar - nu has a negative coroot coefficient"),
    ([1], 4, "non-integral coroot coefficient at simple root(s) (1,)"),
    ([3], 1, "nu is not dominant"),
])
def test_enumeration_tests_every_leaf_of_the_walk(C, Dq, reason, monkeypatch):
    # a leaf the walk should never give is dropped by the membership test,
    # not trusted: nu = mubar - (C / Dq) coroot on A1 fails with reason
    a1 = build_datum("A", 1)
    mu = _coweight(a1, 1)
    want = _certified(mu)
    bogus = a1.cochar([m - F(C[0], Dq) * x for m, x in zip(mu.coords, a1.simple_coroots[0])])
    assert is_in_bgmu(bogus, mu) == (False, reason)
    walk = kottwitz._walk
    offered = []

    def walk_and_a_bogus_leaf(block, M, D, bounds):
        yield from walk(block, M, D, bounds)
        if block[0]:  # the block of J = {}, walked since mu itself has that zero set
            offered.append(block)
            yield C, Dq

    monkeypatch.setattr(kottwitz, "_walk", walk_and_a_bogus_leaf)
    assert _certified(mu) == want
    assert len(offered) == 1


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
        mu = _coweight(datum, k)
        got = [(e.nu.coords, e.c, e.J) for e in enumerate_bgmu(mu).elements]
        assert got == _exhaustive_scan(mu), (t, n, k)


E8_COUNTS = {1: 84, 2: 187, 3: 360, 4: 980, 5: 585, 6: 310, 7: 133, 8: 37}


def test_every_e8_node_enumerates():
    e8 = build_datum("E8", 8)
    for k, count in E8_COUNTS.items():
        ks = enumerate_bgmu(_coweight(e8, k))
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
    cold = _certified(_coweight(datum, k))
    monkeypatch.setattr(kottwitz, "_BLOCKS", {})
    for other in range(1, n + 1):
        if other != k:
            enumerate_bgmu(_coweight(datum, other))
    warm = _certified(_coweight(datum, k))
    assert cold == warm == _certified(_coweight(datum, k))


RATIONAL_MU_CASES = [(t, n, r) for t, n in (("A", 4), ("C", 3), ("D", 4), ("G2", 2), ("E6", 6))
                     for r in (F(1, 2), F(2, 3), F(5, 3))]


@pytest.mark.parametrize("t,n,r", RATIONAL_MU_CASES)
def test_walk_matches_the_exhaustive_scan_at_rational_mu(t, n, r):
    # mu = r (w_1 + w_n) pairs to a non-integer with some simple root, so the
    # walk's steps are scaled by a D > 1
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
    # the J-block inverse is >= 0, a free coordinate's steps on C_J and on
    # the other free pairings are >= 0, and its step on its own pairing < 0;
    # _principal_block raises AssertionError otherwise
    cartan = build_datum(t, n).cartan
    for j_mask in range(1 << n):
        _, _, rows, _, steps = kottwitz._principal_block(cartan, j_mask)
        assert all(x >= 0 for row in rows for x in row)
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
        enumerate_bgmu(_coweight(e7, k))
    assert 0 < len(calls) <= 2 ** 7
    calls.clear()
    for k in range(1, 8):
        enumerate_bgmu(_coweight(e7, k))
    assert calls == []


_EVERY_MASK_BLOCKS = {}


def _walk_every_mask(mu):
    """Reference: enumerate_bgmu before it skipped dead zero sets.  It walks
    the principal block of every mask J in increasing order, tests each leaf
    with _member and builds one Fraction per coordinate and certificate
    entry; (nu, c, J) tuples in the enumeration's order."""
    datum = mu.datum
    k, n = datum.kernel, datum.rank
    blocks = _EVERY_MASK_BLOCKS.setdefault(datum.cartan, {})
    x, L = mu.x, mu.L  # trivial sigma: mubar = mu
    pairings = k.root_pairings(x)
    g = math.gcd(k.R * L, *pairings)
    D = k.R * L // g
    M = [p // g for p in pairings]
    bounds = [w // (k.q * D) for w in k.coefficients(M)]
    leaves = []
    for j_mask in range(1 << n):
        if j_mask not in blocks:
            blocks[j_mask] = kottwitz._principal_block(datum.cartan, j_mask)
        leaves += [(k.coroot_sum(C), Dq) for C, Dq in kottwitz._walk(blocks[j_mask], M, D, bounds)]
    S = math.lcm(*(Dq for _, Dq in leaves))
    den = L * S * k.K
    x_mubar = [t * S * k.K for t in x]
    p_mubar = k.root_pairings(x_mubar)
    members = []
    for s, Dq in leaves:
        x_nu = [t - L * (S // Dq) * u for t, u in zip(x_mubar, s)]
        ok, cert = kottwitz._member(datum, x_nu, x_mubar, p_mubar, den)
        if ok:
            members.append((x_nu, *cert))
    members.sort(key=lambda m: m[0])
    return [(tuple(F(t, den) for t in x_nu), tuple(F(c, k.q * k.R * den) for c in C), J)
            for x_nu, C, J in members]


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


# masks walked (of 2^n): a mask is skipped when a one-larger superset is dead
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
        enumerate_bgmu(_coweight(datum, k))
        assert len(walked) == len(set(walked)) == count, (t, n, k)
        built = [b for b in kottwitz._BLOCKS[datum.cartan] if b is not None]
        assert sorted(b[0] for b in built) == sorted(walked), (t, n, k)


def _fraction_solve(m):
    """Gauss-Jordan elimination on the rows m = [A | B] over Fractions, A
    square and invertible: the columns of A^-1 B, row by row."""
    n = len(m)
    m = [list(row) for row in m]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _ip(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


@pytest.mark.parametrize("t,n", [(t, n) for t, n in SIGN_FACT_TYPES if n <= 7] + [("E8", 8)])
def test_the_zero_sets_that_hold_a_point_are_closed_upward(t, n):
    # for nu with zero set J and a outside J, nu' = nu - sum_{b in J'} d_b
    # coroot_b with J' = J + {a} and d = B_J' <nu, alpha_J'> (B_J' the inverse
    # of the principal Cartan block on J'), in Fractions, has d >= 0 and is
    # a point of the set whose certificate has the zero set J' (every node up
    # to rank 7, and E8 nodes 1, 2, 7 and 8)
    datum = build_datum(t, n)
    roots, coroots = datum.simple_roots, datum.simple_coroots
    inverses = {}  # J' -> B_J', 0-based

    def inverse(J):
        if J not in inverses:
            inverses[J] = _fraction_solve([[_ip(coroots[b], roots[g]) for b in J]
                                           + [F(int(g == h)) for h in J] for g in J])
        return inverses[J]

    for k in range(1, n + 1) if n <= 7 else (1, 2, 7, 8):
        zero_set = {e.nu.coords: e.J for e in enumerate_bgmu(_coweight(datum, k)).elements}
        for nu, J in zero_set.items():
            pairings = [_ip(nu, root) for root in roots]
            for a in set(range(1, n + 1)) - J:
                bigger = tuple(sorted(b - 1 for b in J | {a}))
                d = [_ip(row, [pairings[g] for g in bigger]) for row in inverse(bigger)]
                assert all(x >= 0 for x in d), (t, n, k, nu, a)
                pushed = tuple(x - _ip(d, [coroots[b][i] for b in bigger])
                               for i, x in enumerate(nu))
                assert zero_set.get(pushed) == J | {a}, (t, n, k, nu, a)


@pytest.mark.parametrize("n,count", [(2, 3), (3, 5), (4, 8), (5, 13), (6, 20), (7, 31)])
def test_type_c_last_node_is_the_symmetric_polygon_set(n, count):
    # C_n node n: the concave lattice polygons from (0,0) to (2n, n) that are
    # symmetric (slope s_i + s_(2n+1-i) = 1), nu the upper half of the slopes
    # shifted by -1/2
    datum = build_datum("C", n)
    ks = enumerate_bgmu(_coweight(datum, n))
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

    D is left out: the polygon of (nu, -nu) loses the sign of nu_n, and the
    pi_1 condition there is finer (a slope-0 SO_2 part is a torus).  Chai's
    length needs no model, and checks the maximal elements of D, E, F and G
    up to rank 8 (test_maximal_elements_below_the_top_are_chais_length_one).
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


@pytest.mark.parametrize("t,n", [("C", n) for n in range(2, 9)] + [("B", n) for n in range(2, 9)])
def test_types_b_and_c_every_node_is_the_symmetric_polygon_set(t, n):
    datum = build_datum(t, n)
    for k in range(1, n + 1):
        mu, expected = _classical_polygon_newton_points(t, n, k)
        ks = enumerate_bgmu(datum.cochar(mu))
        got = {e.nu.coords for e in ks.elements}
        assert len(got) == len(ks.elements)
        assert got == expected, (t, n, k)


def _average_by_sigma_powers(mu):
    """mu averaged over sigma^0 .. sigma^(r-1), with sigma_apply repeated."""
    r = mu.datum.sigma_order
    total, current = list(mu.coords), mu
    for _ in range(r - 1):
        current = sigma_apply(current)
        total = [a + b for a, b in zip(total, current.coords)]
    return tuple(t / r for t in total)


@pytest.mark.parametrize("t,n", [("A", n) for n in range(2, 9)]
                         + [("D", n) for n in range(4, 9)] + [("E6", 6)])
def test_galois_average_matches_repeated_sigma_apply(t, n):
    for spec in ("flip", None):
        d = build_datum(t, n, spec)
        for node in range(1, n + 1):
            mu = _coweight(d, node)
            assert galois_average(mu).coords == _average_by_sigma_powers(mu), (spec, node)
    # a point off the coweight lattice, and triality on D4
    d = build_datum(t, n, "flip")
    mu = d.cochar([F(k * k - 3, k + 2) for k in range(d.ambient_dim)])
    assert galois_average(mu).coords == _average_by_sigma_powers(mu)
    d4 = build_datum("D", 4, (3, 2, 4, 1))
    mu = _coweight(d4, 1)
    assert galois_average(mu).coords == _average_by_sigma_powers(mu) == (F(2, 3), F(1, 3), F(1, 3), 0)


def _sigma_data():
    yield from (build_datum("A", n, "flip") for n in range(2, 9))
    yield from (build_datum("D", n, "flip") for n in range(4, 9))
    yield build_datum("E6", 6, "flip")
    yield build_datum("D", 4, (3, 2, 4, 1))
    yield product_datum([build_datum("A", 3, "flip"), build_datum("D", 5, "flip")])


@pytest.mark.parametrize("datum", list(_sigma_data()), ids=lambda d: f"{d.type_label}{d.rank}")
def test_galois_average_is_the_orbit_mean(datum):
    # sigma-invariant, with mu's orbit sums of coroot coefficients and mu's
    # orthogonal part: together these determine the mean over the sigma-orbit
    rng = random.Random(datum.rank)
    points = [_coweight(datum, node) for node in range(1, datum.rank + 1)]
    points += [datum.cochar([F(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(datum.ambient_dim)]) for _ in range(3)]
    for mu in points:
        avg = galois_average(mu)
        assert sigma_apply(avg).coords == avg.coords
        c_mu, perp_mu = coroot_span_decomposition(datum, mu.coords)
        c_avg, perp_avg = coroot_span_decomposition(datum, avg.coords)
        assert perp_avg == perp_mu
        for orbit in datum.sigma_orbits:
            assert len({c_avg[i - 1] for i in orbit}) == 1
            assert sum(c_avg[i - 1] for i in orbit) == sum(c_mu[i - 1] for i in orbit)


# the nine types with their ranks up to 8
_RANKS = {"A": range(1, 9), "B": range(2, 9), "C": range(2, 9), "D": range(3, 9),
          "E6": (6,), "E7": (7,), "E8": (8,), "F4": (4,), "G2": (2,)}


def _solve_in_coroots(datum, v):
    """(c, perp): v = sum_k c_k coroot_k + perp with perp orthogonal to every
    root, by Fraction Gaussian elimination on <coroot_k, root_j> c = <v, root_j>."""
    roots, coroots, n = datum.simple_roots, datum.simple_coroots, datum.rank
    c = [x for x, in _fraction_solve([[_ip(coroots[k], roots[j]) for k in range(n)]
                                      + [_ip(v, roots[j])] for j in range(n)])]
    return c, tuple(x - _ip(c, [a[t] for a in coroots]) for t, x in enumerate(v))


def _leq_oracle(x, y):
    c, perp = _solve_in_coroots(x.datum, [b - a for a, b in zip(x.coords, y.coords)])
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
    shift = _solve_in_coroots(datum, draw(st.lists(_SMALL, min_size=dim, max_size=dim)))[1]
    return x, y, z, shift


@settings(max_examples=150, deadline=None)
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



def _fundamental_weights(datum):
    """Vectors w_i of the root span with <coroot_j, w_i> = delta_ij, by
    Fraction Gauss-Jordan elimination on the Gram matrix <coroot_j, root_k>."""
    roots, coroots, n = datum.simple_roots, datum.simple_coroots, datum.rank
    inverse = _fraction_solve([[_ip(coroots[j], roots[k]) for k in range(n)]
                               + [F(int(j == i)) for i in range(n)] for j in range(n)])
    return [[_ip([inverse[k][i] for k in range(n)], [a[s] for a in roots])
             for s in range(datum.ambient_dim)] for i in range(n)]


@pytest.mark.parametrize("t,n", [(t, n) for t in _RANKS for n in _RANKS[t]])
def test_maximal_elements_below_the_top_are_chais_length_one(t, n):
    # For trivial sigma B(G, mu) is graded (Chai, "Newton polygons as lattice
    # points", Amer. J. Math. 2000): every maximal chain from nu up to mubar
    # has length l(nu) = sum_i ceil(<mubar - nu, w_i>), w_i the fundamental
    # weights.  So the maximal elements below the top, the points mubar
    # covers, are exactly those with l = 1.  Every node up to rank 8, with
    # mu = w_k and mu = w_k + w_1 (types D, E, F and G included, which no
    # polygon model here reaches); l is read off coords alone, with no
    # certificate, no newton_leq and no integer kernel.
    datum = build_datum(t, n)
    weights = _fundamental_weights(datum)
    coweights = fundamental_coweights(datum)
    for k in range(1, n + 1):
        for mu in (coweights[k - 1], [a + b for a, b in zip(coweights[k - 1], coweights[0])]):
            ks = enumerate_bgmu(datum.cochar(mu))
            top = [_ip(ks.mubar.coords, w) for w in weights]

            def length(nu):
                return sum(math.ceil(m - _ip(nu, w)) for m, w in zip(top, weights))

            below = {e.nu.coords for e in maximal_elements(ks, exclude_top=True)}
            assert below == {e.nu.coords for e in ks.elements if length(e.nu.coords) == 1}, \
                (t, n, k, mu)
