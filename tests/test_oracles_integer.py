"""The integer-numerator oracles against test-local copies of their
Fraction versions.

Each copy below does an oracle's work in Fractions: the Weyl orbit closed
under Fraction reflections (against which the support function's points are
checked), the phase-1 simplex on a Fraction tableau, the
grid test on Fraction coordinates, coset marking with Fraction conjugates,
and one multiplicative order walk per element.  The integer oracles must
return exactly what these return.
"""

import itertools
import random
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newtonkit.oracles as oracles
from newtonkit.kottwitz import enumerate_bgmu
from newtonkit.rootdata import (
    build_datum,
    dominant_representative,
    fundamental_coweight,
    special_roots,
)
from reference import coroot_split, gauss_jordan, ip

RANK3_DATA = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
              ("C", 2), ("C", 3), ("D", 3), ("G2", 2)]


ORBIT_CAP = 50_000


def support_checks(v, rng, count=40):
    """The support points best(u) of v at +-e_i and count seeded integer
    directions u: each must lie in the Fraction orbit of v and maximize
    <u, P> over it.  Returns the set of points reached."""
    D, best = oracles._support(v)
    orbit = fraction_orbit(v)
    dim = v.datum.ambient_dim
    directions = [[s * (i == j) for j in range(dim)] for i in range(dim) for s in (1, -1)]
    directions += [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(count)]
    reached = set()
    for u in directions:
        point = tuple(F(t, D) for t in best(u))
        assert point in orbit and ip(u, point) == max(ip(u, q) for q in orbit), (v.coords, u)
        reached.add(point)
    return reached


# -- test-local Fraction copies ----------------------------------------------

def fraction_orbit(v, cap=ORBIT_CAP):
    datum = v.datum
    seen = {v.coords}
    frontier = [v.coords]
    while frontier:
        current = frontier.pop()
        for alpha, coroot in zip(datum.simple_roots, datum.simple_coroots):
            c = ip(current, alpha)
            image = tuple(x - c * y for x, y in zip(current, coroot))
            if image not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"Weyl orbit exceeds cap of {cap} elements")
                seen.add(image)
                frontier.append(image)
    return sorted(seen)


def fraction_simplex(points, target):
    m = len(target) + 1
    n = len(points)
    rows = []
    for j in range(len(target)):
        rows.append([F(points[k][j]) for k in range(n)] + [F(target[j])])
    rows.append([F(1)] * n + [F(1)])
    for row in rows:
        if row[-1] < 0:
            for t in range(len(row)):
                row[t] = -row[t]
    tableau = []
    for i, row in enumerate(rows):
        art = [F(int(i == j)) for j in range(m)]
        tableau.append(row[:-1] + art + [row[-1]])
    ncols = n + m
    basis = list(range(n, n + m))
    cost = [F(0)] * (ncols + 1)
    for i in range(m):
        for t in range(ncols + 1):
            cost[t] += tableau[i][t]
    for t in range(n, n + m):
        cost[t] -= 1
    while True:
        enter = next((j for j in range(ncols) if cost[j] > 0), None)
        if enter is None:
            break
        ratio_best = None
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if ratio_best is None or ratio < ratio_best or (
                    ratio == ratio_best and basis[i] < basis[leave]
                ):
                    ratio_best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("unbounded phase-1 objective")
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    return cost[-1] == 0


def fraction_grid_spec(mu):
    datum = mu.datum
    n = datum.rank
    minors = 1
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        d = int(gauss_jordan([[datum.cartan[a][b] for b in idx] for a in idx])[1])
        if d:
            minors = lcm(minors, abs(d))
    den_mu = lcm(*[x.denominator for x in mu.coords], 1)
    den_coroots = 1
    for av in datum.simple_coroots:
        den_coroots = lcm(den_coroots, *[x.denominator for x in av], 1)
    return lcm(den_mu, minors * den_coroots)


def fraction_grid(mu):
    datum = mu.datum
    d = fraction_grid_spec(mu)
    orbit = fraction_orbit(mu)
    axes = []
    for j in range(datum.ambient_dim):
        lo, hi = min(pt[j] for pt in orbit), max(pt[j] for pt in orbit)
        start = -((-lo * d).__floor__())
        stop = (hi * d).__floor__()
        axes.append([F(k, d) for k in range(start, stop + 1)])
    roots = datum.simple_roots

    def member(nu):
        if any(ip(nu, alpha) < 0 for alpha in roots):
            return False
        c, perp = coroot_split(datum, [a - b for a, b in zip(mu.coords, nu)])
        if any(x < 0 for x in c) or any(perp):
            return False
        return all(ci.denominator == 1 or ip(nu, alpha) == 0
                   for ci, alpha in zip(c, roots))

    return {coords for coords in itertools.product(*axes) if member(coords)}


def fraction_coset_marking(shape, vals, p, k):
    mod = p ** k
    ngroups = len(shape.groups)
    n = shape.size

    def conj_inverse(w):
        # diag(p^-v) w diag(p^v), entry by entry from genuine products
        left = [[F(1, p ** vals[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
        right = [[F(p ** vals[i]) if i == j else F(0) for j in range(n)] for i in range(n)]
        lw = [[sum(left[i][t] * w[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        return [[sum(lw[i][t] * right[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    def matrix(params):
        m = shape.flat(params)
        return [m[i:i + n] for i in range(0, n * n, n)]

    elements = [matrix(params) for params in itertools.product(range(mod), repeat=ngroups)]
    members = [w for w in elements
               if all(x.denominator == 1 for row in conj_inverse(w) for x in row)]
    seen = set()
    count = 0
    for u in elements:
        key = tuple(x % mod for row in u for x in row)
        if key in seen:
            continue
        count += 1
        for v in members:
            prod = [[sum(u[i][t] * v[t][j] for t in range(n)) for j in range(n)]
                    for i in range(n)]
            seen.add(tuple(x % mod for row in prod for x in row))
    return count


def element_orders(p, w):
    """The multiplicative order of every nonzero element, one walk each."""
    modpoly = oracles._find_irreducible(p, w)
    one = (1,) + (0,) * (w - 1)
    orders = {}
    for coeffs in itertools.product(range(p), repeat=w):
        if not any(coeffs):
            continue
        order = 1
        x = coeffs
        while x != one:
            x = oracles._polymulmod(x, coeffs, modpoly, p)
            order += 1
        orders[coeffs] = order
    return orders


# -- support function ---------------------------------------------------------

@pytest.mark.parametrize("t,n", RANK3_DATA)
def test_orbit_matches_fraction_reflections_on_special_nodes(t, n):
    datum = build_datum(t, n)
    rng = random.Random(f"{t}{n}")
    vectors = [fundamental_coweight(datum, k) for k in sorted(special_roots(datum))]
    vectors += [datum.cochar([F(rng.randint(-6, 6), rng.randint(1, 6))
                              for _ in range(datum.ambient_dim)]) for _ in range(5)]
    for v in vectors:
        support_checks(v, rng)


def test_orbit_g2_every_node_and_cap(monkeypatch):
    g2 = build_datum("G2", 2)
    assert oracles._integer_rows(g2.simple_coroots)[0] == 3
    rng = random.Random("G2")
    for k in (1, 2):
        mu = fundamental_coweight(g2, k)
        assert len(support_checks(mu, rng)) == len(fraction_orbit(mu)) == 6
    v = g2.cochar([F(1, 2), F(-1, 3), F(1, 5)])
    assert len(support_checks(v, rng, count=200)) == len(fraction_orbit(v)) == 12
    with pytest.raises(ValueError, match="Weyl orbit exceeds cap of 11 elements"):
        fraction_orbit(v, cap=11)
    a, b = fraction_orbit(v)[:2]
    x = g2.cochar([(s + t) / 2 for s, t in zip(a, b)])
    assert oracles.convex_hull_membership(x, v)
    monkeypatch.setattr(oracles, "PIVOT_CAP", 1)
    with pytest.raises(ValueError, match="simplex exceeds cap of 1 pivots"):
        oracles.convex_hull_membership(x, v)


# -- simplex ------------------------------------------------------------------

@pytest.mark.parametrize("t,n", RANK3_DATA)
def test_hull_matches_fraction_simplex_on_criterion_4_pairs(t, n):
    datum = build_datum(t, n)
    rng = random.Random(f"hull-{t}{n}")
    answers = set()
    for i in range(60):
        x, y = ([F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(datum.ambient_dim)]
                for _ in range(2))
        if t == "A" and i % 2:
            x[-1] = sum(y) - sum(x[:-1])  # same central part, so some x lie in the hull
        x, y = (dominant_representative(datum.cochar(v)) for v in (x, y))
        want = fraction_simplex(fraction_orbit(y), x.coords)
        assert oracles.convex_hull_membership(x, y) == want, (x.coords, y.coords)
        answers.add(want)
    if n > 1:
        assert answers == {True, False}


def _integer_problem(points, target):
    """(best, target, M): the points over M, priced by a max over the list."""
    M = lcm(*(x.denominator for v in [*points, target] for x in v))
    columns = [[int(x * M) for x in v] for v in points]
    return (lambda u: max(columns, key=lambda p: sum(map(mul, u, p))),
            [int(x * M) for x in target], M)


_coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _point_sets(draw):
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[_coordinate] * dim), min_size=1, max_size=5))
    # drawing from a small pool repeats points
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    kind = draw(st.sampled_from(["free", "vertex", "edge", "combination"]))
    if kind == "free":
        target = draw(st.tuples(*[_coordinate] * dim))
    else:
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        if kind == "vertex":
            target = a
        else:
            lam = draw(st.fractions(0, 1, max_denominator=6))
            if kind == "combination":
                lam = lam + F(draw(st.sampled_from([-1, 1])), 7)  # just off the segment
            target = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
    return points, target


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_point_sets())
def test_simplex_matches_fraction_simplex_on_random_point_sets(problem):
    points, target = problem
    assert oracles._simplex_feasible(*_integer_problem(points, target)) == \
        fraction_simplex(points, target)


def test_simplex_degenerate_cases():
    unit = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
    cases = [
        (unit * 3, (F(1, 2), F(1, 2)), True),   # repeated points, interior
        (unit, (F(1, 2), F(0)), True),           # on an edge
        (unit, (F(1), F(1)), True),              # a vertex
        (unit, (F(1), F(1, 3) + 1), False),      # just outside
        ([(F(2), F(2))] * 4, (F(2), F(2)), True),
        ([(F(2), F(2))] * 4, (F(2), F(1)), False),
        ([(F(-1), F(0)), (F(1), F(0)), (F(0), F(0))], (F(0), F(0)), True),
    ]
    for points, target, want in cases:
        assert fraction_simplex(points, target) == want
        assert oracles._simplex_feasible(*_integer_problem(points, target)) == want


def _degenerate_problems(datum):
    """(points, target) pairs whose phase-1 runs hit degenerate pivots: targets
    at an orbit point, at the midpoint of two orbit points and at 0, over the
    orbit and over the orbit with repeated points."""
    rng = random.Random(f"degenerate-{datum.type_label}{datum.rank}")
    vectors = [fundamental_coweight(datum, k) for k in range(1, datum.rank + 1)]
    vectors.append(datum.cochar([F(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(datum.ambient_dim)]))
    zero = tuple(F(0) for _ in range(datum.ambient_dim))
    for v in vectors:
        orbit = fraction_orbit(v)
        a, b = orbit[0], orbit[-1]
        targets = [a, b, tuple((x + y) / 2 for x, y in zip(a, b)), zero,
                   tuple(2 * x for x in a)]
        for points in (orbit, orbit * 2, orbit + orbit[::2]):
            for target in targets:
                yield points, target


@pytest.mark.parametrize("t,n", RANK3_DATA)
def test_simplex_matches_fraction_simplex_on_degenerate_orbit_problems(t, n):
    answers = set()
    for points, target in _degenerate_problems(build_datum(t, n)):
        want = fraction_simplex(points, target)
        assert oracles._simplex_feasible(*_integer_problem(points, target)) == want, \
            (points, target)
        answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("t,n,k", [("E6", 6, 1), ("A", 7, 4), ("E7", 7, 7), ("E8", 8, 8),
                                   ("E8", 8, 1)])
def test_hull_simplex_past_rank_3_on_the_kottwitz_set(t, n, k):
    # the public hull oracle at ranks 6 to 8: every element lies in the hull
    # of the orbit of mubar, and 2 mubar and mubar + omega_j do not
    datum = build_datum(t, n)
    mubar = fundamental_coweight(datum, k)

    def in_hull(nu):
        return oracles.convex_hull_membership(datum.cochar(nu), mubar)

    elements = list(enumerate_bgmu(mubar).points())
    assert len(elements) > 1 and all(in_hull(nu) for nu in elements)
    assert not in_hull(tuple(2 * x for x in mubar.coords))
    for j in range(1, n + 1):
        assert not in_hull(tuple(x + y for x, y in zip(mubar.coords,
                                                       fundamental_coweight(datum, j).coords)))


# -- grid ---------------------------------------------------------------------

@pytest.mark.parametrize("t,n", RANK3_DATA)
def test_grid_matches_fraction_grid_on_criterion_3(t, n):
    datum = build_datum(t, n)
    for k in sorted(special_roots(datum)):
        mu = fundamental_coweight(datum, k)
        assert oracles._grid_spec(mu) == fraction_grid_spec(mu)
        assert oracles.grid_enumerate_bgmu(mu) == fraction_grid(mu), (t, n, k)


# -- cosets -------------------------------------------------------------------

def _criterion_5_marking_cases():
    cases = []
    for p in (3, 5):
        for size in (2, 3):
            for vals in itertools.product(range(3), repeat=size):
                if all(a >= b for a, b in zip(vals, vals[1:])):
                    cases.append((oracles.upper_unipotent_shape(size), vals, p))
        for t1 in range(3):
            for t2 in range(t1, 3):
                for s in range(2 * t2, 5):
                    full = (t1, t2, s - t2, s - t1)
                    if max(full) <= 4 and max(full) - min(full) <= 2:
                        cases.append((oracles.siegel_shape(2), full, p))
    marking = []
    for shape, vals, p in dict.fromkeys(cases):
        k = max(vals) - min(vals) + 1
        if (p ** k) ** len(shape.groups) <= oracles.ENUMERATION_LIMIT:
            marking.append((shape, tuple(v - min(vals) for v in vals), p, k))
    return marking


def test_coset_marking_matches_fraction_conjugation():
    cases = _criterion_5_marking_cases()
    assert len(cases) > 30
    for shape, vals, p, k in cases:
        if (p ** k) ** len(shape.groups) > 5000:
            continue  # the Fraction copy is slow; these run in criterion 5
        conjugator = oracles._conjugator([F(1, p ** v) for v in vals])
        got = oracles._coset_count_marking(shape, conjugator, p, k)
        assert got == fraction_coset_marking(shape, vals, p, k), (shape.size, vals, p, k)


def _fraction_conjugate_is_integral(entries, m):
    """Is diag(entries) m diag(entries)^-1 integral?  Genuine Fraction products."""
    n = len(m)
    left = [[entries[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    right = [[1 / entries[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    lm = [[sum(left[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    conj = [[sum(lm[i][t] * right[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return all(x.denominator == 1 for row in conj for x in row)


def test_integral_conjugate_is_diag_eps_m_diag_eps_inverse():
    """The conjugate is diag(e) m diag(e)^-1 and not diag(e)^-1 m diag(e):
    on random full integer matrices the two differ, and the oracle must
    agree with the first on every one."""
    rng = random.Random(16)
    outcomes, reversed_differs = set(), 0
    for _ in range(400):
        p, n = rng.choice((2, 3, 5)), rng.randint(1, 4)
        entries = [F(1, p ** rng.randint(0, 3)) for _ in range(n)]
        m = [[rng.randint(-4, 4) * p ** rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        want = _fraction_conjugate_is_integral(entries, m)
        got = oracles._is_integral_conjugate(oracles._conjugator(entries),
                                             tuple(x for row in m for x in row))
        assert got == want, (entries, m)
        outcomes.add(want)
        reversed_differs += want != _fraction_conjugate_is_integral([1 / x for x in entries], m)
    assert outcomes == {True, False} and reversed_differs > 20


def test_coset_marking_reduces_entries_of_sign_minus_one():
    """Shapes whose entries carry the sign -1 give negative matrix entries,
    which must be reduced mod p^k before they are keys."""
    upper = oracles.upper_unipotent_shape(3)
    mixed = oracles.UnipotentShape(3, tuple(
        tuple((pos, -sign if t % 2 == 0 else sign) for pos, sign in g)
        for t, g in enumerate(upper.groups)))
    assert {s for g in mixed.groups for _, s in g} == {-1, 1}
    siegel = oracles.UnipotentShape(4, tuple(tuple((pos, -sign) for pos, sign in g)
                                             for g in oracles.siegel_shape(2).groups))
    cases = [(mixed, (1, 0, 0), 3, 2), (mixed, (1, 1, 0), 3, 2), (mixed, (2, 1, 0), 2, 3),
             (siegel, (0, 0, 1, 1), 3, 2), (siegel, (0, 1, 1, 2), 2, 3)]
    for shape, vals, p, k in cases:
        conjugator = oracles._conjugator([F(1, p ** v) for v in vals])
        got = oracles._coset_count_marking(shape, conjugator, p, k)
        assert got == fraction_coset_marking(shape, vals, p, k) > 1, (shape, vals, p, k)
        assert oracles.coset_count_bruteforce(list(vals), shape, p, k) == got


# -- field exponents ----------------------------------------------------------

def test_unit_orders_and_exponents_match_one_walk_per_element():
    primes = [p for p in range(2, 626) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    fields = [(p, w) for p in primes for w in range(2, 10) if p ** w <= 625]
    assert len(fields) == 22
    for p, w in fields + [(p, 1) for p in primes if p < 100]:
        orders = element_orders(p, w)
        assert oracles._unit_orders(p, w) == orders, (p, w)
        assert oracles.multiplicative_group_exponent(p, w) == lcm(*orders.values()) \
            == p ** w - 1, (p, w)


def test_exponent_refuses_a_ring_that_is_no_field():
    with pytest.raises(ValueError, match="prime"):
        oracles.multiplicative_group_exponent(9, 1)
