import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coroot_span_decomposition
from newtonkit.linalg import invert
from newtonkit.rootdata import (
    RationalCocharacter,
    build_datum,
    dominant_representative,
    fundamental_coweights,
    fundamental_weights,
    highest_root,
    is_dominant,
    pairing,
    product_datum,
    reflect_simple,
    sigma_apply,
    special_roots,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
)


def _equal_pairs():
    """Pairs of equal root data built apart: every type, flips, D4 triality,
    products and a dataclasses.replace copy."""
    pairs = [(build_datum(t, n), build_datum(t, n)) for t, n in ALL_TYPES]
    pairs += [(build_datum(t, n, "flip"), build_datum(t, n, [*range(n, 0, -1)] if t == "A"
                                                      else "flip"))
              for t, n in (("A", 1), ("A", 4), ("A", 8), ("D", 4), ("D", 7), ("E6", 6))]
    pairs.append((build_datum("D", 4, [3, 2, 4, 1]), build_datum("D", 4, (3, 2, 4, 1))))
    factors = [build_datum("A", 2, "flip"), build_datum("G2", 2), build_datum("D", 4)]
    pairs.append((product_datum(factors), product_datum([build_datum("A", 2, "flip"),
                                                         build_datum("G2", 2),
                                                         build_datum("D", 4)])))
    e7 = build_datum("E7", 7)
    pairs.append((e7, dataclasses.replace(e7)))
    return pairs


def test_equal_root_data_hash_equal():
    # the hash reads a few fields only, and must stay consistent with ==
    for a, b in _equal_pairs():
        assert a is not b and a == b and hash(a) == hash(b), a.type_label
        assert {a: 1}[b] == 1
        assert hash(a.cochar([0] * a.ambient_dim)) == hash(b.cochar([0] * b.ambient_dim))
    # data that differ in sigma alone are unequal
    assert build_datum("D", 4) != build_datum("D", 4, [3, 2, 4, 1])


def test_build_a3_epsilon_basis():
    d = build_datum("A", 3)
    assert d.ambient_dim == 4
    assert d.simple_roots[0] == (1, -1, 0, 0)
    assert d.simple_roots[2] == (0, 0, 1, -1)
    assert d.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_build_c2_coroots():
    d = build_datum("C", 2)
    assert d.simple_roots == ((1, -1), (0, 2))
    assert d.simple_coroots == ((1, -1), (0, 1))


def test_build_a2_flip_preserves_cartan():
    d = build_datum("A", 2, "flip")
    assert d.sigma == (2, 1)
    assert d.sigma_order == 2


def test_invalid_rank_rejected():
    with pytest.raises(ValueError):
        build_datum("B", 1)
    with pytest.raises(ValueError):
        build_datum("D", 2)
    with pytest.raises(ValueError):
        build_datum("E6", 7)
    with pytest.raises(ValueError):
        build_datum("Z", 3)


def test_bad_sigma_rejected():
    with pytest.raises(ValueError):
        build_datum("A", 3, (2, 1, 3))  # not a diagram automorphism
    with pytest.raises(ValueError):
        build_datum("B", 3, "flip")  # B has no flip
    with pytest.raises(ValueError):
        build_datum("A", 3, (1, 1, 2))


def test_cartan_shape_all_types():
    for t, n in ALL_TYPES:
        d = build_datum(t, n)
        for i in range(n):
            assert d.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert d.cartan[i][j] <= 0


def test_fundamental_weights_examples():
    a3 = build_datum("A", 3)
    assert fundamental_weights(a3)[0] == (1, 0, 0, 0)
    b3 = build_datum("B", 3)
    assert fundamental_weights(b3)[2] == (F(1, 2), F(1, 2), F(1, 2))


def test_fundamental_coweights_examples():
    a3 = build_datum("A", 3)
    assert fundamental_coweights(a3)[0] == (F(3, 4), F(-1, 4), F(-1, 4), F(-1, 4))
    c2 = build_datum("C", 2)
    assert fundamental_coweights(c2)[1] == (F(1, 2), F(1, 2))
    b3 = build_datum("B", 3)
    assert fundamental_coweights(b3)[0] == (1, 0, 0)


def test_dual_basis_identities_all_types():
    for t, n in ALL_TYPES:
        d = build_datum(t, n)
        weights = fundamental_weights(d)
        coweights = fundamental_coweights(d)
        for i in range(n):
            for j in range(n):
                assert pairing(d.simple_coroots[j], weights[i]) == int(i == j)
                assert pairing(coweights[i], d.simple_roots[j]) == int(i == j)


def test_highest_root_classical_tables():
    for n in range(2, 9):
        assert highest_root(build_datum("A", n))[1] == (1,) * n
        assert highest_root(build_datum("B", n))[1] == (1,) + (2,) * (n - 1)
        assert highest_root(build_datum("C", n))[1] == (2,) * (n - 1) + (1,)
        if n >= 3:
            coeffs = highest_root(build_datum("D", n))[1]
            if n == 3:
                assert coeffs == (1, 1, 1)
            else:
                assert coeffs == (1,) + (2,) * (n - 3) + (1, 1)


def test_highest_root_exceptional():
    assert highest_root(build_datum("E6", 6))[1] == (1, 2, 2, 3, 2, 1)
    assert highest_root(build_datum("E7", 7))[1] == (2, 2, 3, 4, 3, 2, 1)
    assert highest_root(build_datum("E8", 8))[1] == (2, 3, 4, 6, 5, 4, 3, 2)
    assert highest_root(build_datum("F4", 4))[1] == (2, 3, 4, 2)
    assert highest_root(build_datum("G2", 2))[1] == (3, 2)


def test_g2_highest_root_is_maximal_under_root_addition():
    # brute force: no simple root can be added to the highest root
    from newtonkit.rootdata import all_roots

    d = build_datum("G2", 2)
    top, _ = highest_root(d)
    roots = all_roots(d)
    assert len(roots) == 12
    for alpha in d.simple_roots:
        assert tuple(a + b for a, b in zip(top, alpha)) not in roots


def test_special_roots_tables():
    assert special_roots(build_datum("A", 3)) == {1, 2, 3}
    for n in range(2, 7):
        assert special_roots(build_datum("B", n)) == {1}
        assert special_roots(build_datum("C", n)) == {n}
    for n in range(4, 7):
        assert special_roots(build_datum("D", n)) == {1, n - 1, n}
    assert special_roots(build_datum("E6", 6)) == {1, 6}
    assert special_roots(build_datum("E7", 7)) == {7}
    assert special_roots(build_datum("E8", 8)) == set()
    assert special_roots(build_datum("F4", 4)) == set()
    assert special_roots(build_datum("G2", 2)) == set()


def test_pairing_examples():
    c2 = build_datum("C", 2)
    assert pairing((F(1, 2), F(1, 2)), c2.simple_roots[0]) == 0
    assert pairing((F(1, 4), F(1, 4)), (1, 1)) == F(1, 2)
    with pytest.raises(ValueError):
        pairing((1, 2, 3), (1, 2))


def test_dominance_examples():
    c2 = build_datum("C", 2)
    assert is_dominant(c2.cochar([F(1, 2), F(1, 2)]))
    v = c2.cochar([0, F(1, 2)])
    assert not is_dominant(v)
    assert dominant_representative(v).coords == (F(1, 2), 0)


def test_dominant_representative_a2_brute_force():
    a2 = build_datum("A", 2)
    v = a2.cochar([-1, 0, 1])
    rep = dominant_representative(v)
    assert rep.coords == (1, 0, -1)
    # the whole 6-element orbit maps to the same representative
    orbit = {v.coords}
    frontier = [v]
    while frontier:
        w = frontier.pop()
        for i in (1, 2):
            img = reflect_simple(w, i)
            if img.coords not in orbit:
                orbit.add(img.coords)
                frontier.append(img)
    assert len(orbit) == 6
    for coords in orbit:
        assert dominant_representative(a2.cochar(coords)).coords == rep.coords


def test_dominant_representative_idempotent_and_weyl_invariant():
    rng = random.Random(11)
    for t, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]:
        d = build_datum(t, n)
        for _ in range(20):
            v = d.cochar(
                [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d.ambient_dim)]
            )
            rep = dominant_representative(v)
            assert is_dominant(rep)
            assert dominant_representative(rep).coords == rep.coords
            for i in range(1, n + 1):
                assert dominant_representative(reflect_simple(v, i)).coords == rep.coords


def test_sigma_commutes_with_dominance():
    rng = random.Random(13)
    for t, n, spec in [("A", 3, "flip"), ("D", 4, "flip"), ("E6", 6, "flip")]:
        d = build_datum(t, n, spec)
        for _ in range(15):
            v = d.cochar(
                [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d.ambient_dim)]
            )
            assert is_dominant(v) == is_dominant(sigma_apply(v))


def test_sigma_apply_permutes_coweights():
    a3 = build_datum("A", 3, "flip")
    cw = fundamental_coweights(a3)
    assert sigma_apply(a3.cochar(cw[0])).coords == cw[2]
    assert sigma_apply(a3.cochar(cw[1])).coords == cw[1]


def test_sigma_apply_moves_node_i_to_sigma_i():
    # D4 triality 1 -> 3 -> 4 -> 1: omega_1 goes to omega_3; sigma^-1 would give omega_4
    d4 = build_datum("D", 4, (3, 2, 4, 1))
    cw = fundamental_coweights(d4)
    image = sigma_apply(d4.cochar(cw[0])).coords
    assert image == cw[2] and image != cw[3]
    assert sigma_apply(d4.cochar(cw[1])).coords == cw[1]


def test_product_datum_basics():
    d = product_datum([build_datum("A", 1), build_datum("C", 2)])
    assert d.rank == 3
    assert d.ambient_dim == 4
    assert d.is_product
    with pytest.raises(ValueError):
        highest_root(d)
    with pytest.raises(ValueError):
        special_roots(d)


def test_cocharacter_dimension_checked():
    c2 = build_datum("C", 2)
    with pytest.raises(ValueError):
        RationalCocharacter((1, 0, 0), 1, c2)
    with pytest.raises(ValueError):
        c2.cochar(("1/2",))


@pytest.mark.parametrize("L", [0, -1, -6])
def test_cocharacter_denominator_must_be_positive(L):
    with pytest.raises(ValueError):
        RationalCocharacter((1, 0), L, build_datum("C", 2))


def test_cocharacter_is_stored_in_lowest_terms():
    c2 = build_datum("C", 2)
    forms = [RationalCocharacter((3 * m, -2 * m), 6 * m, c2) for m in (1, 2, 5, 12)]
    assert {(v.x, v.L) for v in forms} == {((3, -2), 6)}
    assert len(set(forms)) == 1 and len({hash(v) for v in forms}) == 1
    assert forms[0] == c2.cochar(("1/2", "-1/3"))
    assert forms[0].coords == (F(1, 2), F(-1, 3))
    zero = [RationalCocharacter((0, 0), L, c2) for L in (1, 4, 9)]
    assert {(v.x, v.L) for v in zero} == {((0, 0), 1)} and len(set(zero)) == 1
    assert RationalCocharacter((2, 4), 2, c2) == c2.cochar((1, 2))


def test_cochar_reads_ints_strings_and_fractions():
    a2 = build_datum("A", 2)
    for coords in [(1, -2, 0), ("1/2", "-3", "0/5"), (F(2, 3), F(-1, 6), F(0)),
                   (F(4, 6), "-1/6", 0)]:
        v = a2.cochar(coords)
        assert v.coords == tuple(F(t) for t in coords)
        assert all(type(t) is F for t in v.coords)
        assert v.L == math.lcm(*(F(t).denominator for t in coords))
    with pytest.raises(ValueError):
        a2.cochar(("1/0", "0", "0"))


def _gauss_solve(a, b):
    """Solve the square, invertible system a x = b by Fraction elimination."""
    n = len(a)
    m = [[F(x) for x in row] + [F(y)] for row, y in zip(a, b)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(row[n] for row in m)


@st.composite
def _datum_and_vector(draw):
    t, n = draw(st.sampled_from(ALL_TYPES))
    datum = build_datum(t, n)
    coords = draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=12),
                           min_size=datum.ambient_dim, max_size=datum.ambient_dim))
    return datum, tuple(coords)


@settings(max_examples=300, deadline=None)
@given(_datum_and_vector())
def test_coroot_span_decomposition_matches_gram_solve(case):
    datum, v = case
    roots, coroots = datum.simple_roots, datum.simple_coroots

    def ip(a, b):
        return sum((x * y for x, y in zip(a, b)), F(0))

    gram = [[ip(coroots[i], roots[j]) for i in range(datum.rank)] for j in range(datum.rank)]
    expected = _gauss_solve(gram, [ip(v, r) for r in roots])
    coeffs, perp = coroot_span_decomposition(datum, v)
    assert coeffs == expected
    assert perp == tuple(x - sum((c * av[t] for c, av in zip(expected, coroots)), F(0))
                         for t, x in enumerate(v))
    assert all(ip(perp, r) == 0 for r in roots)


def _check_inverse(a):
    k = len(a)
    Q, q = invert(a)
    assert q > 0 and math.gcd(q, *(x for row in Q for x in row)) == 1
    product = [[sum(Q[i][t] * a[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    assert product == [[q * (i == j) for j in range(k)] for i in range(k)], a


def test_invert_every_principal_cartan_block():
    for t, n in ALL_TYPES:
        cartan = build_datum(t, n).cartan
        for mask in range(1 << n):
            J = [i for i in range(n) if mask >> i & 1]
            _check_inverse([[cartan[g][b] for b in J] for g in J])
    # row swaps and a negative determinant
    _check_inverse([[0, 2, 1], [3, 0, 0], [1, 1, 1]])
    _check_inverse([[2, 3], [4, 5]])
    with pytest.raises(ValueError):
        invert([[1, 2], [2, 4]])



def _closure_in_ambient_space(datum):
    """The root system closed under simple reflections in ambient Fraction vectors."""
    roots = set(datum.simple_roots)
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for alpha, alpha_v in zip(datum.simple_roots, datum.simple_coroots):
            c = sum(x * y for x, y in zip(beta, alpha_v))
            if c:
                image = tuple(b - c * a for b, a in zip(beta, alpha))
                if image not in roots:
                    roots.add(image)
                    frontier.append(image)
    return roots


ROOT_COUNTS = {("A", 8): 72, ("B", 8): 128, ("C", 8): 128, ("D", 8): 112, ("E6", 6): 72,
               ("E7", 7): 126, ("E8", 8): 240, ("F4", 4): 48, ("G2", 2): 12}


@pytest.mark.parametrize("t,n", ALL_TYPES)
def test_all_roots_matches_the_ambient_closure(t, n):
    from newtonkit.rootdata import all_roots

    d = build_datum(t, n)
    roots = all_roots(d)
    assert roots == _closure_in_ambient_space(d)
    assert all(isinstance(x, F) for r in roots for x in r)
    if (t, n) in ROOT_COUNTS:
        assert len(roots) == ROOT_COUNTS[t, n]
    top, coeffs = highest_root(d)
    assert top in roots and all(isinstance(c, int) for c in coeffs)
    assert top == tuple(sum(c * a[j] for c, a in zip(coeffs, d.simple_roots))
                        for j in range(d.ambient_dim))


def test_sigma_orbits_and_order():
    def order_by_powers(sigma):
        r, current = 1, sigma
        while current != tuple(range(1, len(sigma) + 1)):
            current, r = tuple(sigma[i - 1] for i in current), r + 1
        return r

    cases = {("A", 5, "flip"): ((1, 5), (2, 4), (3,)),
             ("D", 5, "flip"): ((1,), (2,), (3,), (4, 5)),
             ("E6", 6, "flip"): ((1, 6), (2,), (3, 5), (4,)),
             ("D", 4, (3, 2, 4, 1)): ((1, 3, 4), (2,)),
             ("C", 3, None): ((1,), (2,), (3,))}
    for (t, n, spec), orbits in cases.items():
        d = build_datum(t, n, spec)
        assert d.sigma_orbits == orbits
        assert d.sigma_order == order_by_powers(d.sigma)
    prod = product_datum([build_datum("A", 2, "flip"), build_datum("D", 4, (3, 2, 4, 1))])
    assert prod.sigma_orbits == ((1, 2), (3, 5, 6), (4,))
    assert prod.sigma_order == 6 == order_by_powers(prod.sigma)


def test_rat_accepts_only_sign_digits_and_slash_digits():
    from newtonkit.rationals import rat

    assert [rat(s) for s in ("3/4", "-2", "+6/4", "0/1")] == [F(3, 4), -2, F(3, 2), 0]
    for s in ("1e5", "1e200000000", "0.5", " 1", "1_000", "1/-2", "", "/2", "inf", "1/2/3"):
        with pytest.raises(ValueError):
            rat(s)


@pytest.mark.parametrize("t,n", ALL_TYPES, ids=lambda v: str(v))
def test_kernel_split_solves_the_cartan_system(t, n):
    # x / L = sum_k c_k coroot_k + P / (q R K L): P pairs to zero with every
    # root, and c = C / (q R L) solves cartan . c = (<x / L, root_j>)_j
    datum = build_datum(t, n)
    k = datum.kernel
    rng = random.Random(n)
    for _ in range(4):
        coords = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(datum.ambient_dim)]
        w = datum.cochar(coords)
        L = w.L
        C, P = k.split(w.x)
        c = [F(v, k.q * k.R * L) for v in C]
        perp = [F(v, k.q * k.R * k.K * L) for v in P]
        for j, root in enumerate(datum.simple_roots):
            assert pairing(perp, root) == 0
            assert sum(datum.cartan[j][i] * c[i] for i in range(n)) == pairing(coords, root)
        assert [sum((ci * a[s] for ci, a in zip(c, datum.simple_coroots)), perp[s])
                for s in range(datum.ambient_dim)] == coords
