import random
from fractions import Fraction as F

import pytest

import newtonkit.oracles as oracles_mod
from conftest import reflect
from newtonkit.hecke import gl_upper_roots, m_epsilon_valuation, siegel_radical_roots
from newtonkit.kottwitz import enumerate_bgmu, newton_leq
from newtonkit.muordinary import SlopeProfile, next_to_max_profile
from newtonkit.oracles import (
    convex_hull_membership,
    coset_count_bruteforce,
    grid_enumerate_bgmu,
    multiplicative_group_exponent,
    polygon_envelope,
    polygon_leq,
    siegel_shape,
    upper_unipotent_shape,
)
from newtonkit.rootdata import (
    RootDatum,
    build_datum,
    dominant_representative,
    fundamental_coweight,
)


def _support_points(v, count=200):
    """The support points of the Weyl orbit of v at 2 dim +- e_i and count
    seeded integer directions, as Fraction vectors."""
    D, best = oracles_mod._support(v)
    dim = v.datum.ambient_dim
    rng = random.Random(f"support-{v.x}")
    directions = [[s * (i == j) for j in range(dim)] for i in range(dim) for s in (1, -1)]
    directions += [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(count)]
    return {tuple(F(t, D) for t in best(u)) for u in directions}


def test_int_orbit_sizes():
    # no orbit is built: its vertices are reached as support points
    a2 = build_datum("A", 2)
    assert len(_support_points(a2.cochar([1, 0, -1]))) == 6
    c2 = build_datum("C", 2)
    assert len(_support_points(c2.cochar([2, 1]))) == 8
    assert _support_points(c2.cochar([0, 0])) == {(0, 0)}


def test_int_orbit_cap(monkeypatch):
    c2 = build_datum("C", 2)
    y = c2.cochar([2, 1])
    assert convex_hull_membership(c2.cochar([1, 1]), y)
    monkeypatch.setattr(oracles_mod, "PIVOT_CAP", 1)
    with pytest.raises(ValueError, match="simplex exceeds cap of 1 pivots"):
        convex_hull_membership(c2.cochar([1, 1]), y)


def test_hull_membership_examples():
    c2 = build_datum("C", 2)
    y = c2.cochar([F(1, 2), F(1, 2)])
    assert convex_hull_membership(y, y)
    assert convex_hull_membership(c2.cochar([F(1, 2), 0]), y)
    assert not convex_hull_membership(c2.cochar([1, 0]), y)


def test_hull_membership_rank_cap(monkeypatch):
    # no rank refusal: A4 gets an answer, and PIVOT_CAP on the simplex is
    # the hull oracle's one bound
    a4 = build_datum("A", 4)
    v = a4.cochar([0] * 5)
    y = fundamental_coweight(a4, 2)  # 0 is the barycentre of its 10 orbit points
    assert convex_hull_membership(v, v) and convex_hull_membership(v, y)
    assert not convex_hull_membership(y, v)
    monkeypatch.setattr(oracles_mod, "PIVOT_CAP", 6)
    with pytest.raises(ValueError, match="simplex exceeds cap of 6 pivots"):
        convex_hull_membership(v, y)


# past rank 3: generic y moved by a small step, multiples of omega_8 on E8,
# and generic y up to E8 against midpoints of y and a Weyl image of it
_HULL_PAST_RANK_3 = ([(t, n, "step") for t, n in [("A", 4), ("B", 4), ("C", 4), ("D", 4),
                                                  ("F4", 4), ("D", 5), ("A", 6)]]
                     + [("E8", 8, "omega_8")]
                     + [(t, n, "midpoint") for t, n in [("A", 7), ("E6", 6), ("E7", 7), ("E8", 8)]])
_HULL_IDS = [f"{t}-{n}" + ("-generic" if t == "E8" and kind == "midpoint" else "")
             for t, n, kind in _HULL_PAST_RANK_3]


@pytest.mark.parametrize("t, n, kind", _HULL_PAST_RANK_3, ids=_HULL_IDS)
def test_hull_matches_newton_leq_past_rank_3(t, n, kind):
    # for dominant x and y, x lies in the hull of the orbit of y exactly when
    # x <= y; x is y moved by a small step and made dominant, with the same
    # central part as y on every other type A pair, or on every other
    # midpoint case the midpoint of y and w y (w a seeded word of 2n simple
    # reflections), so both answers occur
    datum = build_datum(t, n)
    rng = random.Random(f"hull-{t}{n}")
    answers = set()
    for i in range(12):
        if kind == "omega_8":
            y, x = (datum.cochar([s * c for c in fundamental_coweight(datum, k).coords])
                    for s, k in [(F(rng.randint(1, 6), 3), 8),
                                 (F(rng.randint(0, 3), 3), rng.randint(1, 8))])
        else:
            y = dominant_representative(datum.cochar(
                [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(datum.ambient_dim)]))
            step = [F(rng.randint(-3, 3), rng.randint(2, 6)) for _ in range(datum.ambient_dim)]
            if t == "A" and i % 2:
                step[-1] = -sum(step[:-1])
            if kind == "midpoint" and i % 2:
                image = y
                for _ in range(2 * n):
                    image = reflect(image, rng.randint(1, n))
                step = [(a - b) / 2 for a, b in zip(y.coords, image.coords)]
            x = dominant_representative(datum.cochar([a - b for a, b in zip(y.coords, step)]))
        want = newton_leq(x, y)
        assert convex_hull_membership(x, y) == want, (x.coords, y.coords)
        answers.add(want)
    assert answers == {True, False}


_WEYL_IMAGE_DATA = [("A", 3), ("B", 3), ("C", 3), ("G2", 2), ("F4", 4), ("D", 5), ("E6", 6)]


@pytest.mark.parametrize("t, n", _WEYL_IMAGE_DATA, ids=[f"{t}-{n}" for t, n in _WEYL_IMAGE_DATA])
def test_hull_answer_is_the_same_at_weyl_images(t, n, monkeypatch):
    # the orbit of y, and so its hull, is W-stable: w x against w' y answers
    # as x against y, for seeded words w, w'.  w' y is not dominant, so the
    # support function descends it first; none of it reads the kernel.
    datum = build_datum(t, n)
    rng = random.Random(f"images-{t}{n}")

    def image(v):
        for _ in range(rng.randint(1, 3 * n)):
            v = reflect(v, rng.randint(1, n))
        return v

    cases = []
    for i in range(8):
        y = dominant_representative(datum.cochar(
            [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(datum.ambient_dim)]))
        z = image(y) if i % 2 else datum.cochar(
            [a + F(rng.randint(-3, 3), rng.randint(2, 6)) for a in y.coords])
        x = dominant_representative(datum.cochar([(a + b) / 2 for a, b in zip(y.coords, z.coords)]))
        cases.append((x, y, newton_leq(x, y)))
    assert {want for _, _, want in cases} == {True, False}
    images = [(x, y, want, [(image(x), image(y)) for _ in range(4)]) for x, y, want in cases]

    def no_kernel(datum):
        raise AssertionError("the hull oracle used RootDatum.kernel")

    monkeypatch.setattr(RootDatum, "kernel", property(no_kernel))
    for x, y, want, pairs in images:
        assert convex_hull_membership(x, y) == want, (x.coords, y.coords)
        for wx, wy in pairs:
            assert convex_hull_membership(wx, wy) == want, (wx.coords, wy.coords)


def test_hull_oracle_central_mismatch():
    a2 = build_datum("A", 2)
    x = a2.cochar([1, 0, 0])  # central sum 1
    y = a2.cochar([1, 0, -1])  # central sum 0
    assert not convex_hull_membership(x, y)
    assert not newton_leq(x, y)


def test_grid_matches_enumeration_c2():
    c2 = build_datum("C", 2)
    mu = fundamental_coweight(c2, 2)
    grid = grid_enumerate_bgmu(mu)
    assert grid == {(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2))}
    assert grid == set(p for p in enumerate_bgmu(mu).points())


def test_grid_mu_zero():
    a2 = build_datum("A", 2)
    mu = a2.cochar([0, 0, 0])
    assert grid_enumerate_bgmu(mu) == {(0, 0, 0)}


def test_grid_matches_enumeration_a2():
    a2 = build_datum("A", 2)
    mu = fundamental_coweight(a2, 1)
    assert grid_enumerate_bgmu(mu) == set(enumerate_bgmu(mu).points())


# mu is the sum of the fundamental coweights at nodes: every sum of two at
# rank <= 3, every sum of three at rank 2, and omega_1 + omega_2 + omega_3 at
# rank 3 (the other sums of three at rank 3 agree too, but take about 25 s)
_NON_MINUSCULE = ([(t, n, (i, j)) for t, n in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G2", 2),
                                               ("A", 3), ("B", 3), ("C", 3), ("D", 3)]
                   for i in range(1, n + 1) for j in range(i, n + 1)]
                  + [(t, 2, nodes) for t in ("A", "B", "C", "G2")
                     for nodes in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))]
                  + [(t, 3, (1, 2, 3)) for t in ("A", "B", "C", "D")])


@pytest.mark.parametrize("t, n, nodes", _NON_MINUSCULE,
                         ids=[f"{t}-{n}-{'-'.join(map(str, nodes))}" for t, n, nodes in _NON_MINUSCULE])
def test_grid_matches_enumeration_non_minuscule(t, n, nodes):
    datum = build_datum(t, n)
    coweights = [fundamental_coweight(datum, k).coords for k in nodes]
    mu = datum.cochar([sum(x) for x in zip(*coweights)])
    assert grid_enumerate_bgmu(mu) == set(enumerate_bgmu(mu).points())


def test_grid_rank_cap():
    a4 = build_datum("A", 4)
    with pytest.raises(ValueError):
        grid_enumerate_bgmu(fundamental_coweight(a4, 1))


def test_grid_refuses_a_non_dominant_mu_like_the_enumeration():
    a2 = build_datum("A", 2)
    mu = a2.cochar([0, 0, 1])
    for enumerate_ in (enumerate_bgmu, grid_enumerate_bgmu):
        with pytest.raises(ValueError, match="mu must be dominant"):
            enumerate_(mu)
    # s_k omega_k pairs to -1 with the k-th simple root
    for t, n in [("A", 1), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("G2", 2)]:
        datum = build_datum(t, n)
        for k in range(1, n + 1):
            nu = reflect(fundamental_coweight(datum, k), k)
            for enumerate_ in (enumerate_bgmu, grid_enumerate_bgmu):
                with pytest.raises(ValueError, match="mu must be dominant"):
                    enumerate_(nu)


def test_grid_dominance_test_is_the_oracles_own(monkeypatch):
    # rootdata.is_dominant reads the fast paths' kernel; the grid oracle never does
    def no_kernel(datum):
        raise AssertionError("the grid oracle used RootDatum.kernel")

    mu = fundamental_coweight(build_datum("A", 2), 1)
    want = grid_enumerate_bgmu(mu)
    monkeypatch.setattr(RootDatum, "kernel", property(no_kernel))
    a2 = build_datum("A", 2)
    with pytest.raises(ValueError, match="mu must be dominant"):
        grid_enumerate_bgmu(a2.cochar([0, 0, 1]))
    assert grid_enumerate_bgmu(a2.cochar(mu.coords)) == want


def test_grid_spec_covers_half_a_coroot():
    # the second-largest element mubar - coroot/2 must be on the grid
    mu = fundamental_coweight(build_datum("A", 2), 1)
    assert oracles_mod._grid_spec(mu) % 6 == 0


def test_coset_count_examples():
    assert coset_count_bruteforce([1, 0], upper_unipotent_shape(2), 3, 2) == 3
    assert coset_count_bruteforce([0, 0, 1, 1], siegel_shape(2), 3, 2) == 27
    assert coset_count_bruteforce([0, 0, 0, 0], siegel_shape(2), 3, 2) == 1


def test_coset_count_input_validation():
    with pytest.raises(ValueError):
        coset_count_bruteforce([F(1, 2), 0], upper_unipotent_shape(2), 3, 2)
    with pytest.raises(ValueError):
        coset_count_bruteforce([2, 0], upper_unipotent_shape(2), 3, 2)  # val >= k
    with pytest.raises(ValueError):
        coset_count_bruteforce([1, 0], upper_unipotent_shape(2), 5, 5)  # modulus cap
    with pytest.raises(ValueError):
        coset_count_bruteforce([1, 0, 0], upper_unipotent_shape(2), 3, 2)


@pytest.mark.parametrize("p,k", [(1, 1), (0, 1), (3, 0)])
def test_coset_count_refuses_degenerate_p_and_k(p, k):
    with pytest.raises(ValueError, match="at least"):
        coset_count_bruteforce([0, 0], upper_unipotent_shape(2), p, k)


def test_coset_count_fallback_agrees_with_marking():
    shape = upper_unipotent_shape(3)
    vals = [2, 1, 0]
    full = coset_count_bruteforce(vals, shape, 3, 3)
    old = oracles_mod.ENUMERATION_LIMIT
    try:
        oracles_mod.ENUMERATION_LIMIT = 1
        assert coset_count_bruteforce(vals, shape, 3, 3) == full
    finally:
        oracles_mod.ENUMERATION_LIMIT = old


def test_coset_count_matches_valuation_formula_sample():
    cases = [
        ([1, 0], upper_unipotent_shape(2), gl_upper_roots(2)),
        ([1, 1, 0], upper_unipotent_shape(3), gl_upper_roots(3)),
        ([0, 1, 1, 2], siegel_shape(2), siegel_radical_roots(2)),
    ]
    for vals, shape, roots in cases:
        v = m_epsilon_valuation(vals, roots)
        count = coset_count_bruteforce(vals, shape, 3, max(vals) + 1)
        assert count == 3 ** int(v)


def test_coset_count_matches_valuation_formula_on_the_upper_siegel_radical():
    # the oracle behind mepsilon --upper: every symplectic valuation with
    # t1 <= t2 <= 2 and s <= 4 that is dominant for the upper radical
    roots = siegel_radical_roots(2, lower=False)
    shape = siegel_shape(2, lower=False)
    cases = 0
    for t1 in range(3):
        for t2 in range(t1, 3):
            for s in range(5):
                full = [t1, t2, s - t2, s - t1]
                if min(full) < 0 or any(sum(r * v for r, v in zip(root, full)) < 0
                                        for root in roots):
                    continue
                for p in (3, 5):
                    k = max(full) - min(full) + 1
                    if p ** k <= 625:
                        count = coset_count_bruteforce(full, shape, p, k)
                        assert count == p ** m_epsilon_valuation(full, roots), (full, p)
                        cases += 1
    assert cases == 14


def test_shape_constructions():
    sh = siegel_shape(2)
    assert sh.size == 4 and len(sh.groups) == 3
    m = sh.flat([5, 7, 11])
    assert m[2 * 4 + 0] == m[3 * 4 + 1]  # tied entries (3, 1) and (4, 2)
    up = upper_unipotent_shape(3)
    assert len(up.groups) == 3


def test_polygon_leq_examples():
    split = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))
    orig = SlopeProfile((F(1), F(0)), (2, 2))
    assert polygon_leq(split, split)
    assert polygon_leq(split, orig)
    assert not polygon_leq(orig, split)


def test_polygon_envelope_is_the_prefix_sums_of_the_slopes():
    split = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))
    assert polygon_envelope(split) == [0, 1, F(3, 2), 2, 2]
    assert polygon_envelope(SlopeProfile((F(2, 3),), (3,))) == [0, F(2, 3), F(4, 3), 2]


def test_polygon_leq_does_not_use_the_fast_envelope(monkeypatch):
    import newtonkit.muordinary as muordinary

    def fast_path(*args):
        raise AssertionError("the polygon oracle called max_degree_bound")

    monkeypatch.setattr(muordinary, "max_degree_bound", fast_path)
    split = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))
    orig = SlopeProfile((F(1), F(0)), (2, 2))
    assert polygon_leq(split, orig) and not polygon_leq(orig, split)


def test_polygon_leq_requires_matching_totals():
    a = SlopeProfile((F(1), F(0)), (2, 2))
    b = SlopeProfile((F(1), F(0)), (1, 1))
    with pytest.raises(ValueError):
        polygon_leq(a, b)
    c = SlopeProfile((F(1),), (4,))
    with pytest.raises(ValueError):
        polygon_leq(a, c)


def test_polygon_vs_dominance_on_symplectic_points():
    # dominance of symplectic Newton points matches polygon comparison
    from newtonkit.muordinary import profile_from_newton

    c3 = build_datum("C", 3)
    mu = fundamental_coweight(c3, 3)
    pts = enumerate_bgmu(mu).points()
    for a in pts:
        for b in pts:
            pa = profile_from_newton(c3.cochar(a), 6)
            pb = profile_from_newton(c3.cochar(b), 6)
            assert polygon_leq(pa, pb) == newton_leq(c3.cochar(a), c3.cochar(b))


def test_hull_agrees_with_dominance_randomized():
    rng = random.Random(23)
    for t, n in [("A", 2), ("C", 2), ("B", 2), ("G2", 2)]:
        d = build_datum(t, n)
        for _ in range(40):
            pts = []
            for _ in range(2):
                coords = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 6))
                    for _ in range(d.ambient_dim)
                )
                pts.append(dominant_representative(d.cochar(coords)))
            x, y = pts
            assert newton_leq(x, y) == convex_hull_membership(x, y)


def test_maximal_elements_reproduced_from_oracles_only():
    # an all-oracle derivation of the maximal non-top stratum: enumerate on
    # the grid, order by hull membership, take maxima
    from newtonkit.kottwitz import maximal_elements

    for t, n, k in [("A", 2, 1), ("C", 2, 2), ("B", 3, 1), ("D", 3, 3)]:
        d = build_datum(t, n)
        mu = fundamental_coweight(d, k)
        pts = sorted(grid_enumerate_bgmu(mu))
        top = max(pts, key=lambda p: sum(
            convex_hull_membership(d.cochar(q), d.cochar(p)) for q in pts
        ))
        rest = [p for p in pts if p != top]
        oracle_max = {
            p for p in rest
            if all(
                q == p or not convex_hull_membership(d.cochar(p), d.cochar(q))
                for q in rest
            )
        }
        ks = enumerate_bgmu(mu)
        main_max = {e.nu.coords for e in maximal_elements(ks, exclude_top=True)}
        assert oracle_max == main_max, (t, n, k)


@pytest.mark.parametrize("p,w", [(1, 1), (3, 0), (0, 1)])
def test_multiplicative_group_exponent_refuses_degenerate_p_and_w(p, w):
    with pytest.raises(ValueError, match="at least"):
        multiplicative_group_exponent(p, w)


def test_multiplicative_group_exponent():
    assert multiplicative_group_exponent(3, 1) == 2
    assert multiplicative_group_exponent(3, 2) == 8
    assert multiplicative_group_exponent(5, 2) == 24
    assert multiplicative_group_exponent(7, 1) == 6
    with pytest.raises(ValueError):
        multiplicative_group_exponent(5, 5)
