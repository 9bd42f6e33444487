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
    fundamental_coweights,
)


def _coweight(datum, node):
    return datum.cochar(fundamental_coweights(datum)[node - 1])


def _orbit_size(v):
    return len(oracles_mod._int_orbit(v)[0])


def test_weyl_orbit_sizes():
    a2 = build_datum("A", 2)
    assert _orbit_size(a2.cochar([1, 0, -1])) == 6
    c2 = build_datum("C", 2)
    assert _orbit_size(c2.cochar([2, 1])) == 8
    assert _orbit_size(c2.cochar([0, 0])) == 1


def test_weyl_orbit_cap(monkeypatch):
    c2 = build_datum("C", 2)
    monkeypatch.setattr(oracles_mod, "WEYL_CAP", 4)
    with pytest.raises(ValueError):
        _orbit_size(c2.cochar([2, 1]))


def test_hull_membership_examples():
    c2 = build_datum("C", 2)
    y = c2.cochar([F(1, 2), F(1, 2)])
    assert convex_hull_membership(y, y)
    assert convex_hull_membership(c2.cochar([F(1, 2), 0]), y)
    assert not convex_hull_membership(c2.cochar([1, 0]), y)


def test_hull_membership_rank_cap():
    a4 = build_datum("A", 4)
    v = a4.cochar([0] * 5)
    with pytest.raises(ValueError):
        convex_hull_membership(v, v)


def test_hull_oracle_central_mismatch():
    a2 = build_datum("A", 2)
    x = a2.cochar([1, 0, 0])  # central sum 1
    y = a2.cochar([1, 0, -1])  # central sum 0
    assert not convex_hull_membership(x, y)
    assert not newton_leq(x, y)


def test_grid_matches_enumeration_c2():
    c2 = build_datum("C", 2)
    mu = _coweight(c2, 2)
    grid = grid_enumerate_bgmu(mu)
    assert grid == {(0, 0), (F(1, 2), 0), (F(1, 2), F(1, 2))}
    assert grid == set(p for p in enumerate_bgmu(mu).points())


def test_grid_mu_zero():
    a2 = build_datum("A", 2)
    mu = a2.cochar([0, 0, 0])
    assert grid_enumerate_bgmu(mu) == {(0, 0, 0)}


def test_grid_matches_enumeration_a2():
    a2 = build_datum("A", 2)
    mu = _coweight(a2, 1)
    assert grid_enumerate_bgmu(mu) == set(enumerate_bgmu(mu).points())


_NON_MINUSCULE = [(t, n, i, j) for t, n in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G2", 2),
                                             ("A", 3), ("B", 3), ("C", 3), ("D", 3)]
                  for i in range(1, n + 1) for j in range(i, n + 1)]


@pytest.mark.parametrize("t, n, i, j", _NON_MINUSCULE)
def test_grid_matches_enumeration_non_minuscule(t, n, i, j):
    # mu = omega_i + omega_j: every sum of two fundamental coweights at rank <= 3
    datum = build_datum(t, n)
    mu = datum.cochar([a + b for a, b in zip(_coweight(datum, i).coords,
                                             _coweight(datum, j).coords)])
    assert grid_enumerate_bgmu(mu) == set(enumerate_bgmu(mu).points())


def test_grid_rank_cap():
    a4 = build_datum("A", 4)
    with pytest.raises(ValueError):
        grid_enumerate_bgmu(_coweight(a4, 1))


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
            nu = reflect(_coweight(datum, k), k)
            for enumerate_ in (enumerate_bgmu, grid_enumerate_bgmu):
                with pytest.raises(ValueError, match="mu must be dominant"):
                    enumerate_(nu)


def test_grid_dominance_test_is_the_oracles_own(monkeypatch):
    # rootdata.is_dominant reads the fast paths' kernel; the grid oracle never does
    def no_kernel(datum):
        raise AssertionError("the grid oracle used RootDatum.kernel")

    mu = _coweight(build_datum("A", 2), 1)
    want = grid_enumerate_bgmu(mu)
    monkeypatch.setattr(RootDatum, "kernel", property(no_kernel))
    a2 = build_datum("A", 2)
    with pytest.raises(ValueError, match="mu must be dominant"):
        grid_enumerate_bgmu(a2.cochar([0, 0, 1]))
    assert grid_enumerate_bgmu(a2.cochar(mu.coords)) == want


def test_default_grid_spec_covers_half_coroot():
    # the second-largest element mubar - coroot/2 must be on the grid
    mu = _coweight(build_datum("A", 2), 1)
    denominator, _ = oracles_mod._grid_spec(mu, *oracles_mod._int_orbit(mu))
    assert denominator % 6 == 0


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
    mu = _coweight(c3, 3)
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
        mu = _coweight(d, k)
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
