from fractions import Fraction as F

import pytest

from newtonkit.muordinary import (
    SlopeProfile,
    check_uniqueness,
    degrees,
    max_degree_bound,
    modified_degrees,
    next_to_max_profile,
    profile_from_newton,
)
from newtonkit.hecke import (
    c_constant,
    epsilon_prime_valuations,
    filtration_element,
    hasse_number,
    n_g_constant,
    siegel_radical_roots,
)
from newtonkit.oracles import (
    coset_count_bruteforce,
    multiplicative_group_exponent,
    upper_unipotent_shape,
)
from newtonkit.rootdata import build_datum, fundamental_coweight


def test_profile_invariants_enforced():
    with pytest.raises(ValueError):
        SlopeProfile((F(1, 2), F(1, 2)), (1, 1))  # not strictly descending
    with pytest.raises(ValueError):
        SlopeProfile((F(3, 2),), (1,))  # slope above 1
    with pytest.raises(ValueError):
        SlopeProfile((F(1), F(0)), (1, 0))  # zero multiplicity
    with pytest.raises(ValueError):
        SlopeProfile((F(1), F(1, 3)), (1, 1), polarized=True)  # asymmetric


def test_slopes_are_exact_rationals():
    with pytest.raises(TypeError, match="not an exact rational"):
        SlopeProfile((0.75, 0.25), (1, 1), polarized=True)
    profile = SlopeProfile(("3/4", "1/4"), (1, 1), polarized=True)
    assert profile.slopes == (F(3, 4), F(1, 4))
    dd = degrees(profile)
    assert dd.d == (F(3, 4), F(1)) and dd.delta == F(1, 8)


@pytest.mark.parametrize("mults", [(True,), ("2",), (2.0,)], ids=repr)
def test_multiplicities_are_positive_ints_not_bools(mults):
    with pytest.raises(ValueError, match="multiplicities must be positive integers"):
        SlopeProfile((F(1, 2),), mults)


@pytest.mark.parametrize("h", [0.5, 2.0, True, "1"], ids=repr)
def test_max_degree_bound_takes_an_int_height(h):
    with pytest.raises(ValueError, match="is not an integer"):
        max_degree_bound(SlopeProfile((F(1), F(0)), (2, 2)), h)


_ORDINARY = SlopeProfile((F(1), F(0)), (2, 2), polarized=True)

# Every integer argument of a public entry point, as a function of that
# argument alone; the other arguments are valid.
_INTEGER_ARGUMENTS = {
    "build_datum rank": lambda x: build_datum("A", x),
    "fundamental_coweight i": lambda x: fundamental_coweight(build_datum("C", 2), x),
    "SlopeProfile mults": lambda x: SlopeProfile((F(1, 2),), (x,)),
    "max_degree_bound h": lambda x: max_degree_bound(_ORDINARY, x),
    "check_uniqueness i": lambda x: check_uniqueness(degrees(_ORDINARY), x),
    "next_to_max_profile i": lambda x: next_to_max_profile(_ORDINARY, x, 1),
    "next_to_max_profile split": lambda x: next_to_max_profile(_ORDINARY, 1, x),
    "profile_from_newton embedding_dim": lambda x: profile_from_newton([F(1, 2), F(0)], x),
    "filtration_element h": lambda x: filtration_element(x, 4, 3),
    "filtration_element dim_v": lambda x: filtration_element(1, x, 3),
    "filtration_element p": lambda x: filtration_element(1, 4, x),
    "n_g_constant dim_v": lambda x: n_g_constant([(2, F(1))], 3, dim_v=x),
    "c_constant dim_v": lambda x: c_constant([(2, F(1))], siegel_radical_roots(2), 3, dim_v=x),
    "epsilon_prime_valuations h_i":
        lambda x: epsilon_prime_valuations(x, F(1), filtration_element(2, 4, 3)),
    "hasse_number w": lambda x: hasse_number(x, 3),
    "hasse_number p": lambda x: hasse_number(1, x),
    "coset_count_bruteforce p":
        lambda x: coset_count_bruteforce([0, 0], upper_unipotent_shape(2), x, 2),
    "coset_count_bruteforce k":
        lambda x: coset_count_bruteforce([0, 0], upper_unipotent_shape(2), 3, x),
    "multiplicative_group_exponent p": lambda x: multiplicative_group_exponent(x, 1),
    "multiplicative_group_exponent w": lambda x: multiplicative_group_exponent(3, x),
}


@pytest.mark.parametrize("call", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
@pytest.mark.parametrize("x", [True, 2.0, "1"], ids=repr)
def test_integer_arguments_refuse_bools_floats_and_strings(call, x):
    with pytest.raises(ValueError):
        call(x)


def test_profile_from_newton_c2_ordinary():
    c2 = build_datum("C", 2)
    p = profile_from_newton(c2.cochar([F(1, 2), F(1, 2)]), 4)
    assert p.slopes == (1, 0) and p.mults == (2, 2) and p.polarized


def test_profile_from_newton_c2_almost_ordinary():
    p = profile_from_newton([F(1, 2), F(0)], 4)
    assert p.slopes == (1, F(1, 2), 0) and p.mults == (1, 2, 1)


def test_profile_from_newton_supersingular():
    p = profile_from_newton([F(1, 2)] * 4, 4)
    assert p.slopes == (F(1, 2),) and p.mults == (4,)
    q = profile_from_newton([F(0), F(0)], 4)
    assert q.slopes == (F(1, 2),) and q.mults == (4,)


def test_profile_from_newton_rejects_bad_inputs():
    with pytest.raises(ValueError):
        profile_from_newton([F(1), F(0), F(0)], 4)  # length mismatch
    with pytest.raises(ValueError):
        profile_from_newton([F(2), F(0)], 2)  # slope outside [0, 1]


def test_degrees_examples():
    dd = degrees(SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1)))
    assert dd.d == (1, 2, 2)
    assert dd.delta == F(1, 8)
    dd = degrees(SlopeProfile((F(1), F(0)), (1, 1)))
    assert dd.d == (1, 1) and dd.delta == F(1, 4)
    dd = degrees(SlopeProfile((F(2, 5),), (3,)))
    assert dd.d == (F(6, 5),) and dd.delta is None


def test_degree_totals():
    for slopes, mults in [
        ((F(1), F(0)), (3, 3)),
        ((F(1), F(3, 4), F(1, 4), F(0)), (1, 2, 2, 1)),
    ]:
        p = SlopeProfile(slopes, mults, polarized=True)
        dd = degrees(p)
        assert dd.d[-1] == sum(m * s for m, s in zip(mults, slopes))
        assert dd.d[-1] == F(p.total_height, 2)


def test_max_degree_bound_examples():
    p = SlopeProfile((F(1), F(0)), (1, 1))
    assert max_degree_bound(p, 0) == 0
    q = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))
    assert max_degree_bound(q, 2) == F(3, 2)
    assert max_degree_bound(q, 4) == 2
    with pytest.raises(ValueError):
        max_degree_bound(q, 5)


def test_max_degree_bound_concave_monotone():
    p = SlopeProfile((F(1), F(2, 3), F(1, 3), F(0)), (2, 1, 1, 2), polarized=True)
    values = [max_degree_bound(p, h) for h in range(p.total_height + 1)]
    dd = degrees(p)
    for i, h in enumerate(p.heights):
        assert values[h] == dd.d[i]
    assert all(a <= b for a, b in zip(values, values[1:]))
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))  # concavity


def test_max_degree_bound_vs_bruteforce_allocation():
    # independent: maximize degree over all multisets of h slopes
    import itertools

    p = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1))
    pool = [s for s, m in zip(p.slopes, p.mults) for _ in range(m)]
    for h in range(len(pool) + 1):
        best = max(
            (sum(c) for c in itertools.combinations(pool, h)), default=F(0)
        )
        assert max_degree_bound(p, h) == best


def test_check_uniqueness_examples():
    dd = degrees(SlopeProfile((F(1), F(0)), (1, 1)))
    assert check_uniqueness(dd, 1) == (True, None)
    dd = degrees(SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1)))
    assert check_uniqueness(dd, 2) == (True, None)
    single = degrees(SlopeProfile((F(1, 2),), (4,)))
    assert check_uniqueness(single, 1) == (True, None)
    with pytest.raises(ValueError):
        check_uniqueness(dd, 4)


def test_next_to_max_c2():
    p = SlopeProfile((F(1), F(0)), (2, 2), polarized=True)
    s = next_to_max_profile(p, 1, 1)
    assert s.slopes == (1, F(1, 2), 0) and s.mults == (1, 2, 1)
    assert s.polarized
    assert s.origin == (p, 1, 1)


def test_next_to_max_middle_symmetric():
    # r even, i = r/2: single self-dual insertion at slope 1/2
    p = SlopeProfile((F(3, 4), F(1, 4)), (3, 3), polarized=True)
    s = next_to_max_profile(p, 1, 2)
    assert s.slopes == (F(3, 4), F(1, 2), F(1, 4)) and s.mults == (1, 4, 1)


def test_next_to_max_drops_exhausted_slopes():
    p = SlopeProfile((F(1), F(0)), (1, 1), polarized=True)
    s = next_to_max_profile(p, 1, 1)
    assert s.slopes == (F(1, 2),) and s.mults == (2,)


def test_next_to_max_adjacent_insertions():
    # r = 3, i = 1: insertion slots 1 and 2 are adjacent, so the middle
    # multiplicity is reduced from both sides and drops out entirely
    p = SlopeProfile((F(1), F(1, 2), F(0)), (2, 2, 2), polarized=True)
    s = next_to_max_profile(p, 1, 1)
    assert s.slopes == (1, F(3, 4), F(1, 4), 0)
    assert s.mults == (1, 2, 2, 1)
    assert modified_degrees(s) == degrees(s).d


def test_next_to_max_rejects_bad_input():
    p = SlopeProfile((F(1), F(0)), (2, 2), polarized=True)
    with pytest.raises(ValueError):
        next_to_max_profile(p, 1, 3)  # split too large
    with pytest.raises(ValueError):
        next_to_max_profile(p, 2, 1)  # index out of range
    unpolarized = SlopeProfile((F(1), F(0)), (2, 2))
    with pytest.raises(ValueError):
        next_to_max_profile(unpolarized, 1, 1)


def test_next_to_max_lowers_polygon_strictly():
    from newtonkit.oracles import polygon_leq

    p = SlopeProfile((F(1), F(2, 3), F(1, 3), F(0)), (2, 2, 2, 2), polarized=True)
    for i in (1, 2, 3):
        s = next_to_max_profile(p, i, 1)
        assert polygon_leq(s, p)
        assert any(
            max_degree_bound(s, h) < max_degree_bound(p, h)
            for h in range(p.total_height + 1)
        )
        assert not polygon_leq(p, s)


def test_modified_degrees_example():
    p = SlopeProfile((F(1), F(0)), (2, 2), polarized=True)
    s = next_to_max_profile(p, 1, 1)
    mods = modified_degrees(s)
    # s_1 = d_1 - dh*l_1 = 1, s'_1 = d_1 + dh*l_2 = 2, s_2 = d_2 = 2
    assert mods == (1, 2, 2)
    assert mods == degrees(s).d


def test_modified_degrees_requires_provenance():
    p = SlopeProfile((F(1), F(1, 2), F(0)), (1, 2, 1), polarized=True)
    with pytest.raises(ValueError):
        modified_degrees(p)


def test_polarized_envelope_complement_identity():
    # degree of the top-h part plus degree of the dual of the quotient
    # equals h: bound(h) + (total_height - h) - (total_deg - bound(h)) is
    # the dual degree, so bound(H - h) = total_deg - h + bound(h)
    from conftest import polarized_profiles

    for p in polarized_profiles(max_n=4, max_r=4):
        total_deg = degrees(p).d[-1]
        H = p.total_height
        for h in range(H + 1):
            assert max_degree_bound(p, H - h) == total_deg - h + max_degree_bound(p, h)
        for i0 in range(1, p.r):
            if any(
                p.mults[j - 1] < sum(1 for s in {i0, p.r - i0} if j in (s, s + 1))
                for j in range(1, p.r + 1)
            ):
                continue
            split = next_to_max_profile(p, i0, 1)
            sH = split.total_height
            s_total = degrees(split).d[-1]
            for h in range(sH + 1):
                assert max_degree_bound(split, sH - h) == (
                    s_total - h + max_degree_bound(split, h)
                )


def test_modified_degrees_agree_with_split_fold():
    cases = [
        ((F(1), F(0)), (4, 4), 1, 2),
        ((F(1), F(3, 4), F(1, 4), F(0)), (3, 2, 2, 3), 1, 1),
        ((F(1), F(3, 4), F(1, 4), F(0)), (3, 2, 2, 3), 2, 1),
        ((F(1), F(3, 4), F(1, 4), F(0)), (2, 1, 1, 2), 3, 1),
        ((F(1), F(1, 2), F(0)), (2, 2, 2), 1, 1),
    ]
    for slopes, mults, i0, dh in cases:
        p = SlopeProfile(slopes, mults, polarized=True)
        s = next_to_max_profile(p, i0, dh)
        assert modified_degrees(s) == degrees(s).d, (slopes, mults, i0, dh)


def _uniqueness_by_scan(dd, i):
    """check_uniqueness by testing every height below h_i."""
    profile = dd.profile
    h_i = profile.heights[i - 1]
    threshold = 2 * (dd.d[i - 1] - dd.delta)
    for h in range(0, h_i):
        if 2 * h_i - h > profile.total_height:
            continue
        if threshold < max_degree_bound(profile, h) + max_degree_bound(profile, 2 * h_i - h):
            return False, h
    return True, None


def test_check_uniqueness_bisection_matches_the_scan():
    import random

    from newtonkit.muordinary import DegreeData

    rng = random.Random(4099)
    violating = 0
    for _ in range(400):
        slopes = sorted({F(rng.randint(0, 12), 12) for _ in range(rng.randint(2, 5))},
                        reverse=True)
        if len(slopes) < 2:
            continue
        profile = SlopeProfile(tuple(slopes), tuple(rng.randint(1, 7) for _ in slopes))
        dd = degrees(profile)
        for delta in (dd.delta, F(1, 12), F(1, 2), F(5, 3), F(40, 12)):
            hand = DegreeData(profile, dd.d, delta)
            for i in range(1, profile.r + 1):
                expected = _uniqueness_by_scan(hand, i)
                assert check_uniqueness(hand, i) == expected, (profile, delta, i)
                violating += not expected[0]
    assert violating > 100
    with pytest.raises(ValueError):
        check_uniqueness(DegreeData(profile, dd.d, F(0)), 1)
    with pytest.raises(ValueError):
        check_uniqueness(DegreeData(profile, dd.d, F(-1, 4)), 1)
