import random
from fractions import Fraction as F

import pytest

from conftest import valuation_product
from newtonkit.hecke import (
    HeckeValuation,
    c_constant,
    epsilon_prime_valuations,
    filtration_element,
    gl_upper_roots,
    hasse_number,
    lambda_g_valuation,
    m_epsilon_valuation,
    n_g_constant,
    siegel_radical_roots,
)


def _antisymmetric(e):
    """Is the full vector anti-symmetric about s/2?"""
    return all(x + y == e.s for x, y in zip(e.full, reversed(e.full)))


def test_valuation_invariants():
    e = HeckeValuation.from_blocks([0, 1], 1, 3)
    assert e.full == (0, 1, 0, 1)
    assert _antisymmetric(e)
    with pytest.raises(ValueError):
        HeckeValuation.from_blocks([1, 0], 1, 3)  # not weakly increasing
    with pytest.raises(ValueError):
        HeckeValuation.from_blocks([-1, 0], 1, 3)  # negative
    with pytest.raises(ValueError):
        HeckeValuation.from_blocks([0, 1], 1, 2)  # p too small


@pytest.mark.parametrize("p", [1, 4, 9, 15])
def test_every_valuation_needs_a_prime_p(p):
    # one primality check in HeckeValuation covers every constructor and the
    # constants built from filtration elements
    with pytest.raises(ValueError, match="prime"):
        HeckeValuation.from_blocks([0, 1], 1, p)
    with pytest.raises(ValueError, match="prime"):
        HeckeValuation((F(0), F(1), F(0), F(1)), F(1), p)
    with pytest.raises(ValueError, match="prime"):
        filtration_element(2, 4, p)
    with pytest.raises(ValueError, match="prime"):
        n_g_constant([(2, F(2))], p, dim_v=4)
    with pytest.raises(ValueError, match="prime"):
        c_constant([(2, F(2))], siegel_radical_roots(2, lower=False), p, dim_v=4)


def test_valuation_entries_are_exact_rationals():
    with pytest.raises(TypeError, match="not an exact rational"):
        HeckeValuation((0.5, 0.5), 1.0, 3)
    with pytest.raises(TypeError, match="not an exact rational"):
        HeckeValuation((F(1, 2), F(1, 2)), 1.0, 3)
    e = HeckeValuation(["1/2", "1/2"], "1", 3)
    assert e.full == (F(1, 2), F(1, 2)) and e.s == F(1)
    assert m_epsilon_valuation(e, [(1, -1)]) == 0


def test_m_epsilon_examples():
    assert m_epsilon_valuation([1, 0], gl_upper_roots(2)) == 1
    e = HeckeValuation.from_blocks([0, 0], 1, 3)
    assert m_epsilon_valuation(e, siegel_radical_roots(2)) == 3
    identity = HeckeValuation.from_blocks([0, 0], 0, 3)
    assert m_epsilon_valuation(identity, siegel_radical_roots(2)) == 0


def test_m_epsilon_rejects_negative_pairing():
    with pytest.raises(ValueError):
        m_epsilon_valuation([0, 1], gl_upper_roots(2))
    with pytest.raises(ValueError):
        m_epsilon_valuation([1, 0], [(1, 0, 0)])  # dimension mismatch


def test_m_epsilon_additivity():
    rng = random.Random(5)
    roots = siegel_radical_roots(3)
    for _ in range(50):
        t1 = sorted(rng.randint(0, 2) for _ in range(3))
        t2 = sorted(rng.randint(0, 2) for _ in range(3))
        s1, s2 = 2 * max(t1) + rng.randint(0, 2), 2 * max(t2) + rng.randint(0, 2)
        e1 = HeckeValuation.from_blocks(t1, s1, 3)
        e2 = HeckeValuation.from_blocks(t2, s2, 3)
        prod = valuation_product(e1, e2)
        assert m_epsilon_valuation(prod, roots) == (
            m_epsilon_valuation(e1, roots) + m_epsilon_valuation(e2, roots)
        )


def test_x_epsilon_matches_m_epsilon_and_multiplies():
    # x_eps, the number of single cosets in the double coset of eps, is the
    # unipotent index that m_epsilon_valuation counts
    roots = siegel_radical_roots(2)
    e = HeckeValuation.from_blocks([0, 1], 2, 3)
    assert m_epsilon_valuation(e, roots) == 3  # (2 - 0) + (2 - 1) + (1 - 1)
    identity = HeckeValuation.from_blocks([0, 0], 0, 3)
    assert m_epsilon_valuation(identity, roots) == 0
    siegel = HeckeValuation.from_blocks([0, 0], 1, 3)
    assert m_epsilon_valuation(siegel, roots) == 3
    ee = valuation_product(e, e)
    assert m_epsilon_valuation(ee, roots) == 2 * m_epsilon_valuation(e, roots)


def test_lambda_g_examples():
    assert lambda_g_valuation(HeckeValuation.from_blocks([0, 0], 0, 3)) == 0
    assert lambda_g_valuation(HeckeValuation.from_blocks([1, 1], 7, 3)) == 2
    assert lambda_g_valuation(HeckeValuation.from_blocks([0, 1], 1, 3)) == 1


def test_lambda_g_additive():
    rng = random.Random(9)
    for _ in range(30):
        t1 = sorted(rng.randint(0, 3) for _ in range(3))
        t2 = sorted(rng.randint(0, 3) for _ in range(3))
        e1 = HeckeValuation.from_blocks(t1, max(t1) + 1, 5)
        e2 = HeckeValuation.from_blocks(t2, max(t2) + 1, 5)
        assert lambda_g_valuation(valuation_product(e1, e2)) == (
            lambda_g_valuation(e1) + lambda_g_valuation(e2)
        )


def test_filtration_element_layout():
    e = filtration_element(2, 4, 3)
    assert e.full == (1, 1, 0, 0) and e.s == 1
    assert _antisymmetric(e)
    with pytest.raises(ValueError):
        filtration_element(5, 4, 3)


def test_epsilon_prime_examples():
    base = filtration_element(2, 4, 3)
    assert epsilon_prime_valuations(2, 1, base).full == base.full
    perturbed = epsilon_prime_valuations(2, F(3, 2), base)
    assert perturbed.full == (F(3, 2), 1, F(-1, 2), 0)
    # the two added terms cancel: entry sum is preserved
    assert sum(perturbed.full) == sum(base.full)
    # multiset of entries stays symmetric about s/2
    centered = sorted(x - base.s / 2 for x in perturbed.full)
    assert centered == sorted(-x for x in centered)


def test_epsilon_prime_slot_clamp_when_h_is_one():
    base = filtration_element(1, 2, 3)
    out = epsilon_prime_valuations(1, 1, base)
    assert out.full == base.full
    out = epsilon_prime_valuations(1, F(1, 2), base)
    assert out.full == (F(1, 2), F(1, 2))


def test_epsilon_prime_rejects_bad_degree():
    base = filtration_element(2, 4, 3)
    with pytest.raises(ValueError):
        epsilon_prime_valuations(2, 0, base)
    with pytest.raises(ValueError):
        epsilon_prime_valuations(2, 3, base)


def test_n_g_toy_elliptic():
    # dim V = 2, slopes (1,0): one proper step (h, d) = (1, 1)
    assert n_g_constant([(1, F(1))], 3, dim_v=2) == 1


def test_n_g_c2_positive():
    val = n_g_constant([(2, F(2))], 3, dim_v=4)
    assert val > 0
    c_val = c_constant([(2, F(2))], siegel_radical_roots(2, lower=False), 3, dim_v=4)
    assert c_val > 0


def test_n_g_positive_all_polarized_profiles():
    from conftest import polarized_profiles
    from newtonkit.muordinary import degrees

    checked = 0
    for p in polarized_profiles(max_n=5, max_r=4):
        dd = degrees(p)
        steps = list(zip(p.heights, dd.d))[:-1]
        if not steps:
            continue
        assert n_g_constant(steps, 3, dim_v=p.total_height) > 0, p
        checked += 1
    assert checked > 50


def test_n_g_degenerate_profile_errors():
    with pytest.raises(ValueError):
        n_g_constant([], 3, dim_v=4)
    with pytest.raises(ValueError):
        c_constant([], siegel_radical_roots(2), 3, dim_v=4)


def test_hasse_number_values():
    assert hasse_number(1, 3) == 2
    assert hasse_number(2, 3) == 8
    assert hasse_number(3, 5) == 124
    with pytest.raises(ValueError):
        hasse_number(0, 3)
    with pytest.raises(ValueError):
        hasse_number(2, 9)
    with pytest.raises(ValueError):
        hasse_number(2, 2)


def test_hasse_number_digit_limit():
    # 3^9012 - 1 has 4300 digits, 3^9013 - 1 has 4301
    assert len(str(hasse_number(9012, 3))) == 4300
    for w, p in [(9013, 3), (10 ** 9, 3), (900, 10 ** 18 + 3)]:
        with pytest.raises(ValueError, match="4300 digits"):
            hasse_number(w, p)


def _accepts_p(p):
    try:
        hasse_number(1, p)
    except ValueError:
        return False
    return True


def test_hasse_primality_matches_sympy_below_1e5():
    sympy = pytest.importorskip("sympy")
    wrong = [p for p in range(100000) if _accepts_p(p) != (p >= 3 and sympy.isprime(p))]
    assert wrong == []


def test_hasse_primality_large_and_pseudoprimes():
    from newtonkit.hecke import HASSE_P_BOUND

    sympy = pytest.importorskip("sympy")
    primes = [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, sympy.prevprime(HASSE_P_BOUND)]
    for p in primes:
        assert sympy.isprime(p) and hasse_number(1, p) == p - 1
    # Carmichael numbers, and strong pseudoprimes to every prime base up to
    # 23 and up to 37 (the second needs base 41 to be caught)
    composites = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  3825123056546413051, 318665857834031151167461]
    for n in composites:
        assert not sympy.isprime(n) and not _accepts_p(n)
    for p in (HASSE_P_BOUND, sympy.nextprime(HASSE_P_BOUND), 10 ** 400 + 267):
        with pytest.raises(ValueError, match="below"):
            hasse_number(1, p)


def test_siegel_roots_count():
    assert len(siegel_radical_roots(2)) == 3
    assert len(siegel_radical_roots(3)) == 6
    lower = siegel_radical_roots(2, lower=True)
    upper = siegel_radical_roots(2, lower=False)
    assert {tuple(-x for x in r) for r in lower} == set(upper)
