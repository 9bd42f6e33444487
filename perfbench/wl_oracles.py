"""oracles: one reference-implementation call per operation, of the kinds
verify-all makes.

The literal oracles back the acceptance tests and verify-all, and no other
workload calls them.  Sizes are chosen so that no single call dominates a
round: the grid oracle runs on the special nodes at rank <= 3 whose scan
stays near 0.1 s (A3 and B3, and D3 node 1, take 0.5-2 s each and are left
out), and the marking path of the coset count stays at groups of at most
729 elements (one Siegel-2 count at p=3, k=3 takes 14 s by itself).
"""

from __future__ import annotations

import random
from fractions import Fraction

import newtonkit as nk
from newtonkit import oracles

import checks
from harness import Op, query_op

GRID_CASES = [("A", 1, 1), ("A", 2, 1), ("A", 2, 2), ("B", 2, 1), ("C", 2, 2),
              ("C", 3, 3), ("D", 3, 2), ("D", 3, 3)]
# (type, rank, pairs): the rank-2 pairs outnumber the rank-3 ones, so that
# the median latency falls inside the cluster of rank-2 hull calls rather
# than on the edge between it and the seed-dependent rank-3 calls.
HULL_CASES = [("A", 2, 16), ("B", 2, 16), ("C", 2, 16), ("G2", 2, 16),
              ("A", 3, 8), ("B", 3, 8), ("C", 3, 8), ("D", 3, 8)]
# (shape, p, k): groups of p^(k * parameters) elements up to 1e5 are counted
# by marking cosets, larger ones by the per-parameter exponents.
COSETS = [("gl2", 3, 2), ("gl2", 3, 3), ("gl2", 3, 4), ("gl2", 5, 2), ("gl2", 5, 3),
          ("gl2", 7, 2), ("gl3", 3, 1), ("gl3", 5, 1), ("gl3", 3, 2), ("siegel2", 3, 1),
          ("siegel2", 5, 1), ("siegel2", 3, 2),
          ("gl3", 7, 2), ("gl3", 3, 4), ("gl3", 5, 3), ("gl3", 3, 5),
          ("siegel2", 7, 2), ("siegel2", 3, 4), ("siegel2", 5, 3), ("siegel2", 5, 4)]
POLYGON_PAIRS = 8
FIELDS = [(p, w) for p in (3, 5, 7, 11, 13) for w in range(1, 6) if p ** w <= 243]
MIN_ROUNDS = 3


def _shape(name):
    if name == "siegel2":
        return oracles.siegel_shape(2)
    return oracles.upper_unipotent_shape(int(name[-1]))


def _valuations(rng, name, k):
    """Valuations the shape preserves, pairing non-negatively with its roots,
    spread less than k."""
    if name == "siegel2":
        t1 = rng.randint(0, k - 1)
        t2 = rng.randint(t1, t1 + (k - 1) // 2)
        s = rng.randint(2 * t2, 2 * t1 + k - 1)
        return [t1, t2, s - t2, s - t1]
    top = rng.randint(0, k - 1)
    size = int(name[-1])
    return [top] + sorted((rng.randint(0, top) for _ in range(size - 1)), reverse=True)


def build(seed: int):
    rng = random.Random(seed)
    queries = []
    for t, n, k in GRID_CASES:
        datum = nk.build_datum(t, n)
        queries.append(("grid", (t, n, k, datum.cochar(nk.fundamental_coweights(datum)[k - 1]))))
    for t, n, pairs in HULL_CASES:
        datum = nk.build_datum(t, n)
        for _ in range(pairs):
            pair = [nk.dominant_representative(datum.cochar(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                 for _ in range(datum.ambient_dim)])) for _ in range(2)]
            queries.append(("hull", (t, datum, *pair)))
    for name, p, k in COSETS:
        queries.append(("coset", (name, _valuations(rng, name, k), _shape(name), p, k)))
    for _ in range(POLYGON_PAIRS):
        n = rng.randint(1, 4)
        mults = (n, n)
        i, dh = 1, rng.randint(1, n)
        profile = nk.SlopeProfile((Fraction(1), Fraction(0)), mults, polarized=True)
        if rng.random() < 0.5:
            half = rng.choice([(Fraction(1, 2), Fraction(1, 6)), (Fraction(1, 3), Fraction(0))])
            slopes, mults = checks.profile(half + (Fraction(0),) * (n - 1))
            valid = [(a, b) for a in range(1, len(slopes)) for b in range(1, max(mults) + 1)
                     if checks.split_is_valid(mults, a, b)]
            if valid:
                i, dh = rng.choice(valid)
                profile = nk.SlopeProfile(slopes, mults, polarized=True)
        split = nk.next_to_max_profile(profile, i, dh)
        queries.append(("polygon", (split, profile)))
        queries.append(("polygon", (profile, split)))
    for p, w in FIELDS:
        queries.append(("exponent", (p, w)))
    rng.shuffle(queries)
    return queries


def _grid_expect(t, n, k, mu):
    """The fast path's set; in types A and C also the polygon model."""
    fast = set(nk.enumerate_bgmu(mu).points())
    if t == "A":
        return fast, checks.type_a_points(n, k)
    if t == "C" and k == n:
        return fast, checks.type_c_points(n)
    return fast, fast


def _hull_expect(t, datum, x, y):
    return nk.newton_leq(x, y), checks.newton_leq(t, datum.simple_roots, x.coords, y.coords)


def _coset_expect(name, full, shape, p, k):
    roots = (nk.hecke.siegel_radical_roots(2) if name == "siegel2"
             else nk.hecke.gl_upper_roots(len(full)))
    fast = nk.m_epsilon_valuation(full, roots)
    own = checks.siegel_root_sum(full) if name == "siegel2" else checks.gl_root_sum(full)
    return p ** fast.numerator if fast.denominator == 1 else None, p ** own.numerator


def _polygon_expect(a, b):
    return checks.polygon_below((a.slopes, a.mults), (b.slopes, b.mults))


KINDS = {
    "grid": (lambda t, n, k, mu: oracles.grid_enumerate_bgmu(mu), _grid_expect,
             lambda got, want: got == want[0] == want[1]),
    "hull": (lambda t, datum, x, y: oracles.convex_hull_membership(x, y), _hull_expect,
             lambda got, want: got == want[0] == want[1]),
    "coset": (lambda name, full, shape, p, k: oracles.coset_count_bruteforce(full, shape, p, k),
              _coset_expect, lambda got, want: got == want[0] == want[1]),
    "polygon": (lambda a, b: oracles.polygon_leq(a, b), _polygon_expect,
                lambda got, want: got == want),
    "exponent": (lambda p, w: oracles.multiplicative_group_exponent(p, w),
                 lambda p, w: (nk.hasse_number(w, p), p ** w - 1),
                 lambda got, want: got == want[0] == want[1]),
}


def ops(seed: int) -> list[Op]:
    return [query_op(f"{kind}/{i}", *KINDS[kind], args)
            for i, (kind, args) in enumerate(build(seed))]
