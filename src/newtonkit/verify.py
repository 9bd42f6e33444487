"""The oracle cross-check matrix behind ``newtonkit verify-all``.

Each generator in CHECKS yields (name, passed) pairs, one per case, comparing
a fast path against the brute-force reference in ``oracles`` that shares no
code with it.  The CLI imports this module, and with it ``oracles``, only
when verify-all runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import hecke, kottwitz, muordinary, oracles, rootdata


def _node_mu(datum, k: int) -> rootdata.RationalCocharacter:
    return datum.cochar(rootdata.fundamental_coweights(datum)[k - 1])


def maximal_theorem():
    cases = [("A", n, k) for n in range(1, 5) for k in range(1, n + 1)]
    cases += [("B", n, 1) for n in (2, 3, 4)]
    cases += [("C", n, n) for n in (2, 3, 4)]
    cases += [("D", n, k) for n in (3, 4) for k in (1, n - 1, n)]
    for t, n, k in cases:
        datum = rootdata.build_datum(t, n)
        ks = kottwitz.enumerate_bgmu(_node_mu(datum, k))
        mx = kottwitz.maximal_elements(ks, exclude_top=True)
        half = Fraction(1, 2)
        expected = tuple(
            m - half * c
            for m, c in zip(ks.mubar.coords, datum.simple_coroots[k - 1])
        )
        yield f"maximal-element {t}{n} node {k}", {e.nu.coords for e in mx} == {expected}


def grid():
    for t, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                 ("C", 2), ("C", 3), ("D", 3)]:
        datum = rootdata.build_datum(t, n)
        for k in sorted(rootdata.special_roots(datum)):
            mu = _node_mu(datum, k)
            main = {e.nu.coords for e in kottwitz.enumerate_bgmu(mu).elements}
            yield f"grid-enumeration {t}{n} node {k}", main == oracles.grid_enumerate_bgmu(mu)


def order():
    rng = random.Random(1789)
    for t, n in [("A", 2), ("B", 2), ("C", 2), ("G2", 2), ("A", 3), ("C", 3)]:
        datum = rootdata.build_datum(t, n)
        agree = True
        for _ in range(60):
            pts = []
            for _ in range(2):
                coords = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in
                    range(datum.ambient_dim)
                )
                pts.append(rootdata.dominant_representative(
                    rootdata.RationalCocharacter(coords, datum)))
            x, y = pts
            agree &= kottwitz.newton_leq(x, y) == oracles.convex_hull_membership(x, y)
        yield f"order-vs-hull {t}{n} x60", agree


def coset_counts():
    shapes = [
        ("gl2", oracles.upper_unipotent_shape(2), hecke.gl_upper_roots(2),
         [(0, 0), (1, 0), (2, 1)]),
        ("siegel2", oracles.siegel_shape(2), hecke.siegel_radical_roots(2),
         [(0, 0, 1, 1), (0, 1, 1, 2), (1, 1, 1, 1)]),
    ]
    for name, shape, roots, val_list in shapes:
        for vals in val_list:
            p = 3
            k = max(vals) + 1
            count = oracles.coset_count_bruteforce(list(vals), shape, p, k)
            val = hecke.m_epsilon_valuation(list(vals), roots)
            yield (f"coset-count {name} {vals} p=3",
                   val.denominator == 1 and count == p ** int(val))


def polygons():
    for n in (1, 2, 3):
        profile = muordinary.SlopeProfile((Fraction(1), Fraction(0)), (n, n), polarized=True)
        for dh in range(1, n + 1):
            split = muordinary.next_to_max_profile(profile, 1, dh)
            envelopes = [oracles.polygon_envelope(q) for q in (split, profile)]
            fast = all(muordinary.max_degree_bound(q, h) == e
                       for q, env in zip((split, profile), envelopes) for h, e in enumerate(env))
            below = oracles.polygon_leq(split, profile)
            strict = envelopes[0] != envelopes[1]  # with below: strictly below somewhere
            mod = muordinary.modified_degrees(split)
            fold = muordinary.degrees(split).d
            yield f"polygon-split n={n} dh={dh}", below and strict and fast and mod == fold


def hasse_numbers():
    for p in (3, 5, 7, 11, 13):
        w = 1
        while p ** w <= 243:
            yield (f"hasse-number p={p} w={w}",
                   hecke.hasse_number(w, p) == oracles.multiplicative_group_exponent(p, w))
            w += 1


CHECKS = (maximal_theorem, grid, order, coset_counts, polygons, hasse_numbers)
