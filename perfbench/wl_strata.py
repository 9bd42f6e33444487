"""strata: the full stratification of one (type, rank, special node).

One operation is enumerate_bgmu(mu) followed by
maximal_elements(., exclude_top=True), batch use of the paper's
combinatorics.  The cases keep ranks 1-7 and the costliest ones (A7 nodes
4 and 5, E7 node 7); the rest of the rank 6-7 cases of the acceptance list
are left out so that three whole rounds fit in a run.  The seed fixes the
order of the cases in a round.
"""

from __future__ import annotations

import random

import newtonkit as nk

import checks
from harness import Op

CASES = (
    [("A", n, k) for n in range(1, 7) for k in range(1, n + 1)]
    + [("A", 7, 4), ("A", 7, 5)]
    + [("B", n, 1) for n in range(2, 6)]
    + [("C", n, n) for n in range(2, 6)]
    + [("D", n, k) for n in range(3, 6) for k in (1, n - 1, n)]
    + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
)
RANK = {f"{t}{n}/{k}": n for t, n, k in CASES}
MIN_ROUNDS = 3
# Cases of rank <= 5 take at most 0.2 s; one pass over them runs
# LIGHT_PASSES times per round, spread between the costly cases, so that
# the median and the tail, which fall on them, rest on more samples than
# three rounds give.
LIGHT_RANK = 5
LIGHT_PASSES = 2


def build(seed: int):
    """Root data and mu for every case, in the seed's order."""
    cases = list(CASES)
    random.Random(seed).shuffle(cases)
    inputs = []
    for t, n, k in cases:
        datum = nk.build_datum(t, n)
        mu = datum.cochar(nk.fundamental_coweights(datum)[k - 1])
        inputs.append((t, n, k, datum, mu))
    return inputs


def stratify(mu):
    ks = nk.enumerate_bgmu(mu)
    return ks, nk.maximal_elements(ks, exclude_top=True)


def expectation(t, n, k, roots):
    """Top point, the maximal element below it, and (types A and C) the
    polygon model of the whole set."""
    mubar = checks.fundamental_coweight(roots, k)
    below = checks.below_top(roots, k)
    points = None
    if t == "A":
        points = checks.type_a_points(n, k)
    elif t == "C" and k == n:
        points = checks.type_c_points(n)
    return mubar, below, points


def check_stratification(t, roots, expected, out) -> str | None:
    mubar, below, points = expected
    ks, maximal = out
    got = [e.nu.coords for e in ks.elements]
    if ks.mubar.coords != mubar:
        return "mubar differs from the fundamental coweight"
    if {e.nu.coords for e in maximal} != {below}:
        return "maximal set below the top is not {mubar - coroot_k / 2}"
    if points is not None and (len(got) != len(points) or set(got) != points):
        return f"{len(got)} elements, polygon model has {len(points)}"
    for e in ks.elements:
        ok, cert = checks.membership(t, roots, e.nu.coords, mubar)
        if not ok or cert != (tuple(e.c), e.J):
            return f"element {e.nu.coords} fails the membership criterion"
    return None


def schedule(ops: list[Op]) -> list[int]:
    """One round: each costly case once, a light pass before each share."""
    light = [i for i, op in enumerate(ops) if RANK[op.key] <= LIGHT_RANK]
    heavy = [i for i, op in enumerate(ops) if RANK[op.key] > LIGHT_RANK]
    out = []
    for p in range(LIGHT_PASSES):
        out += light + heavy[p * len(heavy) // LIGHT_PASSES:(p + 1) * len(heavy) // LIGHT_PASSES]
    return out


def ops(seed: int) -> list[Op]:
    out = []
    for t, n, k, datum, mu in build(seed):
        roots = datum.simple_roots
        cache = {}

        def check(result, t=t, n=n, k=k, roots=roots, cache=cache):
            if not cache:
                cache["e"] = expectation(t, n, k, roots)
            return check_stratification(t, roots, cache["e"], result)

        out.append(Op(f"{t}{n}/{k}", lambda mu=mu: stratify(mu), check))
    return out
