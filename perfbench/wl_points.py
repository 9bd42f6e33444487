"""points: one small query per operation, on seeded random inputs.

Queries are interleaved across all nine types at ranks 1-8 (E8, F4 and G2
included), so the root datum changes from one call to the next: per-call
overhead and any per-datum set-up or cache cost show here even when they
pay off in strata.  It is also the only workload that loads muordinary and
hecke.  The root data are built once, in set-up.
"""

from __future__ import annotations

import random
from fractions import Fraction

import newtonkit as nk

import checks
from harness import Op, query_op

DATA = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
        + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
LEQ_PER_DATUM = 2
MEMBERSHIP_PER_DATUM = 3
PROFILES = 12
SPLITS = 12
M_EPSILON = 10
LAMBDA_G = 6
N_G = 6
C_CONSTANT = 6
HASSE = 8
PRIMES = [p for p in range(3, 100) if checks.is_prime(p)]
P = 3
SCRAMBLE = 6      # longest word of simple reflections applied to a leq input
MIN_ROUNDS = 3


def _small(rng, lo, hi, dens=(1, 1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _combination(base, coeffs, coroots):
    out = list(base)
    for c, cv in zip(coeffs, coroots):
        for t, x in enumerate(cv):
            out[t] += c * x
    return tuple(out)


def _scramble(rng, v, roots, coroots):
    """v moved by a short random word of simple reflections."""
    v = list(v)
    for _ in range(rng.randint(0, SCRAMBLE)):
        i = rng.randrange(len(roots))
        c = sum((a * b for a, b in zip(v, roots[i])), Fraction(0))
        v = [a - c * b for a, b in zip(v, coroots[i])]
    return tuple(v)


def symmetric_polygon_half(rng, n: int) -> tuple[Fraction, ...]:
    """A random symmetric concave lattice polygon from (0,0) to (2n, n),
    returned as the upper half of its slopes minus 1/2."""
    values, last, width = [], Fraction(2), rng.randint(0, n)
    while width:
        w = rng.randint(1, width)
        options = [h for h in range(w + 1) if checks.HALF < Fraction(h, w) < last]
        if not options:
            break
        h = rng.choice(options)
        last = Fraction(h, w)
        values += [last - checks.HALF] * w
        width -= w
    return tuple(values) + (Fraction(0),) * (n - len(values))


def _polarized(rng, min_slopes=1):
    while True:
        n = rng.randint(1, 8)
        half = symmetric_polygon_half(rng, n)
        slopes, mults = checks.profile(half)
        if len(slopes) >= min_slopes:
            return n, half, slopes, mults


def build(seed: int):
    """Root data and every query's arguments; returns (kind, args) pairs."""
    rng = random.Random(seed)
    queries = []
    for t, n in DATA:
        datum = nk.build_datum(t, n)
        roots, coroots = datum.simple_roots, datum.simple_coroots
        coweights = nk.fundamental_coweights(datum)
        ones = (Fraction(1),) * datum.ambient_dim if t in ("A", "G2") else None
        for j in range(LEQ_PER_DATUM):
            x = _combination((0,) * datum.ambient_dim,
                             [_small(rng, 0, 3) for _ in coweights], coweights)
            y = _combination(x, [_small(rng, -1, 2) for _ in coroots], coroots)
            if ones and rng.random() < 0.25:  # unequal parts orthogonal to the roots
                y = _combination(y, [Fraction(1, 5)], [ones])
            queries.append(("leq", (t, datum, _scramble(rng, x, roots, coroots),
                                    _scramble(rng, y, roots, coroots))))
        for j in range(MEMBERSHIP_PER_DATUM):
            k = rng.randint(1, n)
            if j == 0:    # below the top by a few coroots: mostly not dominant
                nu = _combination(coweights[k - 1], [-rng.choice(
                    [0, 0, 1, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)])
                    for _ in coroots], coroots)
            elif j == 1:  # dominant by construction
                nu = _combination((0,) * datum.ambient_dim, [rng.choice(
                    [0, 0, 0, Fraction(1, 2), Fraction(1, 3), 1, 2]) for _ in coweights],
                    coweights)
            else:         # on the ray of the top point
                nu = _combination((0,) * datum.ambient_dim,
                                  [rng.choice([0, 1, Fraction(1, 2), Fraction(2, 3)])],
                                  [coweights[k - 1]])
            if ones and rng.random() < 0.3:
                nu = _combination(nu, [Fraction(1, 7)], [ones])
            queries.append(("membership", (t, datum, k, datum.cochar(nu))))
    for _ in range(PROFILES):
        n, half, _, _ = _polarized(rng)
        queries.append(("uniqueness", (n, half)))
    for _ in range(SPLITS):
        while True:
            _, _, slopes, mults = _polarized(rng, min_slopes=2)
            valid = [(i, dh) for i in range(1, len(slopes)) for dh in range(1, max(mults) + 1)
                     if checks.split_is_valid(mults, i, dh)]
            if valid:
                break
        i, dh = rng.choice(valid)
        profile = nk.SlopeProfile(slopes, mults, polarized=True)
        queries.append(("split", (slopes, mults, profile, i, dh)))
    for j in range(M_EPSILON):
        if j % 5 < 3:
            n = rng.randint(1, 4)
            ts = sorted(_small(rng, 0, 6, (1, 2)) for _ in range(n))
            s = 2 * ts[-1] + _small(rng, 0, 4, (1, 2))
            roots = nk.hecke.siegel_radical_roots(n)
            queries.append(("m_epsilon_siegel", (ts, s, roots)))
        else:
            size = rng.randint(2, 5)
            full = sorted((Fraction(rng.randint(0, 5)) for _ in range(size)), reverse=True)
            queries.append(("m_epsilon_gl", (full, nk.hecke.gl_upper_roots(size))))
    for _ in range(LAMBDA_G):
        n = rng.randint(1, 4)
        ts = sorted(_small(rng, 0, 6, (1, 2)) for _ in range(n))
        queries.append(("lambda_g", (ts, 2 * ts[-1])))
    for _ in range(N_G):
        n, _, slopes, mults = _polarized(rng, min_slopes=2)
        queries.append(("n_g", (_steps(slopes, mults), 2 * n)))
    for _ in range(C_CONSTANT):
        while True:
            n, _, slopes, mults = _polarized(rng, min_slopes=2)
            lower = rng.random() < 0.5
            if checks.c_value(_steps(slopes, mults), 2 * n, lower) is not None:
                break
        roots = nk.hecke.siegel_radical_roots(n, lower=lower)
        queries.append(("c_constant", (_steps(slopes, mults), 2 * n, lower, roots)))
    for _ in range(HASSE):
        queries.append(("hasse", (rng.randint(1, 8), rng.choice(PRIMES))))
    rng.shuffle(queries)
    return queries


def _steps(slopes, mults):
    """Proper canonical steps (h_i, d_i), i < r, of a profile."""
    d = checks.fold(slopes, mults)
    heights = [sum(mults[: i + 1]) for i in range(len(mults))]
    return [(heights[i], d[i]) for i in range(len(slopes) - 1)]


# ---------------------------------------------------------------- queries
# Each kind maps to (operation, expectation, comparison); the expectation
# is computed once, by the benchmark's own code, the first time it is needed.

def _leq_run(t, datum, x0, y0):
    x = nk.dominant_representative(datum.cochar(x0))
    y = nk.dominant_representative(datum.cochar(y0))
    return x.coords, y.coords, nk.newton_leq(x, y)


def _leq_expect(t, datum, x0, y0):
    roots = datum.simple_roots
    x = checks.dominant_rep(t, roots, x0)
    y = checks.dominant_rep(t, roots, y0)
    return x, y, checks.newton_leq(t, roots, x, y)


def _membership_run(t, datum, k, nu):
    mu = datum.cochar(nk.fundamental_coweights(datum)[k - 1])
    return nk.is_in_bgmu(nu, nk.galois_average(mu))


def _membership_expect(t, datum, k, nu):
    roots = datum.simple_roots
    return checks.membership(t, roots, nu.coords, checks.fundamental_coweight(roots, k))


def _membership_same(got, want):
    ok, detail = got
    if ok != want[0]:
        return False
    if ok:
        return (tuple(detail[0]), detail[1]) == want[1]
    return checks.reason_code(detail) == want[1]


def _uniqueness_run(n, half):
    profile = nk.profile_from_newton(half, 2 * n)
    dd = nk.degrees(profile)
    verdicts = [nk.check_uniqueness(dd, i) for i in range(1, profile.r + 1)]
    return profile.slopes, profile.mults, dd.d, dd.delta, verdicts


def _uniqueness_expect(n, half):
    slopes, mults = checks.profile(half)
    return (slopes, mults, checks.fold(slopes, mults), checks.margin(slopes),
            [(True, None)] * len(slopes))


def _split_run(slopes, mults, profile, i, dh):
    split = nk.next_to_max_profile(profile, i, dh)
    return split.slopes, split.mults, tuple(nk.modified_degrees(split))


def _split_expect(slopes, mults, profile, i, dh):
    s, m = checks.split(slopes, mults, i, dh)
    return s, m, checks.fold(s, m)


def _equal(got, want):
    return got == want


def _full(ts, s):
    return list(ts) + [s - x for x in reversed(ts)]


KINDS = {
    "leq": (_leq_run, _leq_expect, _equal),
    "membership": (_membership_run, _membership_expect, _membership_same),
    "uniqueness": (_uniqueness_run, _uniqueness_expect, _equal),
    "split": (_split_run, _split_expect, _equal),
    "m_epsilon_siegel": (
        lambda ts, s, roots: nk.m_epsilon_valuation(
            nk.HeckeValuation.from_blocks(ts, s, P), roots),
        lambda ts, s, roots: checks.siegel_root_sum(_full(ts, s)), _equal),
    "m_epsilon_gl": (
        lambda full, roots: nk.m_epsilon_valuation(full, roots),
        lambda full, roots: checks.gl_root_sum(full), _equal),
    "lambda_g": (
        lambda ts, s: nk.lambda_g_valuation(nk.HeckeValuation.from_blocks(ts, s, P)),
        lambda ts, s: sum(ts, Fraction(0)), _equal),
    "n_g": (
        lambda steps, dim: nk.n_g_constant(steps, P, dim_v=dim),
        lambda steps, dim: checks.n_g(steps, dim), _equal),
    "c_constant": (
        lambda steps, dim, lower, roots: nk.c_constant(steps, roots, P, dim_v=dim),
        lambda steps, dim, lower, roots: checks.c_value(steps, dim, lower), _equal),
    "hasse": (
        lambda w, p: nk.hasse_number(w, p),
        lambda w, p: p ** w - 1, _equal),
}


def ops(seed: int) -> list[Op]:
    return [query_op(f"{kind}/{i}", *KINDS[kind], args)
            for i, (kind, args) in enumerate(build(seed))]
