"""Brute-force reference implementations.

Everything here is deliberately independent of the fast paths it checks:
convex-hull membership runs an exact rational simplex over the materialized
Weyl orbit, the Kottwitz set is re-derived by scanning a denominator grid,
unipotent indices are counted from actual matrix conjugation, and polygon
comparison scans every integer height.  These routines back the test suite
and the CLI verify mode only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .hecke import HeckeValuation
from .kottwitz import galois_average
from .linalg import det
from .muordinary import SlopeProfile, max_degree_bound
from .rationals import dot, rat, vec_parse
from .rootdata import RationalCocharacter, reflect_simple

WEYL_CAP = 50_000


def weyl_orbit(v: RationalCocharacter, cap: int = WEYL_CAP) -> list[tuple[Fraction, ...]]:
    """The full Weyl orbit of v, closed under simple reflections."""
    seen = {v.coords}
    frontier = [v]
    while frontier:
        current = frontier.pop()
        for i in range(1, current.datum.rank + 1):
            image = reflect_simple(current, i)
            if image.coords not in seen:
                if len(seen) >= cap:
                    raise ValueError(f"Weyl orbit exceeds cap of {cap} elements")
                seen.add(image.coords)
                frontier.append(image)
    return sorted(seen)


def _simplex_feasible(points: Sequence[Sequence[Fraction]],
                      target: Sequence[Fraction]) -> bool:
    """Is target a convex combination of the points?  Exact phase-1 simplex.

    Feasibility of  sum_k x_k P_k = target,  sum_k x_k = 1,  x >= 0, decided
    by minimizing the sum of artificial variables with Bland's rule.
    """
    m = len(target) + 1
    n = len(points)
    rows: list[list[Fraction]] = []
    for j in range(len(target)):
        rows.append([Fraction(points[k][j]) for k in range(n)] + [Fraction(target[j])])
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for row in rows:
        if row[-1] < 0:
            for t in range(len(row)):
                row[t] = -row[t]
    # tableau with artificial basis
    tableau = []
    for i, row in enumerate(rows):
        art = [Fraction(int(i == j)) for j in range(m)]
        tableau.append(row[:-1] + art + [row[-1]])
    ncols = n + m
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * (ncols + 1)
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


def convex_hull_membership(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Does x lie in the convex hull of the Weyl orbit of y?  Rank <= 3 only."""
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    if x.datum.rank > 3:
        raise ValueError("rank too large for the hull oracle (max 3)")
    orbit = weyl_orbit(y)
    return _simplex_feasible(orbit, x.coords)


@dataclass(frozen=True)
class GridSpec:
    denominator_bound: int
    box_bound: Fraction

    def __post_init__(self):
        if self.denominator_bound <= 0 or self.box_bound <= 0:
            raise ValueError("grid bounds must be positive")


def default_grid_spec(mu: RationalCocharacter) -> GridSpec:
    """Denominator and box bounds that provably cover every member.

    Coroot coefficients arise from solving principal Cartan submatrices
    against integer data, so denominators divide
    r * lcm(den(mubar coords), principal minors, coroot denominators).
    The box is the coordinate range of the orbit hull of mubar.
    """
    datum = mu.datum
    mubar = galois_average(mu)
    n = datum.rank
    minors = 1
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[datum.cartan[a][b] for b in idx] for a in idx]
        d = int(det(sub))
        if d:
            minors = lcm(minors, abs(d))
    den_mubar = lcm(*[x.denominator for x in mubar.coords], 1)
    den_coroots = 1
    for av in datum.simple_coroots:
        den_coroots = lcm(den_coroots, *[x.denominator for x in av], 1)
    denominator = datum.sigma_order * lcm(den_mubar, minors * den_coroots)
    orbit = weyl_orbit(RationalCocharacter(mubar.coords, datum))
    box = max(abs(c) for pt in orbit for c in pt)
    return GridSpec(denominator, box if box > 0 else Fraction(1))


def grid_enumerate_bgmu(mu: RationalCocharacter,
                        spec: GridSpec | None = None) -> set[tuple[Fraction, ...]]:
    """Re-derive the Kottwitz set by scanning every grid point.

    All vectors with coordinates in (1/D) Z inside the orbit bounding box
    are tested against the membership criterion directly, by a test of its
    own (_grid_member).  Rank <= 3 and trivial sigma only.
    """
    datum = mu.datum
    if datum.rank > 3:
        raise ValueError("rank too large for the grid oracle (max 3)")
    if datum.sigma != tuple(range(1, datum.rank + 1)):
        raise ValueError("the grid oracle supports trivial sigma only")
    if spec is None:
        spec = default_grid_spec(mu)
    mubar = galois_average(mu)
    orbit = weyl_orbit(RationalCocharacter(mubar.coords, datum))
    lo = [min(pt[j] for pt in orbit) for j in range(datum.ambient_dim)]
    hi = [max(pt[j] for pt in orbit) for j in range(datum.ambient_dim)]
    bound = spec.box_bound
    lo = [max(x, -bound) for x in lo]
    hi = [min(x, bound) for x in hi]
    d = spec.denominator_bound
    axes = []
    for j in range(datum.ambient_dim):
        start = -((-lo[j] * d).__floor__())  # ceil(lo * d)
        stop = (hi[j] * d).__floor__()
        axes.append([Fraction(k, d) for k in range(start, stop + 1)])
    member = _grid_member(datum, mubar.coords)
    return {coords for coords in itertools.product(*axes) if member(coords)}


def _grid_member(datum, mubar: Sequence[Fraction]):
    """The membership criterion for nu against mubar, in Fractions.

    The Gram matrix <coroot_i, root_j> is inverted once, by its own
    Gauss-Jordan elimination; per point nu the test is: nu dominant,
    mubar - nu = sum_i c_i coroot_i exactly with every c_i >= 0, and c_i
    integral wherever <nu, root_i> != 0.
    """
    roots, coroots = datum.simple_roots, datum.simple_coroots
    n = datum.rank
    m = [[dot(coroots[i], roots[j]) for i in range(n)] + [Fraction(int(i == j))
                                                        for i in range(n)]
         for j in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    inverse = [row[n:] for row in m]
    # the nonzero entries of each root: most roots have two
    supports = [[(t, x) for t, x in enumerate(alpha) if x] for alpha in roots]

    def pair(v, support):
        return sum(v[t] * x for t, x in support)

    def member(nu) -> bool:
        if any(pair(nu, support) < 0 for support in supports):
            return False
        diff = [a - b for a, b in zip(mubar, nu)]
        c = [dot(row, [pair(diff, support) for support in supports]) for row in inverse]
        if any(x < 0 for x in c):
            return False
        if any(sum(ci * v[t] for ci, v in zip(c, coroots)) != d
               for t, d in enumerate(diff)):
            return False
        return all(ci.denominator == 1 or pair(nu, support) == 0
                   for ci, support in zip(c, supports))

    return member


@dataclass(frozen=True)
class UnipotentShape:
    """A unipotent subgroup scheme given by its free matrix entries.

    groups lists the parameter groups; each is a tuple of ((i, j), sign)
    entries (1-based positions) tied to one free parameter.
    """

    size: int
    groups: tuple[tuple[tuple[tuple[int, int], int], ...], ...]

    def matrix(self, params: Sequence[int]) -> list[list[int]]:
        m = [[int(i == j) for j in range(self.size)] for i in range(self.size)]
        for g, value in zip(self.groups, params):
            for (i, j), sign in g:
                m[i - 1][j - 1] = sign * value
        return m


def upper_unipotent_shape(n: int) -> UnipotentShape:
    groups = tuple(
        (((i, j), 1),) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return UnipotentShape(n, groups)


def siegel_shape(n: int, lower: bool = True) -> UnipotentShape:
    """Block radical of the rank-n symplectic group with antidiagonal form.

    The lower radical ties entry (n+a, b) to (n + (n+1-b), n+1-a); with the
    antidiagonal Gram matrix the tied entries are equal.
    """
    size = 2 * n
    groups = []
    seen = set()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            pos = (n + a, b)
            mirror = (n + (n + 1 - b), n + 1 - a)
            if pos in seen or mirror in seen:
                continue
            seen.add(pos)
            seen.add(mirror)
            entries = [(pos, 1)]
            if mirror != pos:
                entries.append((mirror, 1))
            groups.append(tuple(entries))
    if not lower:
        groups = [tuple((((j, i), s) for (i, j), s in g)) for g in groups]
    return UnipotentShape(size, tuple(groups))


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _conjugate(eps_entries: Sequence[Fraction], m: list[list[int]]) -> list[list[Fraction]]:
    """diag(eps) * m * diag(eps)^-1 with genuine matrix products.

    The products are taken in integers: diag(eps) = E / d and
    diag(eps)^-1 = F / f with E and F integral, so the conjugate is
    (E m F) / (d f).
    """
    n = len(m)
    eps = [Fraction(v) for v in eps_entries]
    inv = [1 / x for x in eps]
    d = lcm(*(x.denominator for x in eps))
    f = lcm(*(x.denominator for x in inv))
    e = [[int(eps[i] * d) if i == j else 0 for j in range(n)] for i in range(n)]
    e_inv = [[int(inv[i] * f) if i == j else 0 for j in range(n)] for i in range(n)]
    return [[Fraction(x, d * f) for x in row] for row in _matmul(_matmul(e, m), e_inv)]


ENUMERATION_LIMIT = 100_000


def coset_count_bruteforce(eps, shape: UnipotentShape, p: int, k: int) -> int:
    """Count U(Z/p^k) / (eps U(Z/p^k) eps^-1  intersect  U(Z/p^k)) literally.

    The subgroup is found by conjugating each shape matrix by the actual
    diagonal matrix and testing p-integrality of the inverse conjugate.
    Small groups are counted by marking cosets with genuine matrix
    products; past ENUMERATION_LIMIT elements the per-parameter scaling
    exponents (taken from honest conjugation of the group generators and
    spot-checked against full-matrix conjugation on sample elements) count
    the subgroup instead, and the coset count is the exact index.
    """
    full = eps.full if isinstance(eps, HeckeValuation) else vec_parse(eps)
    if len(full) != shape.size:
        raise ValueError("valuation vector does not match the shape size")
    if p ** k > 625:
        raise ValueError("modulus too large for the brute-force oracle")
    vals = []
    for x in full:
        x = rat(x)
        if x.denominator != 1:
            raise ValueError("brute-force oracle requires integral valuations")
        vals.append(int(x))
    shift = min(vals)
    vals = [v - shift for v in vals]  # scalar conjugation is trivial
    if max(vals) >= k:
        raise ValueError("valuations must be < k")
    mod = p ** k
    eps_entries = [Fraction(p ** v) for v in vals]
    eps_inv = [1 / e for e in eps_entries]
    ngroups = len(shape.groups)
    total = mod ** ngroups

    # Membership of w in eps U eps^-1 means eps^-1 w eps is p-integral.
    # Conjugating each one-parameter generator honestly gives the per-group
    # constraint exponent; tied entries must scale identically.
    generator_conj = _conjugate(eps_inv, shape.matrix([1] * ngroups))
    scalings = []
    for g in shape.groups:
        factors = {generator_conj[i - 1][j - 1] / s for (i, j), s in g}
        if len(factors) != 1:
            raise ValueError("eps does not preserve the tied entries of the shape")
        den = factors.pop().denominator
        c = 0
        while den % p == 0:
            den //= p
            c += 1
        scalings.append(c)

    if total <= ENUMERATION_LIMIT:
        return _coset_count_marking(shape, eps_entries, p, k)

    # Subgroup size by literal residue enumeration per parameter, with the
    # entrywise criterion spot-checked against full matrix conjugation.
    import random

    rng = random.Random(20240)
    for _ in range(50):
        params = [rng.randrange(mod) for _ in range(ngroups)]
        conj = _conjugate(eps_inv, shape.matrix(params))
        honest = all(x.denominator == 1 for row in conj for x in row)
        entrywise = all(
            params[t] % p ** min(scalings[t], k) == 0 for t in range(ngroups)
        )
        if honest != entrywise:
            raise AssertionError("entrywise subgroup criterion failed a spot check")
    sub_size = 1
    for c in scalings:
        sub_size *= sum(1 for x in range(mod) if x % p ** min(c, k) == 0)
    if total % sub_size:
        raise AssertionError("subgroup size does not divide the group size")
    return total // sub_size


def _coset_count_marking(shape: UnipotentShape, eps_entries: list[Fraction],
                         p: int, k: int) -> int:
    mod = p ** k
    ngroups = len(shape.groups)
    eps_inv = [1 / e for e in eps_entries]
    elements = [shape.matrix(params)
                for params in itertools.product(range(mod), repeat=ngroups)]
    members = []
    for w in elements:
        conj = _conjugate(eps_inv, w)
        if all(x.denominator == 1 for row in conj for x in row):
            members.append(w)
    seen: set[tuple[int, ...]] = set()
    count = 0
    for u in elements:
        key = tuple(x % mod for row in u for x in row)
        if key in seen:
            continue
        count += 1
        for v in members:
            prod = _matmul(u, v)
            seen.add(tuple(x % mod for row in prod for x in row))
    return count


def polygon_leq(pa: SlopeProfile, pb: SlopeProfile) -> bool:
    """Does the polygon of pa lie on or below the polygon of pb?

    Classical comparison: equal total height and degree required, then the
    concave envelopes are compared at every integer height.
    """
    if pa.total_height != pb.total_height:
        raise ValueError("polygon comparison requires equal total heights")
    if max_degree_bound(pa, pa.total_height) != max_degree_bound(pb, pb.total_height):
        raise ValueError("polygon comparison requires equal total degrees")
    return all(
        max_degree_bound(pa, h) <= max_degree_bound(pb, h)
        for h in range(pa.total_height + 1)
    )


def multiplicative_group_exponent(p: int, w: int) -> int:
    """Exponent of the unit group of the field with p^w elements, by brute force.

    Builds the field from an irreducible polynomial found by trial division
    and takes the lcm of the multiplicative orders of all nonzero elements.
    """
    if p ** w > 625:
        raise ValueError("field too large for the brute-force exponent")
    if w == 1:
        exponent = 1
        for a in range(1, p):
            order = 1
            x = a
            while x != 1:
                x = x * a % p
                order += 1
            exponent = lcm(exponent, order)
        return exponent
    modpoly = _find_irreducible(p, w)
    exponent = 1
    for coeffs in itertools.product(range(p), repeat=w):
        if all(c == 0 for c in coeffs):
            continue
        order = 1
        x = coeffs
        one = (1,) + (0,) * (w - 1)
        while x != one:
            x = _polymulmod(x, coeffs, modpoly, p)
            order += 1
        exponent = lcm(exponent, order)
    return exponent


def _polymulmod(a, b, modpoly, p):
    w = len(modpoly) - 1
    prod = [0] * (2 * w - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(len(prod) - 1, w - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for t in range(w):
                prod[d - w + t] = (prod[d - w + t] - c * modpoly[t]) % p
    return tuple(prod[:w])


def _find_irreducible(p: int, w: int) -> tuple[int, ...]:
    """Monic irreducible polynomial of degree w over F_p (coeff list, low first,
    leading 1 appended), by trial division against all lower-degree monics."""
    lower = []
    for d in range(1, w // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            lower.append(coeffs + (1,))
    for coeffs in itertools.product(range(p), repeat=w):
        cand = coeffs + (1,)
        if all(not _poly_divides(g, cand, p) for g in lower):
            return cand
    raise AssertionError("no irreducible polynomial found")


def _poly_divides(g, f, p) -> bool:
    f = list(f)
    dg = len(g) - 1
    for d in range(len(f) - 1, dg - 1, -1):
        c = f[d]
        if c:
            for t in range(dg + 1):
                f[d - dg + t] = (f[d - dg + t] - c * g[t]) % p
    return all(x == 0 for x in f)
