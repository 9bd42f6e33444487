"""Brute-force reference implementations.

Everything here is deliberately independent of the fast paths it checks:
convex-hull membership runs an exact phase-1 simplex over the materialized
Weyl orbit, the Kottwitz set is re-derived by scanning a denominator grid,
unipotent indices are counted from actual matrix conjugation, and polygon
comparison scans every integer height.  The orbit, the simplex tableau and
the grid test run on integer numerators of their own (the oracle's own
reflection, a fraction-free tableau, one Gram inverse scaled to integers);
none of them uses the fast paths' integer kernel (RootDatum.kernel) or
their linear algebra.  The simplex enters on the largest reduced cost and
falls back to Bland's rule after a degenerate pivot; the grid test takes
one set of root pairings per point and gets those of mubar - nu from
mubar's by linearity.  These routines back the test suite and the CLI
verify mode only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import Sequence

from .hecke import HeckeValuation
from .muordinary import SlopeProfile
from .rationals import dot, rat, vec_parse
from .rootdata import RationalCocharacter

WEYL_CAP = 50_000


def _denominator(vectors) -> int:
    """The lcm of the denominators of every entry of the vectors."""
    return lcm(*(x.denominator for v in vectors for x in v))


def _scaled(vector, D: int) -> list[int]:
    """D * vector as integers, for a D that every denominator divides."""
    return [x.numerator * (D // x.denominator) for x in vector]


def _int_orbit(v: RationalCocharacter) -> tuple[set[tuple[int, ...]], int]:
    """The Weyl orbit of v as a set of integer vectors over one denominator D.

    L, R and K are the common denominators of v, of the simple roots and of
    the simple coroots, D = L R K, a_i = R root_i and b_i = K coroot_i.  Every
    pairing <w v, root_i> lies in (1/(L R)) Z, because the Cartan entries are
    integers, so every orbit point y = D w v is integral and the reflection
    s_i y = y - ((y . a_i) / (R K)) b_i divides exactly.  An orbit of more
    than WEYL_CAP points raises ValueError.
    """
    datum = v.datum
    R, K = _denominator(datum.simple_roots), _denominator(datum.simple_coroots)
    D = _denominator([v.coords]) * R * K
    a = [_scaled(alpha, R) for alpha in datum.simple_roots]
    b = [_scaled(coroot, K) for coroot in datum.simple_coroots]
    start = tuple(_scaled(v.coords, D))
    seen = {start}
    frontier = [start]
    while frontier:
        y = frontier.pop()
        for ai, bi in zip(a, b):
            c, r = divmod(sum(map(mul, y, ai)), R * K)
            if r:
                raise AssertionError("a reflection left the integer orbit lattice")
            if c:
                image = tuple([t - c * s for t, s in zip(y, bi)])
                if image not in seen:
                    if len(seen) >= WEYL_CAP:
                        raise ValueError(f"Weyl orbit exceeds cap of {WEYL_CAP} elements")
                    seen.add(image)
                    frontier.append(image)
    return seen, D


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a positive factor)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _simplex_feasible(points: Sequence[Sequence[int]], target: Sequence[int],
                      denominator: int) -> bool:
    """Is target a convex combination of the points?  Exact phase-1 simplex.

    Feasibility of  sum_k x_k P_k = target,  sum_k x_k = 1,  x >= 0, decided
    by minimizing the sum of artificial variables, which is feasible exactly
    when that minimum is 0; the loop stops as soon as the sum reaches 0.  The
    points and the target are integer vectors over one common denominator.
    The tableau is fraction-free: each row is held as integers that a
    positive row factor, never formed, turns into the rational row.  A pivot
    replaces a row r by r * piv - r[enter] * pivot_row and divides it by the
    gcd of its entries, and ratios are compared by cross-multiplication, so
    every sign, ratio and tie is the rational one.

    Pivot rule: the entering column has the largest positive reduced cost
    (the cost row is one integer row over one positive factor, so comparing
    its entries is the rational order; ties go to the lowest column).  After
    a degenerate pivot (min ratio 0) the entering column is the lowest one
    with a positive reduced cost (Bland's rule) until a pivot moves the
    objective.  The leaving row has the minimum ratio, ties to the lowest
    basis index.  Termination: a pivot with a positive ratio strictly lowers
    the objective, so no basis repeats across it and only finitely many such
    pivots occur.  Once they stop, every pivot is degenerate, and every one
    after the first follows Bland's rule with its leaving rule, which cannot
    cycle (Bland, Math. Oper. Res. 1977).
    """
    m = len(target) + 1
    n = len(points)
    rows = [[pt[j] for pt in points] + [target[j]] for j in range(len(target))]
    rows.append([denominator] * (n + 1))
    for row in rows:
        if row[-1] < 0:
            row[:] = [-x for x in row]
    # tableau with artificial basis; the rational tableau is this one / denominator
    tableau = [row[:-1] + [denominator * (i == j) for j in range(m)] + row[-1:]
               for i, row in enumerate(rows)]
    ncols = n + m
    basis = list(range(n, ncols))
    cost = [sum(column) for column in zip(*tableau)]
    for t in range(n, ncols):
        cost[t] -= denominator
    bland = False
    while cost[-1]:
        improving = [j for j in range(ncols) if cost[j] > 0]
        if not improving:
            break
        enter = improving[0] if bland else max(improving, key=cost.__getitem__)
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                rhs = tableau[i][-1]
                if leave is None or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[i] < basis[leave]
                ):
                    best_rhs, best_a = rhs, a
                    leave = i
        if leave is None:
            raise AssertionError("unbounded phase-1 objective")
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        for i in range(m):
            f = tableau[i][enter]
            if i != leave and f != 0:
                tableau[i] = _primitive([x * piv - f * y for x, y in zip(tableau[i], pivot_row)])
        f = cost[enter]
        cost = _primitive([x * piv - f * y for x, y in zip(cost, pivot_row)])
        basis[leave] = enter
        bland = best_rhs == 0
    return cost[-1] == 0


def convex_hull_membership(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Does x lie in the convex hull of the Weyl orbit of y?  Rank <= 3 only."""
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    if x.datum.rank > 3:
        raise ValueError("rank too large for the hull oracle (max 3)")
    orbit, D = _int_orbit(y)
    M = lcm(D, _denominator([x.coords]))
    points = [[t * (M // D) for t in pt] for pt in sorted(orbit)]
    target = _scaled(x.coords, M)
    return _simplex_feasible(points, target, M)


def _gauss_jordan(a: Sequence[Sequence]) -> tuple[Fraction, list[list[Fraction]] | None]:
    """(det a, a^-1) by Gauss-Jordan elimination over Fractions; the inverse
    is None when a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        p = m[col][col]
        det *= p
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det, [row[n:] for row in m]


def _grid_spec(mu: RationalCocharacter, orbit, D: int) -> tuple[int, Fraction]:
    """(denominator, box): grid bounds that provably cover every member,
    from the integer orbit of mu over D.

    With trivial sigma (the only case the grid oracle takes) mubar is mu.
    Coroot coefficients arise from solving principal Cartan submatrices
    against integer data, so denominators divide
    lcm(den(mu coords), principal minors * coroot denominators).
    The box is the coordinate range of the orbit hull of mu.
    """
    datum = mu.datum
    n = datum.rank
    minors = 1
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        d = int(_gauss_jordan([[datum.cartan[a][b] for b in idx] for a in idx])[0])
        if d:
            minors = lcm(minors, abs(d))
    denominator = lcm(_denominator([mu.coords]),
                      minors * _denominator(datum.simple_coroots))
    box = Fraction(max(abs(t) for y in orbit for t in y), D)
    return denominator, box if box > 0 else Fraction(1)


def grid_enumerate_bgmu(mu: RationalCocharacter) -> set[tuple[Fraction, ...]]:
    """Re-derive the Kottwitz set by scanning every grid point.

    All vectors with coordinates in (1/D) Z inside the orbit bounding box
    are tested against the membership criterion directly, by a test of its
    own (_grid_member) on their integer numerators.  Rank <= 3 and trivial
    sigma only, so mubar is mu itself, which must be dominant (by the
    oracle's own pairing test, as enumerate_bgmu requires).
    """
    datum = mu.datum
    if datum.rank > 3:
        raise ValueError("rank too large for the grid oracle (max 3)")
    if datum.sigma != tuple(range(1, datum.rank + 1)):
        raise ValueError("the grid oracle supports trivial sigma only")
    orbit, D = _int_orbit(mu)
    d, bound = _grid_spec(mu, orbit, D)
    member = _grid_member(datum, mu.coords, d)
    axes = []
    for j in range(datum.ambient_dim):
        lo = max(Fraction(min(y[j] for y in orbit), D), -bound)
        hi = min(Fraction(max(y[j] for y in orbit), D), bound)
        axes.append(range(ceil(lo * d), floor(hi * d) + 1))
    return {tuple(Fraction(t, d) for t in pt)
            for pt in itertools.product(*axes) if member(pt)}


def _grid_member(datum, mubar: Sequence[Fraction], d: int):
    """The membership criterion for nu = pt / d against mubar, on integers.

    The Gram matrix <coroot_i, root_j> is inverted once, by the oracle's own
    elimination, and scaled to integers I / g.  With L the common
    denominator of mubar and 1/d, mubar - nu = diff / L, a_j = R root_j and
    b_i = K coroot_i, the coroot coefficients of mubar - nu are C / (g L R)
    with C = I (diff . a_j)_j.  Per point pt the pairings pt . a_j are taken
    over the full integer rows a_j, and diff . a_j = top . a_j - step pt . a_j
    by linearity, with top = L mubar and step = L / d.  The test is:
    pt . a_j >= 0 (nu dominant), every C_i >= 0, sum_i C_i b_i = diff * g R K
    exactly (mubar - nu lies in the coroot span), and C_i divisible by g L R
    wherever pt . a_i != 0 (c_i integral where <nu, root_i> != 0).  Raises
    ValueError unless top . a_j >= 0 for every j (mubar dominant).
    """
    roots, coroots = datum.simple_roots, datum.simple_coroots
    n = datum.rank
    _, inverse = _gauss_jordan([[dot(coroots[i], roots[j]) for i in range(n)]
                                for j in range(n)])
    g = _denominator(inverse)
    inverse = [[int(x * g) for x in row] for row in inverse]
    R, K = _denominator(roots), _denominator(coroots)
    L = lcm(_denominator([mubar]), d)
    top = _scaled(mubar, L)
    step = L // d
    a = [_scaled(alpha, R) for alpha in roots]
    top_pairs = [sum(map(mul, top, aj)) for aj in a]
    if any(p < 0 for p in top_pairs):
        raise ValueError("mu must be dominant")
    coroot_columns = list(zip(*(_scaled(coroot, K) for coroot in coroots)))
    span_scale, modulus = g * R * K, g * L * R

    def member(pt) -> bool:
        pairs = []
        for aj in a:
            p = sum(map(mul, pt, aj))
            if p < 0:
                return False
            pairs.append(p)
        dpairs = [t - step * p for t, p in zip(top_pairs, pairs)]
        C = [sum(map(mul, row, dpairs)) for row in inverse]
        if any(c < 0 for c in C):
            return False
        if any(sum(map(mul, C, column)) != (t - step * x) * span_scale
               for column, t, x in zip(coroot_columns, top, pt)):
            return False
        return all(c % modulus == 0 or p == 0 for c, p in zip(C, pairs))

    return member


@dataclass(frozen=True)
class UnipotentShape:
    """A unipotent subgroup scheme given by its free matrix entries.

    groups lists the parameter groups; each is a tuple of ((i, j), sign)
    entries (1-based positions) tied to one free parameter.
    """

    size: int
    groups: tuple[tuple[tuple[tuple[int, int], int], ...], ...]

    def flat(self, params: Sequence[int]) -> list[int]:
        """The matrix at params, row-major in one list of size^2 entries."""
        n = self.size
        m = [0] * (n * n)
        m[::n + 1] = [1] * n
        for g, value in zip(self.groups, params):
            for (i, j), sign in g:
                m[(i - 1) * n + j - 1] = sign * value
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


def _flat_element(shape: UnipotentShape, params: Sequence[int], mod: int) -> tuple[int, ...]:
    """The shape's matrix at params as a flat row-major tuple reduced mod p^k.

    The shape allows the sign -1, so an entry may be negative before the
    reduction; a reduced tuple is the element's one key.
    """
    return tuple([x % mod for x in shape.flat(params)])


def _conjugator(eps_entries: Sequence[Fraction]) -> tuple[tuple[int, ...],
                                                         tuple[int, ...], int]:
    """(E, F, q) with diag(eps) m diag(eps)^-1 = (E m F) / q for every m.

    diag(eps) = E / d and diag(eps)^-1 = F / f with E and F integral
    diagonal matrices, held by their diagonals, and q = d f.
    """
    eps = [Fraction(v) for v in eps_entries]
    inv = [1 / x for x in eps]
    d = lcm(*(x.denominator for x in eps))
    f = lcm(*(x.denominator for x in inv))
    return tuple(int(x * d) for x in eps), tuple(int(x * f) for x in inv), d * f


def _conjugate(conjugator, m: Sequence[int]) -> list[int]:
    """The entries of E m F, row-major, for a flat row-major n x n matrix m.

    E and F are diagonal, so the product is exact entry by entry:
    (E m F)_ij = E_ii m_ij F_jj.
    """
    e, f, _ = conjugator
    return [a * x * b for x, (a, b) in zip(m, itertools.product(e, f))]


def _is_integral_conjugate(conjugator, m: Sequence[int]) -> bool:
    """Is diag(eps) m diag(eps)^-1 integral, for a flat row-major m?  Every
    one of the n^2 entries E_ii m_ij F_jj of E m F is tested against q."""
    q = conjugator[2]
    return not any([x % q for x in _conjugate(conjugator, m)])


ENUMERATION_LIMIT = 100_000


def _check_prime_power(p: int, k: int, name: str) -> None:
    """Refuse p < 2 or an exponent k < 1 before any work is done."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if k < 1:
        raise ValueError(f"{name} must be at least 1, got {k}")


def coset_count_bruteforce(eps, shape: UnipotentShape, p: int, k: int) -> int:
    """Count U(Z/p^k) / (eps U(Z/p^k) eps^-1  intersect  U(Z/p^k)) literally.

    The subgroup is found by conjugating each element, a flat row-major
    tuple reduced mod p^k, by the actual diagonal matrices: every entry
    E_ii w_ij F_jj of the conjugate is tested for p-integrality.  Small
    groups are counted by marking cosets with genuine integer matrix
    products (_coset_count_marking); past ENUMERATION_LIMIT elements the
    per-parameter scaling exponents (read from the same entrywise
    conjugate of the group generator, and spot-checked against the full
    conjugate of sample elements) count the subgroup instead, and the
    coset count is the exact index.
    """
    _check_prime_power(p, k, "k")
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
    # w lies in eps U eps^-1 when eps^-1 w eps is p-integral
    conjugator = _conjugator([Fraction(1, p ** v) for v in vals])
    ngroups = len(shape.groups)
    total = mod ** ngroups

    # Conjugating the generator with every parameter 1 gives the per-group
    # constraint exponent; tied entries must scale identically.  The
    # generator stays unreduced, so an entry of sign -1 scales as -1.
    n, q = shape.size, conjugator[2]
    generator_conj = _conjugate(conjugator, shape.flat([1] * ngroups))
    scalings = []
    for g in shape.groups:
        factors = {Fraction(generator_conj[(i - 1) * n + j - 1], q * s) for (i, j), s in g}
        if len(factors) != 1:
            raise ValueError("eps does not preserve the tied entries of the shape")
        den = factors.pop().denominator
        c = 0
        while den % p == 0:
            den //= p
            c += 1
        scalings.append(c)

    if total <= ENUMERATION_LIMIT:
        return _coset_count_marking(shape, conjugator, p, k)

    # Subgroup size by literal residue enumeration per parameter, with the
    # entrywise criterion spot-checked against full matrix conjugation.
    import random

    rng = random.Random(20240)
    for _ in range(50):
        params = [rng.randrange(mod) for _ in range(ngroups)]
        honest = _is_integral_conjugate(conjugator, _flat_element(shape, params, mod))
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


def _coset_count_marking(shape: UnipotentShape, conjugator, p: int, k: int) -> int:
    """Count the cosets by marking.

    Every element is built once as a flat row-major tuple reduced mod p^k,
    which is also its key.  The members w are those whose conjugate
    eps^-1 w eps is integral on all n^2 entries (conjugator holds eps^-1).
    The columns of each member are taken once, and each new coset u is
    marked by every product u v with a member v: the integer matrix
    product, reduced mod p^k, in one fused pass over the members.
    """
    mod = p ** k
    n = shape.size
    elements = [_flat_element(shape, params, mod)
                for params in itertools.product(range(mod), repeat=len(shape.groups))]
    member_columns = [[w[j::n] for j in range(n)]
                      for w in elements if _is_integral_conjugate(conjugator, w)]
    seen: set[tuple[int, ...]] = set()
    count = 0
    for u in elements:
        if u in seen:
            continue
        count += 1
        rows = [u[i:i + n] for i in range(0, n * n, n)]
        seen.update(tuple([sum(map(mul, row, column)) % mod for row in rows for column in columns])
                    for columns in member_columns)
    return count


def polygon_envelope(profile: SlopeProfile) -> list[Fraction]:
    """The polygon's degree at every height 0, 1, ..., total height: the
    prefix sums of the descending slopes, each repeated by its multiplicity."""
    return list(itertools.accumulate(
        (s for s, m in zip(profile.slopes, profile.mults) for _ in range(m)),
        initial=Fraction(0)))


def polygon_leq(pa: SlopeProfile, pb: SlopeProfile) -> bool:
    """Does the polygon of pa lie on or below the polygon of pb?

    Classical comparison: equal total height and degree required, then the
    concave envelopes (polygon_envelope) are compared at every integer height.
    """
    ea, eb = polygon_envelope(pa), polygon_envelope(pb)
    if len(ea) != len(eb):
        raise ValueError("polygon comparison requires equal total heights")
    if ea[-1] != eb[-1]:
        raise ValueError("polygon comparison requires equal total degrees")
    return all(a <= b for a, b in zip(ea, eb))


def multiplicative_group_exponent(p: int, w: int) -> int:
    """Exponent of the unit group of the field with p^w elements, by brute force.

    Builds the field from an irreducible polynomial found by trial division
    and takes the lcm of the multiplicative orders of all nonzero elements
    (_unit_orders).
    """
    _check_prime_power(p, w, "w")
    if p ** w > 625:
        raise ValueError("field too large for the brute-force exponent")
    return lcm(*_unit_orders(p, w).values())


def _unit_orders(p: int, w: int) -> dict[tuple[int, ...], int]:
    """The multiplicative order of every nonzero element of F_p[x] / (f).

    The powers x, x^2, ..., 1 of each element not met yet are walked once,
    and each power x^j gets the order ord(x) / gcd(j, ord(x)).  That holds
    in every finite group, so the cyclicity being checked is not assumed.
    A walk longer than p^w - 1 steps means F_p[x] / (f) is no field.
    """
    modpoly = _find_irreducible(p, w)
    one = (1,) + (0,) * (w - 1)
    orders: dict[tuple[int, ...], int] = {}
    for coeffs in itertools.product(range(p), repeat=w):
        if coeffs in orders or not any(coeffs):
            continue
        powers = [coeffs]
        while powers[-1] != one:
            if len(powers) >= p ** w - 1:
                raise ValueError("p must be a prime")
            powers.append(_polymulmod(powers[-1], coeffs, modpoly, p))
        order = len(powers)
        for j, x in enumerate(powers, start=1):
            orders[x] = order // gcd(j, order)
    return orders


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
