"""Brute-force reference implementations.

Everything here is deliberately independent of the fast paths it checks:
convex-hull membership runs an exact phase-1 simplex priced by the support
function of the Weyl orbit, the Kottwitz set is re-derived by scanning a
denominator grid, unipotent indices are counted from actual matrix
conjugation, and polygon comparison scans every integer height.  No oracle
builds an orbit: the support function descends to the dominant chamber by
the oracle's own reflections.  It, the simplex and the grid test run on
integer numerators of their own (a fraction-free basis inverse, one Gram
inverse scaled to integers); none of them uses the fast paths' integer
kernel (RootDatum.kernel) or their linear algebra.  PIVOT_CAP bounds the
simplex.  These routines back the test suite and the CLI verify mode only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .rationals import dot, integer, vec_parse

if TYPE_CHECKING:
    from .muordinary import SlopeProfile
    from .rootdata import RationalCocharacter

PIVOT_CAP = 10_000


def _integer_rows(vectors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows) with vectors = rows / d, d the lcm of every entry's denominator."""
    d = lcm(*(x.denominator for v in vectors for x in v))
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in v]) for v in vectors])


def _support(v: RationalCocharacter) -> tuple[int, Callable[[Sequence[int]], list[int]]]:
    """(D, best): the support function of the Weyl orbit of v, over one denominator D.

    v = x / L as stored, a_i = R root_i and b_i = K coroot_i integral, D = L R K.
    Every pairing <w v, root_i> lies in (1/(L R)) Z (the Cartan entries are
    integers), so each orbit point y = D w v is integral and s_i y =
    y - ((y . a_i) / (R K)) b_i divides exactly.  Each coroot is 2 root /
    (root, root), so each s_i is orthogonal for the dot product: max_w <u, w v>
    is <u_dom, v_dom>, reached at s_1 ... s_k v_dom when s_k ... s_1 brings u
    down to u_dom (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 13.2).  best(u) returns D times that point; u descends by R K s_i
    and division by a gcd, positive factors that keep its chamber.
    """
    R, a = _integer_rows(v.datum.simple_roots)
    K, b = _integer_rows(v.datum.simple_coroots)
    RK = R * K

    def reflect(y, i):
        c, r = divmod(sum(map(mul, y, a[i])), RK)
        if r:
            raise AssertionError("a reflection left the integer orbit lattice")
        return [t - c * s for t, s in zip(y, b[i])]

    def lower(u, i):  # R K s_i u, divided by its gcd
        p = sum(map(mul, u, a[i]))
        return _primitive([RK * t - p * s for t, s in zip(u, b[i])])

    def descend(y, step):
        """y made dominant by step at its first negative pairing, and the word."""
        word = []
        while (i := next((j for j, aj in enumerate(a) if sum(map(mul, y, aj)) < 0), -1)) >= 0:
            y = step(y, i)
            word.append(i)
        return y, word

    top = descend([t * RK for t in v.x], reflect)[0]

    def best(u):
        y = top
        for i in reversed(descend(u, lower)[1]):
            y = reflect(y, i)
        return y

    return v.L * RK, best


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries (a positive factor)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _simplex_feasible(best: Callable[[Sequence[int]], Sequence[int]], target: Sequence[int],
                      denominator: int) -> bool:
    """Is target a convex combination of the points best prices?  Exact
    revised phase-1 simplex with column generation.

    Feasibility of  sum_k x_k P_k = target,  sum_k x_k = 1,  x >= 0, decided
    by minimizing the sum of artificial variables, stopping once it is 0.
    Points and target are integers over one denominator; the points are
    never listed: best(u) returns one that maximizes <u, P>, so the column
    that enters has the largest reduced cost, and enters when it is
    positive.  Only the basis inverse and the right-hand side are held,
    fraction-free (each row is integers over a positive row factor, never
    formed); the cost row pi - 1 over the artificial columns, for the duals
    pi, and the objective pi . b are integers over one explicit factor.
    Signs and ratios are compared by cross-multiplication, so each is the
    rational one.  The leaving row is the lexicographic minimum, over the
    rows with a positive entry in the column, of its right-hand side and
    then its row of the basis inverse, each divided by that entry: no ties,
    and no basis repeats (Dantzig, Orden and Wolfe, Pacific J. Math. 1955).
    More than PIVOT_CAP pivots raise ValueError.  When no column enters,
    pi . P <= 0 at every point and pi . b > 0, a Farkas certificate: the
    answer is the rational one whatever the pivot path.
    """
    signs = [1 if t >= 0 else -1 for t in target] + [1]
    m = len(signs)
    rows = [[int(i == j) for j in range(m)] + [s * t]
            for i, (s, t) in enumerate(zip(signs, [*target, denominator]))]
    keys = [m, *range(m)]  # the right-hand side, then the basis inverse
    factor, *cost = [1] + [0] * m + [sum(row[-1] for row in rows)]
    for pivots in itertools.count():
        if not cost[-1]:
            return True
        u = [s * (c + factor) for s, c in zip(signs, cost)]  # pi, over factor
        point = [*best(u[:-1]), denominator]
        reduced = sum(map(mul, u, point))
        if reduced <= 0:
            return False
        if pivots == PIVOT_CAP:
            raise ValueError(f"simplex exceeds cap of {PIVOT_CAP} pivots")
        column = list(map(mul, signs, point))
        entries = [sum(map(mul, row, column)) for row in rows]
        leave = None
        for i, (row, e) in enumerate(zip(rows, entries)):
            if e > 0 and (leave is None or _lex_below(row, e, rows[leave], entries[leave], keys)):
                leave = i
        if leave is None:
            raise AssertionError("unbounded phase-1 objective")
        pivot_row, piv = rows[leave], entries[leave]
        for i, e in enumerate(entries):
            if i != leave and e:
                rows[i] = _primitive([x * piv - e * y for x, y in zip(rows[i], pivot_row)])
        factor, *cost = _primitive([factor * piv] + [x * piv - reduced * y
                                                     for x, y in zip(cost, pivot_row)])


def _lex_below(r, a, s, b, keys) -> bool:
    """Is (r[c] / a) below (s[c] / b), c over keys, in the lexicographic order?
    a, b > 0, so each ratio is compared by cross-multiplication."""
    for c in keys:
        u, v = r[c] * b, s[c] * a
        if u != v:
            return u < v
    return False


def convex_hull_membership(x: RationalCocharacter, y: RationalCocharacter) -> bool:
    """Does x lie in the convex hull of the Weyl orbit of y?  At any rank;
    a simplex run past PIVOT_CAP pivots raises ValueError."""
    if x.datum != y.datum:
        raise ValueError("cocharacters live over different root data")
    D, best = _support(y)
    M = lcm(D, x.L)
    return _simplex_feasible(lambda u: [t * (M // D) for t in best(u)], x.over(M), M)


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


def _grid_spec(mu: RationalCocharacter) -> int:
    """The grid denominator: every member's coordinates lie in (1/d) Z.

    Every datum is split, so mubar is mu.  Coroot coefficients arise from
    solving principal Cartan submatrices against integer data, so
    denominators divide lcm(mu's stored denominator L, principal minors *
    coroot denominators).
    """
    datum = mu.datum
    n = datum.rank
    minors = 1
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        d = int(_gauss_jordan([[datum.cartan[a][b] for b in idx] for a in idx])[0])
        if d:
            minors = lcm(minors, abs(d))
    return lcm(mu.L, minors * _integer_rows(datum.simple_coroots)[0])


def grid_enumerate_bgmu(mu: RationalCocharacter) -> set[tuple[Fraction, ...]]:
    """Re-derive the Kottwitz set by scanning every grid point.

    Every vector in (1/d) Z inside the bounding box of mu's Weyl orbit is
    tested by the oracle's own criterion (_grid_member) on its integer
    numerators.  Axis i runs from best(-e_i)[i] to best(e_i)[i] (_support),
    rounded inward to (1/d) Z by integer division; members lie in the
    orbit's convex hull, so in the box.  Rank <= 3 only.  The datum is
    split, so mubar is mu, which must be dominant.
    """
    datum = mu.datum
    if datum.rank > 3:
        raise ValueError("rank too large for the grid oracle (max 3)")
    D, best = _support(mu)
    d = _grid_spec(mu)
    member = _grid_member(datum, mu, d)
    units = [[int(i == j) for j in range(datum.ambient_dim)] for i in range(datum.ambient_dim)]
    axes = [range(-(-best([-t for t in e])[i] * d // D), best(e)[i] * d // D + 1)
            for i, e in enumerate(units)]
    return {tuple(Fraction(t, d) for t in pt)
            for pt in itertools.product(*axes) if member(pt)}


def _grid_member(datum, mu: RationalCocharacter, d: int):
    """The membership criterion for nu = pt / d against mubar = mu = x / L0
    (its stored fields), on integers.

    The Gram matrix <coroot_i, root_j> is inverted once, by the oracle's own
    elimination, and scaled to integers I / g.  With L = lcm(L0, d),
    mubar - nu = diff / L, a_j = R root_j and b_i = K coroot_i, the coroot
    coefficients of mubar - nu are C / (g L R) with C = I (diff . a_j)_j.
    Per point pt the pairings pt . a_j are taken over the full integer rows
    a_j, and diff . a_j = top . a_j - step pt . a_j by linearity, with
    top = x (L / L0) and step = L / d.  The test is: pt . a_j >= 0 (nu
    dominant), every C_i >= 0, sum_i C_i b_i = diff * g R K exactly
    (mubar - nu lies in the coroot span), and C_i divisible by g L R
    wherever pt . a_i != 0 (c_i integral where <nu, root_i> != 0).  Raises
    ValueError unless top . a_j >= 0 for every j (mubar dominant).
    """
    roots, coroots = datum.simple_roots, datum.simple_coroots
    n = datum.rank
    g, inverse = _integer_rows(_gauss_jordan([[dot(coroots[i], roots[j]) for i in range(n)]
                                              for j in range(n)])[1])
    R, a = _integer_rows(roots)
    K, b = _integer_rows(coroots)
    L = lcm(mu.L, d)
    top = [t * (L // mu.L) for t in mu.x]
    step = L // d
    top_pairs = [sum(map(mul, top, aj)) for aj in a]
    if any(p < 0 for p in top_pairs):
        raise ValueError("mu must be dominant")
    coroot_columns = list(zip(*b))
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

    The lower radical ties entry (n+a, b) to (n + (n+1-b), n+1-a), equal under
    the antidiagonal Gram matrix; each group is emitted from its entry with
    a + b <= n + 1 (the mirror has a + b >= n + 1).  upper: the transpose.
    """
    groups = []
    for a in range(1, n + 1):
        for b in range(1, n + 2 - a):
            pos, mirror = (n + a, b), (2 * n + 1 - b, n + 1 - a)
            groups.append(((pos, 1),) if pos == mirror else ((pos, 1), (mirror, 1)))
    if not lower:
        groups = [tuple((((j, i), s) for (i, j), s in g)) for g in groups]
    return UnipotentShape(2 * n, tuple(groups))


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
    d, (e,) = _integer_rows([eps])
    f, (inv,) = _integer_rows([[1 / x for x in eps]])
    return e, inv, d * f


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
    integer(p, "p", 2)
    integer(k, "k", 1)
    full = vec_parse(eps)
    if len(full) != shape.size:
        raise ValueError("valuation vector does not match the shape size")
    if p ** k > 625:
        raise ValueError("modulus too large for the brute-force oracle")
    vals = []
    for x in full:
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
    integer(p, "p", 2)
    integer(w, "w", 1)
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
