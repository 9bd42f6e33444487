"""Independent computations the benchmark checks newtonkit against.

Nothing here imports newtonkit.  Every answer is derived from first
principles with its own exact arithmetic: a Gaussian elimination of its
own, closed forms for the classical Weyl groups, lattice-polygon
enumeration for types A and C, explicit folds for slope profiles and
explicit sums over roots for the Hecke valuations.  Inputs are plain
tuples of Fractions (simple roots as the program's root datum lists them),
so a wrong answer from the program can never leak into its expectation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]

HALF = Fraction(1, 2)


def special_nodes(type_label: str, rank: int) -> set[int]:
    """1-based nodes with coefficient one in the highest root, from the
    classification tables."""
    if type_label == "A":
        return set(range(1, rank + 1))
    if type_label == "B":
        return {1}
    if type_label == "C":
        return {rank}
    if type_label == "D":
        return {1, rank - 1, rank}
    return {"E6": {1, 6}, "E7": {7}}.get(type_label, set())


def cartan_determinant(type_label: str, rank: int) -> int:
    """Order of the fundamental group: det of the Cartan matrix."""
    if type_label == "A":
        return rank + 1
    if type_label in ("B", "C"):
        return 2
    if type_label == "D":
        return 4
    return {"E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}[type_label]


# ---------------------------------------------------------------- algebra

def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(u, v):
        total += a * b
    return total


def coroot(alpha: Sequence[Fraction]) -> Vector:
    norm = dot(alpha, alpha)
    return tuple(2 * x / norm for x in alpha)


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Unique solution of a nonsingular square system, by Gauss-Jordan."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)


def determinant(matrix: Sequence[Sequence[int]]) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return result


def coroot_coefficients(roots: Sequence[Vector], v: Sequence[Fraction]):
    """(c, perp): v = sum c_i coroot_i + perp with perp orthogonal to all roots."""
    coroots = [coroot(a) for a in roots]
    n = len(roots)
    gram = [[dot(coroots[k], roots[j]) for k in range(n)] for j in range(n)]
    c = solve(gram, [dot(v, a) for a in roots])
    perp = list(v)
    for ci, cv in zip(c, coroots):
        for t, x in enumerate(cv):
            perp[t] -= ci * x
    return c, tuple(perp)


def fundamental_coweight(roots: Sequence[Vector], node: int) -> Vector:
    """The vector in the coroot span pairing to delta_{node, j} with root j."""
    coroots = [coroot(a) for a in roots]
    n = len(roots)
    gram = [[dot(coroots[k], roots[j]) for k in range(n)] for j in range(n)]
    x = solve(gram, [Fraction(int(j == node - 1)) for j in range(n)])
    out = [Fraction(0)] * len(roots[0])
    for xk, cv in zip(x, coroots):
        for t, y in enumerate(cv):
            out[t] += xk * y
    return tuple(out)


def below_top(roots: Sequence[Vector], node: int) -> Vector:
    """mubar - coroot_node / 2 for mubar the fundamental coweight at node:
    the maximal element below the top, by the paper's theorem."""
    mubar = fundamental_coweight(roots, node)
    return tuple(m - HALF * c for m, c in zip(mubar, coroot(roots[node - 1])))


def is_dominant(roots: Sequence[Vector], v: Sequence[Fraction]) -> bool:
    return all(dot(v, a) >= 0 for a in roots)


def dominant_rep(type_label: str, roots: Sequence[Vector], v: Sequence[Fraction]) -> Vector:
    """Dominant element of the Weyl orbit of v.

    Closed forms for the classical types (permutations, signed permutations,
    signed permutations with an even number of sign changes); reflection
    descent, in this module's own arithmetic, for the exceptional types.
    """
    v = tuple(v)
    if type_label == "A":
        return tuple(sorted(v, reverse=True))
    if type_label in ("B", "C"):
        return tuple(sorted((abs(x) for x in v), reverse=True))
    if type_label == "D":
        out = sorted((abs(x) for x in v), reverse=True)
        negatives = sum(1 for x in v if x < 0)
        if negatives % 2 and out[-1] != 0:
            out[-1] = -out[-1]
        return tuple(out)
    coroots = [coroot(a) for a in roots]
    current = list(v)
    while True:
        for a, av in zip(roots, coroots):
            c = dot(current, a)
            if c < 0:
                current = [x - c * y for x, y in zip(current, av)]
                break
        else:
            return tuple(current)


def _partial_sums(v: Sequence[Fraction]) -> list[Fraction]:
    out, acc = [], Fraction(0)
    for x in v:
        acc += x
        out.append(acc)
    return out


def newton_leq(type_label: str, roots: Sequence[Vector], x: Vector, y: Vector) -> bool:
    """Dominance order on dominant points.

    Types A and C by the polygon criterion (the polygon of x lies on or
    below that of y, with equal endpoints in type A); other types by the
    coroot coefficients of y - x, solved here.
    """
    diff = [b - a for a, b in zip(x, y)]
    if type_label == "A":
        sums = _partial_sums(diff)
        return sums[-1] == 0 and all(s >= 0 for s in sums)
    if type_label == "C":
        return all(s >= 0 for s in _partial_sums(diff))
    c, perp = coroot_coefficients(roots, diff)
    return all(t == 0 for t in perp) and all(ci >= 0 for ci in c)


REASONS = ("not_dominant", "not_in_span", "negative_coefficient", "non_integral")


def reason_code(message: str) -> str:
    """Classify a rejection message of the program's membership test."""
    for needle, code in (("not dominant", "not_dominant"),
                         ("not in the coroot span", "not_in_span"),
                         ("negative coroot coefficient", "negative_coefficient"),
                         ("non-integral", "non_integral")):
        if needle in message:
            return code
    return "unknown"


def membership(type_label: str, roots: Sequence[Vector], nu: Vector, mubar: Vector):
    """(True, (c, J)) or (False, reason code), the conditions tested in order.

    In types A and C the coroot coefficients are partial sums of mubar - nu
    (the polygon criterion); elsewhere they are solved here.
    """
    if not is_dominant(roots, nu):
        return False, "not_dominant"
    diff = [m - x for m, x in zip(mubar, nu)]
    n = len(roots)
    if type_label in ("A", "C"):
        sums = _partial_sums(diff)
        in_span = type_label == "C" or sums[-1] == 0
        c = tuple(sums[:n])
    else:
        c, perp = coroot_coefficients(roots, diff)
        in_span = all(t == 0 for t in perp)
    if not in_span:
        return False, "not_in_span"
    if any(ci < 0 for ci in c):
        return False, "negative_coefficient"
    zero = frozenset(j + 1 for j, a in enumerate(roots) if dot(nu, a) == 0)
    if any(c[j].denominator != 1 for j in range(n) if j + 1 not in zero):
        return False, "non_integral"
    return True, (tuple(c), zero)


# --------------------------------------------------------------- polygons

def concave_polygons(width: int, height: int) -> list[tuple[tuple[int, int], ...]]:
    """Concave lattice polygons from (0,0) to (width, height).

    Each is its list of segments (w, h): slopes h/w in [0, 1], strictly
    decreasing, every vertex a lattice point.
    """
    out = []

    def extend(w, h, last, segments):
        if w == width:
            if h == height:
                out.append(tuple(segments))
            return
        for dw in range(1, width - w + 1):
            for dh in range(0, min(dw, height - h) + 1):
                slope = Fraction(dh, dw)
                if last is None or slope < last:
                    extend(w + dw, h + dh, slope, segments + [(dw, dh)])

    extend(0, 0, None, [])
    return out


def _slopes(segments) -> list[Fraction]:
    out = []
    for w, h in segments:
        out += [Fraction(h, w)] * w
    return out


def is_symmetric(segments) -> bool:
    return sorted(segments) == sorted((w, w - h) for w, h in segments)


def type_a_points(n: int, k: int) -> set[Vector]:
    """Newton points of GL_{n+1} below omega_k: concave polygons to (n+1, k),
    slopes shifted by -k/(n+1) to the traceless representative."""
    shift = Fraction(k, n + 1)
    return {tuple(s - shift for s in _slopes(seg)) for seg in concave_polygons(n + 1, k)}


def type_c_points(n: int) -> set[Vector]:
    """Newton points of the Siegel case: symmetric polygons to (2n, n); the
    point is the upper half of the slopes, shifted by -1/2."""
    return {
        tuple(s - HALF for s in _slopes(seg)[:n])
        for seg in concave_polygons(2 * n, n)
        if is_symmetric(seg)
    }


# --------------------------------------------------------- slope profiles

def profile(half_nu: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Slopes and multiplicities of the polarized profile of a symplectic half."""
    values = sorted([HALF + x for x in half_nu] + [HALF - x for x in half_nu],
                    reverse=True)
    slopes, mults = [], []
    for v in values:
        if slopes and slopes[-1] == v:
            mults[-1] += 1
        else:
            slopes.append(v)
            mults.append(1)
    return tuple(slopes), tuple(mults)


def fold(slopes, mults) -> tuple[Fraction, ...]:
    """Partial degrees d_i = sum_{j <= i} m_j * l_j, index by index."""
    return tuple(
        sum((mults[j] * slopes[j] for j in range(i + 1)), Fraction(0))
        for i in range(len(slopes))
    )


def margin(slopes) -> Fraction | None:
    if len(slopes) < 2:
        return None
    return min(slopes[j] - slopes[j + 1] for j in range(len(slopes) - 1)) / 4


def envelope(slopes, mults, h: int) -> Fraction:
    """Height of the polygon at abscissa h."""
    values = []
    for s, m in zip(slopes, mults):
        values += [s] * m
    return sum(values[:h], Fraction(0))


def split_is_valid(mults, i: int, dh: int) -> bool:
    r = len(mults)
    need = [0] * (r + 2)
    for slot in {i, r - i}:
        need[slot] += dh
        need[slot + 1] += dh
    return 1 <= i < r and all(need[j] <= mults[j - 1] for j in range(1, r + 1))


def split(slopes, mults, i: int, dh: int):
    """Next-to-maximal profile: average slopes i and i+1 (and the mirror
    pair) on 2*dh of the multiplicity taken from both neighbours."""
    r = len(slopes)
    values = []
    for s, m in zip(slopes, mults):
        values += [s] * m
    for slot in sorted({i, r - i}):
        a, b = slopes[slot - 1], slopes[slot]
        for s in (a, b):
            for _ in range(dh):
                values.remove(s)
        values += [(a + b) / 2] * (2 * dh)
    values.sort(reverse=True)
    out_s, out_m = [], []
    for v in values:
        if out_s and out_s[-1] == v:
            out_m[-1] += 1
        else:
            out_s.append(v)
            out_m.append(1)
    return tuple(out_s), tuple(out_m)


def polygon_below(a, b) -> bool:
    """Profile a = (slopes, mults) lies on or below profile b at every height."""
    total = sum(a[1])
    return all(envelope(*a, h) <= envelope(*b, h) for h in range(total + 1))


# ------------------------------------------------------- Hecke valuations

def siegel_root_sum(full: Sequence[Fraction], lower: bool = True) -> Fraction:
    """Sum of <eps, alpha> over the Siegel radical: position (2n+1-i, j) of
    the lower radical, i <= j, pairs as full_{2n+1-i} - full_j."""
    dim = len(full)
    n = dim // 2
    total = Fraction(0)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            total += full[dim - i] - full[j - 1]
    return total if lower else -total


def siegel_root_values(full, lower: bool = True) -> list[Fraction]:
    dim = len(full)
    n = dim // 2
    sign = 1 if lower else -1
    return [sign * (full[dim - i] - full[j - 1])
            for i in range(1, n + 1) for j in range(i, n + 1)]


def gl_root_sum(full: Sequence[Fraction]) -> Fraction:
    """Sum of full_i - full_j over the upper-triangular positions i < j."""
    return sum((full[i] - full[j] for i in range(len(full))
                for j in range(i + 1, len(full))), Fraction(0))


def perturbed_full(h: int, d: Fraction, dim: int) -> list[Fraction]:
    """Filtration element of height h with the degree defect d - 1 moved
    from slot dim - h + 1 to slot max(h - 1, 1) (1-based)."""
    full = [Fraction(1)] * h + [Fraction(0)] * (dim - h)
    full[max(h - 1, 1) - 1] += d - 1
    full[dim - h] += 1 - d
    return full


def n_g(steps, dim: int) -> Fraction:
    return min(sum(perturbed_full(h, d, dim)[: dim // 2], Fraction(0)) for h, d in steps)


def c_value(steps, dim: int, lower: bool) -> Fraction | None:
    """Largest Siegel-radical index valuation of the perturbed elements, or
    None when one of them pairs negatively with a radical root."""
    values = []
    for h, d in steps:
        full = perturbed_full(h, d, dim)
        if any(v < 0 for v in siegel_root_values(full, lower)):
            return None
        values.append(siegel_root_sum(full, lower))
    return max(values)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % q for q in range(2, int(p ** 0.5) + 1))
