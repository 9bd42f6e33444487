"""Root data with exact rational coordinates.

Every indecomposable type A..G2 is realized by explicit simple roots and
coroots inside a fixed rational ambient space, with the canonical pairing
given by the dot product.  Classical types use the epsilon bases

    A_n : ambient n+1,  alpha_i = e_i - e_{i+1}
    B_n : ambient n,    alpha_n = e_n,            coroot 2 e_n
    C_n : ambient n,    alpha_n = 2 e_n,          coroot e_n
    D_n : ambient n,    alpha_n = e_{n-1} + e_n   (the fork node, written
          alpha_{n-1}^+ in some sources; Bourbaki node n)

and the exceptional types use the Bourbaki realizations (E6/E7 sit inside
the 8-dimensional E8 ambient space, F4 in dimension 4, G2 in dimension 3).
Coroots are 2a/(a,a), which is rational for every type above.

All arithmetic is exact: a cocharacter holds integer numerators over one
denominator, and the linear algebra runs on them (IntegerKernel, whose split
gives coroot coefficients plus orthogonal part to sigma_apply and to the
order and membership tests in kottwitz); nothing here ever touches a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .linalg import invert
from .rationals import dot, vec_parse

INDECOMPOSABLE_TYPES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E6": (6, 6),
    "E7": (7, 7),
    "E8": (8, 8),
    "F4": (4, 4),
    "G2": (2, 2),
}


@dataclass(frozen=True)
class RootDatum:
    """An immutable root datum: simple roots/coroots in a rational ambient space."""

    type_label: str
    rank: int
    ambient_dim: int
    simple_roots: tuple[tuple[Fraction, ...], ...]
    simple_coroots: tuple[tuple[Fraction, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    sigma: tuple[int, ...]  # 1-based image list; sigma[i-1] is the image of node i
    factors: tuple["RootDatum", ...] = ()

    def __hash__(self):
        # equal data agree on these fields, and hashing them touches no Fraction
        return hash((self.type_label, self.rank, self.cartan, self.sigma))

    @cached_property
    def sigma_orbits(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of sigma on the nodes 1..rank, each from its least node."""
        orbits = []
        for i in range(1, self.rank + 1):
            if not any(i in orbit for orbit in orbits):
                orbit = [i]
                while (j := self.sigma[orbit[-1] - 1]) != i:
                    orbit.append(j)
                orbits.append(tuple(orbit))
        return tuple(orbits)

    @property
    def sigma_order(self) -> int:
        return math.lcm(*map(len, self.sigma_orbits))

    @property
    def is_product(self) -> bool:
        return bool(self.factors)

    @cached_property
    def kernel(self) -> "IntegerKernel":
        """The datum's integer linear algebra, built on first use."""
        return IntegerKernel(self)

    def cochar(self, coords) -> "RationalCocharacter":
        """The cocharacter with these coordinates: Fractions, ints or strings."""
        coords = vec_parse(coords)
        L, (x,) = _integer_rows([coords])
        v = RationalCocharacter(x, L, self)
        v.__dict__["coords"] = coords  # its Fraction view, already at hand
        return v


@dataclass(frozen=True)
class RationalCocharacter:
    """The exact rational vector x / L in the cocharacter space of a fixed datum,
    in lowest terms: L > 0 and gcd(L, *x) = 1 (zero is stored over 1), so each
    vector has one stored form, and equality and hashing are the vector's."""

    x: tuple[int, ...]
    L: int
    datum: RootDatum

    def __post_init__(self):
        if len(self.x) != self.datum.ambient_dim:
            raise ValueError(
                f"coordinate length {len(self.x)} != ambient dimension "
                f"{self.datum.ambient_dim}"
            )
        if self.L <= 0:
            raise ValueError(f"denominator {self.L} is not positive")
        g = math.gcd(self.L, *self.x)
        object.__setattr__(self, "x", tuple(self.x) if g == 1 else tuple([t // g for t in self.x]))
        object.__setattr__(self, "L", self.L // g)

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, self.L) for t in self.x)

    def over(self, M: int) -> list[int]:
        """The numerators of the vector over M, a multiple of L."""
        return [t * (M // self.L) for t in self.x]


def _integer_rows(vectors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows) with vectors = rows / d, d the lcm of all denominators."""
    d = math.lcm(*[x.denominator for v in vectors for x in v])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in v]) for v in vectors])


class IntegerKernel:
    """The linear algebra of one root datum, on integer numerators.

    The simple roots are the integer rows ``roots`` over the common
    denominator R, the simple coroots ``coroots`` over K, and the inverse
    of the Cartan matrix is Q / q (linalg.invert), inverted once per datum.
    The inverses of its principal blocks, which only the Kottwitz
    enumeration needs, live in kottwitz's table per Cartan matrix, not
    here.  A cocharacter enters as its numerators x over its denominator L,
    so every product is an integer mat-vec product, and callers build their
    results from integers.  ``split`` is the one place that cuts x / L into
    coroot coefficients and a part orthogonal to the roots.
    """

    def __init__(self, datum: "RootDatum"):
        self.R, self.roots = _integer_rows(datum.simple_roots)
        self.K, self.coroots = _integer_rows(datum.simple_coroots)
        Q, self.q = invert(datum.cartan)
        self.Q = tuple(map(tuple, Q))
        self.qRK = self.q * self.R * self.K
        self._root_cols = tuple(zip(*self.roots))
        self._coroot_cols = tuple(zip(*self.coroots))

    def root_pairings(self, x: Sequence[int]) -> list[int]:
        """R <x, root_j> for every simple root."""
        return [sum(map(mul, row, x)) for row in self.roots]

    def coefficients(self, pairings: Sequence[int]) -> list[int]:
        """Q pairings: q times the coroot coefficients c solving
        cartan . c = pairings (the Gram matrix of <coroot_i, root_j> is
        cartan[j][i])."""
        return [sum(map(mul, row, pairings)) for row in self.Q]

    def root_sum(self, c: Sequence[int]) -> list[int]:
        """R sum_k c_k root_k."""
        return [sum(map(mul, col, c)) for col in self._root_cols]

    def coroot_sum(self, c: Sequence[int]) -> list[int]:
        """K sum_k c_k coroot_k."""
        return [sum(map(mul, col, c)) for col in self._coroot_cols]

    def split(self, x: Sequence[int],
              pairings: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
        """(C, P) for a numerator vector x over L: C = coefficients(root_pairings(x)),
        the coroot coefficients of x / L over q R L, and P the numerators over
        q R K L of the rest, x / L - sum_k C_k coroot_k / (q R L), which pairs
        to zero with every root.  A caller that already holds
        root_pairings(x) passes it as pairings."""
        if pairings is None:
            pairings = self.root_pairings(x)
        C = self.coefficients(pairings)
        return C, [t * self.qRK - s for t, s in zip(x, self.coroot_sum(C))]


def _chain_roots(n: int) -> list[tuple[Fraction, ...]]:
    roots = []
    for i in range(n):
        v = [Fraction(0)] * (n + 1)
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        roots.append(tuple(v))
    return roots


def _unit(dim: int, i: int, value=1) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * dim
    v[i] = Fraction(value)
    return tuple(v)


def _simple_roots_for(type_label: str, rank: int) -> list[tuple[Fraction, ...]]:
    n = rank
    if type_label == "A":
        return _chain_roots(n)
    if type_label in ("B", "C", "D"):
        roots = _chain_roots(n - 1)
        if type_label == "B":
            roots.append(_unit(n, n - 1))
        elif type_label == "C":
            roots.append(_unit(n, n - 1, 2))
        else:
            v = [Fraction(0)] * n
            v[n - 2], v[n - 1] = Fraction(1), Fraction(1)
            roots.append(tuple(v))
        return roots
    if type_label in ("E6", "E7", "E8"):
        half = Fraction(1, 2)
        e8 = [
            (half, -half, -half, -half, -half, -half, -half, half),
            (Fraction(1), Fraction(1)) + (Fraction(0),) * 6,
        ]
        for k in range(3, 9):
            v = [Fraction(0)] * 8
            v[k - 3], v[k - 2] = Fraction(-1), Fraction(1)
            e8.append(tuple(v))
        return e8[:n]
    if type_label == "F4":
        half = Fraction(1, 2)
        return [
            (Fraction(0), Fraction(1), Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
            (half, -half, -half, -half),
        ]
    if type_label == "G2":
        return [
            (Fraction(1), Fraction(-1), Fraction(0)),
            (Fraction(-2), Fraction(1), Fraction(1)),
        ]
    raise ValueError(f"unknown type label {type_label!r}")


def _coroot(root: Sequence[Fraction]) -> tuple[Fraction, ...]:
    norm = dot(root, root)
    return tuple(2 * x / norm for x in root)


_NAMED_FLIPS = {
    "A": lambda n: tuple(n + 1 - i for i in range(1, n + 1)),
    "D": lambda n: tuple(range(1, n - 1)) + (n, n - 1),
    "E6": lambda n: (6, 2, 5, 4, 3, 1),
}


def _resolve_sigma(type_label: str, rank: int, sigma_spec) -> tuple[int, ...]:
    if sigma_spec in (None, "identity", "id"):
        return tuple(range(1, rank + 1))
    if sigma_spec == "flip":
        maker = _NAMED_FLIPS.get(type_label)
        if maker is None:
            raise ValueError(f"type {type_label} has no named flip automorphism")
        return maker(rank)
    if not isinstance(sigma_spec, (list, tuple)) or any(type(i) is not int for i in sigma_spec):
        raise ValueError(f"sigma {sigma_spec!r} is not identity, id, flip or a list of ints")
    if sorted(sigma_spec) != list(range(1, rank + 1)):
        raise ValueError(f"sigma {sigma_spec!r} is not a permutation of 1..{rank}")
    return tuple(sigma_spec)


def build_datum(type_label: str, rank: int, sigma_spec=None) -> RootDatum:
    """Construct the indecomposable root datum of the given type and rank.

    sigma_spec is None/"identity"/"id", "flip" (the nontrivial diagram
    automorphism of A_n, D_n or E6), or an explicit 1-based permutation: a
    list or tuple of ints (not bools).
    """
    if type_label not in INDECOMPOSABLE_TYPES:
        raise ValueError(f"unknown type label {type_label!r}")
    lo, hi = _RANK_RANGE[type_label]
    if rank < lo or (hi is not None and rank > hi):
        raise ValueError(f"invalid rank {rank} for type {type_label}")
    roots = tuple(_simple_roots_for(type_label, rank))
    coroots = tuple(_coroot(r) for r in roots)
    cartan = tuple(
        tuple(int(dot(roots[i], coroots[j])) for j in range(rank)) for i in range(rank)
    )
    sigma = _resolve_sigma(type_label, rank, sigma_spec)
    for i in range(rank):
        for j in range(rank):
            if cartan[sigma[i] - 1][sigma[j] - 1] != cartan[i][j]:
                raise ValueError(f"sigma {sigma} does not preserve the Cartan matrix")
    return RootDatum(type_label, rank, len(roots[0]), roots, coroots, cartan, sigma)


def product_datum(factors: Sequence[RootDatum]) -> RootDatum:
    """Concatenate root data block-diagonally (sigma stays per-factor)."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("empty product")
    dim = sum(f.ambient_dim for f in factors)
    roots: list[tuple[Fraction, ...]] = []
    coroots: list[tuple[Fraction, ...]] = []
    sigma: list[int] = []
    offset = 0
    node_offset = 0
    for f in factors:
        pad_left = (Fraction(0),) * offset
        pad_right = (Fraction(0),) * (dim - offset - f.ambient_dim)
        roots.extend(pad_left + r + pad_right for r in f.simple_roots)
        coroots.extend(pad_left + r + pad_right for r in f.simple_coroots)
        sigma.extend(node_offset + s for s in f.sigma)
        offset += f.ambient_dim
        node_offset += f.rank
    rank = len(roots)
    cartan = tuple(
        tuple(int(dot(roots[i], coroots[j])) for j in range(rank)) for i in range(rank)
    )
    label = "x".join(f"{f.type_label}{f.rank}" for f in factors)
    return RootDatum(label, rank, dim, tuple(roots), tuple(coroots), cartan,
                     tuple(sigma), factors)


def pairing(cochar, char_vector) -> Fraction:
    """Canonical pairing of a cocharacter against a character-space vector."""
    coords = cochar.coords if isinstance(cochar, RationalCocharacter) else cochar
    return dot(coords, char_vector)


def fundamental_weights(datum: RootDatum) -> list[tuple[Fraction, ...]]:
    """Vectors w_i with <coroot_j, w_i> = delta_ij.

    For type A (ambient dimension rank+1) the representatives are the
    partial sums e_1 + ... + e_i; in all other indecomposable types the
    root span determines the weights uniquely:
    w_i = sum_k inv[i][k] root_k pairs with coroot_j to (inv . cartan)[i][j].
    """
    if datum.type_label == "A":
        out = []
        for i in range(1, datum.rank + 1):
            v = [Fraction(0)] * datum.ambient_dim
            for j in range(i):
                v[j] = Fraction(1)
            out.append(tuple(v))
        return out
    k = datum.kernel
    den = k.q * k.R
    return [tuple(Fraction(x, den) for x in k.root_sum(row)) for row in k.Q]


def fundamental_coweights(datum: RootDatum) -> list[tuple[Fraction, ...]]:
    """Vectors w_i in the coroot span with <w_i, root_j> = delta_ij.

    w_i = sum_k inv[k][i] coroot_k pairs with root_j to (cartan . inv)[j][i].
    """
    k = datum.kernel
    den = k.q * k.K
    return [tuple(Fraction(x, den) for x in k.coroot_sum(col)) for col in zip(*k.Q)]


def _root_vectors(datum: RootDatum) -> set[tuple[int, ...]]:
    """The roots as integer coefficient vectors b over the simple roots,
    closed under s_j(b) = b - (sum_k b_k cartan[k][j]) e_j."""
    n = datum.rank
    columns = tuple(zip(*datum.cartan))
    roots = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    frontier = list(roots)
    while frontier:
        b = frontier.pop()
        for j, column in enumerate(columns):
            c = sum(map(mul, b, column))
            if c:
                image = b[:j] + (b[j] - c,) + b[j + 1:]
                if image not in roots:
                    roots.add(image)
                    frontier.append(image)
    return roots


def _ambient_root(datum: RootDatum, b: Sequence[int]) -> tuple[Fraction, ...]:
    """sum_k b_k root_k as an ambient vector."""
    k = datum.kernel
    return tuple(Fraction(t, k.R) for t in k.root_sum(b))


def all_roots(datum: RootDatum) -> set[tuple[Fraction, ...]]:
    """The full root system, generated by closing simple reflections."""
    return {_ambient_root(datum, b) for b in _root_vectors(datum)}


def highest_root(datum: RootDatum) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The highest root and its coefficient vector over the simple roots.

    Verified maximal: adding any simple root must leave the root system.
    """
    if datum.is_product:
        raise ValueError("highest root of a product datum: use per-factor calls")
    roots = _root_vectors(datum)
    best = max((b for b in roots if min(b) >= 0), key=sum)
    for j in range(datum.rank):
        if best[:j] + (best[j] + 1,) + best[j + 1:] in roots:
            raise AssertionError("highest-root candidate is not maximal")
    return _ambient_root(datum, best), best


def special_roots(datum: RootDatum) -> frozenset[int]:
    """1-based indices of simple roots with coefficient one in the highest root."""
    if datum.is_product:
        raise ValueError("special roots of a product datum: use per-factor calls")
    _, coeffs = highest_root(datum)
    return frozenset(i + 1 for i, c in enumerate(coeffs) if c == 1)


def is_dominant(v: RationalCocharacter) -> bool:
    return all(p >= 0 for p in v.datum.kernel.root_pairings(v.x))


def reflect_simple(v: RationalCocharacter, i: int) -> RationalCocharacter:
    """Simple reflection s_i acting on the cocharacter side (1-based i)."""
    datum = v.datum
    c = dot(v.coords, datum.simple_roots[i - 1])
    return datum.cochar(
        tuple(a - c * b for a, b in zip(v.coords, datum.simple_coroots[i - 1])))


def dominant_representative(v: RationalCocharacter) -> RationalCocharacter:
    """The unique dominant element of the Weyl orbit, by reflection descent."""
    coords = v.coords
    while True:
        for alpha, coroot in zip(v.datum.simple_roots, v.datum.simple_coroots):
            c = dot(coords, alpha)
            if c < 0:
                coords = tuple(a - c * b for a, b in zip(coords, coroot))
                break
        else:
            return v if coords is v.coords else v.datum.cochar(coords)


def sigma_apply(v: RationalCocharacter) -> RationalCocharacter:
    """Apply sigma, the only code that says how it acts: the coroot coefficient
    at node i moves to node sigma(i), and the part orthogonal to the roots is fixed."""
    k = v.datum.kernel
    C, P = k.split(v.x)
    moved = [C[v.datum.sigma.index(j)] for j in range(1, v.datum.rank + 1)]
    # the orthogonal part plus sum_i c_i coroot_sigma(i), over q R K L
    return RationalCocharacter(
        tuple(p + t for p, t in zip(P, k.coroot_sum(moved))), k.qRK * v.L, v.datum)
