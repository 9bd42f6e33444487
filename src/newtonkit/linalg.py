"""Exact integer linear algebra: the inverse of an integer matrix.

Small dense matrices only (rank <= 8 throughout the library).  Nothing
here solves a linear system per call: every root datum inverts its Cartan
matrix once, lazily, into its integer kernel (``RootDatum.kernel``, a
``rootdata.IntegerKernel``), which holds the simple roots and coroots as
integer rows over common denominators and the inverse as (Q, q) from
``invert``.  Root pairings, fundamental (co)weights and the dominance
test are integer matrix-vector products on the numerators that each
cocharacter holds over its denominator; one kernel method, ``split``,
cuts a vector into its coroot coefficients and its part orthogonal to the
roots, and the dominance order, Kottwitz membership, maximal elements and
the action of sigma all read that split.
The Kottwitz enumeration inverts each principal Cartan block once per
Cartan matrix per process, into a table shared by every datum with that
matrix, and walks its candidates in integer numerators (see
``kottwitz.enumerate_bgmu``).
"""

from __future__ import annotations

import math
from typing import Sequence


def invert(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Inverse of an invertible integer matrix as (Q, q): a^-1 = Q / q, with
    q > 0 the least common denominator of the entries of a^-1.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [a | I]: every
    division by the previous pivot is exact, and the left block ends as
    d * I and the right block as d * a^-1, with d = +-det(a).
    """
    n = len(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[c], m[pivot] = m[pivot], m[c]
        p = m[c][c]
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[c])]
        prev = p
    g = math.gcd(prev, *(x for row in m for x in row[n:]))
    if prev < 0:
        g = -g
    return [[x // g for x in row[n:]] for row in m], prev // g

