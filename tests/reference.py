"""Fraction references for the tier-1 checks, on the standard library alone.

Each function here does in plain Fractions what a check compares the
library against: an inner product, one Gauss-Jordan elimination, and the
inverse of a datum's Gram matrix <coroot_k, root_j> with what it gives
(coroot coefficients, fundamental weights).  Nothing imports newtonkit: a
root datum is read through its attributes simple_roots and simple_coroots
alone, so no check shares code with the path it checks.
"""

from fractions import Fraction
from functools import cache


def ip(a, b):
    """The inner product of two vectors of equal length, as a Fraction."""
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def gauss_jordan(rows, width=None):
    """Gauss-Jordan elimination over Fractions on the first width columns of
    rows (all of them by default), the other columns carried along.

    Returns (rank, det, reduced): reduced has each pivot 1 and the rest of its
    column 0, so [A | B] with A square and invertible reduces to
    [I | A^-1 B]; det is the determinant of A when the rows are square on
    the first width columns (0 when they are singular).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if width is None:
        width = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        p = m[rank][col]
        det *= p
        m[rank] = [x / p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det, m


@cache
def gram_inverse(datum, nodes=None):
    """The inverse of the Gram matrix G[j][k] = <coroot_k, root_j> on the
    0-based nodes (all of them by default), rows by coroot: c = G^-1 p
    solves sum_k c_k <coroot_k, root_j> = p_j.  Solved once per datum and
    node set."""
    if nodes is None:
        nodes = tuple(range(len(datum.simple_roots)))
    roots, coroots = datum.simple_roots, datum.simple_coroots
    size = len(nodes)
    _, _, reduced = gauss_jordan([[ip(coroots[k], roots[j]) for k in nodes]
                                  + [int(j == h) for h in nodes] for j in nodes], size)
    return tuple(tuple(row[size:]) for row in reduced)


def coroot_split(datum, v):
    """(c, perp): v = sum_k c_k coroot_k + perp, perp orthogonal to every
    simple root."""
    coroots = datum.simple_coroots
    pairings = [ip(v, root) for root in datum.simple_roots]
    c = tuple(ip(row, pairings) for row in gram_inverse(datum))
    return c, tuple(x - ip(c, [a[t] for a in coroots]) for t, x in enumerate(v))


def fundamental_weights(datum):
    """The vectors w_i of the root span with <coroot_j, w_i> = delta_ij: w_i
    is sum_k G^-1[i][k] root_k."""
    roots = datum.simple_roots
    return tuple(tuple(ip(row, [a[s] for a in roots]) for s in range(len(roots[0])))
                 for row in gram_inverse(datum))
