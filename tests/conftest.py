import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import newtonkit
import newtonkit.oracles as oracles
from newtonkit.hecke import HeckeValuation
from newtonkit.muordinary import SlopeProfile
from reference import ip

_SLOPES_BY_R = {
    1: [(F(1, 2),)],
    2: [(F(1), F(0)), (F(3, 4), F(1, 4)), (F(2, 3), F(1, 3))],
    3: [(F(1), F(1, 2), F(0)), (F(3, 4), F(1, 2), F(1, 4)),
        (F(2, 3), F(1, 2), F(1, 3))],
    4: [(F(1), F(3, 4), F(1, 4), F(0)), (F(1), F(2, 3), F(1, 3), F(0)),
        (F(3, 4), F(2, 3), F(1, 3), F(1, 4))],
}


def polarized_profiles(max_n=5, max_r=4):
    """Every polarized profile over the fixture slope sets with total height
    at most 2*max_n and at most max_r distinct slopes."""
    out = []
    for r in range(1, max_r + 1):
        for slopes in _SLOPES_BY_R[r]:
            half = (r + 1) // 2
            for mults_half in itertools.product(range(1, max_n + 1), repeat=half):
                mults = list(mults_half) + list(reversed(mults_half[: r // 2]))
                if sum(mults) % 2 == 0 and sum(mults) <= 2 * max_n:
                    out.append(SlopeProfile(slopes, tuple(mults), polarized=True))
    return out


def kernel_split(datum, coords):
    """The kernel's split of coords in Fractions: (coroot coefficients,
    orthogonal part)."""
    k = datum.kernel
    v = datum.cochar(coords)
    C, P = k.split(v.x)
    return tuple(F(c, k.q * k.R * v.L) for c in C), tuple(F(t, k.qRK * v.L) for t in P)


def reflect(v, i):
    """The simple reflection s_i (1-based i) of a cocharacter, in Fractions."""
    datum = v.datum
    c = ip(v.coords, datum.simple_roots[i - 1])
    return datum.cochar([a - c * b for a, b in zip(v.coords, datum.simple_coroots[i - 1])])


def scanned_points(mu):
    """(d, points): the denominator of grid_enumerate_bgmu's scan of mu, and
    the numerators over d of every candidate the scan tests, in its order."""
    real, seen = oracles._grid_member, []

    def spy(mu, d, rows):
        member = real(mu, d, rows)
        seen.append(d)

        def test(pt):
            seen.append(tuple(pt))
            return member(pt)

        return test

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_grid_member", spy)
        oracles.grid_enumerate_bgmu(mu)
    return seen[0], seen[1:]


def valuation_product(e1, e2):
    """The valuation of a product of two diagonal elements: the entrywise sum."""
    return HeckeValuation(tuple(a + b for a, b in zip(e1.full, e2.full)), e1.s + e2.s, e1.p)


def fresh_python(script, *args):
    """The stdout of script run in a fresh interpreter that imports this
    checkout's newtonkit; a failure raises with the child's stderr."""
    src = str(Path(newtonkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
