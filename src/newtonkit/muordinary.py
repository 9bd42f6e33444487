"""Slope profiles, degrees and the canonical-subgroup uniqueness bound.

A profile is a strictly descending list of rational slopes in [0,1] with
positive integer multiplicities.  Heights h_i are the partial multiplicity
sums, degrees d_i the slope-weighted partial sums, and delta is a quarter
of the smallest gap between consecutive slopes.  A subgroup is modeled as
an abstract (height, degree) pair constrained by the concave envelope
h -> max degree at height h.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import integer, vec_parse


@dataclass(frozen=True)
class SlopeProfile:
    slopes: tuple[Fraction, ...]
    mults: tuple[int, ...]
    polarized: bool = False
    # provenance of a next-to-maximal profile: (original, i0, dh)
    origin: tuple["SlopeProfile", int, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "slopes", vec_parse(self.slopes))
        if len(self.slopes) != len(self.mults) or not self.slopes:
            raise ValueError("slopes and multiplicities must be non-empty and aligned")
        for m in self.mults:
            integer(m, "multiplicity", 1, error="multiplicities must be positive integers")
        if any(s < 0 or s > 1 for s in self.slopes):
            raise ValueError("slopes must lie in [0, 1]")
        if any(a <= b for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError("slopes must be strictly descending")
        if self.polarized and not self._polarization_holds():
            raise ValueError("profile is not polarized: need slope symmetry about 1/2")

    def _polarization_holds(self) -> bool:
        r = len(self.slopes)
        return all(
            self.slopes[i] + self.slopes[r - 1 - i] == 1
            and self.mults[i] == self.mults[r - 1 - i]
            for i in range(r)
        )

    @property
    def r(self) -> int:
        return len(self.slopes)

    @property
    def heights(self) -> tuple[int, ...]:
        out = []
        total = 0
        for m in self.mults:
            total += m
            out.append(total)
        return tuple(out)

    @property
    def total_height(self) -> int:
        return sum(self.mults)


@dataclass(frozen=True)
class DegreeData:
    profile: SlopeProfile
    d: tuple[Fraction, ...]
    delta: Fraction | None  # absent when there is a single slope


def profile_from_newton(nu, embedding_dim: int) -> SlopeProfile:
    """Slope profile of a Newton point.

    Accepts either the full slope vector (length == embedding_dim, used as
    is) or the symplectic half (length == embedding_dim/2, completed by the
    polarization rule: slopes 1/2 + nu_i together with their 1-complements).
    """
    integer(embedding_dim, "embedding dimension", 1)
    coords = nu.coords if hasattr(nu, "coords") else vec_parse(nu)
    if len(coords) == embedding_dim:
        values = sorted(coords, reverse=True)
        polarized = all(
            values[i] + values[len(values) - 1 - i] == 1 for i in range(len(values))
        )
    elif 2 * len(coords) == embedding_dim:
        half = Fraction(1, 2)
        upper = [half + x for x in coords]
        lower = [half - x for x in coords]
        values = sorted(upper + lower, reverse=True)
        polarized = True
    else:
        raise ValueError(
            f"cannot expand {len(coords)} coordinates into dimension {embedding_dim}"
        )
    if any(v < 0 or v > 1 for v in values):
        raise ValueError("slopes fall outside [0, 1] after normalization")
    slopes: list[Fraction] = []
    mults: list[int] = []
    for v in values:
        if slopes and slopes[-1] == v:
            mults[-1] += 1
        else:
            slopes.append(v)
            mults.append(1)
    return SlopeProfile(tuple(slopes), tuple(mults), polarized=polarized)


def degrees(profile: SlopeProfile) -> DegreeData:
    """Partial degrees d_i and the uniqueness margin delta."""
    d: list[Fraction] = []
    acc = Fraction(0)
    for s, m in zip(profile.slopes, profile.mults):
        acc += m * s
        d.append(acc)
    if profile.r >= 2:
        delta = Fraction(1, 4) * min(
            a - b for a, b in zip(profile.slopes, profile.slopes[1:])
        )
    else:
        delta = None
    return DegreeData(profile, tuple(d), delta)


def max_degree_bound(profile: SlopeProfile, h: int) -> Fraction:
    """Largest possible degree of a subgroup of height h: the concave envelope."""
    integer(h, "height", 0, profile.total_height)
    acc = Fraction(0)
    remaining = h
    for s, m in zip(profile.slopes, profile.mults):
        take = min(m, remaining)
        acc += take * s
        remaining -= take
        if remaining == 0:
            break
    return acc


def check_uniqueness(dd: DegreeData, i: int):
    """Certify that two distinct subgroups of height h_i and degree > d_i - delta
    cannot coexist.

    For every integer h with 0 <= h < h_i and 2 h_i - h <= total height
    (the heights of an intersection and a sum of two such subgroups), the
    subadditivity of degrees forces
        2 (d_i - delta) >= f(h) = bound(h) + bound(2 h_i - h).
    Returns (True, None) when every h passes, else (False, smallest bad h).
    Vacuously true when delta is absent (single slope).
    f is concave and f(h_i) = 2 d_i exceeds the threshold as delta > 0, so the
    failing heights form an interval ending at h_i - 1, found by bisection.
    """
    profile = dd.profile
    integer(i, "index", 1, profile.r)
    if dd.delta is None:
        return True, None
    if dd.delta <= 0:
        raise ValueError(f"delta must be positive, got {dd.delta}")
    h_i = profile.heights[i - 1]
    threshold = 2 * (dd.d[i - 1] - dd.delta)

    def fails(h):
        f = max_degree_bound(profile, h) + max_degree_bound(profile, 2 * h_i - h)
        return threshold < f

    lo, hi = max(0, 2 * h_i - profile.total_height), h_i - 1
    if hi < lo or not fails(hi):
        return True, None
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid + 1
    return False, lo


def next_to_max_profile(profile: SlopeProfile, i: int, split: int) -> SlopeProfile:
    """Insert the averaged slopes (slopes[i] + slopes[i+1])/2 and its mirror.

    Each insertion carries multiplicity 2*split and lowers the two adjacent
    multiplicities by split; slopes whose multiplicity reaches zero are
    dropped.  An average lies strictly between its two neighbours, so the
    slopes stay strictly descending.  The profile must be polarized and
    stays polarized.
    """
    if not profile.polarized:
        raise ValueError("next-to-maximal splitting requires a polarized profile")
    r = profile.r
    integer(i, "insertion index", 1, r - 1)
    integer(split, "split", 1, error="split must be a positive integer")
    slots = sorted({i, r - i})
    reductions = [0] * (r + 1)
    for j in slots:
        reductions[j] += split
        reductions[j + 1] += split
    for j in range(1, r + 1):
        if reductions[j] > profile.mults[j - 1]:
            raise ValueError(
                f"split {split} exceeds the multiplicity available at slope {j}"
            )
    entries: list[tuple[Fraction, int]] = []
    for j in range(1, r + 1):
        m = profile.mults[j - 1] - reductions[j]
        if m > 0:
            entries.append((profile.slopes[j - 1], m))
        if j in slots:
            inserted = (profile.slopes[j - 1] + profile.slopes[j]) / 2
            entries.append((inserted, 2 * split))
    return SlopeProfile(
        tuple(s for s, _ in entries),
        tuple(m for _, m in entries),
        polarized=True,
        origin=(profile, i, split),
    )


def modified_degrees(split_profile: SlopeProfile) -> tuple[Fraction, ...]:
    """Degree thresholds for the canonical steps of a next-to-maximal profile.

    Computed in closed form from the unsplit profile's degrees d_j and
    slopes l_j: at an insertion slot j the lowered step has

        s_j = d_j - dh * l_j,        s'_j = d_j + dh * l_{j+1},

    and every step away from the insertions keeps s_j = d_j (steps whose
    multiplicity was exhausted are dropped).  These values coincide with
    the degree list of the split profile itself, which is the cross-check
    the test suite performs.  The provenance (original, i0, dh) is read
    from the profile's origin, which next_to_max_profile sets.
    """
    if split_profile.origin is None:
        raise ValueError("split provenance (i0, dh) is missing")
    original, i0, dh = split_profile.origin
    dd = degrees(original)
    r = original.r
    slots = {i0, r - i0}
    out: list[Fraction] = []
    for j in range(1, r + 1):
        reduction = dh * ((j in slots) + (j - 1 in slots))
        if original.mults[j - 1] - reduction > 0:
            s_j = dd.d[j - 1]
            if j in slots:
                s_j -= dh * original.slopes[j - 1]
            out.append(s_j)
        if j in slots:
            out.append(dd.d[j - 1] + dh * original.slopes[j])
    return tuple(out)
