"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
All comparisons are exact rational equality; the only tolerances are the
stated runtime budgets.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from conftest import valuation_product
from newtonkit.hecke import (
    HeckeValuation,
    gl_upper_roots,
    hasse_number,
    m_epsilon_valuation,
    siegel_radical_roots,
)
from newtonkit.kottwitz import (
    enumerate_bgmu,
    maximal_elements,
    newton_leq,
)
from newtonkit.muordinary import (
    check_uniqueness,
    degrees,
    max_degree_bound,
    modified_degrees,
    next_to_max_profile,
)
from newtonkit.oracles import (
    ENUMERATION_LIMIT,
    convex_hull_membership,
    coset_count_bruteforce,
    grid_enumerate_bgmu,
    multiplicative_group_exponent,
    polygon_leq,
    siegel_shape,
    upper_unipotent_shape,
)
from newtonkit.rootdata import (
    build_datum,
    dominant_representative,
    fundamental_coweight,
    special_roots,
)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_maximal_element_theorem():
    cases = (
        [("A", n, k) for n in range(1, 8) for k in range(1, n + 1)]
        + [("B", n, 1) for n in range(2, 7)]
        + [("C", n, n) for n in range(2, 7)]
        + [("D", n, k) for n in range(3, 7) for k in sorted({1, n - 1, n})]
        + [("E6", 6, 1), ("E6", 6, 6), ("E7", 7, 7)]
    )
    start = time.monotonic()
    failures = []
    for t, n, k in cases:
        datum = build_datum(t, n)
        mu = fundamental_coweight(datum, k)
        ks = enumerate_bgmu(mu)
        mx = maximal_elements(ks, exclude_top=True)
        expected = tuple(
            m - F(1, 2) * c
            for m, c in zip(ks.mubar.coords, datum.simple_coroots[k - 1])
        )
        if {e.nu.coords for e in mx} != {expected}:
            failures.append((t, n, k))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(1, ok, f"{len(cases)} (type, node) cases, exact equality, "
                   f"{elapsed:.1f}s < 60s; failures={failures}")


def test_criterion_2_special_root_tables():
    expected = {}
    for n in range(1, 8):
        expected[("A", n)] = set(range(1, n + 1))
    for n in range(2, 7):
        expected[("B", n)] = {1}
        expected[("C", n)] = {n}
    for n in range(4, 7):
        expected[("D", n)] = {1, n - 1, n}
    expected[("D", 3)] = {1, 2, 3}
    expected[("E6", 6)] = {1, 6}
    expected[("E8", 8)] = set()
    expected[("F4", 4)] = set()
    expected[("G2", 2)] = set()
    bad = [
        (t, n)
        for (t, n), want in expected.items()
        if special_roots(build_datum(t, n)) != want
    ]
    # E7: the coefficient-one node, with the labeling discrepancy recorded
    e7 = special_roots(build_datum("E7", 7))
    e7_ok = e7 == {7}
    from newtonkit.cli import _cmd_datum

    class Args:
        type, rank, labeling = "E7", 7, "bourbaki"

    note = _cmd_datum(Args)["labeling"]["note"]
    logged = "alpha_1" in note and "7" in note
    ok = not bad and e7_ok and logged
    _report(2, ok, f"classical+E6+negative tables exact; E7 -> {sorted(e7)} "
                   f"with discrepancy note; bad={bad}")


def test_criterion_3_bgmu_oracle_equivalence():
    start = time.monotonic()
    failures = []
    c2_count = None
    for t, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                 ("C", 2), ("C", 3), ("D", 3), ("G2", 2)]:
        datum = build_datum(t, n)
        for k in sorted(special_roots(datum)):
            mu = fundamental_coweight(datum, k)
            main = set(enumerate_bgmu(mu).points())
            grid = grid_enumerate_bgmu(mu)
            if main != grid:
                failures.append((t, n, k))
            if (t, n, k) == ("C", 2, 2):
                c2_count = len(main)
    elapsed = time.monotonic() - start
    ok = not failures and c2_count == 3 and elapsed < 30.0
    _report(3, ok, f"grid == enumeration elementwise on all rank<=3 minuscule mu, "
                   f"C2 has {c2_count} elements, {elapsed:.1f}s < 30s; "
                   f"failures={failures}")


def test_criterion_4_order_criterion_equivalence():
    rng = random.Random(20260809)
    disagreements = []
    total = 0
    for t, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                 ("C", 2), ("C", 3), ("D", 3), ("G2", 2)]:
        datum = build_datum(t, n)
        for _ in range(500):
            pair = []
            for _ in range(2):
                coords = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 6))
                    for _ in range(datum.ambient_dim)
                )
                pair.append(dominant_representative(datum.cochar(coords)))
            x, y = pair
            total += 1
            if newton_leq(x, y) != convex_hull_membership(x, y):
                disagreements.append((t, n, x.coords, y.coords))
    ok = not disagreements
    _report(4, ok, f"{total} random dominant pairs (denominators <= 6), "
                   f"dominance == convex-hull membership; "
                   f"disagreements={disagreements[:3]}")


def _dominant_gl_valuations(size, max_val):
    return [
        vals
        for vals in itertools.product(range(max_val + 1), repeat=size)
        if all(a >= b for a, b in zip(vals, vals[1:]))
    ]


def _dominant_siegel_valuations(max_entry):
    out = []
    for t1 in range(max_entry + 1):
        for t2 in range(t1, max_entry + 1):
            for s in range(2 * t2, 2 * max_entry + 1):
                full = (t1, t2, s - t2, s - t1)
                if max(full) <= max_entry + 2 and all(
                    v <= max_entry for v in (t1, t2)
                ) and max(full) - min(full) <= max_entry:
                    out.append(full)
    return sorted(set(out))


def test_criterion_5_hecke_index_oracle():
    start = time.monotonic()
    failures = []
    fallback = []  # past ENUMERATION_LIMIT: per-parameter exponents, not marking
    checks = 0
    cases = [("A1", upper_unipotent_shape(2), gl_upper_roots(2), _dominant_gl_valuations(2, 2)),
             ("A2", upper_unipotent_shape(3), gl_upper_roots(3), _dominant_gl_valuations(3, 2)),
             ("C2", siegel_shape(2), siegel_radical_roots(2), _dominant_siegel_valuations(2))]
    for p in (3, 5):
        for name, shape, roots, valuations in cases:
            for vals in valuations:
                k = max(max(vals) - min(vals), 0) + 1
                count = coset_count_bruteforce(list(vals), shape, p, k)
                v = m_epsilon_valuation(list(vals), roots)
                checks += 1
                if count != p ** int(v):
                    failures.append((name, p, vals))
                if (p ** k) ** len(shape.groups) > ENUMERATION_LIMIT:
                    fallback.append(f"{name} p={p} k={k} {vals}")
    # multiplicativity on 200 random dominant pairs
    rng = random.Random(97)
    roots = siegel_radical_roots(3)
    mult_bad = 0
    for _ in range(200):
        t1 = sorted(rng.randint(0, 3) for _ in range(3))
        t2 = sorted(rng.randint(0, 3) for _ in range(3))
        e1 = HeckeValuation.from_blocks(t1, 2 * max(t1) + rng.randint(0, 2), 3)
        e2 = HeckeValuation.from_blocks(t2, 2 * max(t2) + rng.randint(0, 2), 3)
        lhs = m_epsilon_valuation(valuation_product(e1, e2), roots)
        rhs = m_epsilon_valuation(e1, roots) + m_epsilon_valuation(e2, roots)
        if lhs != rhs:
            mult_bad += 1
    elapsed = time.monotonic() - start
    ok = not failures and mult_bad == 0 and elapsed < 120.0
    _report(5, ok, f"{checks} coset counts == p^valuation on A1/A2/C2, p in {{3,5}}; "
                   f"200 multiplicativity pairs exact; {elapsed:.1f}s < 120s; "
                   f"failures={failures[:3]} mult_bad={mult_bad}; {len(fallback)} counted by "
                   f"per-parameter exponents, not literally: {', '.join(fallback)}")


def test_criterion_6_mu_ordinary_degree_suite():
    from conftest import polarized_profiles

    profiles = polarized_profiles()
    failures = []
    split_count = 0
    for profile in profiles:
        dd = degrees(profile)
        # independent fold: explicit index arithmetic
        expect_d = []
        for i in range(1, profile.r + 1):
            expect_d.append(sum(
                profile.mults[k] * profile.slopes[k] for k in range(i)
            ))
        expect_delta = None
        if profile.r >= 2:
            expect_delta = min(
                profile.slopes[k] - profile.slopes[k + 1]
                for k in range(profile.r - 1)
            ) / 4
        if list(dd.d) != expect_d or dd.delta != expect_delta:
            failures.append(("degrees", profile))
            continue
        for i in range(1, profile.r + 1):
            ok, bad_h = check_uniqueness(dd, i)
            if not ok:
                failures.append(("uniqueness", profile, i, bad_h))
        for i in range(1, profile.r):
            max_split = min(
                profile.mults[j - 1] for j in {i, i + 1, profile.r - i,
                                               profile.r - i + 1}
                if 1 <= j <= profile.r
            )
            for dh in range(1, max_split + 1):
                slots = {i, profile.r - i}
                need = [0] * (profile.r + 2)
                for sslot in slots:
                    need[sslot] += dh
                    need[sslot + 1] += dh
                if any(need[j] > profile.mults[j - 1] for j in range(1, profile.r + 1)):
                    continue
                split = next_to_max_profile(profile, i, dh)
                split_count += 1
                if not polygon_leq(split, profile):
                    failures.append(("polygon", profile, i, dh))
                if not any(
                    max_degree_bound(split, h) < max_degree_bound(profile, h)
                    for h in range(profile.total_height + 1)
                ):
                    failures.append(("strict-drop", profile, i, dh))
                if modified_degrees(split) != degrees(split).d:
                    failures.append(("modified-degrees", profile, i, dh))
                sdd = degrees(split)
                for j in range(1, split.r + 1):
                    ok, bad_h = check_uniqueness(sdd, j)
                    if not ok:
                        failures.append(("split-uniqueness", profile, i, dh, j))
    ok = not failures
    _report(6, ok, f"{len(profiles)} polarized profiles (n<=5, r<=4), "
                   f"{split_count} next-to-maximal splits; degrees, delta, "
                   f"uniqueness, polygon drop and modified degrees all exact; "
                   f"failures={failures[:3]}")


def test_criterion_7_hasse_numbers():
    failures = []
    checked = 0
    p = 3
    while p <= 243:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            w = 1
            while p ** w <= 243:
                checked += 1
                if hasse_number(w, p) != p ** w - 1:
                    failures.append((p, w, "formula"))
                if hasse_number(w, p) != multiplicative_group_exponent(p, w):
                    failures.append((p, w, "exponent"))
                w += 1
        p += 2
    ok = not failures
    _report(7, ok, f"{checked} prime powers p^w <= 243: p^w - 1 equals the "
                   f"brute-force unit-group exponent; failures={failures}")


def test_criterion_8_verify_all_determinism():
    cmd = [sys.executable, "-m", "newtonkit.cli", "verify-all"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        runs.append(proc)
    identical = runs[0].stdout == runs[1].stdout
    both_ok = all(proc.returncode == 0 for proc in runs)
    payload = json.loads(runs[0].stdout)["payload"]
    ok = identical and both_ok and payload["all_pass"]
    _report(8, ok, f"two verify-all runs byte-identical ({len(runs[0].stdout)} bytes), "
                   f"{payload['total']} checks, failures={payload['failures']}")
