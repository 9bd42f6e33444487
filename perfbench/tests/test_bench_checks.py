"""The benchmark's own checks: each accepts the program's real answer and
rejects a planted wrong one.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import newtonkit as nk  # noqa: E402

import checks  # noqa: E402
import wl_cli  # noqa: E402
import wl_points  # noqa: E402
import wl_strata  # noqa: E402
from harness import query_op  # noqa: E402


def test_polygon_counter_small_cases():
    assert len(checks.type_a_points(1, 1)) == 2
    assert len(checks.type_a_points(2, 2)) == 3
    assert len(checks.type_c_points(2)) == 3
    assert len(checks.type_c_points(3)) == 5


def _strata_op(t, n, k):
    datum = nk.build_datum(t, n)
    mu = datum.cochar(nk.fundamental_coweights(datum)[k - 1])
    roots = datum.simple_roots
    expected = wl_strata.expectation(t, n, k, roots)
    return mu, (lambda out: wl_strata.check_stratification(t, roots, expected, out))


def test_strata_check_accepts_the_program():
    for case in [("A", 3, 2), ("C", 3, 3), ("B", 3, 1), ("D", 4, 4)]:
        mu, check = _strata_op(*case)
        assert check(wl_strata.stratify(mu)) is None, case


def test_strata_check_rejects_polygon_count_off_by_one():
    mu, check = _strata_op("A", 3, 2)
    ks, maximal = wl_strata.stratify(mu)
    bottom = min(ks.elements, key=lambda e: e.nu.coords)  # not the maximal one
    short = nk.KottwitzSet(ks.mu, ks.mubar, tuple(e for e in ks.elements if e is not bottom))
    assert len(short.elements) == len(ks.elements) - 1
    assert "polygon model" in check((short, maximal))


def test_strata_check_rejects_a_wrong_maximal_element():
    mu, check = _strata_op("C", 3, 3)
    ks, maximal = wl_strata.stratify(mu)
    top = next(e for e in ks.elements if e.nu.coords == ks.mubar.coords)
    assert "maximal set" in check((ks, {top}))


def _points_op(kind, args):
    return query_op(kind, *wl_points.KINDS[kind], args)


def test_points_check_rejects_a_flipped_order_answer():
    datum = nk.build_datum("C", 2)
    x0 = (Fraction(1, 2), Fraction(-1, 3))
    y0 = (Fraction(-1), Fraction(1, 2))
    op = _points_op("leq", ("C", datum, x0, y0))
    x, y, answer = op.run()
    assert op.check((x, y, answer)) is None
    assert op.check((x, y, not answer)) is not None


def test_points_check_rejects_a_flipped_membership_answer():
    datum = nk.build_datum("A", 3)
    mu = datum.cochar(nk.fundamental_coweights(datum)[1])
    op = _points_op("membership", ("A", datum, 2, mu))  # the top point is a member
    ok, cert = op.run()
    assert ok and op.check((ok, cert)) is None
    assert op.check((False, "nu is not dominant")) is not None


def test_order_criteria_agree_with_a_known_pair():
    roots = nk.build_datum("C", 2).simple_roots
    below, top = (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))
    assert checks.newton_leq("C", roots, below, top)
    assert not checks.newton_leq("C", roots, top, below)
    b_roots = nk.build_datum("B", 2).simple_roots  # solved, not by polygons
    assert checks.newton_leq("B", b_roots, below, top)
    assert not checks.newton_leq("B", b_roots, top, below)


def _cli(argv, code, spec):
    got = wl_cli.run_cli(argv)
    return got, (lambda out, first: wl_cli.check_output(argv, code, spec, out, first))


def test_cli_check_rejects_one_changed_byte_of_stdout():
    got, check = _cli(["hasse", "--w", "2", "--p", "3"], 0, ("hasse", 2, 3))
    returncode, stdout, stderr = got
    first = {}
    assert check(got, first) is None
    changed = stdout.replace("8", "9", 1)
    assert len(changed) == len(stdout) and changed != stdout
    assert check((returncode, changed, stderr), {}) is not None          # value check
    assert "differ" in check((returncode, changed, stderr), first)       # determinism


def test_cli_check_rejects_a_wrong_exit_code():
    got, check = _cli(["datum", "--type", "B", "--rank", "1"], 2, ("domain",))
    assert check(got, {}) is None
    assert "exit" in check((0,) + got[1:], {})
    usage, check = _cli(["frobnicate"], 1, ("usage",))
    assert check(usage, {}) is None
    assert "exit" in check((2,) + usage[1:], {})


def test_cli_table_output_parses_like_json():
    argv = ["degrees", "--profile", json.dumps({"slopes": ["1/1", "1/2", "0/1"],
                                                "mults": [1, 2, 1], "polarized": True})]
    plain = json.loads(wl_cli.run_cli(argv)[1])
    table = wl_cli.untable(wl_cli.run_cli(argv + ["--table"])[1])
    assert table == plain


def test_a_traceback_counts_as_a_crash():
    assert wl_cli.crashed(1, "Traceback (most recent call last):\n")
    assert not wl_cli.crashed(1, "usage error: no subcommand given\n")
    assert wl_cli.crashed(-9, "")


def test_reported_metrics_match_benchmark_json():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.UNITS.items())
    empty = ({}, {}, {})
    layers = run.layer_metrics(empty, [empty])
    layers.update({name: (0.0, "ms") for name in run.CLI_METRICS})
    layers["traced.ops_per_s"] = (0.0, "1/s")
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == \
        {(name, unit) for name, (_, unit) in layers.items()}
