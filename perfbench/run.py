"""The newtonkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload {strata,points,oracles,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Prints, as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Results and traces are also written
under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import harness
from harness import BENCH, OUT, SRC

MODULES = {"strata": "wl_strata", "points": "wl_points", "oracles": "wl_oracles",
           "cli": "wl_cli"}
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import newtonkit.cli; "
                "print(repr(time.perf_counter() - t))")

COUNTS = ["linalg.solve_exact", "linalg.invert", "rootdata.fundamental_coweights",
          "rootdata.coroot_span_decomposition", "kottwitz.is_in_bgmu", "kottwitz.newton_leq",
          "muordinary.max_degree_bound", "oracles.weyl_orbit"]
SELF_MS = ["linalg.solve_exact", "linalg.det", "rootdata.build_datum", "rootdata.special_roots",
           "rootdata.coroot_span_decomposition", "rootdata.dominant_representative",
           "kottwitz.enumerate_bgmu", "kottwitz.maximal_elements", "muordinary.check_uniqueness",
           "hecke.m_epsilon_valuation", "oracles.grid_enumerate_bgmu",
           "oracles.convex_hull_membership", "oracles.coset_count_bruteforce",
           "oracles.multiplicative_group_exponent"]
# Inclusive time, where the work sits in callees (special_roots: highest_root,
# all_roots and one exact solve per root).
TOTAL_MS = ["rootdata.special_roots"]
CLI_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.run_ms")
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mib": "MiB"}


def load_program():
    """Import newtonkit from the checkout's src/, and nothing else."""
    if not (SRC / "newtonkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no newtonkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import newtonkit

    if not Path(newtonkit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: newtonkit imported from {newtonkit.__file__}")


def untraced(workload, module, seed, seconds):
    ops = module.ops(seed)
    if workload == "cli":
        probe = lambda: harness.wall_seconds(["-c", "import newtonkit.cli"])  # noqa: E731
    else:
        probe = lambda: harness.setup_probe_seconds(module.__name__, seed)  # noqa: E731
    setup = [probe()]

    def spread_probes(elapsed):
        """Set-up samples spread over the run, like the operations' samples."""
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(probe())

    m = harness.run_rounds(ops, seconds, module.MIN_ROUNDS, schedule(module, ops),
                           after_round=spread_probes)
    setup += [probe() for _ in range(SETUP_REPEATS - len(setup))]
    rss = harness.peak_rss_mib(resource.RUSAGE_CHILDREN if workload == "cli"
                               else resource.RUSAGE_SELF)
    metrics = harness.end_to_end(m)
    metrics.update(setup_s=statistics.median(setup), peak_rss_mib=rss)
    return m, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def schedule(module, ops):
    return module.schedule(ops) if hasattr(module, "schedule") else None


def traced(workload, module, seed, seconds):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_phase()
    run_ns = {}
    if workload == "cli":
        trace_file = OUT / "cli-trace.json"
        ops = tracer.run_op("setup", lambda: module.ops(
            seed, prefix=[sys.executable, str(BENCH / "cli_child.py")]), keep_spans=True)

        def call(op):
            try:
                return op.run()
            finally:
                doc = json.loads(trace_file.read_text(encoding="utf-8"))
                trace_file.unlink()
                tracer.absorb(doc, op.key, keep_spans=not rounds)
                run_ns.setdefault(op.key, []).append(doc["run_ns"])
    else:
        ops = tracer.run_op("setup", lambda: module.ops(seed), keep_spans=True)

        def call(op):
            return tracer.run_op(op.key, op.run, keep_spans=not rounds)

    setup = tracer.end_phase()
    rounds = []

    def after_round(_):
        rounds.append(tracer.end_phase())
        tracer.begin_phase()

    tracer.begin_phase()
    m = harness.run_rounds(ops, seconds, 1, schedule(module, ops), call=call,
                           after_round=after_round)
    tracer.end_phase()

    # per-layer times at reference speed, by the run's median reference time
    scale = harness.REF_SECONDS / statistics.median(m.references)
    metrics = layer_metrics(setup, rounds, scale)
    metrics["traced.ops_per_s"] = (harness.end_to_end(m)["ops_per_s"], "1/s")
    cli = dict.fromkeys(CLI_METRICS, 0.0)
    if workload == "cli":
        cli["cli.interpreter_ms"] = 1000 * statistics.median(
            harness.wall_seconds(["-c", "pass"]) for _ in range(SETUP_REPEATS))
        cli["cli.import_ms"] = 1000 * statistics.median(
            import_seconds() for _ in range(SETUP_REPEATS))
        per_op = sorted(statistics.median(v) * scale / 1e6 for v in run_ns.values())
        cli["cli.run_ms"] = per_op[harness.tail_index(len(per_op))]
    metrics.update({k: (v, "ms") for k, v in cli.items()})
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(tracer.spans_document()), encoding="utf-8")
    return m, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def import_seconds() -> float:
    """Importing newtonkit.cli, timed inside a fresh interpreter."""
    before = harness.reference_seconds()
    raw = float(harness.run_python(["-c", IMPORT_PROBE]))
    return harness.scaled(raw, before, harness.reference_seconds())


def layer_metrics(setup, rounds, scale=1.0):
    """Figures for one set-up plus one round: the set-up phase counted once,
    the round's figure the median over the traced rounds; times multiplied
    by scale."""
    def figure(pick):
        return pick(setup) + statistics.median(pick(r) for r in rounds)

    def calls(layer):
        return lambda phase: phase[0].get(layer, (0, 0, 0))[0]

    def ms(layer, field):
        return lambda phase: phase[0].get(layer, (0, 0, 0))[field] * scale / 1e6

    def counted(layer, parent=None):
        return lambda phase: sum(n for (name, p), n in phase[1].items()
                                 if name == layer and parent in (None, p))

    def reason(code):
        return lambda phase: phase[2].get(code, 0)

    out = {}
    for layer in COUNTS:
        out[f"{layer}.calls"] = (figure(calls(layer)), "count")
    for layer in SELF_MS:
        out[f"{layer}.self_ms"] = (figure(ms(layer, 1)), "ms")
    for layer in TOTAL_MS:
        out[f"{layer}.total_ms"] = (figure(ms(layer, 2)), "ms")
    out["rationals.dot.calls"] = (figure(counted("rationals.dot")), "count")
    out["oracles.grid_enumerate_bgmu.points_scanned"] = (
        figure(counted("rootdata.is_dominant", "oracles.grid_enumerate_bgmu")), "count")
    tested = out["kottwitz.is_in_bgmu.calls"][0]
    accepted = figure(reason("accepted"))
    out["kottwitz.is_in_bgmu.accept_ratio"] = (accepted / tested if tested else 0.0, "ratio")
    for code in checks.REASONS:
        out[f"kottwitz.is_in_bgmu.reject.{code}"] = (figure(reason(code)), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    OUT.mkdir(exist_ok=True)
    module = importlib.import_module(MODULES[args.workload])
    started = time.perf_counter()
    measure = traced if args.trace else untraced
    m, metrics = measure(args.workload, module, args.seed, args.seconds)
    ops = len(m.times_ns)
    result = {
        "correct": m.wrong == 0,
        "attempted": m.attempted,
        "failed": sum(m.failures),
        "metrics": metrics,
    }
    for note in m.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    slowdown = statistics.median(m.references) / harness.REF_SECONDS
    print(f"perfbench: {args.workload} seed {args.seed}: {m.rounds} rounds of {ops} "
          f"operations in {time.perf_counter() - started:.1f} s; tail percentile "
          f"p{harness.tail_percentile(ops):.1f}; reference loop at {slowdown:.2f}x "
          f"its nominal time", file=sys.stderr)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
