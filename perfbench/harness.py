"""Round loop, reference scaling, statistics and set-up probes.

Every workload is a closed loop with one caller: one process, one thread,
at most one child process at a time.  A run repeats whole rounds over the
same operations; garbage is collected before each round.  Each operation's
latency is the median of its samples over the run.

Every reported time is scaled to a fixed machine speed.  On a shared
two-core machine other tenants slow everything by up to 2x, for stretches
from seconds to several minutes, longer than a run: raw times of two sets
of ten runs then differ by 30% and the quartiles of one set by as much.
A fixed exact-arithmetic reference loop (reference_seconds) is timed at
least every PROBE_EVERY_S between operations, and each sample is scaled by
REF_SECONDS / r, with r the mean of the reference times just before and
just after it.  A slowdown of the whole machine lengthens r and the
sample alike; a change in newtonkit does not touch r.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# Start no round that would end past this point, so that a run on a loaded
# machine still ends well inside its three minutes.
HARD_LIMIT_S = 50.0
# The reference loop's duration on this machine while other tenants leave
# it idle; scaled times read close to raw ones then.
REF_SECONDS = 0.002
PROBE_EVERY_S = 0.1


class OpFailed(Exception):
    """An operation that did not complete: it raised, or its process crashed."""


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    # Returns None when the output is right, else what is wrong with it.
    check: Callable[[Any], str | None]


@dataclass
class Measurement:
    rounds: int
    attempted: int
    times_ns: list[list[float]]  # per operation, every scaled sample of the run
    failures: list[int]          # per operation: calls that failed
    notes: list[str]             # first few failures and wrong answers
    wrong: int = 0               # outputs the checks rejected
    references: list[float] = field(default_factory=list)  # reference times, s


def _reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return total


def reference_seconds() -> float:
    """Shortest of three runs of the reference loop, garbage collection off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A time measured between two reference times, at reference speed."""
    return seconds * REF_SECONDS / ((before + after) / 2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_rounds(ops: list[Op], seconds: float, min_rounds: int,
               schedule: list[int] | None = None,
               call: Callable[[Op], Any] | None = None,
               after_round: Callable[[float], None] | None = None) -> Measurement:
    """Repeat whole rounds until `seconds` have passed and `min_rounds` ran.

    A round calls ops[i] for each i of schedule (default: each op once).
    An operation fails when it raises; a failed operation's output is not
    checked.  call(op), when given, runs op in place of op.run().
    after_round gets the seconds elapsed since the first round began.
    """
    schedule = list(range(len(ops))) if schedule is None else schedule
    m = Measurement(0, 0, [[] for _ in ops], [0] * len(ops), [])
    pending: list[tuple[int, int]] = []   # (op, raw ns) since the last reference

    def note(message):
        if len(m.notes) < 5:
            m.notes.append(message)

    def reference():
        now = reference_seconds()
        for i, raw in pending:
            m.times_ns[i].append(scaled(raw, m.references[-1], now))
        pending.clear()
        m.references.append(now)
        return time.perf_counter()

    start = time.perf_counter()
    m.references.append(reference_seconds())
    last_reference = time.perf_counter()
    last = 0.0
    while m.rounds < min_rounds or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if m.rounds and elapsed + last > HARD_LIMIT_S:
            break
        gc.collect()
        round_start = time.perf_counter()
        for i in schedule:
            op = ops[i]
            t0 = time.perf_counter_ns()
            try:
                out = call(op) if call else op.run()
                ok = True
            except OpFailed:
                ok = False
            except Exception as exc:  # any raise is a failed operation
                ok = False
                note(f"{op.key}: raised {type(exc).__name__}: {exc}")
            pending.append((i, time.perf_counter_ns() - t0))
            m.attempted += 1
            if ok:
                message = op.check(out)
                if message:
                    m.wrong += 1
                    note(f"{op.key}: {message}")
            else:
                m.failures[i] += 1
            if time.perf_counter() - last_reference >= PROBE_EVERY_S:
                last_reference = reference()
        last_reference = reference()
        m.rounds += 1
        last = time.perf_counter() - round_start
        if after_round:
            after_round(time.perf_counter() - start)
    return m


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest rank with ten values beyond it."""
    if n < 40:
        raise ValueError(f"{n} operations per round: too few for a tail percentile")
    return n - 11


def tail_percentile(n: int) -> float:
    return 100.0 * (tail_index(n) + 1) / n


def end_to_end(m: Measurement) -> dict:
    """ops_per_s over the round made of each operation's median sample;
    median and tail of those per-operation latencies, a failed operation
    counting as infinitely slow."""
    typical_ms = [statistics.median(t) / 1e6 for t in m.times_ns]
    latencies = sorted(float("inf") if f else v for v, f in zip(typical_ms, m.failures))
    completed = sum(1 for f in m.failures if not f)
    return {
        "ops_per_s": completed / (sum(typical_ms) / 1000.0),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": latencies[tail_index(len(latencies))],
    }


def peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def setup_probe_seconds(workload_module: str, seed: int) -> float:
    """One set-up in a fresh interpreter (import newtonkit, build the
    inputs), scaled by the reference time the child measured after it."""
    cmd = [str(BENCH / "setup_probe.py"), workload_module, str(seed)]
    raw, reference = map(float, run_python(cmd).split())
    return scaled(raw, reference, reference)


def wall_seconds(argv: list[str]) -> float:
    """Wall time of a fresh interpreter running argv, from spawn to exit,
    scaled by reference times taken just before and after."""
    before = reference_seconds()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                   capture_output=True, timeout=60, check=True)
    raw = time.perf_counter() - t0
    return scaled(raw, before, reference_seconds())


def query_op(key: str, run, expect, same, args) -> Op:
    """An operation run(*args), checked by same(output, expect(*args)).

    The expectation is computed once, the first time it is needed, and
    outside the timed call.
    """
    cache = []

    def check(got):
        if not cache:
            cache.append(expect(*args))
        return None if same(got, cache[0]) else f"answer differs: {got!r}"[:300]

    return Op(key, lambda: run(*args), check)


def run_python(argv: list[str]) -> str:
    """Stdout of a fresh interpreter running argv."""
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True).stdout
