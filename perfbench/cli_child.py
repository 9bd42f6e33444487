"""``python -m newtonkit.cli`` with the benchmark's tracer installed.

Usage: python cli_child.py ARGV...   (src/ on PYTHONPATH)

Behaves like the command line (same stdout, stderr and exit code) and
writes the spans, self times and counts of its one run() call to
out/cli-trace.json beside this file.
"""

import json
import sys
import time

import newtonkit.cli

from harness import OUT
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.begin_phase()
start = time.perf_counter_ns()
try:
    code = tracer.run_op("cli", lambda: newtonkit.cli.run(sys.argv[1:]), keep_spans=True)
finally:
    run_ns = time.perf_counter_ns() - start
    stats, counts, reasons = tracer.end_phase()
    doc = {"run_ns": run_ns, "stats": stats, "reasons": reasons,
           "counts": [[layer, parent, n] for (layer, parent), n in counts.items()],
           "spans": tracer.kept["cli"]}
    (OUT / "cli-trace.json").write_text(json.dumps(doc), encoding="utf-8")
sys.exit(code)
